"""Command-line pipeline: ingest -> induce -> nominalize -> sim, plus elicit.

stdout carries exactly one machine-readable JSON document per invocation;
all human diagnostics go to stderr.  Commands are idempotent on unchanged
inputs (byte-identical output).

Exit codes:
  0  success
  2  input data could not be parsed or violates an invariant
  3  the corpus asserts both polarities for some (property, concept) pair
  4  the completion provider failed
  5  configuration, flags, or paths are invalid
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from collections.abc import Mapping, Sequence

from . import __version__, jsonio
from .errors import ConfigError, ConsistencyError, InputDataError, SensekitError, _echo, _retries, _seconds

# Each command imports the layers it runs when it runs, so `sensekit ingest`
# never loads the hierarchy, semantics, similarity or elicitation modules.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .corpus import AssertionSet
    from .semantics import PrimitiveRelation

_EXIT_CODES_HELP = (
    "exit codes: 0 success, 2 input data error, 3 inconsistent corpus, "
    "4 provider failure, 5 configuration error"
)

DEFAULT_CONFIG_FILE = "sensekit.json"
_WARNINGS_SHOWN = 20  # elicit's warning lines before the count of the rest


class _UsageError(ConfigError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; bad flags are a configuration
    # problem here, so route them through the exit-code table instead.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(f"{self.prog}: {message}")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="sensekit",
        description=(
            "Induce concept hierarchies from sensibility assertions, nominalize "
            "them into primitive-relation triples, and compare word senses."
        ),
        epilog=_EXIT_CODES_HELP,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")

    common = _Parser(add_help=False)
    common.add_argument(
        "--config",
        metavar="FILE",
        default=None,
        help=f"workspace config JSON (default: ./{DEFAULT_CONFIG_FILE} when present)",
    )
    common.add_argument(
        "--seed",
        type=int,
        default=None,
        help="reserved for forward compatibility; accepted and ignored",
    )

    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def command(name: str, summary: str) -> _Parser:
        """A subcommand that takes --config and --seed and lists the exit codes."""
        return sub.add_parser(name, parents=[common], help=summary, epilog=_EXIT_CODES_HELP)

    p = command("ingest", "parse a corpus, check consistency, emit normalized JSON")
    p.add_argument("corpus", metavar="CORPUS-FILE", help="corpus text file")
    p.add_argument("-o", "--out", metavar="FILE", default=None, help="also write the JSON here")

    p = command("induce", "induce the type hierarchy and emit ontology JSON")
    p.add_argument(
        "corpus",
        metavar="CORPUS-FILE",
        nargs="?",
        default=None,
        help="corpus text or normalized corpus JSON (default: config 'corpus')",
    )
    p.add_argument("--tau", type=float, default=None, help="inclusion tolerance in [0, 1] (default 0)")
    p.add_argument("--labels", metavar="FILE", default=None, help="JSON map property token -> type name")
    p.add_argument("--dot", metavar="FILE", default=None, help="also write a DOT rendering here")
    p.add_argument("-o", "--out", metavar="FILE", default=None, help="also write the ontology JSON here")

    p = command("nominalize", "emit primitive-relation triples for all sensible assertions")
    p.add_argument("corpus", metavar="CORPUS-FILE", nargs="?", default=None)
    p.add_argument("--lexicon", metavar="FILE", default=None, help="nominalization lexicon JSON")

    p = command("sim", "similarity report for two senses from the meaning store")
    p.add_argument("sense_a", metavar="SENSE-A")
    p.add_argument("sense_b", metavar="SENSE-B")
    p.add_argument("--store", dest="meaning_store", metavar="FILE", help="meaning-store JSON file")
    p.add_argument("--dims", type=_comma_list, help="comma-separated dimension names")
    p.add_argument(
        "--dim-weights",
        dest="weights",
        metavar="DIM_WEIGHTS",
        default=None,
        help="comma-separated weights matching --dims (default: all equal)",
    )

    p = command("elicit", "draft a meaning record and assertions from a completion provider")
    p.add_argument("--subject", required=True, help="concept to elicit for (e.g. book)")
    p.add_argument(
        "--dims",
        type=_comma_list,
        default="hasProp,agentOf,objectOf",
        help="comma-separated dimensions",
    )
    p.add_argument("-n", type=int, default=25, help="completions to request per dimension")
    p.add_argument("--provider", choices=("mock", "remote"), default="mock")
    p.add_argument("--fixtures", metavar="FILE", default=None, help="mock fixture JSON (default: shipped)")
    p.add_argument(
        "--templates",
        choices=("book-fixture", "default"),  # sorted(TEMPLATE_SETS); a test keeps them equal
        default="default",
        help="template set to render prompts with",
    )
    p.add_argument("--endpoint", default=None, help="remote provider URL")
    p.add_argument("--timeout", type=float, default=None, help="remote request timeout in seconds")
    p.add_argument("--retries", type=int, default=None, help="remote retry budget")

    return parser


def _write_text(path: str, text: str, what: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {what} {path}: {exc}") from exc
    # open() rejects a path with an embedded NUL, and UTF-8 cannot hold a lone
    # surrogate (a label map may carry one); both are ValueErrors.
    except ValueError as exc:
        raise ConfigError(f"cannot write {what} {path!r}: {exc}") from exc


# --- settings ---------------------------------------------------------------------
# Every config value, and every flag that stands in for one, is checked here
# once.  A check takes the name to report and the raw value, and returns the
# value to use or raises ConfigError; the handlers only read checked values.
# The provider's timeout and retries use the checks RemoteProvider uses.


def _comma_list(text: str) -> list[str]:
    return text.split(",")


def _path(name: str, value) -> str:
    # open() raises ValueError, not OSError, on an embedded NUL.
    if not isinstance(value, str) or "\0" in value:
        raise ConfigError(f"{name} must be a file path, got {_echo(value)}")
    return value


def _text(name: str, value) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a string, got {_echo(value)}")
    return value


def _number(name: str, value) -> float:
    # bool is an int subclass, and float() of a huge int overflows; keep its sign.
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            return math.inf if value > 0 else -math.inf
    raise ConfigError(f"{name} must be a number, got {_echo(value)}")


def _relations(name: str, names) -> tuple[PrimitiveRelation, ...]:
    from .semantics import resolve_relation

    relations: list[PrimitiveRelation] = []
    for dim in names:
        try:
            relation = resolve_relation(dim)
        except InputDataError as exc:
            raise ConfigError(f"{name}: {exc}") from exc
        if relation in relations:
            raise ConfigError(f"{name} names dimension {relation.value} twice")
        relations.append(relation)
    return tuple(relations)


def _dims(name: str, value) -> tuple[PrimitiveRelation, ...]:
    if not isinstance(value, list) or not all(isinstance(dim, str) for dim in value):
        raise ConfigError(f"{name} must be a list of dimension names, got {_echo(value)}")
    names = [dim.strip() for dim in ",".join(value).split(",") if dim.strip()]
    if not names:
        raise ConfigError(f"{name}: dimension list is empty")
    return _relations(name, names)


def _dim_weights(name: str, value) -> dict[PrimitiveRelation, float]:
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must map dimension names to numbers, got {_echo(value)}")
    weights = (_number(f"{name}[{_echo(dim)}]", weight) for dim, weight in value.items())
    return dict(zip(_relations(name, value), weights))


#: One check per workspace config key; "provider.x" is key x of "provider".
_CHECKS = {
    "corpus": _path,
    "lexicon": _path,
    "meaning_store": _path,
    "tau": _number,
    "dims": _dims,
    "dim_weights": _dim_weights,
    "provider.endpoint": _text,
    "provider.auth_env": _text,
    "provider.timeout": _seconds,
    "provider.retries": _retries,
}


def _load_config(path: str | None) -> dict:
    """The checked values of the known keys; unknown keys are ignored."""
    if path is None:
        if not os.path.exists(DEFAULT_CONFIG_FILE):
            return {}
        path = DEFAULT_CONFIG_FILE
    try:
        data = jsonio.loads(jsonio.read_text(path, "config"), what=f"config {path}")
    except InputDataError as exc:
        raise ConfigError(str(exc)) from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path}: expected a JSON object")
    sections = {"": data, "provider": data.get("provider", {})}
    if not isinstance(sections["provider"], dict):
        raise ConfigError(f"config 'provider' must be an object, got {_echo(sections['provider'])}")
    settings = {}
    for key, check in _CHECKS.items():
        section, _, field = key.rpartition(".")
        if field in sections[section]:
            settings[key] = check(f"config {key!r}", sections[section][field])
    return settings


def _weights_for(dims: tuple[PrimitiveRelation, ...], csv: str | None) -> dict:
    if not csv:
        return dict.fromkeys(dims, 1.0)
    values = [v.strip() for v in csv.split(",") if v.strip()]
    if len(values) != len(dims):
        raise ConfigError(f"--dim-weights has {len(values)} value(s) for {len(dims)} dimension(s)")
    weights = {}
    for d, v in zip(dims, values):
        try:
            weights[d] = float(v)
        except ValueError as exc:  # float()'s message would repeat all of v
            raise ConfigError(f"bad --dim-weights: could not convert string to float: {_echo(v)}") from exc
    return weights


def _settings(args: argparse.Namespace) -> dict:
    """The checked workspace config with every given flag in place of its key."""
    settings = _load_config(args.config)
    for key, check in _CHECKS.items():
        flag = key.rpartition(".")[2]  # the dest of the flag that stands in for key
        value = getattr(args, flag, None)
        if value is not None:
            settings[key] = check(f"--{flag}", value)
    # Chosen dims (flag or config) are weighted by --dim-weights, all equal by
    # default; config 'dim_weights' applies only when no dims are chosen.
    weights = getattr(args, "weights", None)
    if "dims" in settings:
        settings["dim_weights"] = _weights_for(settings["dims"], weights)
    elif weights is not None:
        raise ConfigError("--dim-weights given without dimensions (--dims or config 'dims')")
    return settings


def _required(settings: dict, key: str, flag: str):
    """The flag, else the config value, else ConfigError."""
    value = settings.get(key)
    if not value:
        raise ConfigError(f"no {key} given ({flag} or config {key!r})")
    return value


def _given(settings: dict, *keys: str) -> dict:
    """Keyword arguments for the keys that are set, so unset ones keep the callee's defaults."""
    return {key.rpartition(".")[2]: settings[key] for key in keys if key in settings}


def _load_corpus(path: str) -> AssertionSet:
    from .corpus import corpus_from_json_text, parse_corpus

    text = jsonio.read_text(path, "corpus")
    if text.lstrip().startswith("{"):
        return corpus_from_json_text(text)
    return parse_corpus(text)


def _emit(text: str) -> None:
    """Write the one JSON document to stdout; a stdout that cannot take it is a ConfigError."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except (OSError, UnicodeEncodeError) as exc:
        if isinstance(exc, OSError):  # drop the bytes kept, or the shutdown flush fails (exit 120)
            with contextlib.suppress(OSError, ValueError):  # a StringIO has no fileno
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise ConfigError(f"cannot write output: {exc}") from exc


def _cmd_ingest(args, settings: dict) -> int:
    from .corpus import (
        check_consistency,
        conflict_line_numbers,
        corpus_to_json_text,
        parse_corpus,
        scan_corpus,
    )

    text = jsonio.read_text(args.corpus, "corpus")
    aset = parse_corpus(text)
    conflicts = check_consistency(aset)
    if conflicts:
        lines = conflict_line_numbers(scan_corpus(text))  # scanned again, on this path only
        payload = []
        for prop, concept in conflicts:
            first, second = lines[(prop, concept)]
            print(
                f"conflict: ({prop.token}, {concept.name}) asserted with both "
                f"polarities on lines {first} and {second}",
                file=sys.stderr,
            )
            payload.append(
                {
                    "prop": prop.name,
                    "arity": prop.arity,
                    "position": prop.position,
                    "concept": concept.name,
                    "lines": [first, second],
                }
            )
        _emit(jsonio.dumps({"conflicts": payload}))
        return ConsistencyError.exit_code
    out = corpus_to_json_text(aset)
    if args.out:
        _write_text(args.out, out, "normalized corpus")
    _emit(out)
    return 0


def _cmd_induce(args, settings: dict) -> int:
    from .hierarchy import InduceConfig, dag_to_json_text, export_dot, induce

    aset = _load_corpus(_required(settings, "corpus", "CORPUS-FILE"))
    labels: Mapping[str, str] | None = None
    if args.labels:
        text = jsonio.read_text(args.labels, "label map")
        raw = jsonio.loads(text, what=f"label map {args.labels}")
        if not isinstance(raw, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in raw.items()
        ):
            raise InputDataError(f"label map {args.labels}: expected a string-to-string object")
        labels = raw
    dag = induce(aset, InduceConfig(**_given(settings, "tau")))
    for message in dag.diagnostics:
        print(f"diagnostic: {message}", file=sys.stderr)
    out = dag_to_json_text(dag)
    if args.dot:
        _write_text(args.dot, export_dot(dag, labels), "DOT file")
    if args.out:
        _write_text(args.out, out, "ontology JSON")
    _emit(out)
    return 0


def _cmd_nominalize(args, settings: dict) -> int:
    from .semantics import load_lexicon, nominalize_assertion

    aset = _load_corpus(_required(settings, "corpus", "CORPUS-FILE"))
    lexicon_path = _required(settings, "lexicon", "--lexicon")
    lexicon = load_lexicon(lexicon_path)
    sensible = [a for a in aset.assertions if a.is_sensible]
    # Report every missing unary entry at once, not just the first one
    # nominalize_assertion would raise for.
    unary = {a.property.name for a in sensible if a.property.arity == 1}
    missing = sorted(unary - lexicon.entries.keys())
    if missing:
        raise InputDataError(f"lexicon {lexicon_path} lacks entries for: {_echo(missing)}")
    triples = [nominalize_assertion(a, lexicon) for a in sensible]
    _emit(jsonio.dumps({"triples": [t.to_json() for t in triples]}))
    return 0


def _cmd_sim(args, settings: dict) -> int:
    from .semantics import load_meanings
    from .similarity import concept_similarity

    records = {r.sense: r for r in load_meanings(_required(settings, "meaning_store", "--store"))}
    for sense in (args.sense_a, args.sense_b):
        if sense not in records:
            raise InputDataError(f"sense {_echo(sense)} not in store (available: {_echo(sorted(records))})")
    report = concept_similarity(
        records[args.sense_a], records[args.sense_b], settings.get("dim_weights") or None
    )
    _emit(report.to_json_text())
    return 0


def _cmd_elicit(args, settings: dict) -> int:
    if args.n < 1:
        raise ConfigError(f"-n must be >= 1, got {_echo(args.n)}")
    from .corpus import ConceptId, corpus_to_json
    from .elicitation import TEMPLATE_SETS, MockProvider, RemoteProvider, elicit
    from .semantics import meaning_record_to_json

    if args.provider == "mock":
        provider = MockProvider.from_file(args.fixtures)
    else:
        endpoint = _required(settings, "provider.endpoint", "--endpoint")
        options = _given(settings, "provider.auth_env", "provider.timeout", "provider.retries")
        provider = RemoteProvider(endpoint, **options)
    try:
        ConceptId(args.subject)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    result = elicit(provider, args.subject, settings["dims"], args.n, TEMPLATE_SETS[args.templates])
    for dimension, reason in result.failures.items():
        print(f"dimension {dimension.value} failed: {reason}", file=sys.stderr)
    for warning in result.warnings[:_WARNINGS_SHOWN]:
        print(f"warning: {warning}", file=sys.stderr)
    unshown = len(result.warnings) - _WARNINGS_SHOWN
    if unshown > 0:
        print(f"warning: {unshown} more unusable completion(s) not shown", file=sys.stderr)
    _emit(
        jsonio.dumps(
            {
                "record": meaning_record_to_json(result.record),
                "assertions": corpus_to_json(result.assertions),
                "failures": {d.value: msg for d, msg in result.failures.items()},
            }
        )
    )
    return 0


_HANDLERS = {
    "ingest": _cmd_ingest,
    "induce": _cmd_induce,
    "nominalize": _cmd_nominalize,
    "sim": _cmd_sim,
    "elicit": _cmd_elicit,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_help(sys.stderr)
            return ConfigError.exit_code
        return _HANDLERS[args.command](args, _settings(args))
    except SensekitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
