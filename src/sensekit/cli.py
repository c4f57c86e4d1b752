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
import math
import os
import sys
from typing import Mapping, Sequence

from . import __version__, jsonio
from .corpus import (
    AssertionSet,
    check_consistency,
    conflict_line_numbers,
    corpus_from_json_text,
    corpus_to_json,
    corpus_to_json_text,
    scan_corpus,
)
from .elicitation import (
    MockProvider,
    RemoteProvider,
    TEMPLATE_SETS,
    elicit,
)
from .errors import (
    ConfigError,
    ConsistencyError,
    InputDataError,
    ProviderError,
    SensekitError,
)
from .hierarchy import InduceConfig, dag_to_json_text, export_dot, induce
from .semantics import (
    load_lexicon,
    load_meanings,
    meaning_record_to_json,
    nominalize_assertion,
    resolve_relation,
)
from .similarity import concept_similarity

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CONSISTENCY = 3
EXIT_PROVIDER = 4
EXIT_CONFIG = 5

_EXIT_CODES_HELP = (
    "exit codes: 0 success, 2 input data error, 3 inconsistent corpus, "
    "4 provider failure, 5 configuration error"
)

DEFAULT_CONFIG_FILE = "sensekit.json"


class _UsageError(Exception):
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

    p = sub.add_parser(
        "ingest",
        parents=[common],
        help="parse a corpus, check consistency, emit normalized JSON",
        epilog=_EXIT_CODES_HELP,
    )
    p.add_argument("corpus", metavar="CORPUS-FILE", help="corpus text file")
    p.add_argument("-o", "--out", metavar="FILE", default=None, help="also write the JSON here")

    p = sub.add_parser(
        "induce",
        parents=[common],
        help="induce the type hierarchy and emit ontology JSON",
        epilog=_EXIT_CODES_HELP,
    )
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

    p = sub.add_parser(
        "nominalize",
        parents=[common],
        help="emit primitive-relation triples for all sensible assertions",
        epilog=_EXIT_CODES_HELP,
    )
    p.add_argument("corpus", metavar="CORPUS-FILE", nargs="?", default=None)
    p.add_argument("--lexicon", metavar="FILE", default=None, help="nominalization lexicon JSON")

    p = sub.add_parser(
        "sim",
        parents=[common],
        help="similarity report for two senses from the meaning store",
        epilog=_EXIT_CODES_HELP,
    )
    p.add_argument("sense_a", metavar="SENSE-A")
    p.add_argument("sense_b", metavar="SENSE-B")
    p.add_argument("--store", metavar="FILE", default=None, help="meaning-store JSON file")
    p.add_argument("--dims", default=None, help="comma-separated dimension names")
    p.add_argument(
        "--dim-weights",
        default=None,
        help="comma-separated weights matching --dims (default: all equal)",
    )

    p = sub.add_parser(
        "elicit",
        parents=[common],
        help="draft a meaning record and assertions from a completion provider",
        epilog=_EXIT_CODES_HELP,
    )
    p.add_argument("--subject", required=True, help="concept to elicit for (e.g. book)")
    p.add_argument("--dims", default="hasProp,agentOf,objectOf", help="comma-separated dimensions")
    p.add_argument("-n", type=int, default=25, help="completions to request per dimension")
    p.add_argument("--provider", choices=("mock", "remote"), default="mock")
    p.add_argument("--fixtures", metavar="FILE", default=None, help="mock fixture JSON (default: shipped)")
    p.add_argument(
        "--templates",
        choices=tuple(sorted(TEMPLATE_SETS)),
        default="default",
        help="template set to render prompts with",
    )
    p.add_argument("--endpoint", default=None, help="remote provider URL")
    p.add_argument("--timeout", type=float, default=None, help="remote request timeout in seconds")
    p.add_argument("--retries", type=int, default=None, help="remote retry budget")

    return parser


def _load_config(path: str | None) -> dict:
    if path is None:
        if not os.path.exists(DEFAULT_CONFIG_FILE):
            return {}
        path = DEFAULT_CONFIG_FILE
    try:
        data = jsonio.loads(_read_text(path, "config"), what=f"config {path}")
    except InputDataError as exc:
        raise ConfigError(str(exc)) from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path}: expected a JSON object")
    return data


def _read_text(path: str, what: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputDataError(f"{what} {path} is not UTF-8: {exc}") from exc


def _write_text(path: str, text: str, what: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {what} {path}: {exc}") from exc


def _corpus_path(args, cfg: dict) -> str:
    path = args.corpus or cfg.get("corpus")
    if not path:
        raise ConfigError("no corpus file given (argument or config 'corpus')")
    return path


def _load_corpus(path: str) -> AssertionSet:
    text = _read_text(path, "corpus")
    if text.lstrip().startswith("{"):
        return corpus_from_json_text(text)
    return AssertionSet(tuple(a for _, a in scan_corpus(text)))


def _parse_dims(csv: str) -> list:
    names = [name.strip() for name in csv.split(",") if name.strip()]
    if not names:
        raise ConfigError("dimension list is empty")
    try:
        return [resolve_relation(name) for name in names]
    except InputDataError as exc:
        raise ConfigError(str(exc)) from exc


def _emit(text: str) -> None:
    sys.stdout.write(text)


def _cmd_ingest(args, cfg: dict) -> int:
    text = _read_text(args.corpus, "corpus")
    scanned = scan_corpus(text)
    aset = AssertionSet(tuple(a for _, a in scanned))
    conflicts = check_consistency(aset)
    if conflicts:
        lines = conflict_line_numbers(scanned)
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
        return EXIT_CONSISTENCY
    out = corpus_to_json_text(aset)
    if args.out:
        _write_text(args.out, out, "normalized corpus")
    _emit(out)
    return EXIT_OK


def _config_tau(cfg: dict) -> float:
    value = cfg.get("tau", 0.0)
    # bool is an int subclass, and float() of a huge int overflows.
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            tau = float(value)
        except OverflowError:
            tau = math.inf
        if math.isfinite(tau):
            return tau
    raise ConfigError(f"config 'tau' must be a finite number, got {value!r}")


def _cmd_induce(args, cfg: dict) -> int:
    aset = _load_corpus(_corpus_path(args, cfg))
    tau = args.tau if args.tau is not None else _config_tau(cfg)
    labels: Mapping[str, str] | None = None
    if args.labels:
        raw = jsonio.loads(_read_text(args.labels, "label map"), what=f"label map {args.labels}")
        if not isinstance(raw, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in raw.items()
        ):
            raise InputDataError(f"label map {args.labels}: expected a string-to-string object")
        labels = raw
    dag = induce(aset, InduceConfig(tau=tau))
    for message in dag.diagnostics:
        print(f"diagnostic: {message}", file=sys.stderr)
    out = dag_to_json_text(dag)
    if args.dot:
        _write_text(args.dot, export_dot(dag, labels), "DOT file")
    if args.out:
        _write_text(args.out, out, "ontology JSON")
    _emit(out)
    return EXIT_OK


def _cmd_nominalize(args, cfg: dict) -> int:
    aset = _load_corpus(_corpus_path(args, cfg))
    lexicon_path = args.lexicon or cfg.get("lexicon")
    if not lexicon_path:
        raise ConfigError("no lexicon file given (--lexicon or config 'lexicon')")
    lexicon = load_lexicon(lexicon_path)
    triples = []
    missing: list[str] = []
    for assertion in aset.assertions:
        if not assertion.is_sensible:
            continue
        if assertion.property.arity == 1 and lexicon.get(assertion.property.name) is None:
            if assertion.property.name not in missing:
                missing.append(assertion.property.name)
            continue
        triples.append(nominalize_assertion(assertion, lexicon))
    if missing:
        for name in missing:
            print(f"missing lexicon entry: {name}", file=sys.stderr)
        raise InputDataError(
            f"lexicon {lexicon_path} lacks entries for: {', '.join(missing)}"
        )
    _emit(jsonio.dumps({"triples": [t.to_json() for t in triples]}))
    return EXIT_OK


def _cmd_sim(args, cfg: dict) -> int:
    store_path = args.store or cfg.get("meaning_store")
    if not store_path:
        raise ConfigError("no meaning store given (--store or config 'meaning_store')")
    if not os.path.exists(store_path):
        raise ConfigError(f"meaning store {store_path} does not exist")
    records = {r.sense: r for r in load_meanings(store_path)}
    for sense in (args.sense_a, args.sense_b):
        if sense not in records:
            known = ", ".join(sorted(records)) or "(none)"
            raise InputDataError(f"sense {sense!r} not in store (available: {known})")

    dims_csv = args.dims or (",".join(cfg["dims"]) if cfg.get("dims") else None)
    weights = None
    if dims_csv:
        dims = _parse_dims(dims_csv)
        if args.dim_weights:
            values = [v.strip() for v in args.dim_weights.split(",") if v.strip()]
            if len(values) != len(dims):
                raise ConfigError(
                    f"--dim-weights has {len(values)} value(s) for {len(dims)} dimension(s)"
                )
            try:
                weights = {d: float(v) for d, v in zip(dims, values)}
            except ValueError as exc:
                raise ConfigError(f"bad --dim-weights: {exc}") from exc
        else:
            weights = {d: 1.0 for d in dims}
    elif cfg.get("dim_weights"):
        try:
            weights = {resolve_relation(k): float(v) for k, v in cfg["dim_weights"].items()}
        except (InputDataError, ValueError, AttributeError) as exc:
            raise ConfigError(f"config 'dim_weights': {exc}") from exc

    report = concept_similarity(records[args.sense_a], records[args.sense_b], weights)
    _emit(report.to_json_text())
    return EXIT_OK


def _cmd_elicit(args, cfg: dict) -> int:
    if args.n < 1:
        raise ConfigError(f"-n must be >= 1, got {args.n}")
    dims = _parse_dims(args.dims)
    provider_cfg = cfg.get("provider") or {}
    if args.provider == "mock":
        provider = MockProvider.from_file(args.fixtures)
    else:
        endpoint = args.endpoint or provider_cfg.get("endpoint")
        if not endpoint:
            raise ConfigError("remote provider needs --endpoint or config provider.endpoint")
        provider = RemoteProvider(
            endpoint=endpoint,
            auth_env=provider_cfg.get("auth_env", "SENSEKIT_PROVIDER_TOKEN"),
            timeout=args.timeout if args.timeout is not None else provider_cfg.get("timeout", 10.0),
            retries=args.retries if args.retries is not None else provider_cfg.get("retries", 2),
        )
    try:
        result = elicit(
            provider,
            args.subject,
            dims,
            args.n,
            TEMPLATE_SETS[args.templates],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for dimension, reason in result.failures.items():
        print(f"dimension {dimension.value} failed: {reason}", file=sys.stderr)
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    _emit(
        jsonio.dumps(
            {
                "record": meaning_record_to_json(result.record),
                "assertions": corpus_to_json(result.assertions),
                "failures": {d.value: msg for d, msg in result.failures.items()},
            }
        )
    )
    return EXIT_OK


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
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if not getattr(args, "command", None):
        parser.print_help(sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = _load_config(args.config)
        return _HANDLERS[args.command](args, cfg)
    except ConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONSISTENCY
    except ProviderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROVIDER
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InputDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    # Library loaders (lexicon, meaning store, mock fixtures) open their
    # files themselves; the CLI's own reads go through _read_text.
    except UnicodeDecodeError as exc:
        print(f"error: input is not UTF-8: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SensekitError as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
