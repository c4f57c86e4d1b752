"""Sensibility-assertion corpus: data model, line parser, and extents.

An assertion records a judgment that a property can (or cannot) sensibly be
predicated of a concept: "delicious apple" is sensible, "delicious thursday"
is not.  Truth is irrelevant at this layer; only predicability is recorded.

Corpus line format (UTF-8, one fact per line):

    + DELICIOUS apple          sensible unary fact
    - DELICIOUS thursday       nonsensical unary fact
    + RIDE(human, bike)        sensible binary fact; expands to two positional
                               facts RIDE@agent human and RIDE@object bike
    + RIDE@object bike         positional fact written directly
    # comment                  '#' starts a comment at start of line or after
                               whitespace ('book#1' stays a sense suffix)

Binary facts are decomposed into positional pseudo-properties (REL@agent,
REL@object) so that every downstream computation works over monadic
applicability facts.  The pairing of the two argument positions is not
retained; serialization always emits positional lines.

Absence of an assertion means "unknown", which extent() treats as
"not sensible" (closed-world reading).
"""

from __future__ import annotations

import gc
import re
from collections.abc import Iterable
from functools import cached_property, wraps
from json.encoder import encode_basestring as _encode  # the encoder jsonio.dumps uses
from operator import attrgetter, itemgetter

from . import jsonio
from .errors import CorpusSyntaxError, InputDataError, _echo

SENSIBLE = "sensible"
NONSENSICAL = "nonsensical"

AGENT = "agent"
OBJECT = "object"

# Token grammars, for fullmatch: "$" would accept a trailing "\n".
_CONCEPT_RE = re.compile(r"[a-z][a-z0-9_-]*(?:#[1-9][0-9]*)?")
_PROPERTY_RE = re.compile(r"[A-Z][A-Z0-9_-]*")
_PROPERTY_TOKEN_RE = re.compile(r"[A-Z][A-Z0-9_-]*(?:@(?:agent|object))?")  # a unary line's 2nd field

_BINARY_LINE_RE = re.compile(r"^([+-])\s+([A-Z][A-Z0-9_-]*)\(\s*([^,()\s]+)\s*,\s*([^,()\s]+)\s*\)$")
_COMMENT_RE = re.compile(r"(?:^|(?<=\s))#")  # for str patterns, \s is str.isspace

_setattr = object.__setattr__  # one global read per field, not a lookup on object


def _gc_paused(build):
    """build, run with the cyclic collector off.  At any exit the collector is
    turned back on only if it was on, so a nested call runs plain."""
    # These builders make many containers and no reference cycle, so every
    # collection they would trigger scans live data and frees nothing.
    @wraps(build)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return build(*args, **kwargs)
        gc.disable()
        try:
            return build(*args, **kwargs)
        finally:
            gc.enable()
    return paused


_BAD_POLARITY = "polarity must be sensible/nonsensical, got {}"
_BAD_ARITY = "arity must be 1 or 2, got {}"


class Value:
    """Base of the immutable model types: an instance is the tuple of its fields.

    The fields are the names a subclass annotates, in order (the annotations
    type __init__'s parameters too), and its __init__ sets them with
    object.__setattr__ (bound once, as _setattr), which keeps CPython's
    inline attribute values; writing through self.__dict__ would build a
    real dict and make every later attribute read about three times slower.
    Equality (within one class), hash and repr go field by field, and
    assigning or deleting an attribute raises AttributeError.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = names = tuple(cls.__dict__.get("__annotations__", cls._fields))
        cls._values = attrgetter(*names)  # the tuple of the fields, or the one field's value

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class ConceptId(Value):
    """A noun or noun-sense token such as ``apple`` or ``book#1``."""

    name: str

    def __init__(self, name) -> None:
        if not isinstance(name, str) or not _CONCEPT_RE.fullmatch(name):
            raise ValueError(f"invalid concept id {_echo(name)}: expected a lowercase token "
                             "with an optional #k sense suffix (k >= 1)")
        _setattr(self, "name", name)

    @property
    def base(self) -> str:
        """Surface form without the ``#k`` sense suffix."""
        return self.name.split("#", 1)[0]

    @property
    def sense(self) -> int | None:
        if "#" in self.name:
            return int(self.name.split("#", 1)[1])
        return None

    def __str__(self) -> str:
        return self.name


class PropertyKey(Value):
    """An applicability-property key.

    Unary properties (DELICIOUS) have arity 1 and no position.  Binary
    relations (RIDE) are represented by two positional pseudo-properties of
    arity 2: RIDE@agent constrains the agent slot, RIDE@object the object
    slot.
    """

    name: str
    arity: int
    position: str | None

    def __init__(self, name, arity=1, position=None) -> None:
        if not isinstance(name, str) or not _PROPERTY_RE.fullmatch(name):
            raise ValueError(f"invalid property name {_echo(name)}: expected an uppercase token")
        if type(arity) is not int or arity not in (1, 2):  # True and 1.0 equal 1
            raise ValueError(_BAD_ARITY.format(_echo(arity)))
        if arity == 1:
            if position is not None:
                raise ValueError("arity-1 properties take no position")
        elif position not in (AGENT, OBJECT):
            raise ValueError(f"arity-2 properties need position 'agent' or 'object', got {_echo(position)}")
        _setattr(self, "name", name)
        _setattr(self, "arity", arity)
        _setattr(self, "position", position)

    @property
    def token(self) -> str:
        """Display form: ``DELICIOUS`` or ``RIDE@object``."""
        if self.arity == 1:
            return self.name
        return f"{self.name}@{self.position}"

    @classmethod
    def from_token(cls, token: str) -> "PropertyKey":
        if "@" in token:
            name, _, position = token.partition("@")
            return cls(name, arity=2, position=position)
        return cls(token)

    def __str__(self) -> str:
        return self.token


class Assertion(Value):
    """A polarity-tagged applicability fact between a property and a concept."""

    property: PropertyKey
    concept: ConceptId
    polarity: str

    def __init__(self, property, concept, polarity) -> None:
        if polarity not in (SENSIBLE, NONSENSICAL):
            raise ValueError(_BAD_POLARITY.format(_echo(polarity)))
        _setattr(self, "property", property)
        _setattr(self, "concept", concept)
        _setattr(self, "polarity", polarity)

    @property
    def is_sensible(self) -> bool:
        return self.polarity == SENSIBLE


class AssertionSet(Value):
    """A normalized collection of assertions, stored one property at a time.

    Equal corpora compare equal regardless of input order and repeats, and
    conflicting polarities are kept for check_consistency().  _runs maps
    (property name, position or "") to (PropertyKey, sensible concept names,
    nonsensical concept names), all sorted; .assertions is built on first use.
    """

    assertions: tuple[Assertion, ...]
    concepts: frozenset[ConceptId]  # derived, not an argument

    @_gc_paused
    def __init__(self, assertions) -> None:
        groups: dict[int, tuple] = {}  # by id(property), so no Value.__hash__ runs per fact
        for a in assertions:
            group = groups.get(id(a.property)) or groups.setdefault(id(a.property), (a.property, {}, {}))
            group[1 if a.polarity == SENSIBLE else 2][a.concept.name] = a.concept
        self._store(*_runs_of(groups.values()))

    def _store(self, runs: dict, concept_ids: dict[str, ConceptId]) -> AssertionSet:
        _setattr(self, "_runs", runs)
        _setattr(self, "_concept_ids", concept_ids)
        _setattr(self, "concepts", frozenset(concept_ids.values()))
        return self

    @cached_property
    @_gc_paused
    def assertions(self) -> tuple[Assertion, ...]:
        ids = self._concept_ids
        return tuple(Assertion(prop, ids[name], polarity) for prop, run in _by_concept(self) for name, polarity in run)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._runs == other._runs and self.concepts == other.concepts

    def __hash__(self) -> int:
        return hash((*self._runs.values(), self.concepts))

    def __len__(self) -> int:
        return sum(len(sensible) + len(nonsensical) for _, sensible, nonsensical in self._runs.values())


def _runs_of(groups: Iterable[tuple]) -> tuple[dict, dict[str, ConceptId]]:
    """(runs, concept ids) from (property, sensible, nonsensical) groups of {name: ConceptId}."""
    merged: dict[tuple[str, str], tuple] = {}
    for prop, sensible, nonsensical in groups:  # the groups of equal properties merge
        run = merged.setdefault((prop.name, prop.position or ""), (prop, {}, {}))
        run[1].update(sensible)
        run[2].update(nonsensical)
    runs, concept_ids = {}, {}
    for key in sorted(merged):
        prop, sensible, nonsensical = merged[key]
        concept_ids.update(sensible)
        concept_ids.update(nonsensical)
        runs[key] = (prop, tuple(sorted(sensible)), tuple(sorted(nonsensical)))
    return runs, concept_ids


def _sensible_of(concept: ConceptId, props: Iterable[tuple[str, str | None]]) -> AssertionSet:
    """The set asserting each (name, position) property of props sensible of
    concept, built as its runs.  Each PropertyKey is built without its checks:
    the caller has fullmatched name against _PROPERTY_RE, and position is
    None, AGENT or OBJECT."""
    runs = {}
    for name, slot in sorted({(name, position or "") for name, position in props}):
        prop = object.__new__(PropertyKey)
        _setattr(prop, "name", name)
        _setattr(prop, "arity", 2 if slot else 1)
        _setattr(prop, "position", slot or None)
        runs[name, slot] = (prop, (concept.name,), ())
    return object.__new__(AssertionSet)._store(runs, {concept.name: concept} if runs else {})


def _by_concept(aset: AssertionSet):
    """(property, [(name, polarity), ...]) per run, in canonical order: nonsensical first on a tie."""
    for prop, sensible, nonsensical in aset._runs.values():
        pairs = [(name, NONSENSICAL) for name in nonsensical] + [(name, SENSIBLE) for name in sensible]
        yield prop, sorted(pairs, key=itemgetter(0))


def _token(memo: dict, make, token: str, lineno: int):
    """memo[token] = make(token), a ValueError raised as line lineno's CorpusSyntaxError.

    Not inlined in scan_corpus: on a MemoryError, CPython 3.11 enters an
    except clause past code unit 256 by allocating an int for the offset,
    and when that allocation fails it retries the same clause forever.
    """
    try:
        memo[token] = value = make(token)
    except ValueError as exc:
        raise CorpusSyntaxError(lineno, str(exc)) from exc
    return value


@_gc_paused
def scan_corpus(text: str) -> list[tuple[int, Assertion]]:
    """Parse corpus text into (line number, assertion) pairs.

    Binary lines contribute two entries with the same line number.  Equal
    tokens share one object, and so do repeated facts.  Raises
    CorpusSyntaxError with the offending line number on any malformed line.

    A unary or positional line is keyed in the fact memo by its str.split()
    fields, so a line seen before costs one probe; any other line must be binary.
    """
    out: list[tuple[int, Assertion]] = []
    facts: dict[tuple[str, ...], Assertion] = {}  # (sign, property token, concept token)
    props: dict[str, PropertyKey] = {}
    concepts: dict[str, ConceptId] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT_RE.split(raw, 1)[0] if "#" in raw else raw
        fact = tuple(line.split())
        a = facts.get(fact)
        if a is not None:
            out.append((lineno, a))
            continue
        if len(fact) == 3 and fact[0] in ("+", "-") and (
                fact[1] in props or _PROPERTY_TOKEN_RE.fullmatch(fact[1])):
            line_facts = (fact,)
        elif fact:
            m = _BINARY_LINE_RE.match(line.strip())
            if m is None:
                raise CorpusSyntaxError(lineno, f"cannot parse {_echo(line.strip())}: expected '+ PROP concept', "
                                        "'- PROP concept', '+ REL(a, b)', or '- REL(a, b)'")
            sign, name, agent_tok, object_tok = m.groups()
            line_facts = ((sign, f"{name}@{AGENT}", agent_tok), (sign, f"{name}@{OBJECT}", object_tok))
        else:
            continue
        for fact in line_facts:
            a = facts.get(fact)
            if a is None:
                sign, prop_tok, concept_tok = fact
                prop = props.get(prop_tok) or _token(props, PropertyKey.from_token, prop_tok, lineno)
                concept = concepts.get(concept_tok) or _token(concepts, ConceptId, concept_tok, lineno)
                a = facts[fact] = Assertion(prop, concept, SENSIBLE if sign == "+" else NONSENSICAL)
            out.append((lineno, a))
    return out


def parse_corpus(text: str) -> AssertionSet:
    """Parse corpus text into a normalized AssertionSet."""
    return AssertionSet(a for _, a in scan_corpus(text))


def serialize_corpus(aset: AssertionSet) -> str:
    """Render an AssertionSet back to corpus text (canonical line order).

    parse_corpus(serialize_corpus(s)) == s for every AssertionSet; binary
    facts come back as their positional halves.
    """
    lines = [
        f"{'+' if polarity == SENSIBLE else '-'} {token} {name}"
        for prop, run in _by_concept(aset) for token in (prop.token,) for name, polarity in run
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def extent(aset: AssertionSet, prop: PropertyKey) -> frozenset[ConceptId]:
    """Concepts with a sensible assertion for prop (closed world).

    Nonsensical assertions never contribute; an unknown property yields the
    empty set rather than an error.  prop's run is one dict lookup away.
    """
    run = aset._runs.get((prop.name, prop.position or ""))
    return frozenset(map(aset._concept_ids.__getitem__, run[1])) if run else frozenset()


def check_consistency(aset: AssertionSet) -> list[tuple[PropertyKey, ConceptId]]:
    """Every (property, concept) pair asserted with both polarities, sorted.

    A run holds its sensible and its nonsensical concepts, so its conflicts
    are the concepts on both sides.
    """
    conflicts = [
        (prop, aset._concept_ids[name])
        for prop, sensible, nonsensical in aset._runs.values() if nonsensical
        for name in set(nonsensical).intersection(sensible)
    ]
    # Token order: A-B precedes A@agent as a token but follows it by name.
    conflicts.sort(key=lambda pc: (pc[0].token, pc[1].name))
    return conflicts


def conflict_line_numbers(
    scanned: Iterable[tuple[int, Assertion]],
) -> dict[tuple[PropertyKey, ConceptId], tuple[int, int]]:
    """Map each conflicting pair to the first line of each polarity."""
    first_seen: dict[tuple[PropertyKey, ConceptId, str], int] = {}
    for lineno, a in scanned:
        first_seen.setdefault((a.property, a.concept, a.polarity), lineno)
    out: dict[tuple[PropertyKey, ConceptId], tuple[int, int]] = {}
    for (prop, concept, polarity), lineno in first_seen.items():
        other = NONSENSICAL if polarity == SENSIBLE else SENSIBLE
        partner = first_seen.get((prop, concept, other))
        if partner is not None:
            lo, hi = sorted((lineno, partner))
            out[(prop, concept)] = (lo, hi)
    return out


# --- JSON export / import ---------------------------------------------------

def corpus_to_json(aset: AssertionSet) -> dict:
    """The corpus as a JSON value.

    corpus_to_json_text renders the same document as text:
    ``corpus_to_json_text(s) == jsonio.dumps(corpus_to_json(s))`` for every
    AssertionSet s.
    """
    return {
        "assertions": [
            {"prop": prop.name, "arity": prop.arity, "position": prop.position, "concept": name, "polarity": polarity}
            for prop, run in _by_concept(aset) for name, polarity in run
        ]
    }


def corpus_to_json_text(aset: AssertionSet) -> str:
    """jsonio.dumps(corpus_to_json(aset)), rendered without building the dicts.

    An assertion's object is its property's head (up to ``"concept": ``),
    the encoded concept, and a tail from ``"polarity"`` to the closing brace,
    with the keys in the sorted order dumps() writes, made once per property.
    An encoded name ends in a quote, which sorts below any character of a
    concept name, so a run's objects sort by concept, then polarity.
    """
    objects = []
    for prop, sensible, nonsensical in aset._runs.values():
        head = f'{{\n      "arity": {prop.arity},\n      "concept": '
        position = "null" if prop.position is None else _encode(prop.position)
        tail = f',\n      "position": {position},\n      "prop": {_encode(prop.name)}\n    }}'
        tails = [f',\n      "polarity": {_encode(polarity)}{tail}' for polarity in (NONSENSICAL, SENSIBLE)]
        run = [f"{head}{_encode(name)}{end}" for end, names in zip(tails, (nonsensical, sensible)) for name in names]
        objects += sorted(run) if sensible and nonsensical else run
    return '{\n  "assertions": %s\n}\n' % jsonio._array(objects, "\n  ")


def corpus_from_json(data: object) -> AssertionSet:
    if not isinstance(data, dict) or not isinstance(data.get("assertions"), list):
        raise InputDataError("corpus JSON must be an object with an 'assertions' list")
    groups: dict[tuple, tuple] = {}  # (name, arity, position) -> (PropertyKey, sensible, nonsensical)
    concepts: dict[str, ConceptId] = {}
    for i, entry in enumerate(data["assertions"]):
        if not isinstance(entry, dict):
            raise InputDataError(f"corpus JSON: assertion {i} is not an object")
        try:
            name, concept, polarity = entry["prop"], entry["concept"], entry["polarity"]
            if not name.__class__ is concept.__class__ is polarity.__class__ is str:
                key = next(k for k in ("prop", "concept", "polarity") if entry[k].__class__ is not str)
                raise ValueError(f"{key} must be a string, got {_echo(entry[key])}")
            arity = entry.get("arity", 1)
            if type(arity) is not int:  # PropertyKey rejects other ints after the name
                raise ValueError(_BAD_ARITY.format(_echo(arity)))
            prop_key = (name, arity, entry.get("position"))
            try:
                group = groups.get(prop_key) or groups.setdefault(prop_key, (PropertyKey(*prop_key), {}, {}))
            except TypeError:  # an unhashable position: PropertyKey raises its ValueError
                PropertyKey(*prop_key)
                raise
            cid = concepts.get(concept) or concepts.setdefault(concept, ConceptId(concept))
            if polarity not in (SENSIBLE, NONSENSICAL):
                raise ValueError(_BAD_POLARITY.format(_echo(polarity)))
            group[1 if polarity == SENSIBLE else 2][concept] = cid
        except (KeyError, TypeError, ValueError) as exc:
            raise InputDataError(f"corpus JSON: assertion {i}: {exc}") from exc
    return object.__new__(AssertionSet)._store(*_runs_of(groups.values()))


@_gc_paused
def corpus_from_json_text(text: str) -> AssertionSet:
    return corpus_from_json(jsonio.loads(text, what="corpus JSON"))
