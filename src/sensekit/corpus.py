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

import bisect
import re
from json.encoder import encode_basestring as _encode  # the encoder jsonio.dumps uses
from operator import attrgetter
from typing import Iterable

from . import jsonio
from .errors import CorpusSyntaxError, InputDataError

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

_ECHO_LIMIT = 200  # characters of an input line or token an error message repeats


def _echo(value: object) -> str:
    """repr(value), cut to _ECHO_LIMIT characters and marked when longer.  A str is
    cut before repr; a value holding an int too long to print is named by type."""
    if value.__class__ is str:
        text, shown = value, repr(value[:_ECHO_LIMIT])
    else:
        try:
            text = repr(value)
        except ValueError:  # past sys.get_int_max_str_digits()
            return f"<{type(value).__name__} too large to print>"
        shown = text[:_ECHO_LIMIT]
    return shown if len(text) <= _ECHO_LIMIT else f"{shown}... ({len(text)} characters)"


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
        get = attrgetter(*names)  # a tuple for two names or more, else the value
        cls._values = staticmethod(get if len(names) > 1 else lambda self: (get(self),))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class ConceptId(Value):
    """A noun or noun-sense token such as ``apple`` or ``book#1``."""

    name: str

    def __init__(self, name) -> None:
        if not _CONCEPT_RE.fullmatch(name):
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
        if not _PROPERTY_RE.fullmatch(name):
            raise ValueError(f"invalid property name {_echo(name)}: expected an uppercase token")
        if type(arity) is not int or arity not in (1, 2):  # True and 1.0 equal 1
            raise ValueError(f"arity must be 1 or 2, got {_echo(arity)}")
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
            raise ValueError(f"polarity must be sensible/nonsensical, got {_echo(polarity)}")
        _setattr(self, "property", property)
        _setattr(self, "concept", concept)
        _setattr(self, "polarity", polarity)

    @property
    def is_sensible(self) -> bool:
        return self.polarity == SENSIBLE


def _property_key(a: Assertion) -> tuple[str, str]:
    """The fields of AssertionSet's sort key that identify the property."""
    return (a.property.name, a.property.position or "")


class AssertionSet(Value):
    """A normalized collection of assertions.

    Construction deduplicates exact repeats and sorts assertions into a
    canonical order, so equal corpora compare equal regardless of input
    order.  Conflicting polarities for the same (property, concept) pair are
    retained; check_consistency() reports them.
    """

    assertions: tuple[Assertion, ...]
    concepts: frozenset[ConceptId]  # derived, not an argument

    def __init__(self, assertions) -> None:
        # The key is property name, position or "", concept name and polarity,
        # joined by NUL.  No valid token holds a NUL, which sorts below every
        # other character, so the strings sort as the 4-tuples of the fields
        # would; and the key is injective (arity follows from position).
        by_key = {
            f"{a.property.name}\0{a.property.position or ''}\0{a.concept.name}\0{a.polarity}": a
            for a in assertions
        }
        ordered = tuple(map(by_key.__getitem__, sorted(by_key)))
        _setattr(self, "assertions", ordered)
        concepts = {a.concept.name: a.concept for a in ordered}
        _setattr(self, "concepts", frozenset(concepts.values()))

    def __len__(self) -> int:
        return len(self.assertions)


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
                try:
                    a = facts[fact] = Assertion(
                        props.get(prop_tok) or props.setdefault(prop_tok, PropertyKey.from_token(prop_tok)),
                        concepts.get(concept_tok) or concepts.setdefault(concept_tok, ConceptId(concept_tok)),
                        SENSIBLE if sign == "+" else NONSENSICAL,
                    )
                except ValueError as exc:
                    raise CorpusSyntaxError(lineno, str(exc)) from exc
            out.append((lineno, a))
    return out


def parse_corpus(text: str) -> AssertionSet:
    """Parse corpus text into a normalized AssertionSet."""
    return AssertionSet(tuple(a for _, a in scan_corpus(text)))


def serialize_corpus(aset: AssertionSet) -> str:
    """Render an AssertionSet back to corpus text (canonical line order).

    parse_corpus(serialize_corpus(s)) == s for every AssertionSet; binary
    facts come back as their positional halves.
    """
    lines = [
        f"{'+' if a.is_sensible else '-'} {a.property.token} {a.concept.name}"
        for a in aset.assertions
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def extent(aset: AssertionSet, prop: PropertyKey) -> frozenset[ConceptId]:
    """Concepts with a sensible assertion for prop (closed world).

    Nonsensical assertions never contribute; an unknown property yields the
    empty set rather than an error.  AssertionSet sorts by property name,
    then position, so prop's assertions are one contiguous run, found by
    binary search on _property_key.
    """
    run = (prop.name, prop.position or "")
    lo = bisect.bisect_left(aset.assertions, run, key=_property_key)
    hi = bisect.bisect_right(aset.assertions, run, lo=lo, key=_property_key)
    return frozenset(a.concept for a in aset.assertions[lo:hi] if a.is_sensible)


def check_consistency(aset: AssertionSet) -> list[tuple[PropertyKey, ConceptId]]:
    """Every (property, concept) pair asserted with both polarities, sorted.

    Assertions are deduplicated and sorted with the polarity as the last
    field, so the two polarities of a pair are neighbours.
    """
    conflicts = [
        (a.property, a.concept)
        for prev, a in zip(aset.assertions, aset.assertions[1:])
        if a.concept.name == prev.concept.name and a.property == prev.property
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
            {
                "prop": a.property.name,
                "arity": a.property.arity,
                "position": a.property.position,
                "concept": a.concept.name,
                "polarity": a.polarity,
            }
            for a in aset.assertions
        ]
    }


def corpus_to_json_text(aset: AssertionSet) -> str:
    """jsonio.dumps(corpus_to_json(aset)), rendered without building the dicts.

    An assertion's object is its property's head (up to ``"concept": ``),
    the encoded concept, and a tail from ``"polarity"`` to the closing brace,
    with the keys in the sorted order dumps() writes.  A property's
    assertions are one run of the sorted set, so its head and tails are made
    once per run.  Strings go through dumps()'s own encoder.
    """
    objects = []
    prop = None
    for a in aset.assertions:
        if a.property is not prop:
            prop = a.property
            head = f'{{\n      "arity": {prop.arity},\n      "concept": '
            position = "null" if prop.position is None else _encode(prop.position)
            tail = f',\n      "position": {position},\n      "prop": {_encode(prop.name)}\n    }}'
            tails = {p: f',\n      "polarity": {_encode(p)}{tail}' for p in (SENSIBLE, NONSENSICAL)}
        objects.append(head + _encode(a.concept.name) + tails[a.polarity])
    if not objects:
        return '{\n  "assertions": []\n}\n'
    return '{\n  "assertions": [\n    ' + ",\n    ".join(objects) + "\n  ]\n}\n"


def corpus_from_json(data: object) -> AssertionSet:
    if not isinstance(data, dict) or not isinstance(data.get("assertions"), list):
        raise InputDataError("corpus JSON must be an object with an 'assertions' list")
    assertions = []
    props: dict[tuple, PropertyKey] = {}  # (name, arity, position)
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
                raise ValueError(f"arity must be 1 or 2, got {_echo(arity)}")
            prop_key = (name, arity, entry.get("position"))
            try:
                prop = props.get(prop_key) or props.setdefault(prop_key, PropertyKey(*prop_key))
            except TypeError:  # an unhashable position, which PropertyKey refuses
                prop = PropertyKey(*prop_key)
            concept = concepts.get(concept) or concepts.setdefault(concept, ConceptId(concept))
            assertions.append(Assertion(prop, concept, polarity))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputDataError(f"corpus JSON: assertion {i}: {exc}") from exc
    return AssertionSet(tuple(assertions))


def corpus_from_json_text(text: str) -> AssertionSet:
    return corpus_from_json(jsonio.loads(text, what="corpus JSON"))
