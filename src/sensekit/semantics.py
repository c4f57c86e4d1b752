"""Nominalization into primitive-relation triples and per-sense meaning records.

An applicability fact like "ARTICULATE can be said of humans" says more once
the adjective is reified into an abstract object (a trope): a human can have
the property of articulation.  This module performs that conversion, both for
pre-segmented copular statements ("Mary is wise") and for corpus assertions,
and it maintains MeaningRecords: per word-sense maps from a primitive
relation (the dimension) to weighted property tokens.

The primitive-relation inventory is a closed enumeration; alternate names
from other inventories (Inst, HasAgent, ...) resolve through an alias table.
"""

from __future__ import annotations

import enum
import functools
import json
import os
import re
from itertools import chain
from operator import itemgetter
from types import MappingProxyType
from collections.abc import Iterable, Iterator, Mapping

from . import jsonio
from .corpus import SENSIBLE, Assertion, ConceptId, Value, _setattr
from .errors import InputDataError, LexiconError, MeaningStoreError, _echo


class PrimitiveRelation(str, enum.Enum):
    """Language-agnostic primitive relations usable as dimensions of meaning."""

    INSTANCE_OF = "instanceOf"
    EQ = "eq"
    HAS_PROP = "hasProp"
    IN_STATE = "inState"
    AGENT_OF = "agentOf"
    OBJECT_OF = "objectOf"
    HAS_VALUE = "hasValue"
    PARTICIPANT_IN = "participantIn"
    PART_OF = "partOf"
    IS_A = "isA"
    PRECEDES = "precedes"
    INHERES_IN = "inheresIn"
    DEPENDS_ON = "dependsOn"
    EXEMPLIFIES = "exemplifies"
    REALIZES = "realizes"
    TYPE_OF = "typeOf"

    def __str__(self) -> str:
        return self.value


RELATION_ALIASES: dict[str, PrimitiveRelation] = {
    "Inst": PrimitiveRelation.INSTANCE_OF,
    "Eq": PrimitiveRelation.EQ,
    "Part": PrimitiveRelation.PART_OF,
    "IsA": PrimitiveRelation.IS_A,
    "HasAgent": PrimitiveRelation.AGENT_OF,
    "HasParticipant": PrimitiveRelation.PARTICIPANT_IN,
    "Inhere": PrimitiveRelation.INHERES_IN,
    "Dep": PrimitiveRelation.DEPENDS_ON,
    "Exemp": PrimitiveRelation.EXEMPLIFIES,
    "Precedes": PrimitiveRelation.PRECEDES,
    "Realizes": PrimitiveRelation.REALIZES,
    "TypeOf": PrimitiveRelation.TYPE_OF,
}

#: Default dimensions along which word senses collect weighted properties.
DEFAULT_DIMS: tuple[PrimitiveRelation, ...] = (
    PrimitiveRelation.HAS_PROP,
    PrimitiveRelation.AGENT_OF,
    PrimitiveRelation.OBJECT_OF,
    PrimitiveRelation.IN_STATE,
    PrimitiveRelation.PART_OF,
)


# Every canonical name and alias, case-folded: names that differ only in case
# ("isA"/"IsA") name the same relation, and no two relations share a folded name.
_FOLDED_RELATION_NAMES = {
    name.casefold(): rel
    for name, rel in chain(((r.value, r) for r in PrimitiveRelation), RELATION_ALIASES.items())
}


def resolve_relation(name: str) -> PrimitiveRelation:
    """Resolve a canonical name or alias (case-insensitively) to a relation.

    A name that is not a str is a TypeError.
    """
    relation = _FOLDED_RELATION_NAMES.get(str.casefold(name))
    if relation is None:
        raise InputDataError(f"unknown primitive relation {_echo(name)}")
    return relation


# --- nominalization lexicon ---------------------------------------------------

CATEGORY_PROPERTY = "property"
CATEGORY_STATE = "state"
CATEGORY_ACTIVITY = "activity"
CATEGORY_EVENT = "event"

_CATEGORIES = (CATEGORY_PROPERTY, CATEGORY_STATE, CATEGORY_ACTIVITY, CATEGORY_EVENT)
_TROPE_RE = re.compile(r"[a-z][a-z0-9'_-]*")  # for fullmatch: "$" accepts a trailing "\n"


class LexiconEntry(Value):
    trope: str
    category: str

    def __init__(self, trope, category) -> None:
        if trope.__class__ is not str or not _TROPE_RE.fullmatch(trope):
            raise ValueError(f"trope must be a lowercase token, got {_echo(trope)}")
        if category.__class__ is not str or category not in _CATEGORIES:
            raise ValueError(
                f"category must be one of {', '.join(_CATEGORIES)}, got {_echo(category)}"
            )
        _setattr(self, "trope", trope)
        _setattr(self, "category", category)


class NominalizationLexicon(Value):
    """Map from property key name (uppercase) to its trope noun and category."""

    entries: Mapping[str, LexiconEntry]

    def __init__(self, entries) -> None:
        _setattr(self, "entries", dict(entries))

    def get(self, name: str) -> LexiconEntry | None:
        return self.entries.get(name)

    def require(self, name: str) -> LexiconEntry:
        entry = self.entries.get(name)
        if entry is None:
            raise LexiconError(f"no lexicon entry for property {_echo(name)}")
        return entry

    def __len__(self) -> int:
        return len(self.entries)


EMPTY_LEXICON = NominalizationLexicon({})


def lexicon_from_json(data: object) -> NominalizationLexicon:
    if not isinstance(data, dict):
        raise LexiconError("lexicon JSON must be an object keyed by property name")
    entries: dict[str, LexiconEntry] = {}
    for key, raw in data.items():
        if not isinstance(raw, dict):
            raise LexiconError(f"lexicon entry {_echo(key)} must be an object")
        try:
            entries[key] = LexiconEntry(trope=raw["trope"], category=raw["cat"])
        except (KeyError, ValueError) as exc:
            raise LexiconError(f"lexicon entry {_echo(key)}: {exc}") from exc
    return NominalizationLexicon(entries)


def lexicon_to_json(lexicon: NominalizationLexicon) -> dict:
    return {
        name: {"trope": e.trope, "cat": e.category}
        for name, e in sorted(lexicon.entries.items())
    }


def load_lexicon(path: str) -> NominalizationLexicon:
    return lexicon_from_json(jsonio.loads(jsonio.read_text(path, "lexicon"), what=f"lexicon {path}"))


# --- morphology helpers -------------------------------------------------------

_VOWELS = "aeiou"


def gerund(stem: str) -> str:
    """Best-effort -ing form of a lowercase verb stem (lexicon overrides it)."""
    stem = stem.lower()
    if stem.endswith("e") and not stem.endswith("ee"):
        return stem[:-1] + "ing"
    if (
        len(stem) >= 3
        and stem[-1] not in _VOWELS + "wxy"
        and stem[-2] in _VOWELS
        and stem[-3] not in _VOWELS
    ):
        return stem + stem[-1] + "ing"
    return stem + "ing"


def participle_stem(participle: str) -> str:
    token = participle.lower()
    if token.endswith("ied"):
        return token[:-3] + "y"
    if token.endswith("ed"):
        return token[:-2]
    return token


# --- primitive triples ----------------------------------------------------------

class PrimitiveTriple(Value):
    """(entity, primitive relation, filler) in canonical argument order.

    The filler kind depends on the relation: a type label for instanceOf/isA,
    a trope or gerund for hasProp/inState/agentOf/objectOf/participantIn, a
    quantity with units for hasValue.
    """

    subject: str
    relation: PrimitiveRelation
    obj: str

    def __init__(self, subject, relation, obj) -> None:
        _setattr(self, "subject", subject)
        _setattr(self, "relation", relation)
        _setattr(self, "obj", obj)

    def serialize(self) -> str:
        return f"{self.subject} {self.relation.value} {self.obj}"

    def to_json(self) -> dict:
        # _value_ is what the enum's .value property returns, without the property.
        return {"subject": self.subject, "relation": self.relation._value_, "object": self.obj}


# --- copular statement classification -------------------------------------------

class CopularForm(str, enum.Enum):
    NP_PREDICATE = "np_predicate"
    PROPER_IDENTITY = "proper_identity"
    ADJECTIVE = "adjective"
    STATE_ADJECTIVE = "state_adjective"
    PROGRESSIVE = "progressive"
    PASSIVE_PARTICIPLE = "passive_participle"
    MEASURE = "measure"


class CopularStatement(Value):
    """A pre-segmented "x is P" statement.

    payload carries the predicate tokens: one token for every form except
    measure, which takes (attribute, quantity) — e.g. ("height", "5'10\"").
    """

    subject: str
    form: CopularForm
    payload: tuple[str, ...]

    def __init__(self, subject, form, payload) -> None:
        if not isinstance(form, CopularForm):
            try:
                form = CopularForm(form)
            except ValueError:
                raise InputDataError(f"unknown copular form {_echo(form)}") from None
        payload = tuple(payload)
        expected = 2 if form is CopularForm.MEASURE else 1
        if len(payload) != expected:
            raise InputDataError(
                f"form {form.value} takes {expected} payload token(s), "
                f"got {len(payload)}"
            )
        _setattr(self, "subject", subject)
        _setattr(self, "form", form)
        _setattr(self, "payload", payload)


def classify(
    statement: CopularStatement,
    lexicon: NominalizationLexicon = EMPTY_LEXICON,
) -> PrimitiveTriple:
    """Map a copular statement to its implicit primitive-relation triple.

    Adjective and state-adjective forms require a lexicon entry (the trope).
    Progressive verbs default to the agentive reading; a lexicon entry with
    category "event" switches the statement to participantIn.
    """
    subject, form, payload = statement.subject, statement.form, statement.payload
    if form is CopularForm.NP_PREDICATE:
        return PrimitiveTriple(subject, PrimitiveRelation.INSTANCE_OF, payload[0])
    if form is CopularForm.PROPER_IDENTITY:
        return PrimitiveTriple(subject, PrimitiveRelation.EQ, payload[0])
    if form is CopularForm.ADJECTIVE:
        entry = lexicon.require(payload[0].upper())
        return PrimitiveTriple(subject, PrimitiveRelation.HAS_PROP, entry.trope)
    if form is CopularForm.STATE_ADJECTIVE:
        entry = lexicon.require(payload[0].upper())
        return PrimitiveTriple(subject, PrimitiveRelation.IN_STATE, entry.trope)
    if form is CopularForm.PROGRESSIVE:
        entry = lexicon.get(payload[0].upper())
        relation = (
            PrimitiveRelation.PARTICIPANT_IN
            if entry is not None and entry.category == CATEGORY_EVENT
            else PrimitiveRelation.AGENT_OF
        )
        return PrimitiveTriple(subject, relation, payload[0])
    if form is CopularForm.PASSIVE_PARTICIPLE:
        entry = lexicon.get(payload[0].upper())
        noun = entry.trope if entry is not None else gerund(participle_stem(payload[0]))
        return PrimitiveTriple(subject, PrimitiveRelation.OBJECT_OF, noun)
    attribute, quantity = payload  # CopularForm.MEASURE, the one form left
    return PrimitiveTriple(f"{subject}'s {attribute}", PrimitiveRelation.HAS_VALUE, quantity)


def nominalize_assertion(
    assertion: Assertion,
    lexicon: NominalizationLexicon = EMPTY_LEXICON,
) -> PrimitiveTriple:
    """Reify a sensible assertion into a primitive-relation triple.

    Unary properties need a lexicon entry whose category picks the relation
    (property -> hasProp, state -> inState).  Positional pseudo-properties
    need no lexicon: the relation name becomes a gerund (lexicon trope wins
    when present).
    """
    if assertion.polarity != SENSIBLE:
        raise InputDataError(
            f"cannot nominalize nonsensical assertion "
            f"({assertion.property.token}, {assertion.concept.name}): "
            "tropes attach only where predication is sensible"
        )
    prop = assertion.property
    subject = assertion.concept.name
    entry = lexicon.entries.get(prop.name)
    if prop.arity == 2:
        noun = entry.trope if entry is not None else gerund(prop.name.lower())
        relation = (
            PrimitiveRelation.AGENT_OF
            if prop.position == "agent"
            else PrimitiveRelation.OBJECT_OF
        )
        return PrimitiveTriple(subject, relation, noun)
    if entry is None:
        raise LexiconError(f"no lexicon entry for property {_echo(prop.name)}")
    if entry.category == CATEGORY_PROPERTY:
        return PrimitiveTriple(subject, PrimitiveRelation.HAS_PROP, entry.trope)
    if entry.category == CATEGORY_STATE:
        return PrimitiveTriple(subject, PrimitiveRelation.IN_STATE, entry.trope)
    raise LexiconError(
        f"unary property {_echo(prop.name)} has category {entry.category!r}; "
        "only 'property' and 'state' nominalize to hasProp/inState"
    )


# --- meaning records ------------------------------------------------------------

WeightedProperty = tuple[float, str]


_NO_WEIGHTS: Mapping[str, float] = MappingProxyType({})


class MeaningRecord(Value):
    """Weighted property sets along primitive-relation dimensions for one sense."""

    sense: str
    gloss: str
    dims: Mapping[PrimitiveRelation, tuple[WeightedProperty, ...]]

    def __init__(self, sense, gloss, dims) -> None:
        """Refuse every record the store loader would, walking the pairs once;
        a dims that is not a mapping is a TypeError."""
        _fill(self, sense, gloss, dims, None)

    def dimension(self, relation: PrimitiveRelation) -> tuple[WeightedProperty, ...]:
        """Pairs along one dimension; absent dimensions are empty, not errors."""
        return self.dims.get(relation, ())

    def weights(self, relation: PrimitiveRelation) -> Mapping[str, float]:
        """{token: weight} along one dimension, in token order; absent
        dimensions are empty.

        The index is built on the first call and shared by later ones, so
        callers must not mutate it, just as they must not mutate dims.
        """
        return self._weights.get(relation, _NO_WEIGHTS)

    # Not a field: cached_property writes the instance __dict__ directly, so
    # the immutable fields, __eq__ and repr never see the index.  Lazy, so that
    # loading or eliciting records does not pay for it.  Tokens are unique
    # within a dimension, so the token alone fixes the order.
    @functools.cached_property
    def _weights(self) -> dict[PrimitiveRelation, dict[str, float]]:
        return {
            relation: {token: weight for weight, token in sorted(pairs, key=itemgetter(1))}
            for relation, pairs in self.dims.items()
        }


def _fill(record: MeaningRecord, sense, gloss, dims, share) -> None:
    """Check and set a new record's fields, as MeaningRecord.__init__ documents.

    share is None, or a store load's dict.setdefault: each valid token is
    then replaced by the first equal one the load has kept, so a store holds
    one str per distinct token.
    """
    if not sense.__class__ is gloss.__class__ is str:
        name, value = ("sense", sense) if sense.__class__ is not str else ("gloss", gloss)
        raise MeaningStoreError(f"{name!r} must be a string, got {_echo(value)}")
    try:
        ConceptId(sense)  # validates the token shape
    except ValueError as exc:
        raise MeaningStoreError(str(exc)) from None
    clean: dict[PrimitiveRelation, tuple[WeightedProperty, ...]] = {}
    try:
        items = dims.items()
    except AttributeError:
        raise TypeError(f"dims must be a mapping, not {type(dims).__name__}") from None
    for relation, pairs in items:
        if not isinstance(relation, PrimitiveRelation):
            raise MeaningStoreError(
                f"record {_echo(sense)}: dimension key {_echo(relation)} is not a relation"
            )
        seen: set[str] = set()
        normalized: list[WeightedProperty] = []
        for pair in pairs:
            try:
                weight, token = pair
            except (TypeError, ValueError):
                weight = token = None
            if weight.__class__ is int:  # not bool, whose class is bool
                try:
                    weight = float(weight)
                except OverflowError as exc:  # an int past float range
                    raise MeaningStoreError(str(exc)) from None
            if weight.__class__ is not float or token.__class__ is not str:
                problem = f"malformed pair {_echo(pair)}"
            elif not 0.0 < weight <= 1.0:
                problem = f"weight {weight} outside (0, 1]"
            elif token in seen:
                problem = f"duplicate property token {_echo(token)}"
            else:
                if share is not None:
                    token = share(token, token)
                seen.add(token)
                normalized.append((weight, token))
                continue
            raise MeaningStoreError(f"record {_echo(sense)}, dimension {relation.value!r}: {problem}")
        clean[relation] = tuple(normalized)
    _setattr(record, "sense", sense)
    _setattr(record, "gloss", gloss)
    _setattr(record, "dims", clean)


def _record_of(sense: str, dims: dict[PrimitiveRelation, tuple[WeightedProperty, ...]]) -> MeaningRecord:
    """MeaningRecord(sense, "", dims), built without _fill's checks: sense is
    a ConceptId's name, and each dimension is a tuple of (float, str) tuples,
    its weights in (0, 1] and its tokens distinct."""
    record = MeaningRecord.__new__(MeaningRecord)
    _setattr(record, "sense", sense)
    _setattr(record, "gloss", "")
    _setattr(record, "dims", dims)
    return record


def build_meaning(
    sense: str,
    counted_triples: Iterable[tuple[PrimitiveTriple, int]],
    gloss: str = "",
) -> MeaningRecord:
    """Aggregate usage counts into a weighted meaning record.

    Weights are max-normalized per dimension: the most frequent property gets
    1.0 and count ordering is preserved exactly (a > b implies w(a) > w(b)).
    """
    counts: dict[PrimitiveRelation, dict[str, int]] = {}
    total = 0
    for triple, count in counted_triples:
        total += 1
        if count < 1:
            raise InputDataError(f"count for {_echo(triple.serialize())} must be >= 1")
        if triple.subject != sense:
            raise InputDataError(
                f"triple subject {_echo(triple.subject)} does not match sense {_echo(sense)}"
            )
        per_dim = counts.setdefault(triple.relation, {})
        per_dim[triple.obj] = per_dim.get(triple.obj, 0) + count
    if total == 0:
        raise InputDataError("cannot build a meaning record from no triples")
    dims: dict[PrimitiveRelation, tuple[WeightedProperty, ...]] = {}
    for relation in sorted(counts):  # a str enum orders by its value
        per_dim = counts[relation]
        top = max(per_dim.values())
        pairs = tuple(
            (per_dim[token] / top, token)
            for token in sorted(per_dim, key=lambda t: (-per_dim[t], t))
        )
        dims[relation] = pairs
    return MeaningRecord(sense=sense, gloss=gloss, dims=dims)


# --- meaning store --------------------------------------------------------------

def meaning_record_to_json(record: MeaningRecord) -> dict:
    return {
        "sense": record.sense,
        "gloss": record.gloss,
        "dims": {
            relation.value: [[weight, token] for weight, token in _by_weight(pairs)]
            for relation, pairs in sorted(record.dims.items())  # relations are unique, so no pairs compare
        },
    }


def _by_weight(pairs: Iterable[WeightedProperty]) -> list[WeightedProperty]:
    """pairs by weight, heaviest first, and equal weights by token.

    Two sorts with no Python key function: as tuples (weight, then the
    token, unique in a dimension), then stably by weight alone.  Cheaper
    than one sort on (-weight, token), most of all on pairs already in
    this order, as built, elicited and loaded records hold them.
    """
    ordered = sorted(pairs)
    ordered.sort(key=itemgetter(0), reverse=True)  # reverse keeps ties in order
    return ordered


def meaning_record_from_json(data: object, *, where: str = "meaning record") -> MeaningRecord:
    return _record_from_json(data, where, None)


def _record_from_json(data: object, where: str, share) -> MeaningRecord:
    """meaning_record_from_json(); share is passed on to _fill."""
    if not isinstance(data, dict):
        raise MeaningStoreError(f"{where}: record must be an object")
    try:
        sense = data["sense"]
        gloss = data.get("gloss", "")
        raw_dims = data["dims"]
    except KeyError as exc:
        raise MeaningStoreError(f"{where}: missing field {exc}") from exc
    if not isinstance(raw_dims, dict):
        raise MeaningStoreError(f"{where}: 'dims' must be an object")
    dims: dict[PrimitiveRelation, list] = {}
    for rel_name, raw_pairs in raw_dims.items():
        try:
            relation = resolve_relation(rel_name)
        except InputDataError as exc:
            raise MeaningStoreError(f"{where}: {exc}") from exc
        # An alias or a case variant names a dimension already read.
        if relation in dims:
            raise MeaningStoreError(f"{where} names dimension {relation.value!r} twice")
        if not isinstance(raw_pairs, list):
            raise MeaningStoreError(
                f"{where}, dimension {_echo(rel_name)}: expected a list of [weight, token]"
            )
        dims[relation] = raw_pairs
    record = MeaningRecord.__new__(MeaningRecord)
    try:
        _fill(record, sense, gloss, dims, share)
    except MeaningStoreError as exc:
        raise MeaningStoreError(f"{where}: {exc}") from exc
    return record


def meanings_to_json_text(records: Iterable[MeaningRecord]) -> str:
    """jsonio.dumps() of the records' meaning_record_to_json(), sorted by sense,
    rendered without building the dicts.

    The text is the join of the store's chunks, one per record, which
    save_meanings() writes one at a time instead.
    """
    return "".join([text for _, text in _store_chunks(records)])


def _store_chunks(records: Iterable[MeaningRecord]) -> Iterator[tuple[str, str]]:
    """(sense, text) of each record of meanings_to_json_text(records), in order.

    The records are sorted, and a repeated sense refused, before the first
    chunk.  A record's text is its dims, gloss and sense in dumps()'s key
    order, led by the bracket or comma before it; the last one also holds
    the closing bracket, and an empty store is the one chunk ("", "[]\\n").
    Each dimension's pairs are one join of weight and token texts at their
    fixed indents.  Senses, glosses and tokens go through dumps()'s own
    encoder; relation names need no escaping.
    """
    ordered = sorted(records, key=lambda r: r.sense)
    senses = [r.sense for r in ordered]
    for a, b in zip(senses, senses[1:]):
        if a == b:
            raise MeaningStoreError(f"duplicate sense {_echo(a)} in meaning store")
    if not ordered:
        yield "", "[]\n"
        return
    encode = jsonio._encode
    # Texts of the weights seen so far.  The MeaningRecord constructor stores
    # every weight as an exact float in (0, 1], so no -0.0 (equal to 0.0 but
    # printed apart), NaN or infinity reaches this memo; jsonio.dumps() cannot
    # memoise floats for that reason.  Tokens are encoded each time: the C
    # encoder is faster than a dict lookup.
    numbers: dict[float, str] = {}
    last = ordered[-1]
    sep = "[\n  "
    for record in ordered:
        dims = []
        for relation, pairs in sorted(record.dims.items()):
            items = []
            for weight, token in _by_weight(pairs):
                number = numbers.get(weight)
                if number is None:
                    number = numbers[weight] = float.__repr__(weight)
                items.append(f"{number},\n          {encode(token)}")
            listed = "\n        ],\n        [\n          ".join(items)
            if listed:
                listed = f"\n        [\n          {listed}\n        ]\n      "
            dims.append(f'      "{relation.value}": [{listed}]')
        gloss = encode(record.gloss)
        body = "{\n" + ",\n".join(dims) + "\n    }" if dims else "{}"
        end = "\n]\n" if record is last else ""
        yield record.sense, (
            f'{sep}{{\n    "dims": {body},\n    "gloss": {gloss},\n'
            f'    "sense": {encode(record.sense)}\n  }}{end}'
        )
        sep = ",\n  "


#: The stdlib decoder's scanner, configured as jsonio.loads() configures it.
_SCAN = json.JSONDecoder(parse_constant=jsonio._reject_constant).scan_once
_SKIP_SPACE = json.decoder.WHITESPACE.match


def meanings_from_json_text(text: str, *, what: str = "meaning store") -> tuple[MeaningRecord, ...]:
    """The records of a store's text, checked in order as MeaningRecord checks them.

    The top-level array is decoded one record at a time, and each record
    is built before the next is decoded, so the load holds the text, the
    records built so far and one decoded row.  The records share one str
    per distinct token, across the whole store.  bytes are decoded as
    json.loads() decodes them.

    On any fault the text is first parsed whole by jsonio.loads(), so a JSON
    fault anywhere in it wins over an earlier bad record; only then is the
    walk's own error raised: a text that is not an array, the first bad
    record's error, or a repeated sense.
    """
    try:
        if isinstance(text, (bytes, bytearray)):
            return _walk_store(text.decode(json.detect_encoding(text), "surrogatepass"), what)
        return _walk_store(text, what)
    # Not a text, a JSON fault, deep nesting, a bad or repeated record.
    except (TypeError, ValueError, StopIteration, RecursionError, MeaningStoreError):
        jsonio.loads(text, what=what)  # the text as given: bytes skip the str BOM check
        raise


def _walk_store(text: str, what: str) -> tuple[MeaningRecord, ...]:
    """The records of a store text, decoded one at a time.

    It accepts what json.loads() accepts, with the scanner and the
    whitespace json.loads() uses between the array's items, save one edge:
    a row starts a few stack frames shallower than under json.loads(), so
    a row nested to within those few levels of the recursion limit loads
    here where the parsed tree would exceed the limit.  A JSON fault ends
    the walk with whatever the scanner raises, or a bare ValueError where
    the array does not end the text: meanings_from_json_text() reports it.
    """
    skip, scan = _SKIP_SPACE, _SCAN
    at = skip(text).end()
    if not text.startswith("[", at):
        raise MeaningStoreError(f"{what}: expected a JSON array of records")
    share = {}.setdefault  # the first str read for each token
    records: list[MeaningRecord] = []
    seen: set[str] = set()
    at = skip(text, at + 1).end()
    if not text.startswith("]", at):
        while True:
            row, at = scan(text, at)
            where = f"{what}: record {len(records)}"
            record = _record_from_json(row, where, share)
            row = None  # released before the next row is decoded
            if record.sense in seen:
                raise MeaningStoreError(f"{where}: duplicate sense {_echo(record.sense)}")
            seen.add(record.sense)
            records.append(record)
            at = skip(text, at).end()
            if not text.startswith(",", at):
                break
            at = skip(text, at + 1).end()
    if not text.startswith("]", at) or skip(text, at + 1).end() != len(text):
        raise ValueError("not one JSON array")
    return tuple(records)


def _escape_surrogates(sense: str, text: str) -> str:
    """A record's chunk that UTF-8 cannot encode, with each lone surrogate
    written as a \\uXXXX escape, which loads back as the same surrogate.

    A high surrogate directly followed by a low one is refused: JSON loads
    that escaped pair back as the one character it encodes.  (The patterns
    are compiled here, on this rare path, not when the module is imported.)
    """
    if re.search("[\ud800-\udbff][\udc00-\udfff]", text):
        raise MeaningStoreError(
            f"record {_echo(sense)} holds a surrogate pair, which the store would "
            "load back as one character"
        )
    return re.sub("[\ud800-\udfff]", lambda m: f"\\u{ord(m[0]):04x}", text)


def save_meanings(records: Iterable[MeaningRecord], path: str) -> None:
    """Write the store atomically (single writer, readers never see partial files).

    The text is meanings_to_json_text(records), written one record at a
    time; a record whose gloss or tokens hold a lone surrogate, which UTF-8
    cannot encode, has it written as a \\uXXXX escape.  A repeated sense is
    refused before any file is made; a failure after that removes the
    temporary file and leaves the target as it was.

    A file that is replaced keeps its permission bits (not setuid, setgid or
    sticky); a new one gets the mode open(path, "w") would give it, 0o666 less
    the umask.
    """
    chunks = _store_chunks(records)
    first = next(chunks)  # sorts the records and refuses a repeated sense
    try:
        mode = os.stat(path).st_mode & 0o777
    except FileNotFoundError:
        mode = None
    # Not tempfile.mkstemp, which makes the file 0600: opening it with 0o666
    # lets the kernel apply the umask without the process reading it.  The
    # name is short whatever the target's, so it never passes NAME_MAX.
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".{os.urandom(6).hex()}.tmp")
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    fd = os.open(tmp, flags, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            if mode is not None:
                os.chmod(tmp, mode)
            # A chunk that fails to encode writes nothing: TextIOWrapper
            # encodes the whole chunk before it buffers any of it.
            for sense, text in chain((first,), chunks):
                try:
                    fh.write(text)
                except UnicodeEncodeError:
                    fh.write(_escape_surrogates(sense, text))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_meanings(path: str) -> tuple[MeaningRecord, ...]:
    """The records of the store at path, as meanings_from_json_text() reads them."""
    return meanings_from_json_text(
        jsonio.read_text(path, "meaning store"), what=f"meaning store {path}"
    )
