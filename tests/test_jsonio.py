"""JSON out and in: the canonical writer against the stdlib, strict reading,
and every loader of a JSON document against arbitrary JSON values."""

from __future__ import annotations

import copy
import enum
import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from sensekit import jsonio
from sensekit.corpus import corpus_from_json
from sensekit.elicitation import MockProvider
from sensekit.errors import (
    ConfigError,
    InputDataError,
    MeaningStoreError,
    OntologyError,
    SensekitError,
)
from sensekit.hierarchy import dag_from_json
from sensekit.semantics import (
    PrimitiveRelation,
    lexicon_from_json,
    meaning_record_from_json,
    meanings_from_json_text,
)


def stdlib_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False, allow_nan=False) + "\n"


def outcome(dumps, obj):
    """The text dumps returns, or the type and message of what it raises."""
    try:
        return dumps(obj)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


class Level(enum.IntEnum):
    LOW = 1


# --- the writer ---------------------------------------------------------------------

_text = st.text(st.characters(exclude_categories=()), max_size=8)  # surrogates, controls
_floats = st.floats() | st.sampled_from([-0.0, 1e16, 5e-324, 0.1, 1e-7, 2.0**70])
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    _floats,
    _text,
    st.sampled_from(list(PrimitiveRelation)),
    st.just(Level.LOW),
    st.sampled_from([{1, 2}, b"bytes", object()]),  # not JSON serializable
)
_keys = st.one_of(
    _text, st.integers(), _floats, st.booleans(), st.none(),
    st.sampled_from(list(PrimitiveRelation)), st.just((1, 2)),
)
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.lists(_text, min_size=1, max_size=5),  # lists of str only
        st.dictionaries(_text, inner, max_size=5),
        st.dictionaries(_keys, inner, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=500, deadline=None)
@given(_values)
@example(["a", 1, "b"])
@example(["a", ("b", "c"), None])
@example({"x": [float("nan")]})
@example({float("inf"): 1})
@example({(1, 2): 1})
@example({1: "int", "a": "str"})
@example({True: 1, None: 2, 2.5: 3})
@example({"outer": {"inner": [[1.0, "token"]], "empty": [], "none": {}}})
def test_dumps_equals_stdlib(value) -> None:
    assert outcome(jsonio.dumps, value) == outcome(stdlib_dumps, value)


class Field(str, enum.Enum):
    """Equal to, and hashed as, the str "subject" (an Enum hashes its name)."""

    subject = "subject"


class Row(dict):
    pass


_record_text = _text | st.sampled_from(['"', "\\", "%", "%s", "%%", "%(a)s", "subject"])


@st.composite
def _record_lists(draw):
    """1-6 dicts over one set of str keys with str values, perhaps with one
    mutation that takes the list off the one-chunk path, at depth 0-2."""
    keys = draw(st.lists(_record_text, min_size=1, max_size=4, unique=True))
    rows = draw(st.lists(st.fixed_dictionaries({key: _record_text for key in keys}),
                         min_size=1, max_size=6))
    mutation = draw(st.sampled_from(
        [None, "missing-key", "extra-key", "later-value", "dict-subclass", "enum-key"]))
    i = draw(st.integers(0, len(rows) - 1))
    row = rows[i]
    if mutation == "missing-key":
        del row[draw(st.sampled_from(keys))]
    elif mutation == "extra-key":
        row[draw(_record_text.filter(lambda key: key not in row))] = draw(_record_text)
    elif mutation == "later-value":
        if len(rows) == 1:
            rows.append(dict(row))
        later = rows[draw(st.integers(1, len(rows) - 1))]
        later[draw(st.sampled_from(keys))] = draw(
            st.sampled_from([1, None, math.nan, PrimitiveRelation.HAS_PROP]))
    elif mutation == "dict-subclass":
        rows[i] = Row(row)
    elif mutation == "enum-key":
        key = "subject" if "subject" in row else draw(st.sampled_from(keys))
        row[Field.subject if key == "subject" else PrimitiveRelation.HAS_PROP] = row.pop(key)
    value = tuple(rows) if draw(st.booleans()) else rows
    for _ in range(draw(st.integers(0, 2))):
        value = {"triples": value} if draw(st.booleans()) else [value]
    return value


@settings(max_examples=500, deadline=None)
@given(_record_lists())
@example([{"%s": "x"}])
@example([{"a": "1"}, {"b": "2"}])
@example([{"a": "x"}, {"a": float("nan")}])
def test_dumps_of_string_records_equals_stdlib(value) -> None:
    assert outcome(jsonio.dumps, value) == outcome(stdlib_dumps, value)


_ints = st.integers() | st.integers(min_value=-(2**200), max_value=2**200)


@st.composite
def _int_lists(draw):
    """1-6 ints, perhaps with one item of another kind (a bool, an IntEnum, a
    float, an int too long to print, a str), in a list or a tuple at depth 0-2."""
    items = draw(st.lists(_ints, min_size=1, max_size=6))
    odd = draw(st.sampled_from([None, True, False, Level.LOW, 1.0, -0.0, 2.5, math.nan, 10**5000, "1"]))
    if odd is not None:
        items.insert(draw(st.integers(0, len(items))), odd)
    value = tuple(items) if draw(st.booleans()) else items
    for _ in range(draw(st.integers(0, 2))):
        value = {"edges": value} if draw(st.booleans()) else [value]
    return value


@settings(max_examples=500, deadline=None)
@given(_int_lists())
@example([[0, 1], [0, 2]])
@example([1, True])
@example([1, Level.LOW])
@example([1, 2.0])
@example([2**70, -(10**20), 0])
@example([1, 10**5000])
def test_dumps_of_int_lists_equals_stdlib(value) -> None:
    assert outcome(jsonio.dumps, value) == outcome(stdlib_dumps, value)


def _cyclic(container, link):
    link(container)
    return container


@pytest.mark.parametrize(
    ("value", "error"),
    [
        (math.nan, ValueError("Out of range float values are not JSON compliant: nan")),
        (
            [{"a": "x"}, {"a": math.nan}],
            ValueError("Out of range float values are not JSON compliant: nan"),
        ),
        ([math.inf], ValueError("Out of range float values are not JSON compliant: inf")),
        ({-math.inf: 1}, ValueError("Out of range float values are not JSON compliant: -inf")),
        ({"a": {1, 2}}, TypeError("Object of type set is not JSON serializable")),
        ({frozenset(): 1}, TypeError("keys must be str, int, float, bool or None, not frozenset")),
        (_cyclic([], lambda c: c.append(c)), ValueError("Circular reference detected")),
        (_cyclic({}, lambda c: c.__setitem__("self", [c])), ValueError("Circular reference detected")),
    ],
    ids=["nan", "nan-in-a-later-record", "inf-in-list", "-inf-key", "set-value", "frozenset-key",
         "cyclic-list", "cyclic-dict"],
)
def test_dumps_raises_the_stdlib_error(value, error) -> None:
    with pytest.raises(type(error)) as info:
        jsonio.dumps(value)
    assert str(info.value) == str(error)
    assert outcome(jsonio.dumps, value) == outcome(stdlib_dumps, value)


# --- strict reading -------------------------------------------------------------------

@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_loads_rejects_non_finite_constants(constant) -> None:
    with pytest.raises(InputDataError, match=f"{constant} is not valid JSON"):
        jsonio.loads(f'{{"arity": {constant}}}', what="corpus JSON")


def test_read_text_rejects_a_path_with_nul() -> None:
    with pytest.raises(ConfigError, match="cannot read lexicon"):
        jsonio.read_text("a\0b", "lexicon")


# --- every loader against arbitrary JSON values -----------------------------------------

_json_texts = st.text(max_size=6) | st.sampled_from(
    ["x y", "book", "OLD", "agent", "hasProp", "-1"]
) | st.builds(str.__mul__, st.sampled_from(["book", "OLD", "x y", "é"]), st.integers(60, 600))
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _json_texts,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_json_texts, inner, max_size=4),
    max_leaves=12,
)

_RECORD = {"sense": "book#1", "gloss": "", "dims": {"hasProp": [[1.0, "old"], [0.5, "heavy"]]}}
#: One well-formed document per loader; the fuzz replaces parts of it.
LOADERS = {
    "corpus_from_json": (corpus_from_json, {"assertions": [
        {"prop": "RIDE", "arity": 2, "position": "agent", "concept": "book",
         "polarity": "sensible"},
        {"prop": "OLD", "arity": 1, "position": None, "concept": "book#1",
         "polarity": "nonsensical"},
    ]}),
    "dag_from_json": (dag_from_json, {
        "nodes": [
            {"id": 0, "extent": ["a", "b"], "props": ["P"], "members": ["b"]},
            {"id": 1, "extent": ["a"], "props": ["Q"], "members": ["a"]},
        ],
        "edges": [[0, 1]],
        "root": 0,
    }),
    "lexicon_from_json": (lexicon_from_json, {"OLD": {"trope": "oldness", "cat": "property"}}),
    "meaning_record_from_json": (meaning_record_from_json, _RECORD),
    "meanings_from_json_text": (
        lambda v: meanings_from_json_text(json.dumps(v)), [_RECORD, {**_RECORD, "sense": "book#2"}]
    ),
    "MockProvider": (  # MockProvider.from_file passes on JSON objects only
        lambda v: MockProvider(v) if isinstance(v, dict) else None,
        {"book": {"hasProp": ["heavy", "old"], "agentOf": ["moved"]}},
    ),
}


@st.composite
def _mutants(draw, document):
    """document with one to three parts replaced by arbitrary JSON values or keys renamed."""
    document = copy.deepcopy(document)
    for _ in range(draw(st.integers(1, 3))):
        slots: list[tuple[object, object]] = []
        stack = [document]
        while stack:
            node = stack.pop()
            if isinstance(node, dict):
                pairs = list(node.items())
            elif isinstance(node, list):
                pairs = list(enumerate(node))
            else:
                continue
            for key, child in pairs:
                slots.append((node, key))
                stack.append(child)
        if not slots:
            break
        node, key = draw(st.sampled_from(slots))
        if isinstance(node, dict) and draw(st.booleans()):
            node[draw(_json_texts)] = node.pop(key)
        else:
            node[key] = draw(_json_values)
    return document


@pytest.mark.parametrize("loader", sorted(LOADERS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_loaders_raise_only_sensekit_errors(loader, data) -> None:
    load, document = LOADERS[loader]
    value = data.draw(_json_values | _mutants(document))
    try:
        load(value)
    except SensekitError as exc:
        assert len(str(exc)) < 1024  # each value it repeats is cut to about 200 characters


_LEAF_DAG = {
    "nodes": [{"id": 0, "extent": ["a"], "props": ["P"], "members": ["a"]}],
    "edges": [],
    "root": 0,
}


# One case per escape the fuzz test above is not sure to draw.  JSON text
# spells the last three ("1e400" parses to inf); an infinite root reaches
# only library callers, now that loads() is strict.
@pytest.mark.parametrize(
    ("loader", "value", "error"),
    [
        (dag_from_json, {**_LEAF_DAG, "root": -math.inf}, OntologyError),
        (meaning_record_from_json, {"sense": "w", "dims": {"hasProp": [{"x": 1}]}},
         MeaningStoreError),
        (meaning_record_from_json, {"sense": "w", "dims": {"hasProp": [[10**400, "x"]]}},
         MeaningStoreError),
        (corpus_from_json, {"assertions": [{"prop": "P", "arity": 1e400, "concept": "a",
                                            "polarity": "sensible"}]}, InputDataError),
    ],
    ids=["root-minus-inf", "pair-object", "weight-overflows-float", "arity-1e400"],
)
def test_loader_raises_its_error_family(loader, value, error) -> None:
    with pytest.raises(error):
        loader(value)
