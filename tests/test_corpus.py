from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from sensekit.corpus import (
    AGENT,
    NONSENSICAL,
    OBJECT,
    SENSIBLE,
    Assertion,
    AssertionSet,
    ConceptId,
    PropertyKey,
    check_consistency,
    conflict_line_numbers,
    corpus_from_json_text,
    corpus_to_json,
    corpus_to_json_text,
    extent,
    parse_corpus,
    scan_corpus,
    serialize_corpus,
)
from sensekit.errors import CorpusSyntaxError

from conftest import random_assertion_set
from oracles import full_scan_extent


# --- domain type validation ---------------------------------------------------

def test_concept_id_accepts_sense_suffix() -> None:
    c = ConceptId("book#1")
    assert c.base == "book"
    assert c.sense == 1


@pytest.mark.parametrize("bad", ["", "Apple", "has space", "book#0", "#1", "a#"])
def test_concept_id_rejects_invalid(bad: str) -> None:
    with pytest.raises(ValueError):
        ConceptId(bad)


def test_property_key_positions() -> None:
    assert PropertyKey("DELICIOUS").token == "DELICIOUS"
    assert PropertyKey("RIDE", arity=2, position=AGENT).token == "RIDE@agent"
    assert PropertyKey.from_token("RIDE@object") == PropertyKey("RIDE", 2, OBJECT)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"name": "lower"},
        {"name": "RIDE", "arity": 1, "position": AGENT},
        {"name": "RIDE", "arity": 2, "position": None},
        {"name": "RIDE", "arity": 2, "position": "driver"},
        {"name": "RIDE", "arity": 3, "position": AGENT},
    ],
)
def test_property_key_rejects_invalid(kwargs: dict) -> None:
    with pytest.raises(ValueError):
        PropertyKey(**kwargs)


def test_assertion_rejects_bad_polarity() -> None:
    with pytest.raises(ValueError):
        Assertion(PropertyKey("OLD"), ConceptId("trip"), "maybe")


# --- parsing -------------------------------------------------------------------

def test_parse_sensible_unary_line() -> None:
    aset = parse_corpus("+ DELICIOUS apple\n")
    assert aset.assertions == (
        Assertion(PropertyKey("DELICIOUS"), ConceptId("apple"), SENSIBLE),
    )


def test_parse_nonsensical_unary_line() -> None:
    aset = parse_corpus("- DELICIOUS thursday\n")
    assert aset.assertions == (
        Assertion(PropertyKey("DELICIOUS"), ConceptId("thursday"), NONSENSICAL),
    )


def test_parse_binary_line_expands_to_two_positions() -> None:
    aset = parse_corpus("+ RIDE(human, bike)\n")
    assert set(aset.assertions) == {
        Assertion(PropertyKey("RIDE", 2, AGENT), ConceptId("human"), SENSIBLE),
        Assertion(PropertyKey("RIDE", 2, OBJECT), ConceptId("bike"), SENSIBLE),
    }


def test_parse_skips_comments_and_blank_lines() -> None:
    text = "# header\n\n+ OLD trip  # trailing comment\n   \n"
    aset = parse_corpus(text)
    assert len(aset) == 1


def test_sense_suffix_is_not_a_comment() -> None:
    aset = parse_corpus("+ POPULAR book#1\n")
    assert aset.assertions[0].concept == ConceptId("book#1")


def test_syntax_error_carries_line_number() -> None:
    with pytest.raises(CorpusSyntaxError) as err:
        parse_corpus("+ OLD trip\nnot a line\n")
    assert err.value.line == 2
    assert "line 2" in str(err.value)


@pytest.mark.parametrize(
    "line",
    ["+DELICIOUS apple", "? OLD trip", "+ old trip", "+ RIDE(human)", "+ RIDE(a, b, c)", "+ OLD"],
)
def test_malformed_lines_rejected(line: str) -> None:
    with pytest.raises(CorpusSyntaxError):
        parse_corpus(line + "\n")


def test_exact_duplicates_collapse() -> None:
    aset = parse_corpus("+ OLD trip\n+ OLD trip\n")
    assert len(aset) == 1


def test_conflicting_duplicate_line_numbers_reported() -> None:
    scanned = scan_corpus("+ OLD trip\n# gap\n- OLD trip\n")
    lines = conflict_line_numbers(scanned)
    assert lines == {(PropertyKey("OLD"), ConceptId("trip")): (1, 3)}


# --- extents ---------------------------------------------------------------------

def test_extent_excludes_nonsensical() -> None:
    aset = parse_corpus(
        "+ DELICIOUS apple\n+ DELICIOUS cake\n+ DELICIOUS soup\n- DELICIOUS thursday\n"
    )
    assert extent(aset, PropertyKey("DELICIOUS")) == frozenset(
        {ConceptId("apple"), ConceptId("cake"), ConceptId("soup")}
    )


def test_extent_of_empty_corpus_is_empty() -> None:
    assert extent(AssertionSet(()), PropertyKey("DELICIOUS")) == frozenset()


def test_extent_negative_only_property_is_empty() -> None:
    aset = parse_corpus("- IMMINENT sugar\n")
    assert extent(aset, PropertyKey("IMMINENT")) == frozenset()


def test_extent_unknown_property_is_empty_not_error() -> None:
    aset = parse_corpus("+ OLD trip\n")
    assert extent(aset, PropertyKey("HEAVY")) == frozenset()


# --- consistency ------------------------------------------------------------------

def test_direct_contradiction_reported() -> None:
    aset = parse_corpus("+ OLD trip\n- OLD trip\n")
    assert check_consistency(aset) == [(PropertyKey("OLD"), ConceptId("trip"))]


def test_consistent_corpus_reports_nothing() -> None:
    aset = parse_corpus("+ OLD trip\n- HEAVY trip\n+ HEAVY car\n")
    assert check_consistency(aset) == []


def test_same_polarity_twice_is_not_a_conflict() -> None:
    aset = parse_corpus("+ HEAVY car\n+ HEAVY rock\n")
    assert check_consistency(aset) == []


# --- serialization ------------------------------------------------------------------

def test_round_trip_leaf_corpus(leaf_corpus) -> None:
    assert parse_corpus(serialize_corpus(leaf_corpus)) == leaf_corpus


def test_serialize_parse_serialize_is_byte_identical(leaf_corpus) -> None:
    once = serialize_corpus(leaf_corpus)
    twice = serialize_corpus(parse_corpus(once))
    assert once == twice


def test_json_round_trip(leaf_corpus) -> None:
    text = corpus_to_json_text(leaf_corpus)
    assert corpus_from_json_text(text) == leaf_corpus
    assert corpus_to_json_text(corpus_from_json_text(text)) == text


def test_json_shape() -> None:
    aset = parse_corpus("+ RIDE(human, bike)\n")
    data = corpus_to_json(aset)
    assert data["assertions"] == [
        {
            "prop": "RIDE",
            "arity": 2,
            "position": "agent",
            "concept": "human",
            "polarity": "sensible",
        },
        {
            "prop": "RIDE",
            "arity": 2,
            "position": "object",
            "concept": "bike",
            "polarity": "sensible",
        },
    ]


# --- property-based invariants --------------------------------------------------------

_concepts = st.sampled_from([f"c{i}" for i in range(6)])
_unary = st.sampled_from(["ALPHA", "BETA", "GAMMA"]).map(PropertyKey)
_binary = st.tuples(
    st.sampled_from(["REL", "LINK"]), st.sampled_from([AGENT, OBJECT])
).map(lambda t: PropertyKey(t[0], arity=2, position=t[1]))
_assertions = st.builds(
    Assertion,
    property=st.one_of(_unary, _binary),
    concept=_concepts.map(ConceptId),
    polarity=st.sampled_from([SENSIBLE, NONSENSICAL]),
)
_assertion_sets = st.lists(_assertions, max_size=40).map(
    lambda items: AssertionSet(tuple(items))
)


@given(_assertion_sets)
def test_prop_round_trip_identity(aset: AssertionSet) -> None:
    assert parse_corpus(serialize_corpus(aset)) == aset


@given(_assertion_sets)
def test_prop_extents_within_concepts(aset: AssertionSet) -> None:
    for prop in {a.property for a in aset.assertions}:
        assert extent(aset, prop) <= aset.concepts


@given(_assertion_sets, _assertions)
def test_prop_extent_monotonicity(aset: AssertionSet, extra: Assertion) -> None:
    before = extent(aset, extra.property)
    after = extent(AssertionSet(aset.assertions + (extra,)), extra.property)
    if extra.is_sensible:
        assert before <= after
    else:
        assert after <= before


# Names whose (name, position) order differs from their token order: A-B
# precedes A@agent as a token but follows it by name.
_neighbour_props = st.sampled_from(
    [PropertyKey("A"), PropertyKey("A-B"), PropertyKey("A0"), PropertyKey("AB")]
    + [PropertyKey(n, arity=2, position=p) for n in ("A", "A-B") for p in (AGENT, OBJECT)]
)


@given(
    st.lists(
        st.builds(
            Assertion,
            property=st.one_of(_neighbour_props, _unary, _binary),
            concept=_concepts.map(ConceptId),
            polarity=st.sampled_from([SENSIBLE, NONSENSICAL]),
        ),
        max_size=60,
    ),
    st.lists(st.one_of(_neighbour_props, _unary, _binary), min_size=1, max_size=6),
)
def test_prop_extent_equals_full_scan(items: list[Assertion], props: list[PropertyKey]) -> None:
    aset = AssertionSet(tuple(items))
    for prop in props:
        assert extent(aset, prop) == full_scan_extent(aset, prop)


@given(st.sampled_from(["MAKE", "RIDE"]), _concepts, _concepts)
def test_prop_binary_expansion_shape(name: str, left: str, right: str) -> None:
    aset = parse_corpus(f"+ {name}({left}, {right})\n")
    assert len(aset) == 2
    props = sorted((a.property for a in aset.assertions), key=lambda p: p.position or "")
    assert props[0].name == props[1].name == name
    assert {p.position for p in props} == {AGENT, OBJECT}


def test_random_sets_parse_back(leaf_corpus) -> None:
    rng = random.Random(7)
    for _ in range(25):
        aset = random_assertion_set(rng)
        assert parse_corpus(serialize_corpus(aset)) == aset
