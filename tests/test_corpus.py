from __future__ import annotations

import random
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from sensekit import jsonio
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
    corpus_from_json,
    corpus_from_json_text,
    corpus_to_json,
    corpus_to_json_text,
    extent,
    parse_corpus,
    scan_corpus,
    serialize_corpus,
)
from sensekit.corpus import _sensible_of
from sensekit.errors import CorpusSyntaxError, InputDataError

from conftest import random_assertion_set
from oracles import brute_force_conflicts, full_scan_extent, reference_normalize, reference_scan_corpus


# --- domain type validation ---------------------------------------------------

def test_concept_id_accepts_sense_suffix() -> None:
    c = ConceptId("book#1")
    assert c.base == "book"
    assert c.sense == 1


@pytest.mark.parametrize("bad", ["", "Apple", "has space", "book#0", "#1", "a#", None, 5, b"apple", ["apple"]])
def test_concept_id_rejects_invalid(bad: object) -> None:
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
        {"name": "OLD", "arity": True},
        {"name": "RIDE", "arity": 2.0, "position": AGENT},
        {"name": 5},
        {"name": None},
        {"name": b"RED"},
        {"name": ["RED"], "arity": 2, "position": AGENT},
    ],
)
def test_property_key_rejects_invalid(kwargs: dict) -> None:
    with pytest.raises(ValueError):
        PropertyKey(**kwargs)


@pytest.mark.parametrize(
    ("make", "shown"),
    [
        (lambda: ConceptId(None), "invalid concept id None: expected a lowercase token"),
        (lambda: ConceptId(5), "invalid concept id 5: expected a lowercase token"),
        (lambda: PropertyKey(5), "invalid property name 5: expected an uppercase token"),
        (lambda: PropertyKey(None, 2, AGENT), "invalid property name None: expected an uppercase token"),
        (lambda: PropertyKey([10**5000]), "invalid property name <list too large to print>: expected"),
    ],
    ids=["concept-None", "concept-int", "property-int", "property-None", "property-huge-list"],
)
def test_tokens_reject_a_non_str_with_their_own_message(make, shown: str) -> None:
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value).startswith(shown)


@pytest.mark.parametrize("make", [ConceptId, PropertyKey, lambda t: PropertyKey(t, 2, AGENT)])
@pytest.mark.parametrize("end", ["\n", "\r", "\x00", " "])
def test_tokens_refuse_a_trailing_character(make, end: str) -> None:
    token = "apple" if make is ConceptId else "RED"
    make(token)
    with pytest.raises(ValueError, match="invalid"):
        make(token + end)


@pytest.mark.parametrize(
    ("kwargs", "shown"),
    [
        ({"arity": 10**5000}, "arity must be 1 or 2, got <int too large to print>"),
        ({"arity": [10**5000]}, "arity must be 1 or 2, got <list too large to print>"),
        ({"arity": 10**300}, f"arity must be 1 or 2, got {str(10**300)[:200]}... (301 characters)"),
        ({"arity": 2, "position": 10**5000},
         "arity-2 properties need position 'agent' or 'object', got <int too large to print>"),
    ],
    ids=["huge-arity", "list-of-huge-arity", "long-arity", "huge-position"],
)
def test_property_key_echoes_a_huge_value_bounded(kwargs: dict, shown: str) -> None:
    with pytest.raises(ValueError) as err:
        PropertyKey("A", **kwargs)
    assert str(err.value) == shown


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


_EXPECTED_FORMS = "expected '+ PROP concept', '- PROP concept', '+ REL(a, b)', or '- REL(a, b)'"


@pytest.mark.parametrize("size", [200, 201, 400_000])
def test_syntax_error_echoes_at_most_200_characters_of_the_line(size: int) -> None:
    line = "? " + "x" * (size - 2)
    with pytest.raises(CorpusSyntaxError) as err:
        parse_corpus("+ OLD trip\n" + line + "\n")
    shown = repr(line) if size <= 200 else f"{line[:200]!r}... ({size} characters)"
    assert str(err.value) == f"line 2: cannot parse {shown}: {_EXPECTED_FORMS}"


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


def _strip_comment_by_char(raw: str) -> str:
    """The comment rule as a character loop: '#' at the start or after isspace()."""
    for i, ch in enumerate(raw):
        if ch == "#" and (i == 0 or raw[i - 1].isspace()):
            return raw[:i]
    return raw


# Every whitespace character that can sit inside a line: \t, \x1f, U+00A0, U+3000, ...
_IN_LINE_SPACES = [
    c for c in map(chr, range(sys.maxunicode + 1))
    if c.isspace() and len(f"a{c}b".splitlines()) == 1
]


@pytest.mark.parametrize("space", _IN_LINE_SPACES, ids=lambda c: f"U+{ord(c):04X}")
def test_comment_after_any_in_line_whitespace(space: str) -> None:
    lines = [
        f"+ OLD trip{space}#{space}note",
        f"+ POPULAR book#1{space}# a#b",
        f"{space}# only a comment",
        f"#{space}leading",
        f"+ RIDE(human,{space}bike){space}#",
        "+ NEW x#2",
    ]
    stripped = "\n".join(_strip_comment_by_char(line) for line in lines)
    assert scan_corpus("\n".join(lines)) == scan_corpus(stripped)
    assert len(scan_corpus(stripped)) == 5


def test_in_line_spaces_cover_the_known_cases() -> None:
    assert {"\t", " ", "\x1f", "\u00a0", "\u3000"} <= set(_IN_LINE_SPACES)
    assert not {"\n", "\r", "\x0b", "\x85", "\u2028"} & set(_IN_LINE_SPACES)


def test_scan_shares_equal_tokens_and_repeated_facts() -> None:
    scanned = scan_corpus(
        "+ OLD trip\n+ HEAVY trip\n+ OLD trip\n+ RIDE(trip, human)\n+ RIDE@agent trip\n"
    )
    old, heavy, again, agent, obj, written = (a for _, a in scanned)
    assert old.concept is heavy.concept is again.concept is agent.concept
    assert again is old
    assert written is agent
    assert agent.property.token == "RIDE@agent" and obj.property.token == "RIDE@object"


_LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def test_line_breaks_are_every_splitlines_break() -> None:
    breaks = {c for c in map(chr, range(sys.maxunicode + 1)) if len(f"a{c}b".splitlines()) == 2}
    assert breaks == set(_LINE_BREAKS) - {"\r\n"}


_gap = st.text(st.sampled_from(_IN_LINE_SPACES), min_size=1, max_size=2)
_pad = st.text(st.sampled_from(_IN_LINE_SPACES), max_size=2)


def _fact_lines(sign, prop, rel, concept):
    """Unary or positional lines ('+ OLD trip') and binary ones ('- RIDE( a ,b)')."""
    return st.one_of(
        st.builds("{}{}{}{}{}".format, sign, _gap, prop, _gap, concept),
        st.builds("{}{}{}({}{}{},{}{}{})".format, sign, _gap, rel, _pad, concept, _pad, _pad, concept, _pad),
    )


_signs = st.sampled_from(["+", "-"])
_props = st.sampled_from(["OLD", "NEW", "A-B", "RIDE@agent", "RIDE@object", "A-B@agent"])
_rels = st.sampled_from(["RIDE", "A-B"])
_concepts_tok = st.sampled_from(["trip", "car", "book#1", "book#12", "a-b_c0"])
_good_line = st.one_of(_fact_lines(_signs, _props, _rels, _concepts_tok), st.just(""))
_bad_line = st.one_of(
    _fact_lines(
        _signs | st.sampled_from(["", "?", "+-", "--"]),
        _props | st.sampled_from(["old", "RIDE@driver", "OLD@", "R(X", "X" * 201]),
        _rels | st.sampled_from(["ride", "RIDE@agent", "R X"]),
        _concepts_tok | st.sampled_from(["Trip", "trip#0", "#1", "tr(ip", "a,b", "x" * 201]),
    ),
    st.text(st.sampled_from(list("+-#(),@ aZ1\t") + ["\u3000"]), max_size=12),
)
# A comment starts after any in-line space; a '#' glued to a token is part of it.
_comment = st.builds(
    "{}#{}".format, st.sampled_from(_IN_LINE_SPACES + [""]), st.sampled_from(["", " note", "#", "1", "x#1"])
)


def _framed(body):
    return st.builds("{}{}{}{}".format, _pad, body, st.just("") | _comment, _pad)


# Mostly good lines, so that texts scan far and repeat facts, then at most one
# line that may be bad; each line ends in any str.splitlines() break, or none.
_corpus_texts = st.builds(
    lambda rows, bad, at, end: "".join(rows[:at] + bad + rows[at:]) + end,
    st.lists(st.builds(str.__add__, _framed(_good_line), st.sampled_from(_LINE_BREAKS)), max_size=12),
    st.lists(st.builds(str.__add__, _framed(_bad_line), st.sampled_from(_LINE_BREAKS)), max_size=1),
    st.integers(0, 12),
    st.just("") | _framed(_good_line | _bad_line),
)


def _scan_outcome(scan, text: str):
    """The (line, message) of the CorpusSyntaxError scan raises, or its pairs with
    the first index of each assertion, concept and property object (same `is`)."""
    try:
        pairs = scan(text)
    except CorpusSyntaxError as exc:
        return exc.line, str(exc)

    def sharing(objects) -> list[int]:
        first: dict[int, int] = {}
        return [first.setdefault(id(o), i) for i, o in enumerate(objects)]

    return (pairs, sharing(a for _, a in pairs), sharing(a.concept for _, a in pairs),
            sharing(a.property for _, a in pairs))


@settings(max_examples=500, deadline=None)
@given(_corpus_texts)
@example("+- OLD trip\n")
@example("+ OLD trip extra\n+ RIDE (a, b)\n")
@example("+ RIDE(a,b) # c\n+ RIDE@agent a\n- RIDE( a , b )\n+ OLD a\n+\tOLD\u3000a\n")
@example("+ OLD trip\x1f#\x1fnote\r\n+ OLD trip#1\u2028+ OLD  trip")
def test_prop_scan_equals_reference_scanner(text: str) -> None:
    assert _scan_outcome(scan_corpus, text) == _scan_outcome(reference_scan_corpus, text)


@pytest.mark.parametrize("brk", _LINE_BREAKS, ids=lambda b: "+".join(f"U+{ord(c):04X}" for c in b))
def test_scan_equals_reference_scanner_for_every_in_line_space(brk: str) -> None:
    for space in _IN_LINE_SPACES:
        lines = [f"+{space}OLD{space}trip{space}#{space}note", f"-{space}RIDE({space}a,b){space}#",
                 f"{space}# only", "+ NEW x#2", f"+ RIDE@agent{space}a", f"+{space}old{space}trip"]
        for text in (brk.join(lines[:-1]), brk.join(lines)):
            assert _scan_outcome(scan_corpus, text) == _scan_outcome(reference_scan_corpus, text)


def test_json_shares_equal_tokens() -> None:
    entry = {"prop": "RIDE", "arity": 2, "position": "agent", "polarity": "sensible"}
    rows = [{**entry, "concept": "bike"}, {**entry, "concept": "car"},
            {**entry, "concept": "bike", "polarity": "nonsensical"}]
    aset = corpus_from_json({"assertions": rows})
    props = {id(a.property) for a in aset.assertions}
    concepts = {id(a.concept) for a in aset.assertions}
    assert len(props) == 1 and len(concepts) == 2


@pytest.mark.parametrize(
    ("bad_line", "message"),
    [
        ("+ OLD Trip", "invalid concept id 'Trip'"),
        ("+ RIDE(trip, Bike)", "invalid concept id 'Bike'"),
        ("+ RIDE(Bike, trip)", "invalid concept id 'Bike'"),
        ("+ OLD trip#0", "invalid concept id 'trip#0'"),
        ("+ OLD " + "X" * 201, f"invalid concept id {'X' * 200!r}... (201 characters): expected"),
    ],
)
def test_bad_token_on_a_late_line_reports_that_line(bad_line: str, message: str) -> None:
    good = "+ OLD trip\n+ RIDE(trip, bike)\n# gap\n\n- HEAVY trip\n"
    with pytest.raises(CorpusSyntaxError) as err:
        scan_corpus(good + bad_line + "\n" + bad_line + "\n")
    assert err.value.line == 6
    assert message in str(err.value)


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


def test_json_missing_arity_means_unary() -> None:
    entry = {"prop": "OLD", "concept": "trip", "polarity": "sensible"}
    aset = corpus_from_json({"assertions": [entry]})
    assert aset.assertions[0].property == PropertyKey("OLD")


@pytest.mark.parametrize("arity", [1.9, 2.7, 1.0, "1", True, False, None, [1], 0, 3, 10**30])
def test_json_arity_must_be_the_integer_1_or_2(arity) -> None:
    entry = {"prop": "OLD", "arity": arity, "concept": "trip", "polarity": "sensible"}
    with pytest.raises(InputDataError, match=r"assertion 0: arity must be 1 or 2, got"):
        corpus_from_json({"assertions": [entry]})


@pytest.mark.parametrize("field", ["prop", "concept", "polarity"])
@pytest.mark.parametrize("value", ["1e400", "1", "true", "null", '["OLD"]', '{"x": 1}'])
def test_json_text_fields_must_be_strings(field: str, value: str) -> None:
    # JSON text, so that 1e400 reaches the loader as the float inf.
    entry = {"prop": '"OLD"', "concept": '"trip"', "polarity": '"sensible"', field: value}
    text = '{"assertions": [{' + ", ".join(f'"{k}": {v}' for k, v in entry.items()) + "}]}"
    with pytest.raises(InputDataError, match=rf"assertion 0: {field} must be a string, got"):
        corpus_from_json_text(text)


@pytest.mark.parametrize(
    ("entries", "message"),
    [
        ([{"prop": "RIDE", "position": ["agent"]}],
         "corpus JSON: assertion 0: arity-1 properties take no position"),
        ([{"prop": "RIDE", "arity": 2, "position": ["agent"]}],
         "corpus JSON: assertion 0: arity-2 properties need position 'agent' or 'object', "
         "got ['agent']"),
        ([{"prop": "RIDE", "arity": 2, "position": "agent"},
          {"prop": "RIDE", "arity": 2, "position": ["agent"]}],
         "corpus JSON: assertion 1: arity-2 properties need position 'agent' or 'object', "
         "got ['agent']"),
        ([{"prop": "bad", "arity": 3}],
         "corpus JSON: assertion 0: invalid property name 'bad': expected an uppercase token"),
        ([{"prop": "RIDE", "arity": 3}], "corpus JSON: assertion 0: arity must be 1 or 2, got 3"),
    ],
)
def test_json_property_errors_keep_their_message(entries: list[dict], message: str) -> None:
    rows = [{"concept": "book", "polarity": "sensible", **e} for e in entries]
    with pytest.raises(InputDataError) as err:
        corpus_from_json({"assertions": rows})
    assert str(err.value) == message


_OLD_TRIP = {"prop": "OLD", "concept": "trip", "polarity": "sensible"}


@pytest.mark.parametrize(
    ("rows", "message"),
    [
        # One row bad in several fields reports the first check that fails:
        # the field types, then arity, then the property, the concept and the
        # polarity.
        ([{"prop": 5, "concept": None, "polarity": 1, "arity": 3}], "assertion 0: prop must be a string, got 5"),
        ([{"prop": "OLD", "concept": None, "polarity": 1, "arity": 3}],
         "assertion 0: concept must be a string, got None"),
        ([{"prop": "bad", "concept": "Bad", "polarity": "maybe", "arity": 1.0}],
         "assertion 0: arity must be 1 or 2, got 1.0"),
        ([{"prop": "bad", "concept": "Bad", "polarity": "maybe", "arity": 3}],
         "assertion 0: invalid property name 'bad': expected an uppercase token"),
        ([{"prop": "RIDE", "arity": 2, "position": "driver", "concept": "Bad", "polarity": "maybe"}],
         "assertion 0: arity-2 properties need position 'agent' or 'object', got 'driver'"),
        ([{"prop": "OLD", "concept": "Bad", "polarity": "maybe"}],
         "assertion 0: invalid concept id 'Bad': expected a lowercase token with an optional #k sense "
         "suffix (k >= 1)"),
        ([{"prop": "OLD", "concept": "trip", "polarity": "maybe", "position": "agent"}],
         "assertion 0: arity-1 properties take no position"),
        ([{"prop": "OLD", "concept": "trip", "polarity": "maybe"}],
         "assertion 0: polarity must be sensible/nonsensical, got 'maybe'"),
        ([{"concept": "Bad", "polarity": "maybe"}], "assertion 0: 'prop'"),
        # A bad row after rows that introduce a new property and concept is
        # reported by its own index, with the same first failing check.
        ([_OLD_TRIP, {**_OLD_TRIP, "prop": "NEW", "concept": "bike"},
          {**_OLD_TRIP, "prop": "NEW", "concept": "bike", "polarity": "maybe"}],
         "assertion 2: polarity must be sensible/nonsensical, got 'maybe'"),
        ([_OLD_TRIP, {**_OLD_TRIP, "prop": "NEW", "concept": "bike"},
          {**_OLD_TRIP, "prop": "NEW", "concept": "Bike", "polarity": "maybe"}],
         "assertion 2: invalid concept id 'Bike': expected a lowercase token with an optional #k sense "
         "suffix (k >= 1)"),
        ([_OLD_TRIP, {**_OLD_TRIP, "prop": "NEW", "concept": "bike", "arity": 2, "position": "agent"},
          {**_OLD_TRIP, "prop": "NEW", "concept": "bike", "arity": 2}],
         "assertion 2: arity-2 properties need position 'agent' or 'object', got None"),
        ([_OLD_TRIP, {**_OLD_TRIP, "prop": "NEW", "concept": "bike", "polarity": "nonsensical"},
          {**_OLD_TRIP, "prop": "NEW", "concept": "bike", "position": ["agent"]}],
         "assertion 2: arity-1 properties take no position"),
    ],
)
def test_json_reports_the_first_bad_field_of_the_first_bad_row(rows: list[dict], message: str) -> None:
    with pytest.raises(InputDataError) as err:
        corpus_from_json({"assertions": rows})
    assert str(err.value) == f"corpus JSON: {message}"


# --- property-based invariants --------------------------------------------------------

_concepts = st.sampled_from([f"c{i}" for i in range(6)] + ["c0#1", "c3#2"])
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
@example(AssertionSet(()))
def test_prop_json_text_equals_dumps_of_json(aset: AssertionSet) -> None:
    assert corpus_to_json_text(aset) == jsonio.dumps(corpus_to_json(aset))


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
# precedes A@agent as a token but follows it by name.  Names and concepts
# that are prefixes of one another check that AssertionSet's sort key orders
# them as the 4-tuple (name, position, concept, polarity) would.
_neighbour_props = st.sampled_from(
    [PropertyKey("A"), PropertyKey("A-B"), PropertyKey("A_B"), PropertyKey("A0"), PropertyKey("AB")]
    + [PropertyKey(n, arity=2, position=p) for n in ("A", "A-B") for p in (AGENT, OBJECT)]
)
_neighbour_lists = st.lists(
    st.builds(
        Assertion,
        property=st.one_of(_neighbour_props, _unary, _binary),
        concept=(_concepts | st.sampled_from(["c0#1", "c0#2", "a", "a#1", "a#10", "a-b"])).map(ConceptId),
        polarity=st.sampled_from([SENSIBLE, NONSENSICAL]),
    ),
    max_size=60,
)


@given(
    _neighbour_lists,
    st.lists(st.one_of(_neighbour_props, _unary, _binary), min_size=1, max_size=6),
)
def test_prop_extent_equals_full_scan(items: list[Assertion], props: list[PropertyKey]) -> None:
    aset = AssertionSet(tuple(items))
    for prop in props:
        assert extent(aset, prop) == full_scan_extent(aset, prop)


@given(
    _neighbour_lists,
    st.randoms(use_true_random=False),
)
def test_prop_normalize_equals_reference(items: list[Assertion], rng: random.Random) -> None:
    # Equal-but-distinct copies of some items, and some items twice.
    copies = [
        Assertion(PropertyKey(a.property.name, a.property.arity, a.property.position),
                  ConceptId(a.concept.name), a.polarity)
        for a in items if rng.random() < 0.3
    ]
    mixed = items + copies + [a for a in items if rng.random() < 0.2]
    rng.shuffle(mixed)
    aset = AssertionSet(tuple(mixed))
    assert (aset.assertions, aset.concepts) == reference_normalize(mixed)


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


# (name, arity, position) of the _neighbour_props names, as corpus JSON rows spell them.
_ROW_PROPS = [("A", 1, None), ("A-B", 1, None), ("A_B", 1, None), ("A0", 1, None)] + [
    (name, 2, position) for name in ("A", "A-B") for position in (AGENT, OBJECT)
]
_row_facts = st.tuples(
    st.sampled_from(_ROW_PROPS),
    st.sampled_from(["c0", "c0#1", "c0#2", "c1", "a", "a#1", "a#10", "a-b"]),
    st.sampled_from([SENSIBLE, NONSENSICAL]),
)


def _reference_json_text(ordered: tuple[Assertion, ...]) -> str:
    return jsonio.dumps({"assertions": [
        {"prop": a.property.name, "arity": a.property.arity, "position": a.property.position,
         "concept": a.concept.name, "polarity": a.polarity}
        for a in ordered
    ]})


@given(st.lists(_row_facts, max_size=40), st.randoms(use_true_random=False))
@example([], random.Random(0))
def test_prop_json_rows_and_assertions_make_equal_sets(facts: list, rng: random.Random) -> None:
    """corpus_from_json fills the runs from rows, AssertionSet from Assertions:
    on shuffled, repeated and conflicting rows they agree with each other and
    with the oracles."""
    facts = facts + [f for f in facts if rng.random() < 0.3]
    rng.shuffle(facts)
    rows = []
    for (name, arity, position), concept, polarity in facts:
        row = {"prop": name, "concept": concept, "polarity": polarity}
        if arity == 2 or rng.random() < 0.5:  # a unary row may leave out arity and position
            row.update(arity=arity, position=position)
        rows.append(row)
    # A fresh PropertyKey and ConceptId per fact, so equal properties come in
    # distinct objects and their groups merge.
    items = [Assertion(PropertyKey(*prop), ConceptId(concept), polarity) for prop, concept, polarity in facts]
    from_rows = corpus_from_json({"assertions": rows})
    from_items = AssertionSet(items)
    assert from_rows == from_items and hash(from_rows) == hash(from_items)
    ordered, concepts = reference_normalize(items)
    serialized = "".join(f"{'+' if a.is_sensible else '-'} {a.property.token} {a.concept.name}\n" for a in ordered)
    for aset in (from_rows, from_items):
        assert (aset.assertions, aset.concepts) == (ordered, concepts)
        assert len(aset) == len(ordered)
        # Every property a row may name, present or absent, and one no row names.
        for prop in [PropertyKey(*prop) for prop in _ROW_PROPS] + [PropertyKey("AB")]:
            assert extent(aset, prop) == full_scan_extent(aset, prop)
        assert check_consistency(aset) == brute_force_conflicts(aset)
        assert corpus_to_json_text(aset) == _reference_json_text(ordered) == jsonio.dumps(corpus_to_json(aset))
        assert serialize_corpus(aset) == serialized


@given(st.lists(st.one_of(_neighbour_props, _unary, _binary), max_size=12), _concepts)
def test_prop_sensible_of_equals_the_constructor(props: list[PropertyKey], concept: str) -> None:
    """elicit's set, built straight into runs from keys built unchecked, equals
    the one built from Assertions."""
    subject = ConceptId(concept)
    built = _sensible_of(subject, [(prop.name, prop.position) for prop in props])
    want = AssertionSet(Assertion(prop, subject, SENSIBLE) for prop in props)
    assert built == want and hash(built) == hash(want)
    assert built._runs.keys() == want._runs.keys()
    for (key, _, _), (prop, _, _) in zip(built._runs.values(), want._runs.values()):
        assert (key, repr(key), hash(key)) == (prop, repr(prop), hash(prop))
    assert (built.assertions, built.concepts, len(built)) == (want.assertions, want.concepts, len(want))
    assert corpus_to_json_text(built) == corpus_to_json_text(want)
