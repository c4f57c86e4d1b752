from __future__ import annotations

import gc
import json
import os
import random
import re
import tempfile
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from sensekit import jsonio
from sensekit.corpus import Assertion, ConceptId, PropertyKey, NONSENSICAL, SENSIBLE
from sensekit.elicitation import MockProvider, elicit
from sensekit.errors import ConfigError, InputDataError, LexiconError, MeaningStoreError
from sensekit.semantics import (
    DEFAULT_DIMS,
    RELATION_ALIASES,
    CopularForm,
    CopularStatement,
    LexiconEntry,
    MeaningRecord,
    NominalizationLexicon,
    PrimitiveRelation,
    PrimitiveTriple,
    build_meaning,
    classify,
    gerund,
    lexicon_from_json,
    lexicon_to_json,
    load_lexicon,
    load_meanings,
    meaning_record_from_json,
    meaning_record_to_json,
    meanings_from_json_text,
    meanings_to_json_text,
    nominalize_assertion,
    participle_stem,
    resolve_relation,
    save_meanings,
)
from oracles import reference_escape_surrogates, reference_meanings_from_json_text

REL = PrimitiveRelation

LEXICON = NominalizationLexicon(
    {
        "WISE": LexiconEntry("wisdom", "property"),
        "ARTICULATE": LexiconEntry("articulation", "property"),
        "SAD": LexiconEntry("sadness", "state"),
        "ILL": LexiconEntry("illness", "state"),
        "HUNGRY": LexiconEntry("hunger", "state"),
        "RUNNING": LexiconEntry("running", "activity"),
    }
)


# --- primitive relations and aliases -------------------------------------------

def test_inventory_is_closed_sixteen() -> None:
    assert len(PrimitiveRelation) == 16


def test_every_alias_resolves_to_one_canonical() -> None:
    for alias, target in RELATION_ALIASES.items():
        assert resolve_relation(alias) is target


def test_canonical_names_resolve_to_themselves() -> None:
    for rel in PrimitiveRelation:
        assert resolve_relation(rel.value) is rel


def test_resolution_is_case_insensitive() -> None:
    assert resolve_relation("hasprop") is REL.HAS_PROP
    assert resolve_relation("HASAGENT") is REL.AGENT_OF


def test_every_name_resolves_in_any_case() -> None:
    for name in [rel.value for rel in PrimitiveRelation] + list(RELATION_ALIASES):
        target = resolve_relation(name)
        assert resolve_relation(name.upper()) is target
        assert resolve_relation(name.lower()) is target


def test_unknown_relation_rejected() -> None:
    with pytest.raises(InputDataError):
        resolve_relation("hasVibes")


@pytest.mark.parametrize("name", [5, None, b"hasProp"])
def test_a_relation_name_that_is_not_a_str_is_a_type_error(name) -> None:
    with pytest.raises(TypeError):
        resolve_relation(name)


# --- copular classification ------------------------------------------------------

TABLE_ROWS = [
    (CopularStatement("Frido", CopularForm.NP_PREDICATE, ("dog",)), "Frido instanceOf dog"),
    (
        CopularStatement("Billy the Kid", CopularForm.PROPER_IDENTITY, ("William H. Boney",)),
        "Billy the Kid eq William H. Boney",
    ),
    (CopularStatement("Mary", CopularForm.ADJECTIVE, ("wise",)), "Mary hasProp wisdom"),
    (CopularStatement("Jim", CopularForm.STATE_ADJECTIVE, ("sad",)), "Jim inState sadness"),
    (CopularStatement("Sara", CopularForm.PROGRESSIVE, ("running",)), "Sara agentOf running"),
    (
        CopularStatement("Sara", CopularForm.PASSIVE_PARTICIPLE, ("greeted",)),
        "Sara objectOf greeting",
    ),
    (
        CopularStatement("John", CopularForm.MEASURE, ("height", "5'10\"")),
        "John's height hasValue 5'10\"",
    ),
]


@pytest.mark.parametrize("statement,expected", TABLE_ROWS)
def test_classify_copular_rows(statement: CopularStatement, expected: str) -> None:
    assert classify(statement, LEXICON).serialize() == expected


def test_progressive_event_verb_is_participation() -> None:
    event_lexicon = NominalizationLexicon({"RUNNING": LexiconEntry("running", "event")})
    triple = classify(
        CopularStatement("Sheba", CopularForm.PROGRESSIVE, ("running",)), event_lexicon
    )
    assert triple.serialize() == "Sheba participantIn running"


def test_progressive_defaults_to_agentive_without_lexicon() -> None:
    triple = classify(CopularStatement("Olga", CopularForm.PROGRESSIVE, ("dancing",)))
    assert triple.relation is REL.AGENT_OF


def test_passive_participle_prefers_lexicon_nominal() -> None:
    lex = NominalizationLexicon({"ACKNOWLEDGED": LexiconEntry("acknowledgment", "activity")})
    triple = classify(
        CopularStatement("Sara", CopularForm.PASSIVE_PARTICIPLE, ("acknowledged",)), lex
    )
    assert triple.obj == "acknowledgment"


def test_classify_missing_adjective_entry() -> None:
    with pytest.raises(LexiconError):
        classify(CopularStatement("Mary", CopularForm.ADJECTIVE, ("brave",)))


def test_unknown_form_rejected() -> None:
    with pytest.raises(InputDataError):
        CopularStatement("Mary", "exclamative", ("wise",))


def test_measure_needs_two_payload_tokens() -> None:
    with pytest.raises(InputDataError):
        CopularStatement("John", CopularForm.MEASURE, ("tall",))
    with pytest.raises(InputDataError):
        CopularStatement("Mary", CopularForm.ADJECTIVE, ("wise", "old"))


def test_classify_total_over_all_seven_forms() -> None:
    lex = NominalizationLexicon(
        {
            "WISE": LexiconEntry("wisdom", "property"),
            "SAD": LexiconEntry("sadness", "state"),
        }
    )
    samples = {
        CopularForm.NP_PREDICATE: ("dog",),
        CopularForm.PROPER_IDENTITY: ("JFK",),
        CopularForm.ADJECTIVE: ("wise",),
        CopularForm.STATE_ADJECTIVE: ("sad",),
        CopularForm.PROGRESSIVE: ("running",),
        CopularForm.PASSIVE_PARTICIPLE: ("greeted",),
        CopularForm.MEASURE: ("age", "69 Yrs"),
    }
    for form, payload in samples.items():
        triple = classify(CopularStatement("x", form, payload), lex)
        assert isinstance(triple, PrimitiveTriple)


# --- morphology -------------------------------------------------------------------

@pytest.mark.parametrize(
    "stem,expected",
    [
        ("make", "making"),
        ("ride", "riding"),
        ("drive", "driving"),
        ("manufacture", "manufacturing"),
        ("run", "running"),
        ("greet", "greeting"),
        ("assemble", "assembling"),
    ],
)
def test_gerund_fallback(stem: str, expected: str) -> None:
    assert gerund(stem) == expected


@pytest.mark.parametrize(
    "participle,stem",
    [("greeted", "greet"), ("studied", "study"), ("endorsed", "endors")],
)
def test_participle_stem(participle: str, stem: str) -> None:
    assert participle_stem(participle) == stem


# --- nominalize_assertion -----------------------------------------------------------

def test_nominalize_property_assertion() -> None:
    a = Assertion(PropertyKey("ARTICULATE"), ConceptId("human"), SENSIBLE)
    assert nominalize_assertion(a, LEXICON).serialize() == "human hasProp articulation"


def test_nominalize_state_assertion() -> None:
    a = Assertion(PropertyKey("HUNGRY"), ConceptId("living"), SENSIBLE)
    assert nominalize_assertion(a, LEXICON).serialize() == "living inState hunger"


def test_nominalize_agent_position_assertion() -> None:
    a = Assertion(PropertyKey("MANUFACTURE", 2, "agent"), ConceptId("human"), SENSIBLE)
    assert nominalize_assertion(a).serialize() == "human agentOf manufacturing"


def test_nominalize_object_position_assertion() -> None:
    a = Assertion(PropertyKey("MANUFACTURE", 2, "object"), ConceptId("tool"), SENSIBLE)
    assert nominalize_assertion(a).serialize() == "tool objectOf manufacturing"


def test_nominalize_refuses_nonsensical() -> None:
    a = Assertion(PropertyKey("ARTICULATE"), ConceptId("corner-table"), NONSENSICAL)
    with pytest.raises(InputDataError):
        nominalize_assertion(a, LEXICON)


def test_nominalize_missing_entry() -> None:
    a = Assertion(PropertyKey("BRAVE"), ConceptId("human"), SENSIBLE)
    with pytest.raises(LexiconError):
        nominalize_assertion(a, LEXICON)


def test_nominalize_rejects_non_trope_category_for_unary() -> None:
    lex = NominalizationLexicon({"RUNNING": LexiconEntry("running", "activity")})
    a = Assertion(PropertyKey("RUNNING"), ConceptId("computer"), SENSIBLE)
    with pytest.raises(LexiconError):
        nominalize_assertion(a, lex)


# --- lexicon files ------------------------------------------------------------------

def test_lexicon_json_round_trip() -> None:
    data = lexicon_to_json(LEXICON)
    again = lexicon_from_json(data)
    assert lexicon_to_json(again) == data


def test_lexicon_rejects_bad_category() -> None:
    with pytest.raises(LexiconError):
        lexicon_from_json({"WISE": {"trope": "wisdom", "cat": "vibe"}})


def test_lexicon_rejects_bad_trope() -> None:
    with pytest.raises(LexiconError):
        lexicon_from_json({"WISE": {"trope": "Wisdom!", "cat": "property"}})


@pytest.mark.parametrize(
    "value, shown", [(7, "7"), (None, "None"), (["wisdom"], "['wisdom']")]
)
def test_lexicon_values_are_checked_not_converted(value, shown: str) -> None:
    with pytest.raises(LexiconError) as info:
        lexicon_from_json({"WISE": {"trope": value, "cat": "property"}})
    assert str(info.value) == f"lexicon entry 'WISE': trope must be a lowercase token, got {shown}"
    with pytest.raises(LexiconError) as info:
        lexicon_from_json({"WISE": {"trope": "wisdom", "cat": value}})
    assert str(info.value) == (
        "lexicon entry 'WISE': category must be one of property, state, activity, event, "
        f"got {shown}"
    )


def test_lexicon_entry_refuses_non_strings() -> None:
    with pytest.raises(ValueError, match="trope must be a lowercase token, got 7$"):
        LexiconEntry(7, "property")
    with pytest.raises(ValueError, match="got None$"):
        LexiconEntry("wisdom", None)


def test_lexicon_entry_refuses_a_trailing_newline() -> None:
    LexiconEntry("wise", "property")
    with pytest.raises(ValueError, match=r"got 'wise\\n'$"):
        LexiconEntry("wise\n", "property")


# --- meaning records -----------------------------------------------------------------

def test_build_meaning_max_normalizes() -> None:
    record = build_meaning(
        "book#1",
        [
            (PrimitiveTriple("book#1", REL.HAS_PROP, "influence"), 75),
            (PrimitiveTriple("book#1", REL.HAS_PROP, "profoundness"), 60),
        ],
    )
    assert record.dims[REL.HAS_PROP] == ((1.0, "influence"), (0.8, "profoundness"))


def test_build_meaning_singleton_weight_is_one() -> None:
    record = build_meaning(
        "game", [(PrimitiveTriple("game", REL.OBJECT_OF, "winning"), 17)]
    )
    assert record.dims[REL.OBJECT_OF] == ((1.0, "winning"),)


def test_build_meaning_ties_share_full_weight() -> None:
    record = build_meaning(
        "game",
        [
            (PrimitiveTriple("game", REL.HAS_PROP, "difficulty"), 4),
            (PrimitiveTriple("game", REL.HAS_PROP, "excitement"), 4),
        ],
    )
    assert record.dims[REL.HAS_PROP] == ((1.0, "difficulty"), (1.0, "excitement"))


def test_build_meaning_preserves_count_order() -> None:
    counts = {"a": 9, "b": 7, "c": 3, "d": 1}
    record = build_meaning(
        "word",
        [(PrimitiveTriple("word", REL.HAS_PROP, tok), n) for tok, n in counts.items()],
    )
    weights = {tok: w for w, tok in record.dims[REL.HAS_PROP]}
    assert weights["a"] > weights["b"] > weights["c"] > weights["d"]
    assert max(weights.values()) == 1.0
    assert all(0.0 < w <= 1.0 for w in weights.values())


def test_build_meaning_rejects_empty() -> None:
    with pytest.raises(InputDataError):
        build_meaning("word", [])


def test_build_meaning_rejects_zero_count() -> None:
    with pytest.raises(InputDataError):
        build_meaning("word", [(PrimitiveTriple("word", REL.HAS_PROP, "x"), 0)])


def test_build_meaning_rejects_subject_mismatch() -> None:
    with pytest.raises(InputDataError):
        build_meaning("word", [(PrimitiveTriple("other", REL.HAS_PROP, "x"), 1)])


def test_record_rejects_out_of_range_weight() -> None:
    with pytest.raises(MeaningStoreError):
        MeaningRecord("w", "", {REL.HAS_PROP: ((1.5, "x"),)})
    with pytest.raises(MeaningStoreError):
        MeaningRecord("w", "", {REL.HAS_PROP: ((0.0, "x"),)})


def test_record_rejects_duplicate_tokens() -> None:
    with pytest.raises(MeaningStoreError):
        MeaningRecord("w", "", {REL.HAS_PROP: ((1.0, "x"), (0.5, "x"))})


# --- meaning store -------------------------------------------------------------------

def _sample_records() -> list[MeaningRecord]:
    return [
        build_meaning(
            "book#1",
            [
                (PrimitiveTriple("book#1", REL.HAS_PROP, "influence"), 75),
                (PrimitiveTriple("book#1", REL.HAS_PROP, "profoundness"), 60),
                (PrimitiveTriple("book#1", REL.OBJECT_OF, "writing"), 10),
            ],
            gloss="a published written work",
        ),
        MeaningRecord("game", "", {REL.HAS_PROP: ((1.0, "excitement"),)}),
    ]


def test_store_save_load_round_trip(tmp_path) -> None:
    path = str(tmp_path / "meanings.json")
    records = _sample_records()
    save_meanings(records, path)
    loaded = load_meanings(path)
    assert list(loaded) == sorted(records, key=lambda r: r.sense)


@pytest.mark.parametrize(
    ("load", "what"),
    [
        (load_lexicon, "lexicon"),
        (load_meanings, "meaning store"),
        (MockProvider.from_file, "completion fixture"),
    ],
    ids=["lexicon", "meaning-store", "completion-fixture"],
)
def test_loaders_raise_error_families_for_unreadable_files(load, what, tmp_path) -> None:
    absent = str(tmp_path / "absent.json")
    with pytest.raises(ConfigError, match=re.escape(f"cannot read {what} {absent}")):
        load(absent)
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"caf\xe9": {}}')
    with pytest.raises(InputDataError, match=re.escape(f"{what} {latin1} is not UTF-8")):
        load(str(latin1))


def test_store_serialize_parse_serialize_identical() -> None:
    once = meanings_to_json_text(_sample_records())
    twice = meanings_to_json_text(meanings_from_json_text(once))
    assert once == twice


def test_store_record_json_shape() -> None:
    record = _sample_records()[0]
    data = meaning_record_to_json(record)
    assert set(data) == {"sense", "gloss", "dims"}
    assert data["dims"]["hasProp"][0] == [1.0, "influence"]
    assert meaning_record_from_json(data) == record


def test_store_weight_range_error_carries_location() -> None:
    text = json.dumps(
        [{"sense": "book#1", "gloss": "", "dims": {"hasProp": [[1.5, "influence"]]}}]
    )
    with pytest.raises(MeaningStoreError) as err:
        meanings_from_json_text(text)
    message = str(err.value)
    assert "book#1" in message and "hasProp" in message


def test_store_duplicate_token_error() -> None:
    text = json.dumps(
        [{"sense": "w", "gloss": "", "dims": {"hasProp": [[1.0, "x"], [0.4, "x"]]}}]
    )
    with pytest.raises(MeaningStoreError) as err:
        meanings_from_json_text(text)
    assert "duplicate" in str(err.value)


def test_store_duplicate_sense_rejected() -> None:
    record = MeaningRecord("w", "", {REL.HAS_PROP: ((1.0, "x"),)})
    with pytest.raises(MeaningStoreError):
        meanings_to_json_text([record, record])


def test_store_rejects_non_array() -> None:
    with pytest.raises(MeaningStoreError):
        meanings_from_json_text('{"sense": "w"}')


@pytest.mark.parametrize(
    "pair",
    [["0.5", "x"], [True, "x"], [False, "x"], [None, "x"], [[0.5], "x"], [0.5, 7],
     [0.5, None], [0.5, ["x"]], [0.5, "x", "extra"], [0.5], [], "0.5x", "ab",
     {"x": 1}, 0.5],
)
def test_store_pair_must_be_a_number_and_a_string(pair) -> None:
    text = json.dumps([{"sense": "w", "dims": {"hasProp": [pair]}}])
    with pytest.raises(MeaningStoreError, match=r"record 0: record 'w', dimension 'hasProp': malformed pair"):
        meanings_from_json_text(text)


@pytest.mark.parametrize(
    "names", [("isA", "IsA", "ISA"), ("hasProp", "HASPROP"), ("partOf", "Part")],
    ids=["case-variants", "upper-case", "alias"],
)
def test_store_record_names_each_dimension_once(names) -> None:
    dims = {name: [[0.5, f"t{i}"]] for i, name in enumerate(names)}
    canonical = resolve_relation(names[0]).value
    with pytest.raises(MeaningStoreError) as err:
        meanings_from_json_text(json.dumps([{"sense": "w", "dims": dims}]))
    assert str(err.value) == f"meaning store: record 0 names dimension {canonical!r} twice"
    assert err.value.exit_code == 2


def test_store_integer_weight_loads_as_float() -> None:
    (record,) = meanings_from_json_text('[{"sense": "w", "dims": {"hasProp": [[1, "x"]]}}]')
    ((weight, _),) = record.dimension(REL.HAS_PROP)
    assert weight.__class__ is float and weight == 1.0
    huge = json.dumps([{"sense": "w", "dims": {"hasProp": [[10**400, "x"]]}}])
    with pytest.raises(MeaningStoreError, match=r"record 0: int too large to convert to float"):
        meanings_from_json_text(huge)


@pytest.mark.parametrize(
    ("field", "value"),
    [("sense", 1e400), ("sense", None), ("sense", 7), ("sense", ["w"]),
     ("gloss", None), ("gloss", 0.5), ("gloss", True), ("gloss", {"text": "x"})],
)
def test_store_sense_and_gloss_must_be_strings(field: str, value) -> None:
    raw = {"sense": "w", "gloss": "", "dims": {}, field: value}
    text = json.dumps([raw]).replace("Infinity", "1e400")  # the float parser reads inf
    with pytest.raises(MeaningStoreError, match=rf"record 0: '{field}' must be a string"):
        meanings_from_json_text(text)


@pytest.mark.parametrize(
    ("gloss", "pairs", "message"),
    [(None, (), "'gloss' must be a string, got None"),
     ("", ((0.5, 7),), "record 'x', dimension 'hasProp': malformed pair (0.5, 7)"),
     ("", ((0.5, "a"), (0.5, 7)), "record 'x', dimension 'hasProp': malformed pair (0.5, 7)"),
     ("", ((0.5, "a", "z" * 300),),
      f"record 'x', dimension 'hasProp': malformed pair {repr((0.5, 'a', 'z' * 300))[:200]}... (314 characters)")],
    ids=["gloss-none", "int-token", "int-token-tied", "long-pair"],
)
def test_record_refuses_what_loading_rejects(gloss, pairs, message: str) -> None:
    with pytest.raises(MeaningStoreError, match=f"^{re.escape(message)}$"):
        MeaningRecord("x", gloss, {REL.HAS_PROP: pairs})


@pytest.mark.parametrize("key", ["colour", None, 0])
def test_record_refuses_a_dimension_key_that_is_not_a_relation(key) -> None:
    with pytest.raises(MeaningStoreError) as info:
        MeaningRecord("x", "", {REL.HAS_PROP: ((0.5, "a"),), key: ((0.5, "b"),)})
    assert str(info.value) == f"record 'x': dimension key {key!r} is not a relation"


def test_record_refuses_dims_that_are_not_a_mapping() -> None:
    with pytest.raises(TypeError, match="^dims must be a mapping, not NoneType$"):
        MeaningRecord("w", "", None)


def test_failed_save_leaves_the_store_untouched(tmp_path) -> None:
    path = tmp_path / "meanings.json"
    save_meanings(_sample_records(), str(path))
    before = path.read_bytes()
    twice = MeaningRecord("game", "again", {})
    with pytest.raises(MeaningStoreError, match=r"^duplicate sense 'game' in meaning store$"):
        save_meanings([*_sample_records(), twice], str(path))
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["meanings.json"]


def test_save_refuses_a_repeated_sense_before_it_makes_a_file(tmp_path, monkeypatch) -> None:
    monkeypatch.setattr(os, "open", lambda *args: pytest.fail("a file was made"))
    twice = MeaningRecord("game", "again", {})
    with pytest.raises(MeaningStoreError, match=r"^duplicate sense 'game' in meaning store$"):
        save_meanings([*_sample_records(), twice], str(tmp_path / "meanings.json"))


@pytest.mark.skipif(os.name != "posix", reason="os.chmod sets only the read-only flag here")
def test_save_keeps_the_file_mode(tmp_path) -> None:
    path = tmp_path / "meanings.json"
    # Only the permission bits carry over: the saver owns the new file, so a
    # setuid, setgid or sticky bit is dropped.
    for mode, kept in ((0o644, 0o644), (0o600, 0o600), (0o640, 0o640), (0o7755, 0o755)):
        path.write_text("[]\n", encoding="utf-8")
        os.chmod(path, mode)
        save_meanings(_sample_records(), str(path))
        assert os.stat(path).st_mode & 0o7777 == kept
    for umask in (0o022, 0o077, 0o002):
        fresh = tmp_path / f"new-{umask:o}.json"
        old = os.umask(umask)
        try:
            save_meanings(_sample_records(), str(fresh))
        finally:
            os.umask(old)
        assert os.stat(fresh).st_mode & 0o7777 == 0o666 & ~umask
    assert load_meanings(str(path)) == load_meanings(str(fresh))


def test_save_takes_a_target_name_up_to_name_max(tmp_path) -> None:
    path = tmp_path / ("m" * 250 + ".json")
    save_meanings(_sample_records(), str(path))
    save_meanings(_sample_records(), str(path))
    assert load_meanings(str(path)) == tuple(sorted(_sample_records(), key=lambda r: r.sense))
    assert os.listdir(tmp_path) == [path.name]


def test_save_failing_after_its_first_chunk_leaves_the_store_untouched(tmp_path, monkeypatch) -> None:
    path = tmp_path / "meanings.json"
    save_meanings(_sample_records(), str(path))
    before = path.read_bytes()
    removed: list[int] = []
    unlink = os.unlink
    monkeypatch.setattr(os, "unlink", lambda p: (removed.append(os.path.getsize(p)), unlink(p)))
    paired = MeaningRecord("zz", "\ud83d\ude00", {})  # sorts last: fails on the third chunk
    with pytest.raises(MeaningStoreError, match=r"^record 'zz' holds a surrogate pair"):
        save_meanings([*_sample_records(), paired], str(path))
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["meanings.json"]
    # The temporary file it removed held the two records before the failing one.
    assert removed == [len(before) - len("\n]\n")]


def test_save_escapes_lone_surrogates(tmp_path) -> None:
    # A lone surrogate, each kind at an end of its text, one before an
    # escaped control character, and a low one before a high one.
    records = [
        MeaningRecord("w", "g\ud800", {REL.HAS_PROP: ((1.0, "\udfffa"), (0.5, "\ud800\x01"))}),
        MeaningRecord("v", "", {REL.IN_STATE: ((1.0, "\udc00\ud800"),), REL.IS_A: ((0.5, "ok"),)}),
    ]
    path = tmp_path / "meanings.json"
    save_meanings(records, str(path))
    saved = path.read_bytes().decode("utf-8")
    assert "\\ud800" in saved and "\ud800" not in saved
    assert json.loads(saved) == json.loads(meanings_to_json_text(records))
    assert load_meanings(str(path)) == tuple(sorted(records, key=lambda r: r.sense))


@pytest.mark.parametrize(
    "record",
    [MeaningRecord("w", "a\ud83d\ude00", {}),
     MeaningRecord("w", "", {REL.HAS_PROP: ((1.0, "\udbff\udfff"),)})],
    ids=["gloss", "token"],
)
def test_save_refuses_a_surrogate_pair(record: MeaningRecord, tmp_path) -> None:
    # Escaped, the two would load back as the one character they encode.
    with pytest.raises(MeaningStoreError) as err:
        save_meanings([record], str(tmp_path / "meanings.json"))
    assert str(err.value) == ("record 'w' holds a surrogate pair, which the store would load "
                              "back as one character")
    assert os.listdir(tmp_path) == []


# Lone high and low surrogates, pairs made of them, and text JSON escapes or
# UTF-8 encodes in more than one byte.
_SURROGATE_TEXT = st.lists(st.sampled_from(["\ud800", "\udbff", "\udc00", "\udfff", "\ud83d\ude00",
                                            "\x00", "\\", '"', "\U0001f600", "\u00e9", "%", "a"]),
                           max_size=4).map("".join)


@settings(max_examples=300, deadline=None)
@given(st.lists(
    st.builds(
        lambda sense, gloss, tokens: MeaningRecord(
            sense, gloss, {REL.HAS_PROP: tuple((1.0 / (i + 1), t) for i, t in enumerate(tokens))}
        ),
        st.sampled_from(["a", "b#1", "w", "zz"]),
        _SURROGATE_TEXT,
        st.lists(_SURROGATE_TEXT, max_size=3, unique=True),
    ),
    max_size=4, unique_by=lambda r: r.sense,
))
@example([MeaningRecord("w", "\ud800", {}), MeaningRecord("a", "\udbff\udc00", {})])
def test_prop_save_writes_what_the_surrogate_escaper_wrote(records: list[MeaningRecord]) -> None:
    # The saved bytes are the reference escaper's text; a pair is refused with
    # the reference's error for the first record, by sense, that holds one.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "meanings.json")
        try:
            want = reference_escape_surrogates(meanings_to_json_text(records)).encode("utf-8")
        except MeaningStoreError:
            with pytest.raises(MeaningStoreError) as want_err:
                for record in sorted(records, key=lambda r: r.sense):
                    reference_escape_surrogates(meanings_to_json_text([record]), record.sense)
            with pytest.raises(MeaningStoreError) as err:
                save_meanings(records, path)
            assert str(err.value) == str(want_err.value)
            assert os.listdir(tmp) == []
            return
        save_meanings(records, path)
        with open(path, "rb") as fh:
            assert fh.read() == want
        assert os.listdir(tmp) == ["meanings.json"]


_STORE_TEXT = st.text(st.sampled_from(["a", "z", "\u00e9", "\u20ac", "\U0001f600", '"', "\\",
                                       "\x00", "\n", "\t", "\x1f", "\x7f", "\u2028", " "]),
                      max_size=4)
_STORE_WEIGHTS = st.one_of(st.sampled_from([1.0, 1e-05, 0.1 + 0.2, 5e-324, 0.5]),
                           st.floats(0.0, 1.0, exclude_min=True))


@st.composite
def _store_records(draw) -> MeaningRecord:
    """Records with empty dims, empty dimensions, escaped text and tied weights."""
    dims = draw(st.dictionaries(
        st.sampled_from(list(REL)),
        st.dictionaries(_STORE_TEXT, _STORE_WEIGHTS, max_size=6),
        max_size=4,
    ))
    return MeaningRecord(
        draw(st.sampled_from(["a", "b#1", "b#2", "w"])),
        draw(_STORE_TEXT),
        {rel: tuple((w, t) for t, w in pairs.items()) for rel, pairs in dims.items()},
    )


@settings(max_examples=200, deadline=None)
@given(st.lists(_store_records(), max_size=5))
@example([])
@example([MeaningRecord("w", "", {}), MeaningRecord("a", "", {}), MeaningRecord("w", "x", {})])
def test_prop_store_text_equals_dumps_of_json(records: list[MeaningRecord]) -> None:
    ordered = sorted(records, key=lambda r: r.sense)
    senses = [r.sense for r in ordered]
    repeated = [a for a, b in zip(senses, senses[1:]) if a == b]
    if repeated:
        with pytest.raises(MeaningStoreError) as err:
            meanings_to_json_text(records)
        assert str(err.value) == f"duplicate sense {repeated[0]!r} in meaning store"
        return
    expected = jsonio.dumps([meaning_record_to_json(r) for r in ordered])
    assert meanings_to_json_text(records) == expected
    for record in ordered:  # each dimension heaviest first, equal weights by token
        assert meaning_record_to_json(record)["dims"] == {
            relation.value: [list(p) for p in sorted(pairs, key=lambda p: (-p[0], p[1]))]
            for relation, pairs in record.dims.items()
        }


_GOOD_WEIGHT = st.one_of(st.floats(0.0, 1.0, exclude_min=True), st.just(1))
_GOOD_TOKEN = st.sampled_from(["a", "b", "c", "d", "e", "f", "g", "h"])
_GOOD_PAIR = st.tuples(_GOOD_WEIGHT, _GOOD_TOKEN).map(list)
# Each bad pair has one bad part: the weight, the token or the shape.
_BAD_PAIR = st.one_of(
    st.tuples(st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(-1, 2),
                        st.just(10**400), st.booleans(), st.sampled_from(["0.5", "1"]),
                        st.none()),
              _GOOD_TOKEN).map(list),
    st.tuples(_GOOD_WEIGHT,
              st.one_of(st.integers(0, 9), st.none(), st.lists(st.just("a"), max_size=1))).map(list),
    st.sampled_from([[], [0.5], [0.5, "a", "b"], "ab", 0.5]),
)


@settings(max_examples=400, deadline=None)
@given(
    # Valid values are listed more than once, so both outcomes are common.
    sense=st.sampled_from(["w", "b#1"] * 8 + ["x y", "", "W", "w#0", None, 7, 0.5, ["w"]]),
    gloss=st.sampled_from(["", "g", "\u00e9\n", '"'] * 3 + [None, 7, True, ["g"]]),
    dims=st.dictionaries(
        st.sampled_from(list(REL)),
        st.one_of(st.lists(_GOOD_PAIR, max_size=4),
                  st.lists(st.one_of(_GOOD_PAIR, _BAD_PAIR), max_size=4)),
        max_size=3,
    ),
)
def test_prop_constructor_refuses_exactly_what_loading_rejects(sense, gloss, dims) -> None:
    text = json.dumps([{"sense": sense, "gloss": gloss,
                        "dims": {rel.value: pairs for rel, pairs in dims.items()}}])
    try:
        built = MeaningRecord(sense, gloss, dims)
    except MeaningStoreError as exc:
        with pytest.raises(MeaningStoreError) as err:
            meanings_from_json_text(text)
        assert str(err.value) == f"meaning store: record 0: {exc}"
        return
    assert meanings_from_json_text(text) == (built,)


# --- the store loader: shared tokens and released rows ---------------------------

#: A few dimensions, each under its canonical name, an alias or a case variant.
_SPELLINGS = {
    REL.HAS_PROP: ["hasProp", "HASPROP", "hasprop"],
    REL.INSTANCE_OF: ["instanceOf", "Inst", "INST"],
    REL.PART_OF: ["partOf", "Part"],
    REL.AGENT_OF: ["agentOf", "HasAgent"],
}
# Longer than one character: CPython keeps one str per one-character Latin-1
# text anyway, so those would share without the loader.
_SHARED_TOKEN = st.sampled_from(["alpha", "beta", "gamma", "délta", "t#1", "two words",
                                 "€€"])


@st.composite
def _store_rows(draw) -> list[dict]:
    """Valid store rows in no sense order; tokens recur across records and
    dimensions, and some weights are ints."""
    senses = draw(st.permutations(["w", "b#1", "b#2", "game", "x#3", "zz"]))
    rows = []
    for sense in senses[: draw(st.integers(0, len(senses)))]:
        dims = {}
        for relation in draw(st.lists(st.sampled_from(list(_SPELLINGS)), unique=True, max_size=4)):
            tokens = draw(st.lists(_SHARED_TOKEN, unique=True, max_size=5))
            dims[draw(st.sampled_from(_SPELLINGS[relation]))] = [
                [draw(_GOOD_WEIGHT), token] for token in tokens
            ]
        row = {"sense": sense, "dims": dims}
        if draw(st.booleans()):
            row["gloss"] = draw(st.sampled_from(["", "a gloss"]))
        rows.append(row)
    return rows


def _append(*pairs):
    def defect(row: dict) -> None:
        first = next(iter(row["dims"].values()), None)
        (row["dims"].setdefault("hasProp", []) if first is None else first).extend(pairs)
    return defect


#: One fault each, made in one row: name -> row -> None.
_DEFECTS = {
    "not-an-object": lambda row: row.clear(),
    "no-dims": lambda row: row.pop("dims"),
    "bad-sense": lambda row: row.update(sense="Book"),
    "bad-gloss": lambda row: row.update(gloss=7),
    "unknown-dimension": lambda row: row["dims"].update(hasColour=[]),
    "dimension-twice": lambda row: row["dims"].update(Inst=[], instanceOf=[]),
    "pairs-not-a-list": lambda row: row["dims"].update(HasAgent={"alpha": 1.0}),
    "int-token": _append([0.5, 7]),
    "heavy-weight": _append([1.5, "omega"]),
    "bool-weight": _append([True, "omega"]),
    "huge-int-weight": _append([10**400, "omega"]),
    "duplicate-token": _append([1.0, "omega"], [0.5, "omega"]),
}


def _first_store_error(rows: list, what: str = "meaning store") -> str | None:
    """The message for a store's first bad record or pair, checked record by
    record with meaning_record_from_json(); None for a valid store."""
    seen = set()
    for i, row in enumerate(rows):
        try:
            record = meaning_record_from_json(row, where=f"{what}: record {i}")
        except MeaningStoreError as exc:
            return str(exc)
        if record.sense in seen:
            return f"{what}: record {i}: duplicate sense {record.sense!r}"
        seen.add(record.sense)
    return None


@settings(max_examples=300, deadline=None)
@given(
    _store_rows(),
    st.dictionaries(st.integers(0, 6), st.sampled_from(sorted(_DEFECTS)), max_size=2),
    st.integers(0, 5),
)
def test_prop_store_load_shares_tokens_and_keeps_its_checks(rows, defects, twin) -> None:
    if rows and twin % 3 == 0:  # a repeated sense, about a third of the time
        rows.append({"sense": rows[twin % len(rows)]["sense"], "dims": {}})
    for at, name in defects.items():  # at most one fault a row
        if at < len(rows):
            _DEFECTS[name](rows[at])
    rows = [row if row else [] for row in rows]  # "not-an-object" emptied the row
    text = json.dumps(rows)
    expected = _first_store_error(json.loads(text))
    if expected is not None:
        with pytest.raises(MeaningStoreError) as err:
            meanings_from_json_text(text)
        assert str(err.value) == expected
        return
    loaded = meanings_from_json_text(text)
    assert loaded == tuple(
        MeaningRecord(row["sense"], row.get("gloss", ""),
                      {resolve_relation(name): pairs for name, pairs in row["dims"].items()})
        for row in rows
    )
    kept: dict[str, str] = {}
    for record in loaded:
        for pairs in record.dims.values():
            for _, token in pairs:
                assert kept.setdefault(token, token) is token


def _tree_outcome(text) -> object:
    """The records of text read as one parsed tree, or the type and message
    of the error that read raises."""
    try:
        return reference_meanings_from_json_text(text, "meaning store")
    except (InputDataError, RecursionError, TypeError) as exc:
        return type(exc), str(exc)


def _reader_outcome(text) -> object:
    """meanings_from_json_text(text), or the type and message of its error."""
    try:
        return meanings_from_json_text(text)
    except (InputDataError, RecursionError, TypeError) as exc:
        return type(exc), str(exc)


def _layouts(rows: list) -> list[str]:
    """One store as indent-2, minified, tab-indented and CRLF text."""
    indented = json.dumps(rows, indent=2, ensure_ascii=False)
    return [indented, json.dumps(rows, separators=(",", ":")), json.dumps(rows, indent="\t"),
            indented.replace("\n", "\r\n")]


#: What a one-character mutation writes: structure, JSON whitespace and
#: other space, number and literal characters, a backslash and a BOM.
_MUTANTS = list('[]{},:" \t\r\n\x0b0159.-+eEaINfn\\\ufeff') + [""]


@settings(max_examples=300, deadline=None)
@given(_store_rows(), st.integers(0, 3), st.lists(
    st.tuples(st.floats(0.0, 1.0), st.sampled_from(_MUTANTS), st.booleans()),
    max_size=1,
))
def test_prop_store_reader_equals_the_tree_load(rows, layout, mutations) -> None:
    """The streaming reader gives the records of the whole-tree load, or its
    error with the same type and message, on valid stores in every layout
    and on their one-character mutations."""
    text = _layouts(rows)[layout]
    for where, char, insert in mutations:
        at = int(where * len(text))
        text = text[:at] + char + text[at + (not insert):]
    expected = _tree_outcome(text)
    if mutations:
        assert _reader_outcome(text) == expected
        return
    # A valid store is read by the walk alone, never as a parsed tree.
    with mock.patch.object(jsonio, "loads", side_effect=AssertionError("parsed as a tree")):
        assert meanings_from_json_text(text) == expected


_W = {"sense": "w", "dims": {"hasProp": [[1.0, "x"]]}}
_BAD = {"sense": "Book", "dims": {}}
#: A bad record 0 followed by a JSON fault later in the text.
_BAD_THEN_FAULT = {
    "open-array": json.dumps([_BAD, _W])[:-1],
    "trailing-data": json.dumps([_BAD, _W]) + " x",
    "extra-bracket": json.dumps([_BAD, _W]) + "]",
    "nan": json.dumps([_BAD, {"sense": "w", "dims": {"hasProp": [[float("nan"), "x"]]}}]),
}


@pytest.mark.parametrize("text", _BAD_THEN_FAULT.values(), ids=_BAD_THEN_FAULT.keys())
def test_store_json_fault_wins_over_an_earlier_bad_record(text: str) -> None:
    with pytest.raises(InputDataError) as err:
        meanings_from_json_text(text)
    assert str(err.value).startswith("meaning store: invalid JSON: ")
    assert _reader_outcome(text) == _tree_outcome(text)


#: A non-ASCII store, valid, with a repeated sense, and with a bad record
#: then an open array, encoded in every encoding json.loads() detects.
_NON_ASCII = {"sense": "w", "gloss": "\u00e9\u2603", "dims": {"hasProp": [[1.0, "h\u00e9llo"]]}}
_ENCODED = {
    f"{encoding}-{name}": text.encode(encoding)
    for encoding in ("utf-8", "utf-8-sig", "utf-16", "utf-16-le", "utf-16-be",
                     "utf-32", "utf-32-le", "utf-32-be")
    for name, text in (("store", json.dumps([_NON_ASCII], ensure_ascii=False)),
                       ("repeated-sense", json.dumps([_NON_ASCII] * 2, ensure_ascii=False)),
                       ("bad-record-then-open-array", json.dumps([_BAD, _NON_ASCII])[:-1]))
}


@pytest.mark.parametrize(
    "text",
    [json.dumps([_W, _W, 7])[:-1], json.dumps([_W, _BAD])[:-2] + "}", "\ufeff" + json.dumps([_W]),
     json.dumps([_W]).encode(), json.dumps([_BAD, _W]).encode(), " [ ] \r\n", "[,]",
     "[" + json.dumps(_W) + ",]", json.dumps([_W]).replace(", ", ",\x0b"), "", "[",
     json.dumps([_W]) + "x", json.dumps([_W]) + " \n]", "[] []", json.dumps([_W]) + "\x0c",
     *_ENCODED.values(), bytearray(json.dumps([_W]).encode()), b'[{"sense": "\xff"}]',
     b"\xef\xbb\xbf\xef\xbb\xbf[]", None, 5],
    ids=["repeated-sense-then-open-array", "bad-last-record-then-open-array", "bom", "bytes",
         "bytes-bad-record", "empty-spaced", "lone-comma", "trailing-comma", "vertical-tab",
         "empty-text", "open-bracket", "trailing-text", "trailing-bracket", "two-arrays",
         "trailing-form-feed", *_ENCODED, "bytearray", "invalid-utf-8", "bytes-two-boms",
         "none", "int"],
)
def test_store_reader_equals_the_tree_load(text) -> None:
    assert _reader_outcome(text) == _tree_outcome(text)


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ('{"sense": "w"}', "meaning store: expected a JSON array of records"),
        (json.dumps([_W, []]), "meaning store: record 1: record must be an object"),
        (json.dumps([{"sense": "w"}]), "meaning store: record 0: missing field 'dims'"),
        (json.dumps([{"sense": "w", "dims": [["hasProp"]]}]),
         "meaning store: record 0: 'dims' must be an object"),
        (json.dumps([_W, {"sense": "v", "dims": {"hasColour": []}}]),
         "meaning store: record 1: unknown primitive relation 'hasColour'"),
        (json.dumps([{"sense": "w", "dims": {"Inst": [], "instanceof": []}}]),
         "meaning store: record 0 names dimension 'instanceOf' twice"),
        (json.dumps([{"sense": "w", "dims": {"HasAgent": {"x": 1.0}}}]),
         "meaning store: record 0, dimension 'HasAgent': expected a list of [weight, token]"),
        (json.dumps([{"sense": "Book", "dims": {}}]),
         "meaning store: record 0: invalid concept id 'Book': expected a lowercase token "
         "with an optional #k sense suffix (k >= 1)"),
        (json.dumps([{"sense": "w", "gloss": 7, "dims": {}}]),
         "meaning store: record 0: 'gloss' must be a string, got 7"),
        (json.dumps([_W, {"sense": "v", "dims": {"hasProp": [[1.0, "x"], [0.5, 7]]}}]),
         "meaning store: record 1: record 'v', dimension 'hasProp': malformed pair [0.5, 7]"),
        (json.dumps([{"sense": "w", "dims": {"isA": [[1, "x"], [1.5, "y"]]}}]),
         "meaning store: record 0: record 'w', dimension 'isA': weight 1.5 outside (0, 1]"),
        (json.dumps([{"sense": "w", "dims": {"hasProp": [[1.0, "x"]],
                                             "Part": [[1.0, "x"], [0.5, "x"]]}}]),
         "meaning store: record 0: record 'w', dimension 'partOf': duplicate property token 'x'"),
        (json.dumps([_W, {"sense": "v", "dims": {}}, {"sense": "w", "dims": {}}]),
         "meaning store: record 2: duplicate sense 'w'"),
        ('[{"sense": "w", "dims": {"hasProp": [[1' + "0" * 400 + ', "x"]]}}]',
         "meaning store: record 0: int too large to convert to float"),
    ],
    ids=["not-an-array", "not-an-object", "no-dims", "dims-not-an-object", "unknown-dimension",
         "dimension-twice", "pairs-not-a-list", "bad-sense", "bad-gloss", "malformed-pair",
         "weight-range", "duplicate-token", "duplicate-sense", "huge-int-weight"],
)
def test_store_load_messages(text: str, message: str) -> None:
    with pytest.raises(MeaningStoreError) as err:
        meanings_from_json_text(text)
    assert str(err.value) == message
    assert err.value.exit_code == 2


def _peak_store_text() -> str:
    """A store of 30 records x 5 dimensions x 30 pairs, each token about 15 times."""
    rng = random.Random(5)
    vocab = [f"token{i:03d}" for i in range(300)]
    return json.dumps([
        {"sense": f"m{i:03d}", "gloss": "", "dims": {
            relation.value: [[rng.randint(1, 1000) / 1000, token] for token in rng.sample(vocab, 30)]
            for relation in DEFAULT_DIMS
        }}
        for i in range(30)
    ])


def _traced_peak(call, *args, **kwargs) -> int:
    """The most memory call(*args, **kwargs) held at once, as tracemalloc counts it."""
    gc.collect()
    tracemalloc.start()
    try:
        call(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_store_load_peaks_near_its_parse() -> None:
    """A load holds little beyond its parsed rows: the records share their
    tokens, and each row is released once its record is built."""
    text = _peak_store_text()
    parsed = _traced_peak(jsonio.loads, text, what="meaning store")
    loaded = _traced_peak(meanings_from_json_text, text)
    assert loaded <= 1.1 * parsed, f"load peaked at {loaded / parsed:.2f}x its parse"


def test_store_load_peaks_below_its_parse() -> None:
    """The load decodes one record at a time, so it never holds the whole
    parsed tree: its text, its records and one row stay well below it."""
    text = _peak_store_text()
    parsed = _traced_peak(jsonio.loads, text, what="meaning store")
    loaded = _traced_peak(meanings_from_json_text, text)
    assert loaded <= 0.75 * parsed, f"load peaked at {loaded / parsed:.2f}x its parse"


def test_store_save_peaks_below_its_text(tmp_path) -> None:
    """The save writes one record at a time, so it never holds the store's
    text, let alone the text and its UTF-8 bytes."""
    records = meanings_from_json_text(_peak_store_text())
    text = meanings_to_json_text(records)
    path = tmp_path / "meanings.json"
    saved = _traced_peak(save_meanings, records, str(path))
    assert path.read_text(encoding="utf-8") == text
    assert saved <= 0.75 * len(text.encode()), f"save peaked at {saved / len(text):.2f}x its text"


# --- the token -> weight index ---------------------------------------------------

_INDEX_TOKENS = ["alpha", "beta", "gamma", "delta", "epsilon"]


@st.composite
def _records(draw) -> MeaningRecord:
    """A record from the constructor, build_meaning, the store loader or elicit."""
    source = draw(st.sampled_from(["init", "build", "json", "elicit"]))
    if source == "elicit":
        dims = draw(st.lists(st.sampled_from([REL.AGENT_OF, REL.OBJECT_OF, REL.HAS_PROP]),
                             min_size=1, max_size=3, unique=True))
        return elicit(MockProvider.from_file(), "game", dims, draw(st.integers(1, 25))).record
    if source == "build":
        counted = draw(st.lists(
            st.tuples(st.sampled_from(list(REL)), st.sampled_from(_INDEX_TOKENS),
                      st.integers(1, 9)),
            min_size=1, max_size=12,
        ))
        return build_meaning("w", [(PrimitiveTriple("w", rel, tok), n) for rel, tok, n in counted])
    dims = draw(st.dictionaries(
        st.sampled_from(list(REL)),
        st.dictionaries(st.sampled_from(_INDEX_TOKENS),
                        st.floats(0.0, 1.0, exclude_min=True), max_size=5),
        max_size=4,
    ))
    record = MeaningRecord("w", "", {
        rel: tuple((w, t) for t, w in pairs.items()) for rel, pairs in dims.items()
    })
    if source == "json":
        (record,) = meanings_from_json_text(meanings_to_json_text([record]))
    return record


@settings(max_examples=150, deadline=None)
@given(_records())
def test_prop_weights_index_each_dimension(record: MeaningRecord) -> None:
    twin = MeaningRecord(record.sense, record.gloss, record.dims)
    before = repr(record)
    for relation in REL:  # absent dimensions included
        assert record.weights(relation) == {t: w for w, t in record.dimension(relation)}
        assert record.weights(relation) is record.weights(relation)
        assert list(record.weights(relation)) == sorted(record.weights(relation))
    assert repr(record) == before
    assert record == twin and twin == record


def test_absent_dimension_weights_are_empty_and_read_only() -> None:
    record = MeaningRecord("w", "", {REL.HAS_PROP: ((1.0, "x"),)})
    absent = record.weights(REL.PART_OF)
    assert len(absent) == 0
    with pytest.raises(TypeError):
        absent["x"] = 1.0  # type: ignore[index]
    assert record.weights(REL.IS_A) == {}


def test_weights_index_is_in_token_order() -> None:
    # Pairs in weight order with tied weights: neither the pair order nor the
    # weights may decide the index order.
    pairs = ((1.0, "t9"), (1.0, "t10"), (0.5, "t2"), (0.5, "beta"), (0.25, "alpha"))
    record = MeaningRecord("w", "", {REL.HAS_PROP: pairs})
    assert list(record.weights(REL.HAS_PROP)) == ["alpha", "beta", "t10", "t2", "t9"]
    assert record.dimension(REL.HAS_PROP) == pairs  # the pairs keep their order


def test_loading_and_eliciting_do_not_build_the_index() -> None:
    store = os.path.join(os.path.dirname(__file__), "data", "meanings_book_publication.json")
    dims = (REL.AGENT_OF, REL.OBJECT_OF, REL.HAS_PROP)
    records = [*load_meanings(store), elicit(MockProvider.from_file(), "game", dims, 15).record]
    assert all(record.dims for record in records)
    assert all("_weights" not in record.__dict__ for record in records)


def test_default_dims_are_the_standard_five() -> None:
    assert DEFAULT_DIMS == (
        REL.HAS_PROP,
        REL.AGENT_OF,
        REL.OBJECT_OF,
        REL.IN_STATE,
        REL.PART_OF,
    )
