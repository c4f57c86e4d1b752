"""Value semantics of the 19 model types.

Each type is an immutable value: instances with equal fields compare and hash
equal, an instance of any other class never equals one, assignment and
deletion raise AttributeError, keyword construction and defaults work, and
repr spells out every field.  The repr strings were recorded from the
frozen-dataclass implementation these classes replaced.
"""

from __future__ import annotations

import pytest

from sensekit.corpus import Assertion, AssertionSet, ConceptId, PropertyKey
from sensekit.elicitation import CompletionList, ElicitResult, PromptTemplate
from sensekit.hierarchy import InduceConfig, TypeDag, TypedFact, TypeNode, VerifyResult
from sensekit.semantics import (
    CopularStatement,
    LexiconEntry,
    MeaningRecord,
    NominalizationLexicon,
    PrimitiveRelation,
    PrimitiveTriple,
)
from sensekit.similarity import MatchedPair, SimilarityReport

HAS_PROP = PrimitiveRelation.HAS_PROP
RED = PropertyKey("RED")
APPLE = ConceptId("apple")
FACT = Assertion(RED, APPLE, "sensible")
NODE = TypeNode(0, frozenset({"apple"}), ("RED",), frozenset({"apple"}))
ENTRY = LexiconEntry("redness", "property")
RECORD = MeaningRecord("book#1", "a book", {HAS_PROP: [(1, "red")]})

_RED_REPR = "PropertyKey(name='RED', arity=1, position=None)"
_FACT_REPR = f"Assertion(property={_RED_REPR}, concept=ConceptId(name='apple'), polarity='sensible')"
_NODE_REPR = (
    "TypeNode(id=0, extent=frozenset({'apple'}), characteristic_properties=('RED',), "
    "direct_members=frozenset({'apple'}))"
)
_RECORD_REPR = (
    "MeaningRecord(sense='book#1', gloss='a book', "
    "dims={<PrimitiveRelation.HAS_PROP: 'hasProp'>: ((1.0, 'red'),)})"
)

#: (class, keyword arguments, repr); positional construction passes the
#: same values in order, so every type is built both ways.
CASES = [
    (ConceptId, {"name": "book#1"}, "ConceptId(name='book#1')"),
    (
        PropertyKey,
        {"name": "RIDE", "arity": 2, "position": "agent"},
        "PropertyKey(name='RIDE', arity=2, position='agent')",
    ),
    (Assertion, {"property": RED, "concept": APPLE, "polarity": "sensible"}, _FACT_REPR),
    (
        AssertionSet,
        {"assertions": (FACT, FACT)},
        f"AssertionSet(assertions=({_FACT_REPR},), concepts=frozenset({{ConceptId(name='apple')}}))",
    ),
    (InduceConfig, {"tau": 0.5}, "InduceConfig(tau=0.5)"),
    (
        TypeNode,
        {
            "id": 0,
            "extent": frozenset({"apple"}),
            "characteristic_properties": ("RED",),
            "direct_members": frozenset({"apple"}),
        },
        _NODE_REPR,
    ),
    (
        TypedFact,
        {"property": RED, "type_name": "fruit"},
        f"TypedFact(property={_RED_REPR}, type_name='fruit')",
    ),
    (
        VerifyResult,
        {"consistent": False, "violations": ("pear",)},
        "VerifyResult(consistent=False, violations=('pear',))",
    ),
    (
        TypeDag,
        {"nodes": (NODE,), "edges": (), "root": 0},
        f"TypeDag(nodes=({_NODE_REPR},), edges=(), root=0, diagnostics=())",
    ),
    (
        LexiconEntry,
        {"trope": "redness", "category": "property"},
        "LexiconEntry(trope='redness', category='property')",
    ),
    (
        NominalizationLexicon,
        {"entries": {"RED": ENTRY}},
        "NominalizationLexicon(entries={'RED': LexiconEntry(trope='redness', category='property')})",
    ),
    (
        PrimitiveTriple,
        {"subject": "apple", "relation": HAS_PROP, "obj": "redness"},
        "PrimitiveTriple(subject='apple', relation=<PrimitiveRelation.HAS_PROP: 'hasProp'>, "
        "obj='redness')",
    ),
    (
        CopularStatement,
        {"subject": "mary", "form": "adjective", "payload": ["wise"]},
        "CopularStatement(subject='mary', form=<CopularForm.ADJECTIVE: 'adjective'>, "
        "payload=('wise',))",
    ),
    (
        MeaningRecord,
        {"sense": "book#1", "gloss": "a book", "dims": {HAS_PROP: [(1, "red")]}},
        _RECORD_REPR,
    ),
    (
        MatchedPair,
        {"left": (1, "red"), "right": (0.5, "red")},
        "MatchedPair(left=(1.0, 'red'), right=(0.5, 'red'))",
    ),
    (
        SimilarityReport,
        {
            "a": "a",
            "b": "b",
            "per_dim": {HAS_PROP: 0.5},
            "aggregate": 0.5,
            "dim_weights": {HAS_PROP: 1.0},
        },
        "SimilarityReport(a='a', b='b', per_dim={<PrimitiveRelation.HAS_PROP: 'hasProp'>: 0.5}, "
        "aggregate=0.5, dim_weights={<PrimitiveRelation.HAS_PROP: 'hasProp'>: 1.0})",
    ),
    (
        PromptTemplate,
        {"dimension": HAS_PROP, "pattern": "The {X} was [MASK]."},
        "PromptTemplate(dimension=<PrimitiveRelation.HAS_PROP: 'hasProp'>, "
        "pattern='The {X} was [MASK].')",
    ),
    (
        CompletionList,
        {
            "subject": "book",
            "dimension": HAS_PROP,
            "completions": ("red",),
            "original_ranks": (1,),
            "total": 1,
        },
        "CompletionList(subject='book', dimension=<PrimitiveRelation.HAS_PROP: 'hasProp'>, "
        "completions=('red',), original_ranks=(1,), total=1)",
    ),
    (
        ElicitResult,
        {
            "record": RECORD,
            "assertions": AssertionSet(()),
            "failures": {HAS_PROP: "down"},
            "warnings": ("w",),
        },
        f"ElicitResult(record={_RECORD_REPR}, "
        "assertions=AssertionSet(assertions=(), concepts=frozenset()), "
        "failures={<PrimitiveRelation.HAS_PROP: 'hasProp'>: 'down'}, warnings=('w',))",
    ),
]

#: Types with a dict field, which, like a tuple holding a dict, cannot hash.
UNHASHABLE = {NominalizationLexicon, MeaningRecord, SimilarityReport, ElicitResult}


def _ids(case) -> str:
    return case[0].__name__


def test_every_model_type_has_a_case() -> None:
    assert len({cls for cls, _, _ in CASES}) == len(CASES) == 19


@pytest.mark.parametrize(("cls", "kwargs", "shown"), CASES, ids=list(map(_ids, CASES)))
def test_model_type_is_an_immutable_value(cls, kwargs, shown) -> None:
    value = cls(**kwargs)
    twin = cls(*kwargs.values())
    assert repr(value) == repr(twin) == shown

    assert value == twin and not value != twin
    if cls in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(value)
    else:
        assert hash(value) == hash(twin)

    # An instance of another class with the same fields, even a subclass, differs.
    other = type(cls.__name__, (cls,), {})(**kwargs)
    assert repr(other) == shown
    assert value != other and other != value
    assert value.__eq__(object()) is NotImplemented

    for name in [*vars(value), "unknown"]:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == shown


def test_defaults() -> None:
    assert PropertyKey("RED") == PropertyKey(name="RED", arity=1, position=None)
    assert InduceConfig() == InduceConfig(tau=0.0)
    assert repr(InduceConfig()) == "InduceConfig(tau=0.0)"
    assert VerifyResult(True) == VerifyResult(consistent=True, violations=())
    first = ElicitResult(RECORD, AssertionSet(()))
    second = ElicitResult(record=RECORD, assertions=AssertionSet(()))
    assert first == second
    assert (first.failures, first.warnings) == ({}, ())
    assert first.failures is not second.failures  # a fresh dict per result


def test_concepts_is_not_a_constructor_argument() -> None:
    with pytest.raises(TypeError):
        AssertionSet((FACT,), concepts=frozenset())


@pytest.mark.parametrize(
    ("value", "field"),
    [(AssertionSet((FACT,)), "concepts"), (TypeDag(nodes=(NODE,), edges=(), root=0), "diagnostics")],
    ids=["AssertionSet.concepts", "TypeDag.diagnostics"],
)
def test_derived_fields_count_in_equality(value, field) -> None:
    altered = type(value)(*(getattr(value, name) for name in value._fields if name != field))
    assert altered == value
    altered.__dict__[field] = ("altered",)  # past the immutability, to isolate the field
    assert altered != value
    assert f"{field}=('altered',)" in repr(altered)


def test_weights_index_stays_out_of_fields() -> None:
    record = MeaningRecord("book#1", "a book", {HAS_PROP: [(1, "red")]})
    assert record.weights(HAS_PROP) == {"red": 1.0}
    assert record == RECORD
    assert repr(record) == _RECORD_REPR
