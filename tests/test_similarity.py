from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, strategies as st

from sensekit.errors import InputDataError
from sensekit.semantics import DEFAULT_DIMS, MeaningRecord, PrimitiveRelation
from sensekit.similarity import (
    MatchedPair,
    concept_similarity,
    dimension_join,
    dimension_similarity,
    equal_weights,
    feature_sim,
)

from oracles import brute_force_dimension_similarity, reference_dimension_join

REL = PrimitiveRelation

BOOK = MeaningRecord(
    "book#1",
    "a published written work",
    {REL.HAS_PROP: ((0.75, "popularity"), (0.73, "controversy"))},
)
PUBLICATION = MeaningRecord(
    "publication#3",
    "a work issued for public distribution",
    {REL.HAS_PROP: ((0.72, "popularity"), (0.71, "controversy"))},
)


# --- dimension_join -------------------------------------------------------------

def test_join_matches_shared_tokens() -> None:
    pairs = dimension_join(BOOK, PUBLICATION, REL.HAS_PROP)
    assert pairs == frozenset(
        {
            MatchedPair((0.75, "popularity"), (0.72, "popularity")),
            MatchedPair((0.73, "controversy"), (0.71, "controversy")),
        }
    )


def test_join_disjoint_token_sets_is_empty() -> None:
    other = MeaningRecord("other", "", {REL.HAS_PROP: ((0.9, "brevity"),)})
    assert dimension_join(BOOK, other, REL.HAS_PROP) == frozenset()


def test_join_of_record_with_itself_pairs_equal_sides() -> None:
    pairs = dimension_join(BOOK, BOOK, REL.HAS_PROP)
    assert len(pairs) == 2
    assert all(p.left == p.right for p in pairs)


def test_join_missing_dimension_is_empty_not_error() -> None:
    assert dimension_join(BOOK, PUBLICATION, REL.PART_OF) == frozenset()


def test_join_size_equals_token_intersection() -> None:
    a = MeaningRecord("a", "", {REL.HAS_PROP: ((0.5, "x"), (0.4, "y"), (0.3, "z"))})
    b = MeaningRecord("b", "", {REL.HAS_PROP: ((0.9, "y"), (0.8, "z"), (0.7, "w"))})
    pairs = dimension_join(a, b, REL.HAS_PROP)
    assert {p.token for p in pairs} == {"y", "z"}


def test_matched_pair_requires_equal_tokens() -> None:
    with pytest.raises(InputDataError):
        MatchedPair((0.9, "influence"), (0.9, "controversy"))


# --- feature_sim -----------------------------------------------------------------

def test_feature_sim_worked_value() -> None:
    assert abs(feature_sim((0.75, "popularity"), (0.72, "popularity")) - 0.97) < 1e-12


def test_feature_sim_identical_tuples() -> None:
    assert feature_sim((0.6, "depth"), (0.6, "depth")) == 1.0


def test_feature_sim_mismatched_tokens_is_zero() -> None:
    assert feature_sim((0.9, "influence"), (0.9, "controversy")) == 0.0


# --- dimension_similarity -----------------------------------------------------------

def test_dimension_similarity_worked_example() -> None:
    value = dimension_similarity(BOOK, PUBLICATION, REL.HAS_PROP)
    assert abs(value - 0.975) < 1e-12


def test_dimension_similarity_identical_records() -> None:
    assert dimension_similarity(BOOK, BOOK, REL.HAS_PROP) == 1.0


def test_dimension_similarity_empty_join_is_zero() -> None:
    assert dimension_similarity(BOOK, PUBLICATION, REL.AGENT_OF) == 0.0


# --- concept_similarity ---------------------------------------------------------------

def test_concept_similarity_equal_weights_mean() -> None:
    a = MeaningRecord(
        "a",
        "",
        {
            REL.HAS_PROP: ((0.75, "popularity"), (0.73, "controversy")),
            REL.AGENT_OF: ((1.0, "influencing"),),
            REL.OBJECT_OF: ((1.0, "writing"),),
            REL.IN_STATE: ((1.0, "print"),),
            REL.PART_OF: ((1.0, "library"),),
        },
    )
    b = MeaningRecord(
        "b",
        "",
        {
            REL.HAS_PROP: ((0.72, "popularity"), (0.71, "controversy")),
            REL.AGENT_OF: ((0.5, "influencing"),),
            REL.OBJECT_OF: ((0.5, "writing"),),
            REL.IN_STATE: ((1.0, "motion"),),
            REL.PART_OF: ((1.0, "fleet"),),
        },
    )
    report = concept_similarity(a, b)
    assert report.per_dim[REL.HAS_PROP] == pytest.approx(0.975, abs=1e-12)
    assert report.per_dim[REL.AGENT_OF] == pytest.approx(0.5, abs=1e-12)
    assert report.per_dim[REL.OBJECT_OF] == pytest.approx(0.5, abs=1e-12)
    assert report.per_dim[REL.IN_STATE] == 0.0
    assert report.per_dim[REL.PART_OF] == 0.0
    assert report.aggregate == pytest.approx(0.395, abs=1e-12)


def test_concept_similarity_self_is_one_when_fully_populated() -> None:
    record = MeaningRecord(
        "self",
        "",
        {dim: ((1.0, "alpha"), (0.5, "beta")) for dim in DEFAULT_DIMS},
    )
    report = concept_similarity(record, record)
    assert report.aggregate == 1.0
    assert all(value == 1.0 for value in report.per_dim.values())


def test_concept_similarity_no_shared_tokens_is_zero() -> None:
    a = MeaningRecord("a", "", {REL.HAS_PROP: ((1.0, "x"),)})
    b = MeaningRecord("b", "", {REL.HAS_PROP: ((1.0, "y"),)})
    assert concept_similarity(a, b).aggregate == 0.0


def test_concept_similarity_respects_weights() -> None:
    a = MeaningRecord(
        "a", "", {REL.HAS_PROP: ((1.0, "x"),), REL.AGENT_OF: ((1.0, "y"),)}
    )
    b = MeaningRecord(
        "b", "", {REL.HAS_PROP: ((1.0, "x"),), REL.AGENT_OF: ((0.0001, "z"),)}
    )
    lopsided = concept_similarity(a, b, {REL.HAS_PROP: 3.0, REL.AGENT_OF: 1.0})
    assert lopsided.aggregate == pytest.approx(0.75, abs=1e-12)


def test_concept_similarity_rejects_bad_weights() -> None:
    with pytest.raises(InputDataError):
        concept_similarity(BOOK, PUBLICATION, {})
    with pytest.raises(InputDataError):
        concept_similarity(BOOK, PUBLICATION, {REL.HAS_PROP: 0.0})
    with pytest.raises(InputDataError):
        concept_similarity(BOOK, PUBLICATION, {REL.HAS_PROP: -1.0})
    with pytest.raises(InputDataError, match="not finite"):
        # each weight is finite, their sum is not
        concept_similarity(BOOK, PUBLICATION, {REL.HAS_PROP: 1e308, REL.AGENT_OF: 1e308})


@pytest.mark.parametrize(
    "weights, message",
    [
        ({}, "dimension weights must not be empty"),
        ({"hasProp": 1.0}, "weight key 'hasProp' is not a primitive relation"),
        ({REL.HAS_PROP: "2"}, "weight for hasProp must be a number, got '2'"),
        ({REL.HAS_PROP: True}, "weight for hasProp must be a number, got True"),
        ({REL.HAS_PROP: None}, "weight for hasProp must be a number, got None"),
        ({REL.HAS_PROP: "abc"}, "weight for hasProp must be a number, got 'abc'"),
        ({REL.HAS_PROP: 1 + 0j}, "weight for hasProp must be a number, got (1+0j)"),
        ({REL.HAS_PROP: "x" * 300}, f"weight for hasProp must be a number, got {'x' * 200!r}... (300 characters)"),
        ({"y" * 300: 1.0}, f"weight key {'y' * 200!r}... (300 characters) is not a primitive relation"),
        ({REL.HAS_PROP: math.nan}, "weight for hasProp is not finite: nan"),
        ({REL.HAS_PROP: math.inf}, "weight for hasProp is not finite: inf"),
        ({REL.HAS_PROP: 10**400}, "weight for hasProp is not finite: inf"),
        # more digits than int -> str may format
        ({REL.HAS_PROP: 10**5000}, "weight for hasProp is not finite: inf"),
        ({REL.HAS_PROP: -(10**5000)}, "weight for hasProp is not finite: -inf"),
        ({REL.HAS_PROP: -1.0}, "weight for hasProp is negative: -1.0"),
        ({REL.HAS_PROP: 1.0, REL.AGENT_OF: -2}, "weight for agentOf is negative: -2"),
        ({REL.HAS_PROP: 0.0, REL.AGENT_OF: 0}, "at least one dimension weight must be positive"),
        (
            {REL.HAS_PROP: 1e308, REL.AGENT_OF: 1e308},
            "dimension weights sum to a value that is not finite",
        ),
        # checks run in insertion order: the negative weight comes first
        ({REL.PART_OF: -1.0, REL.HAS_PROP: math.nan}, "weight for partOf is negative: -1.0"),
    ],
    ids=[
        "empty", "key", "str", "bool", "none", "text", "complex", "long-text", "long-key", "nan", "inf",
        "huge-int", "huger-int", "huger-negative-int", "negative", "negative-int",
        "all-zero", "sum-overflow", "negative-before-nan",
    ],
)
def test_concept_similarity_weight_messages(weights, message: str) -> None:
    with pytest.raises(InputDataError) as excinfo:
        concept_similarity(BOOK, PUBLICATION, weights)
    assert str(excinfo.value) == message


def test_concept_similarity_refuses_weights_that_are_not_a_mapping() -> None:
    with pytest.raises(TypeError, match="^weights must be a mapping or None, not list$"):
        concept_similarity(BOOK, PUBLICATION, [1])


def test_reports_never_share_dicts() -> None:
    for weights in (None, {REL.HAS_PROP: 2, REL.AGENT_OF: 1.0}):
        first = concept_similarity(BOOK, PUBLICATION, weights)
        expected = dict(first.dim_weights), dict(first.per_dim)
        first.dim_weights[REL.HAS_PROP] = 99.0  # type: ignore[index]
        first.per_dim[REL.HAS_PROP] = 99.0  # type: ignore[index]
        second = concept_similarity(BOOK, PUBLICATION, weights)
        assert (second.dim_weights, second.per_dim) == expected


def test_report_json_shape() -> None:
    report = concept_similarity(BOOK, PUBLICATION, {REL.HAS_PROP: 1.0})
    data = report.to_json()
    assert data["a"] == "book#1"
    assert data["b"] == "publication#3"
    assert set(data) == {"a", "b", "per_dim", "aggregate", "dim_weights"}
    assert data["per_dim"]["hasProp"] == pytest.approx(0.975, abs=1e-12)


# --- randomized invariants --------------------------------------------------------

_TOKENS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]


def random_record(rng: random.Random, sense: str) -> MeaningRecord:
    dims = {}
    for dim in DEFAULT_DIMS:
        if rng.random() < 0.25:
            continue  # sparse records are normal
        tokens = rng.sample(_TOKENS, rng.randint(1, len(_TOKENS)))
        dims[dim] = tuple((rng.uniform(0.05, 1.0), tok) for tok in tokens)
    return MeaningRecord(sense, "", dims)


def test_symmetry_range_and_oracle_over_random_records() -> None:
    rng = random.Random(421)
    for _ in range(300):
        a = random_record(rng, "a")
        b = random_record(rng, "b")
        forward = concept_similarity(a, b)
        backward = concept_similarity(b, a)
        assert forward.aggregate == backward.aggregate
        assert 0.0 <= forward.aggregate <= 1.0
        for dim in DEFAULT_DIMS:
            value = dimension_similarity(a, b, dim)
            assert value == dimension_similarity(b, a, dim)
            assert 0.0 <= value <= 1.0
            assert value == brute_force_dimension_similarity(a, b, dim)


def reference_report(a: MeaningRecord, b: MeaningRecord, weights):
    """per_dim, aggregate and dim_weights by a plain loop over the brute-force
    dimension similarity, in relation-name order."""
    per_dim = {}
    dim_weights = {}
    numerator = 0.0
    denominator = 0.0
    for rel in sorted(weights, key=lambda r: r.value):
        weight = float(weights[rel])
        per_dim[rel] = brute_force_dimension_similarity(a, b, rel)
        dim_weights[rel] = weight
        numerator += weight * per_dim[rel]
        denominator += weight
    return per_dim, numerator / denominator, dim_weights


def random_weights(rng: random.Random) -> dict[PrimitiveRelation, float]:
    """Zeros, ints and floats over any relations, inserted in shuffled order."""
    relations = rng.sample(list(PrimitiveRelation), rng.randint(1, 8))
    values = [rng.choice((0, 0.0, 1, 3, 0.25, rng.uniform(0.0, 5.0))) for _ in relations]
    values[rng.randrange(len(values))] = rng.choice((2, 0.5))  # one positive
    return dict(zip(relations, values))


def test_concept_similarity_equals_reference_over_random_records() -> None:
    rng = random.Random(1515)
    vocabulary = [f"t{i}" for i in range(40)]
    relations = list(PrimitiveRelation)
    for _ in range(300):
        records = []
        for sense in ("a", "b"):
            dims = {}
            for rel in rng.sample(relations, rng.randint(0, 8)):
                tokens = rng.sample(vocabulary, rng.randint(0, 25))
                dims[rel] = tuple((rng.randint(1, 20) / 20, tok) for tok in tokens)
            records.append(MeaningRecord(sense, "", dims))
        a, b = records
        weights = random_weights(rng) if rng.random() < 0.8 else None
        report = concept_similarity(a, b, weights)
        per_dim, aggregate, dim_weights = reference_report(a, b, weights or equal_weights())
        assert report.aggregate == aggregate  # bit-identical
        assert list(report.per_dim.items()) == list(per_dim.items())
        assert list(report.dim_weights.items()) == list(dim_weights.items())
        assert all(type(w) is float for w in report.dim_weights.values())


def test_dimension_similarity_is_mean_of_feature_sim_over_join() -> None:
    rng = random.Random(2024)
    vocabulary = [f"t{i}" for i in range(30)]
    for _ in range(300):
        records = []
        for sense in ("a", "b"):
            dims = {
                dim: tuple(
                    (rng.uniform(0.01, 1.0), token)
                    for token in rng.sample(vocabulary, rng.randint(1, 20))
                )
                for dim in DEFAULT_DIMS
                if rng.random() < 0.8
            }
            records.append(MeaningRecord(sense, "", dims))
        a, b = records
        for dim in DEFAULT_DIMS:
            pairs = sorted(dimension_join(a, b, dim), key=lambda p: p.token)
            expected = 0.0
            if pairs:
                total = 0.0
                for pair in pairs:
                    total += feature_sim(pair.left, pair.right)
                expected = total / len(pairs)
            assert dimension_similarity(a, b, dim) == expected  # bit-identical


def test_join_equals_cross_pair_reference_over_random_records() -> None:
    rng = random.Random(1207)
    for _ in range(300):
        a = random_record(rng, "a")
        b = random_record(rng, "b")
        for dim in PrimitiveRelation:  # random_record never fills isA and others
            assert dimension_join(a, b, dim) == reference_dimension_join(a, b, dim)


def test_perturbation_bound_over_random_records() -> None:
    rng = random.Random(77)
    for _ in range(200):
        a = random_record(rng, "a")
        b = random_record(rng, "b")
        populated = [dim for dim in DEFAULT_DIMS if a.dimension(dim)]
        if not populated:
            continue
        dim = rng.choice(populated)
        pairs = list(a.dimension(dim))
        idx = rng.randrange(len(pairs))
        weight, token = pairs[idx]
        eps = rng.uniform(1e-6, min(weight - 1e-9, 1.0 - weight) or 1e-6)
        direction = 1.0 if weight + eps <= 1.0 else -1.0
        pairs[idx] = (weight + direction * eps, token)
        perturbed = MeaningRecord(a.sense, a.gloss, {**a.dims, dim: tuple(pairs)})
        join_size = len(dimension_join(a, b, dim))
        before = dimension_similarity(a, b, dim)
        after = dimension_similarity(perturbed, b, dim)
        if join_size == 0:
            assert after == before == 0.0
        else:
            # 1e-12 headroom for double rounding in the averaging step
            assert abs(after - before) <= eps / join_size + 1e-12


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
            st.sampled_from(_TOKENS),
        ),
        max_size=6,
    ),
    st.lists(
        st.tuples(
            st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
            st.sampled_from(_TOKENS),
        ),
        max_size=6,
    ),
)
def test_prop_join_soundness(left, right) -> None:
    def dedupe(pairs):
        seen = {}
        for weight, token in pairs:
            seen.setdefault(token, (weight, token))
        return tuple(seen.values())

    a = MeaningRecord("a", "", {REL.HAS_PROP: dedupe(left)})
    b = MeaningRecord("b", "", {REL.HAS_PROP: dedupe(right)})
    join = dimension_join(a, b, REL.HAS_PROP)
    left_tokens = {t for _, t in a.dimension(REL.HAS_PROP)}
    right_tokens = {t for _, t in b.dimension(REL.HAS_PROP)}
    assert {p.token for p in join} == left_tokens & right_tokens
    assert len(join) == len(left_tokens & right_tokens)
    value = dimension_similarity(a, b, REL.HAS_PROP)
    assert 0.0 <= value <= 1.0
