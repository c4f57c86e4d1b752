"""Dimension-wise concept similarity over meaning records.

Two senses are compared one dimension at a time: the join pairs up entries
that share a property token, each matched pair scores 1 - |w1 - w2|, the
dimension similarity is the mean over the join (0 when nothing is shared),
and the final score is a weighted average across dimensions.

All arithmetic is plain double precision with a fixed summation order
(property tokens, then relation names), so results are deterministic and the
weighted average can never exceed 1.0.
"""

from __future__ import annotations

import math
from collections.abc import Mapping

from . import jsonio
from .corpus import Value, _setattr
from .errors import InputDataError, _echo
from .semantics import (
    DEFAULT_DIMS,
    MeaningRecord,
    PrimitiveRelation,
    WeightedProperty,
)


class MatchedPair(Value):
    """One shared property token with its weight in each record."""

    left: WeightedProperty
    right: WeightedProperty

    def __init__(self, left, right) -> None:
        left = (float(left[0]), left[1])
        right = (float(right[0]), right[1])
        if left[1] != right[1]:
            raise InputDataError(
                f"matched pair must share its property token: "
                f"{_echo(left[1])} != {_echo(right[1])}"
            )
        _setattr(self, "left", left)
        _setattr(self, "right", right)

    @property
    def token(self) -> str:
        return self.left[1]


def dimension_join(
    a: MeaningRecord, b: MeaningRecord, dim: PrimitiveRelation
) -> frozenset[MatchedPair]:
    """Pairs of entries from a and b whose property tokens coincide.

    A dimension absent from either record is an empty set, so the join of
    sparse records is simply empty.
    """
    right = b.weights(dim)
    return frozenset(
        MatchedPair(left=(weight, token), right=(right[token], token))
        for weight, token in a.dimension(dim)
        if token in right
    )


def feature_sim(left: WeightedProperty, right: WeightedProperty) -> float:
    """1 - |w1 - w2| when the property tokens match, else 0."""
    if left[1] != right[1]:
        return 0.0
    return 1.0 - abs(float(left[0]) - float(right[0]))


def dimension_similarity(
    a: MeaningRecord, b: MeaningRecord, dim: PrimitiveRelation
) -> float:
    """Mean feature similarity over the join, in token order; 0.0 when empty.

    Walks the smaller of the records' token indexes, which are in token
    order, and probes the larger, instead of building dimension_join's
    MatchedPair set; each token scores feature_sim's expression (the weights
    are floats already, and |x - y| == |y - x| exactly), so the result is the
    same to the bit.  A plain loop, not sum(), which compensates rounding
    from Python 3.12 on.
    """
    left = a.weights(dim)
    right = b.weights(dim)
    if len(right) < len(left):
        left, right = right, left
    shared = [*filter(right.__contains__, left)]
    if not shared:
        return 0.0
    total = 0.0
    for token in shared:
        total += 1.0 - abs(left[token] - right[token])
    return total / len(shared)


DimWeights = Mapping[PrimitiveRelation, float]


def equal_weights(
    dims: tuple[PrimitiveRelation, ...] = DEFAULT_DIMS,
) -> dict[PrimitiveRelation, float]:
    return {dim: 1.0 for dim in dims}


class SimilarityReport(Value):
    a: str
    b: str
    per_dim: Mapping[PrimitiveRelation, float]
    aggregate: float
    dim_weights: Mapping[PrimitiveRelation, float]

    def __init__(self, a, b, per_dim, aggregate, dim_weights) -> None:
        _setattr(self, "a", a)
        _setattr(self, "b", b)
        _setattr(self, "per_dim", per_dim)
        _setattr(self, "aggregate", aggregate)
        _setattr(self, "dim_weights", dim_weights)

    def to_json(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "per_dim": {rel.value: value for rel, value in self.per_dim.items()},
            "aggregate": self.aggregate,
            "dim_weights": {rel.value: w for rel, w in self.dim_weights.items()},
        }

    def to_json_text(self) -> str:
        return jsonio.dumps(self.to_json())


def _checked_weights(weights: DimWeights) -> tuple[tuple[PrimitiveRelation, float], ...]:
    """The weights as (relation, float) pairs sorted by relation name.

    A weight is an int or a float, not a bool; an int past float range is
    reported as infinite without formatting its digits.  Checks run in one
    pass, in insertion order, and each entry's checks in the order written.
    """
    if not weights:
        raise InputDataError("dimension weights must not be empty")
    try:
        items = weights.items()
    except AttributeError:
        raise TypeError(f"weights must be a mapping or None, not {type(weights).__name__}") from None
    checked = []
    positive = False
    for relation, value in items:
        if not isinstance(relation, PrimitiveRelation):
            raise InputDataError(f"weight key {_echo(relation)} is not a primitive relation")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise InputDataError(f"weight for {relation.value} must be a number, got {_echo(value)}")
        try:
            weight = float(value)
        except OverflowError:
            weight = value = math.inf if value > 0 else -math.inf
        if not math.isfinite(weight):
            raise InputDataError(f"weight for {relation.value} is not finite: {value}")
        if weight < 0.0:
            raise InputDataError(f"weight for {relation.value} is negative: {value}")
        positive = positive or weight > 0.0
        checked.append((relation, weight))
    if not positive:
        raise InputDataError("at least one dimension weight must be positive")
    # A str enum orders by its value; relations are unique, so no weight is compared.
    return tuple(sorted(checked))


_EQUAL_WEIGHTS = _checked_weights(equal_weights())


def concept_similarity(
    a: MeaningRecord,
    b: MeaningRecord,
    weights: DimWeights | None = None,
) -> SimilarityReport:
    """Weighted average of per-dimension similarities.

    With the default all-equal weights this is the plain arithmetic mean over
    the standard dimensions.  Weights must be ints or floats (not bools),
    non-negative with at least one positive entry; non-finite weights, and
    weights whose sum overflows, are rejected, and weights that are neither
    None nor a mapping are a TypeError.  Scores sum in relation-name order.
    """
    ordered = _EQUAL_WEIGHTS if weights is None else _checked_weights(weights)
    per_dim: dict[PrimitiveRelation, float] = {}
    numerator = 0.0
    denominator = 0.0
    for rel, w in ordered:
        # Looked up at call time: the benchmark's trace wraps this global.
        score = per_dim[rel] = dimension_similarity(a, b, rel)
        numerator += w * score
        denominator += w
    # Each numerator term is at most its weight, so a finite denominator
    # keeps the numerator finite too.
    if not math.isfinite(denominator):
        raise InputDataError("dimension weights sum to a value that is not finite")
    return SimilarityReport(
        a=a.sense,
        b=b.sense,
        per_dim=per_dim,
        aggregate=numerator / denominator,
        dim_weights=dict(ordered),
    )
