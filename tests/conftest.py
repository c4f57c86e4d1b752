from __future__ import annotations

import random
from pathlib import Path

import pytest

from sensekit.corpus import (
    AGENT,
    NONSENSICAL,
    OBJECT,
    SENSIBLE,
    Assertion,
    AssertionSet,
    ConceptId,
    PropertyKey,
    parse_corpus,
)

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def leaf_corpus() -> AssertionSet:
    return parse_corpus((DATA_DIR / "leaf_hierarchy.sense").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def branch_corpus() -> AssertionSet:
    return parse_corpus((DATA_DIR / "branch_split.sense").read_text(encoding="utf-8"))


def random_assertion_set(
    rng: random.Random,
    max_properties: int = 8,
    max_concepts: int = 10,
    allow_negative: bool = True,
) -> AssertionSet:
    """A consistent random corpus (each pair gets one polarity at most)."""
    n_concepts = rng.randint(1, max_concepts)
    n_props = rng.randint(1, max_properties)
    concepts = [ConceptId(f"c{i}") for i in range(n_concepts)]
    props: list[PropertyKey] = []
    for i in range(n_props):
        if rng.random() < 0.3:
            props.append(
                PropertyKey(f"R{i}", arity=2, position=rng.choice([AGENT, OBJECT]))
            )
        else:
            props.append(PropertyKey(f"P{i}"))
    assertions = []
    for prop in props:
        for concept in concepts:
            roll = rng.random()
            if roll < 0.45:
                assertions.append(Assertion(prop, concept, SENSIBLE))
            elif allow_negative and roll < 0.6:
                assertions.append(Assertion(prop, concept, NONSENSICAL))
    return AssertionSet(tuple(assertions))


def interval_assertion_set(
    rng: random.Random,
    concepts: int,
    intervals: int,
    near_dups: int,
    max_drop: int = 3,
) -> AssertionSet:
    """Random intervals over ordered concepts, plus near-duplicates of some.

    Intervals nest into long inclusion chains, as in the benchmark's
    hierarchy_wide corpus.  A near-duplicate drops 1 to max_drop members of
    an interval, so its size lies close to its base's and a small tau may
    merge the two.
    """
    names = [ConceptId(f"c{i:03d}") for i in range(concepts)]
    extents = []
    for _ in range(intervals):
        length = rng.randint(1, concepts)
        start = rng.randrange(concepts - length + 1)
        extents.append(names[start:start + length])
    for base in rng.sample(extents, min(near_dups, len(extents))):
        gone = set(rng.sample(base, min(len(base) - 1, rng.randint(1, max_drop))))
        extents.append([c for c in base if c not in gone])
    return AssertionSet(tuple(
        Assertion(PropertyKey(f"P{i}"), c, SENSIBLE)
        for i, members in enumerate(extents)
        for c in members
    ))
