"""The bulk builders run with the cyclic collector off, and leave it as they found it.

scan_corpus, AssertionSet(), AssertionSet.assertions, corpus_from_json_text,
meanings_from_json_text, induce and dag_from_json_text turn the collector
off while they build.  Afterwards it is on again only if it was on before,
on success and on every error path, and a nested call leaves it off.  The
premise is that they make no reference cycle: what they build, once
dropped, leaves the collector nothing to free.
"""

from __future__ import annotations

import gc
import json
import random

import pytest

from sensekit import corpus, hierarchy, semantics
from sensekit.corpus import AssertionSet, corpus_from_json_text, corpus_to_json_text, parse_corpus, scan_corpus
from sensekit.errors import (
    ConsistencyError,
    CorpusSyntaxError,
    EmptyCorpusError,
    InputDataError,
    MeaningStoreError,
    OntologyError,
)
from sensekit.hierarchy import dag_from_json_text, dag_to_json_text, induce
from sensekit.semantics import meanings_from_json_text


def _corpus_text() -> str:
    """About 9,000 lines: 300 nested and overlapping property intervals over
    80 concepts, nonsensical facts past each interval, and binary lines."""
    rng = random.Random(11)
    lines = []
    for p in range(300):
        lo = rng.randrange(80)
        hi = rng.randrange(lo, 80)
        lines += [f"+ P{p:03d} c{c:02d}" for c in range(lo, hi + 1)]
        lines += [f"- P{p:03d} c{c:02d}" for c in range(hi + 1, min(hi + 4, 80))]
    lines += [f"+ RIDE(c{c:02d}, c{79 - c:02d})" for c in range(40)]
    return "\n".join(lines) + "\n"


def _store_text() -> str:
    """300 records, each with up to 8 distinct tokens, weighted in (0, 1], in each of three dimensions."""
    rng = random.Random(12)
    return json.dumps([
        {
            "sense": f"s{i:03d}",
            "gloss": f"record {i}",
            "dims": {
                dim: [[rng.randint(1, 1000) / 1000, f"t{t:03d}"] for t in rng.sample(range(500), rng.randrange(9))]
                for dim in ("hasProp", "inState", "agentOf")
            },
        }
        for i in range(300)
    ])


TEXT = _corpus_text()
SCANNED = tuple(a for _, a in scan_corpus(TEXT))
ASET = parse_corpus(TEXT)
CORPUS_JSON = corpus_to_json_text(ASET)
STORE = _store_text()
DAG_JSON = dag_to_json_text(induce(ASET))

BUILDS = {
    "scan_corpus": lambda: scan_corpus(TEXT),
    "AssertionSet": lambda: AssertionSet(SCANNED),
    "assertions": lambda: AssertionSet(SCANNED).assertions,
    "corpus_from_json_text": lambda: corpus_from_json_text(CORPUS_JSON),
    "meanings_from_json_text": lambda: meanings_from_json_text(STORE),
    "induce": lambda: induce(ASET),
    "dag_from_json_text": lambda: dag_from_json_text(DAG_JSON),
}

# For each builder, an inner call it makes while it builds, where an injected
# MemoryError is raised.
INNER = {
    "scan_corpus": (corpus, "ConceptId"),
    "AssertionSet": (corpus, "_runs_of"),
    "assertions": (corpus, "_by_concept"),
    "corpus_from_json_text": (corpus, "corpus_from_json"),
    "meanings_from_json_text": (semantics, "_walk_store"),
    "induce": (hierarchy, "_covering_edges"),
    "dag_from_json_text": (hierarchy, "dag_from_json"),
}


def _scanned_while_built(*lines: str):
    """An AssertionSet() whose input scans each line while the set iterates it."""
    return AssertionSet(a for line in lines for _, a in scan_corpus(line))


FAILURES = [
    pytest.param(lambda: scan_corpus("+ OLD trip\nwhat is this\n"), CorpusSyntaxError, id="scan-bad-line"),
    pytest.param(lambda: scan_corpus("+ OLD Trip\n"), CorpusSyntaxError, id="scan-bad-token"),
    pytest.param(
        lambda: _scanned_while_built("+ OLD trip\n", "what\n"), CorpusSyntaxError, id="AssertionSet-bad-input",
    ),
    pytest.param(lambda: corpus_from_json_text("{"), InputDataError, id="corpus-json-bad-json"),
    pytest.param(lambda: corpus_from_json_text('{"assertions": 1}'), InputDataError, id="corpus-json-bad-shape"),
    pytest.param(lambda: meanings_from_json_text("[{"), InputDataError, id="store-bad-json"),
    pytest.param(
        lambda: meanings_from_json_text('[{"sense": "w", "dims": {}}, {"sense": "w", "dims": {}}]'),
        MeaningStoreError, id="store-repeated-sense",
    ),
    pytest.param(lambda: induce(parse_corpus("+ OLD trip\n- OLD trip\n")), ConsistencyError, id="induce-inconsistent"),
    pytest.param(lambda: induce(AssertionSet(())), EmptyCorpusError, id="induce-empty"),
    pytest.param(lambda: dag_from_json_text("{"), InputDataError, id="dag-bad-json"),
    pytest.param(lambda: dag_from_json_text('{"nodes": 1}'), OntologyError, id="dag-bad-shape"),
]


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """The collector's state before the call; the test's own state is restored after."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("name", BUILDS)
def test_a_build_leaves_the_collector_as_it_found_it(name, collector) -> None:
    BUILDS[name]()
    assert gc.isenabled() is collector


@pytest.mark.parametrize(("call", "error"), FAILURES)
def test_a_failed_build_leaves_the_collector_as_it_found_it(call, error, collector) -> None:
    with pytest.raises(error):
        call()
    assert gc.isenabled() is collector


@pytest.mark.parametrize("name", BUILDS)
def test_running_out_of_memory_leaves_the_collector_as_it_found_it(name, collector, monkeypatch) -> None:
    module, attr = INNER[name]
    seen = []

    def exhausted(*args, **kwargs):
        seen.append(gc.isenabled())
        raise MemoryError

    monkeypatch.setattr(module, attr, exhausted)
    with pytest.raises(MemoryError):
        BUILDS[name]()
    assert seen == [False]  # the collector was off while the builder ran
    assert gc.isenabled() is collector


def test_a_nested_build_leaves_the_collector_off(monkeypatch) -> None:
    """scan_corpus, called while AssertionSet() iterates its input, runs
    plain: the collector stays off until the outer build ends."""
    runs_of, seen = corpus._runs_of, []

    def recording(groups):
        seen.append(gc.isenabled())
        return runs_of(groups)

    monkeypatch.setattr(corpus, "_runs_of", recording)
    assert gc.isenabled()
    assert _scanned_while_built("+ OLD trip\n", "+ NEW trip\n") == parse_corpus("+ OLD trip\n+ NEW trip\n")
    assert seen == [False, False]
    assert gc.isenabled()


@pytest.mark.parametrize("name", BUILDS)
def test_a_build_makes_no_reference_cycle(name) -> None:
    """Each build allocates more containers than one collection's threshold,
    and once its result is dropped no cycle is left for the collector."""
    BUILDS[name]()  # anything the first call sets up once is not counted
    was = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        result = BUILDS[name]()
        assert gc.get_count()[0] > gc.get_threshold()[0]
        del result
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()
