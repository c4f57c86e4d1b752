"""Seeded, layered benchmark for sensekit.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed, writes them to files, and
drives sensekit's public functions (and its CLI, as subprocesses) from this
one process in a closed loop with a single thread of work.  Every output is
checked: the first round against independent references (the brute-force
oracles in tests/oracles.py and the generator's own bookkeeping); later
rounds must reproduce the first round's outputs exactly.

--trace 0 prints the end-to-end metrics; --trace 1 runs alternate rounds with
timing wrappers installed and prints the per-layer metrics.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Metric names and units come from BENCHMARK.json; perfbench/README.md says
which layer metric should move which end-to-end metric on which workload.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ORACLES = ROOT / "tests" / "oracles.py"
OUT = HERE / "_run"

sys.path.insert(0, str(HERE))
import gen  # noqa: E402
from spans import ARGS, END, FAILED, NAME, OP, PARENT, SIZE, START, Tracer  # noqa: E402

TAU = 0.1
ELICIT_N = 25
SIM_PAIRS = 1000
VERIFY_FACTS = 4
SETUP_REPS = 7
#: Every workload makes its CLI calls on the same tiny inputs, cycling
#: through the eight cases, so cli_p50_ms is comparable across workloads.
CLI_PER_ROUND = 4
#: A timed round repeats an op until about this much time is spent on it
#: (judged from its round-0 time), so cheap ops get as many samples as the
#: expensive ones get time, without lengthening rounds much.
REP_TARGET_S = 0.12
MAX_REPS = 8
CLI_TIMEOUT_S = 60
NO_SPAN = contextlib.nullcontext()
#: Fastest times of the two host references (see host_index) on the 2-vCPU
#: VM the benchmark was tuned on.  They only fix the scale of the reported
#: times: every comparison between commits divides them out.
REFERENCE_MS = 7.5
REFERENCE_PROC_MS = 100.0
REFERENCE_IMPORTS = ("import argparse, dataclasses, decimal, email.parser, http.client, "
                     "json, logging, tempfile, urllib.request")


@dataclass(frozen=True)
class Workload:
    corpus: dict
    store: dict
    fixture: dict
    wide: dict | None = None


TINY_CORPUS = dict(concepts=24, unary=6, relations=1, binary_facts=10, negatives=10,
                   comments=4, blank=2, dups=2)
TINY_STORE = dict(records=12, tokens=(5, 15), vocab=200)
TINY_FIXTURE = dict(subjects=10, per_dim=ELICIT_N, vocab=200)
SMALL_STORE = dict(records=50, tokens=(10, 40), vocab=1500)
SMALL_FIXTURE = dict(subjects=20, per_dim=ELICIT_N, vocab=1500)

# Sizes keep every op under about 100 ms, so a 35-second run repeats each
# one a few dozen times: the host's speed drifts within seconds, and only
# short, often repeated ops find its quiet moments.  perfbench/README.md
# says why each workload exists.
WORKLOADS = {
    "corpus_narrow": Workload(
        corpus=dict(concepts=320, unary=14, relations=2, binary_facts=800,
                    negatives=1000, comments=300, blank=50, dups=100),
        store=SMALL_STORE, fixture=SMALL_FIXTURE,
    ),
    "hierarchy_wide": Workload(
        corpus=dict(concepts=160, relations=2, binary_facts=60, negatives=200,
                    comments=120, blank=20, dups=60),
        wide=dict(base=50, near_dups=10, min_len=6, max_len=64),
        store=SMALL_STORE, fixture=SMALL_FIXTURE,
    ),
    "meaning_store": Workload(
        corpus=dict(concepts=200, unary=10, relations=1, binary_facts=200,
                    negatives=200, comments=60, blank=10, dups=10),
        store=dict(records=50, tokens=(20, 100), vocab=2000),
        fixture=dict(subjects=25, per_dim=ELICIT_N, vocab=2000),
    ),
}

#: End-to-end metric -> op kind whose per-op samples it summarises.
OP_METRICS = {
    "ingest_ms": "ingest",
    "corpus_load_ms": "corpus_load",
    "nominalize_ms": "nominalize",
    "induce_ms": "induce",
    "induce_tol_ms": "induce_tol",
    "store_save_ms": "store_save",
    "store_load_ms": "store_load",
}
#: op kinds that run inside this process (the CLI ops are subprocesses)
IN_PROCESS = ("ingest", "corpus_load", "serialize", "nominalize", "induce",
              "induce_tol", "elicit", "store_save", "store_load", "sim")


def sha(*parts: object) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() if isinstance(part, str) else repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def percentile(samples: list[float], p: float) -> float | None:
    """Nearest-rank percentile, or None unless >= 10 samples lie beyond it."""
    if not samples:
        return None
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    if p != 50 and len(ordered) - rank < 10:
        return None
    if p == 50:
        return statistics.median(ordered)
    return ordered[rank - 1]


def reference_work() -> None:
    """A fixed stdlib workload shaped like the program's in-process work:
    many small strings, dicts and sets, and an indented JSON round trip."""
    rows = [(f"k{i % 997:04d}", str(i)) for i in range(4000)]
    index: dict[str, list[str]] = {}
    for key, value in rows:
        index.setdefault(key, []).append(value)
    sets = [frozenset(v) for v in index.values()]
    sum(len(a & b) for a, b in zip(sets, sets[1:]))
    json.loads(json.dumps(sorted(index.items()), indent=2))


def strict_json(text: str):
    def reject(token: str):
        raise ValueError(f"non-finite number {token} in JSON")
    return json.loads(text, parse_constant=reject)


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def canonical_order(facts):
    """Facts in the order sensekit normalizes assertions to."""
    def key(f):
        name, _, pos = f[0].partition("@")
        return (name, pos, f[1], f[2])
    return sorted(facts, key=key)


def _facts_json(facts) -> str:
    """Normalized corpus JSON, as `sensekit ingest` writes it, built without sensekit."""
    rows = []
    for token, concept, polarity in canonical_order(facts):
        name, _, pos = token.partition("@")
        rows.append({"prop": name, "arity": 2 if pos else 1, "position": pos or None,
                     "concept": concept, "polarity": polarity})
    return _dump({"assertions": rows})


def expected_triples(corpus: gen.Corpus) -> list[dict]:
    out = []
    for token, concept, polarity in canonical_order(corpus.facts):
        if polarity != gen.SENSIBLE:
            continue
        name, _, pos = token.partition("@")
        entry = corpus.lexicon.get(name)
        if pos:
            obj = entry["trope"] if entry else name.lower() + "ing"
            rel = "agentOf" if pos == "agent" else "objectOf"
        else:
            obj = entry["trope"]
            rel = "hasProp" if entry["cat"] == "property" else "inState"
        out.append({"subject": concept, "relation": rel, "object": obj})
    return out


def expected_elicit(fixture: dict, subject: str) -> tuple[dict, set, int, int]:
    """(record dims JSON, failed dims, warning count, completions kept)."""
    dims, failed, warnings, kept = {}, set(), 0, 0
    for dim in gen.ELICIT_DIMS:
        raw = fixture[subject].get(dim)
        if raw is None:
            failed.add(dim)
            continue
        raw = raw[:ELICIT_N]
        first: dict[str, int] = {}
        for rank, token in enumerate(raw, start=1):
            first.setdefault(token, rank)
        pairs = [[(len(raw) - r + 1) / len(raw), t] for t, r in first.items()]
        dims[dim] = sorted(pairs, key=lambda p: (-p[0], p[1]))
        kept += len(first)
        warnings += sum(1 for t in first if not _usable(t))
    return dims, failed, warnings, kept


def _usable(token: str) -> bool:
    name = token.strip().upper().replace(" ", "-")
    return bool(name) and name[0].isalpha() and name[0].isupper() and all(
        ch.isupper() or ch.isdigit() or ch in "_-" for ch in name)


@dataclass
class Stats:
    attempted: int = 0
    failed: int = 0
    samples: dict = field(default_factory=dict)        # kind -> [seconds]
    #: kind -> item (similarity pair, subject, CLI case; None for an op) -> fastest seconds
    best: dict = field(default_factory=dict)
    round_time: dict = field(default_factory=dict)     # round -> in-process seconds
    errors: list = field(default_factory=list)

    def add(self, kind: str, seconds: float, round_no: int, item=None) -> None:
        self.samples.setdefault(kind, []).append(seconds)
        items = self.best.setdefault(kind, {})
        items[item] = min(seconds, items.get(item, math.inf))
        if kind in IN_PROCESS:
            self.round_time[round_no] = self.round_time.get(round_no, 0.0) + seconds

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)


class Bench:
    def __init__(self, name: str, seed: int, seconds: float, trace: bool, work: Path) -> None:
        self.name, self.seed, self.seconds, self.trace = name, seed, seconds, trace
        self.wl = WORKLOADS[name]
        self.work = work
        self.stats = Stats()
        self.refs: dict[str, object] = {}
        self.tracer = Tracer() if trace else None
        self.traced_rounds: list[int] = []
        self.extra: dict[str, list[float]] = {}
        self.nonzero_exits = 0
        self.cli_next = 0
        self.sizes: dict[str, int] = {}
        self.reps: dict[str, int] = {}
        #: round-0 output per op kind; timed rounds must reproduce it exactly
        self.first: dict[str, object] = {}
        #: counts read off the round-0 outputs (DAG shapes, warnings, ...)
        self.shape: dict[str, int] = {"elicitation.warnings": 0, "elicitation.completions": 0}
        self.elicited: list = []
        self.setups: list[dict] = []

    # --- inputs ---------------------------------------------------------------
    def generate(self) -> None:
        rng = random.Random(self.seed)
        wl = self.wl
        extents = None
        if wl.wide:
            extents = gen.interval_extents(rng, wl.corpus["concepts"], **wl.wide)
        self.corpus = gen.make_corpus(rng, extents=extents, **wl.corpus)
        self.store = gen.make_store(rng, **wl.store)
        self.fixture, self.lacking = gen.make_fixture(rng, **wl.fixture)
        tiny = gen.make_corpus(rng, **TINY_CORPUS)
        tiny_store = gen.make_store(rng, **TINY_STORE)
        tiny_fixture, tiny_lacking = gen.make_fixture(rng, **TINY_FIXTURE)

        w = self.work
        _write(w / "corpus.sense", self.corpus.text)
        _write(w / "corpus.json", _facts_json(self.corpus.facts))
        _write(w / "lexicon.json", _dump(self.corpus.lexicon))
        _write(w / "store.json", _dump(self.store))
        _write(w / "fixture.json", _dump(self.fixture))
        _write(w / "tiny.sense", tiny.text)
        _write(w / "tiny_lexicon.json", _dump(tiny.lexicon))
        _write(w / "tiny_store.json", _dump(tiny_store))
        _write(w / "tiny_fixture.json", _dump(tiny_fixture))
        # A conflicting corpus (exit 3) and a malformed one (exit 2).
        prop = tiny.unary[0]
        _write(w / "conflict.sense", f"+ {prop} alpha\n- {prop} alpha\n+ {prop} beta\n")
        _write(w / "bad.sense", f"+ {prop} alpha\n* {prop} beta\n")

        self.subjects = sorted(self.fixture)
        self.tiny = tiny
        tiny_ok = sorted(s for s in tiny_fixture if s != tiny_lacking)
        a, b = rng.sample([r["sense"] for r in tiny_store], 2)
        self.cli_cases = [
            (["ingest", "tiny.sense"], 0),
            (["induce", "tiny.sense"], 0),
            (["nominalize", "tiny.sense", "--lexicon", "tiny_lexicon.json"], 0),
            (["sim", a, b, "--store", "tiny_store.json"], 0),
            (["elicit", "--subject", tiny_ok[0], "--provider", "mock",
              "--fixtures", "tiny_fixture.json"], 0),
            (["ingest", "conflict.sense"], 3),
            (["ingest", "bad.sense"], 2),
            (["elicit", "--subject", tiny_ok[0], "-n", "0"], 5),
        ]
        self.probe_subject = sorted(s for s in self.fixture if s != self.lacking)[0]
        self.sizes = {
            "corpus_lines": self.corpus.lines,
            "corpus_facts": len(self.corpus.facts),
            "unary_properties": len(self.corpus.unary),
            "relations": len(self.corpus.relations),
            "store_records": len(self.store),
            "store_tokens": sum(len(p) for r in self.store for p in r["dims"].values()),
            "fixture_subjects": len(self.fixture),
            "sim_pairs_per_round": SIM_PAIRS,
            "cli_cases": len(self.cli_cases),
        }

    # --- set-up -----------------------------------------------------------------
    def measure_setup(self) -> None:
        """One program set-up in a fresh interpreter (see setup_probe.py)."""
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(self.work),
             self.probe_subject],
            capture_output=True, text=True, timeout=CLI_TIMEOUT_S, cwd=self.work,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        self.setups.append(json.loads(proc.stdout))

    def load_program(self) -> None:
        sys.path.insert(0, str(SRC))
        import sensekit
        from sensekit import cli, jsonio
        import importlib.util
        spec = importlib.util.spec_from_file_location("sensekit_bench_oracles", ORACLES)
        oracles = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(oracles)
        self.sk, self.jsonio, self.cli, self.oracles = sensekit, jsonio, cli, oracles
        sk = sensekit
        self.lexicon = sk.load_lexicon(str(self.work / "lexicon.json"))
        self.provider = sk.MockProvider.from_file(str(self.work / "fixture.json"))
        self.base_records = sk.load_meanings(str(self.work / "store.json"))
        self.dims = [sk.resolve_relation(d) for d in gen.ELICIT_DIMS]
        pairs = gen.sim_pairs(random.Random(self.seed + 1),
                              [r["sense"] for r in self.store] + self.subjects,
                              SIM_PAIRS)
        self.pairs = [
            (a, b, None if w is None else {sk.resolve_relation(k): v for k, v in w.items()})
            for a, b, w in pairs
        ]
        rng = random.Random(self.seed + 2)
        self.facts = [(rng.choice(self.corpus.unary), rng.choice(self.corpus.unary))
                      for _ in range(VERIFY_FACTS)]
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))

    # --- one operation ------------------------------------------------------------
    @contextlib.contextmanager
    def op(self, kind: str, round_no: int):
        """Spans opened inside belong to one operation (traced rounds only)."""
        traced = round_no in self.traced_rounds
        if traced:
            self.tracer.begin_op(kind, round_no)
        try:
            yield
        finally:
            if traced:
                self.tracer.end_op()

    # --- ops ----------------------------------------------------------------------
    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else NO_SPAN

    def op_ingest(self):
        sk = self.sk
        text = (self.work / "corpus.sense").read_text(encoding="utf-8")
        with self.span("corpus.scan"):
            scanned = sk.scan_corpus(text)
        with self.span("corpus.normalize"):
            aset = sk.AssertionSet(tuple(a for _, a in scanned))
        with self.span("corpus.consistency"):
            conflicts = sk.check_consistency(aset)
        with self.span("corpus.to_json"):
            out = sk.corpus_to_json_text(aset)
        return aset, conflicts, out

    def op_corpus_load(self):
        text = (self.work / "corpus.json").read_text(encoding="utf-8")
        with self.span("corpus.from_json"):
            return self.sk.corpus_from_json_text(text)

    def op_serialize(self):
        with self.span("corpus.serialize"):
            return self.sk.serialize_corpus(self.aset)

    def op_nominalize(self):
        sk = self.sk
        with self.span("semantics.nominalize"):
            triples = [sk.nominalize_assertion(a, self.lexicon)
                       for a in self.aset.assertions if a.is_sensible]
        return self.jsonio.dumps({"triples": [t.to_json() for t in triples]})

    def op_induce(self):
        sk = self.sk
        with self.span("hierarchy.induce"):
            dag = sk.induce(self.aset)
        with self.span("hierarchy.export"):
            text = sk.dag_to_json_text(dag)
            dot = sk.export_dot(dag)
        with self.span("hierarchy.load"):
            loaded = sk.dag_from_json_text(text)
        with self.span("hierarchy.verify"):
            verdicts = [
                sk.verify(loaded, sk.TypedFact(sk.PropertyKey.from_token(p), t), self.aset)
                for p, t in self.facts
            ]
        return dag, text, dot, loaded, verdicts

    def op_induce_tol(self):
        with self.span("hierarchy.induce"):
            return self.sk.induce(self.aset, self.sk.InduceConfig(tau=TAU))

    def op_store_save(self):
        with self.span("semantics.store_save"):
            self.sk.save_meanings(self.records_to_save, str(self.work / "store_out.json"))

    def op_store_load(self):
        with self.span("semantics.store_load"):
            return self.sk.load_meanings(str(self.work / "store_out.json"))

    # --- checks for the first round ---------------------------------------------------
    def check_ingest(self, out):
        aset, conflicts, text = out
        self.aset = aset  # later ops run on it even if it is wrong
        got = {(a.property.token, a.concept.name, a.polarity) for a in aset.assertions}
        if got != self.corpus.facts or conflicts:
            return None
        if self.sk.corpus_from_json_text(text) != aset:
            return None
        return sha(text)

    def check_corpus_load(self, aset):
        return sha(self.sk.corpus_to_json_text(aset)) if aset == self.aset else None

    def check_serialize(self, text):
        return sha(text) if self.sk.parse_corpus(text) == self.aset else None

    def check_nominalize(self, text):
        return sha(text) if strict_json(text)["triples"] == expected_triples(self.corpus) else None

    def check_induce(self, out):
        dag, text, dot, loaded, verdicts = out
        node_map, edges, root_ext = self.oracles.brute_force_hierarchy(self.aset)
        by_id = {n.id: n for n in dag.nodes}
        got_nodes = {n.extent: n.characteristic_properties for n in dag.nodes}
        got_edges = {(by_id[p].extent, by_id[c].extent) for p, c in dag.edges}
        if got_nodes != node_map or got_edges != edges or by_id[dag.root].extent != root_ext:
            return None
        if loaded != dag:
            return None
        for (prop, type_name), verdict in zip(self.facts, verdicts):
            want = tuple(sorted(self.corpus.extent(type_name) - self.corpus.extent(prop)))
            if verdict.violations != want or verdict.consistent != (not want):
                return None
        self.shape["hierarchy.nodes"] = len(dag.nodes)
        self.shape["hierarchy.edges"] = len(dag.edges)
        self.shape["hierarchy.extents_distinct"] = sum(1 for n in dag.nodes if n.characteristic_properties)
        self.shape["hierarchy.diagnostics"] = len(dag.diagnostics)
        return sha(text, dot, [(v.consistent, v.violations) for v in verdicts])

    def check_induce_tol(self, dag):
        by_id = {n.id: n for n in dag.nodes}
        if by_id[dag.root].extent != frozenset(c.name for c in self.aset.concepts):
            return None
        indegree = {i: 0 for i in by_id}
        adj: dict[int, list[int]] = {i: [] for i in by_id}
        for p, c in dag.edges:
            if len(by_id[c].extent) >= len(by_id[p].extent):
                return None
            adj[p].append(c)
            indegree[c] += 1
        ready = [i for i, d in indegree.items() if d == 0]
        seen = 0
        while ready:
            u = ready.pop()
            seen += 1
            for v in adj[u]:
                indegree[v] -= 1
                if indegree[v] == 0:
                    ready.append(v)
        if seen != len(by_id):  # a cycle
            return None
        tokens = sorted(p for n in dag.nodes for p in n.characteristic_properties)
        if tokens != sorted({t for t, _, pol in self.corpus.facts if pol == gen.SENSIBLE}):
            return None
        self.shape["hierarchy.tol_nodes"] = len(dag.nodes)
        self.shape["hierarchy.tol_edges"] = len(dag.edges)
        return sha(self.sk.dag_to_json_text(dag))

    def expected_store(self) -> list[dict]:
        out = [dict(r, dims=dict(sorted(r["dims"].items()))) for r in self.store]
        for subject in self.subjects:
            dims, _, _, _ = expected_elicit(self.fixture, subject)
            out.append({"sense": subject, "gloss": "", "dims": dict(sorted(dims.items()))})
        return sorted(out, key=lambda r: r["sense"])

    def check_store_save(self, text):
        return sha(text) if strict_json(text) == self.expected_store() else None

    def check_store_load(self, records):
        self.records = {r.sense: r for r in records}  # sims run on it even if wrong
        self.shape["semantics.records"] = len(records)
        got = [self.sk.meaning_record_to_json(r) for r in records]
        if got != self.expected_store():
            return None
        return sha(got)

    # --- rounds -----------------------------------------------------------------------
    def single(self, kind: str, round_no: int, fn, check) -> None:
        """Run one op (repeated in timed rounds), check it, keep its times.

        Round 0 checks the output against its reference and keeps it; timed
        rounds must reproduce it exactly.
        """
        reps = 1 if round_no == 0 else self.reps.get(kind, 1)
        for _ in range(reps):
            gc.collect()
            self.stats.attempted += 1
            try:
                with self.op(kind, round_no):
                    t0 = perf_counter()
                    out = fn()
                    dt = perf_counter() - t0
                if kind == "store_save":  # the file it wrote, read back untimed
                    out = (self.work / "store_out.json").read_text(encoding="utf-8")
                if round_no == 0:
                    digest = check(out)
            except Exception as exc:  # a program error fails the op, not the run
                self.stats.fail(f"{kind}: {type(exc).__name__}: {exc}")
                continue
            if round_no == 0:
                if digest is None:
                    self.stats.fail(f"{kind}: output is wrong")
                    continue
                self.refs[kind] = digest
                self.first[kind] = out
                self.reps[kind] = max(1, min(MAX_REPS, math.ceil(REP_TARGET_S / dt)))
            else:
                if kind not in self.first or out != self.first[kind]:
                    self.stats.fail(f"{kind}: output differs from the first round")
                self.stats.add(kind, dt, round_no)

    def elicit_batch(self, round_no: int, subjects: list[str]) -> None:
        sk = self.sk
        with self.op("elicit", round_no):
            for subject in subjects:
                self.stats.attempted += 1
                try:
                    t0 = perf_counter()
                    with self.span("elicitation.elicit"):
                        res = sk.elicit(self.provider, subject, self.dims, ELICIT_N,
                                        sk.DEFAULT_TEMPLATES)
                    dt = perf_counter() - t0
                except Exception as exc:
                    self.stats.fail(f"elicit {subject}: {type(exc).__name__}: {exc}")
                    continue
                got = (sk.meaning_record_to_json(res.record),
                       sorted(d.value for d in res.failures), len(res.warnings))
                key = "elicit:" + subject
                if round_no == 0:
                    self.elicited.append(res.record)  # saved and compared even if wrong
                    dims, failed, warnings, kept = expected_elicit(self.fixture, subject)
                    want = ({"sense": subject, "gloss": "", "dims": dims}, sorted(failed), warnings)
                    if got != want:
                        self.stats.fail(f"elicit {subject}: wrong record")
                        continue
                    self.refs[key] = got
                    self.shape["elicitation.warnings"] += warnings
                    self.shape["elicitation.completions"] += kept
                else:
                    if got != self.refs.get(key):
                        self.stats.fail(f"elicit {subject}: output differs from the first round")
                    self.stats.add("elicit", dt, round_no, subject)

    def sim_batch(self, round_no: int, indices: range) -> None:
        sk = self.sk
        records = self.records
        results = []
        with self.op("sim", round_no):
            for i in indices:
                a, b, weights = self.pairs[i]
                self.stats.attempted += 1
                try:
                    t0 = perf_counter()
                    with self.span("similarity.concept"):
                        rep = sk.concept_similarity(records[a], records[b], weights)
                    dt = perf_counter() - t0
                except Exception as exc:
                    self.stats.fail(f"sim {a} {b}: {type(exc).__name__}: {exc}")
                    continue
                results.append((i, dt, rep))
        if round_no == 0:
            sample = set(random.Random(self.seed + 3).sample(range(len(self.pairs)),
                                                                min(100, len(self.pairs))))
        for i, dt, rep in results:
            got = (rep.aggregate, tuple(sorted((k.value, v) for k, v in rep.per_dim.items())))
            key = f"sim:{i}"
            if round_no == 0:
                if not (0.0 <= rep.aggregate <= 1.0) or (i in sample and not self.sim_oracle(i, rep)):
                    self.stats.fail(f"sim pair {i}: wrong report")
                    continue
                self.refs[key] = got
            else:
                if got != self.refs.get(key):
                    self.stats.fail(f"sim pair {i}: output differs from the first round")
                self.stats.add("sim", dt, round_no, i)

    def sim_oracle(self, i: int, rep) -> bool:
        a, b, weights = self.pairs[i]
        ra, rb = self.records[a], self.records[b]
        weights = weights or {self.sk.resolve_relation(d): 1.0 for d in gen.DEFAULT_DIMS}
        num = den = 0.0
        for rel in sorted(weights, key=lambda r: r.value):
            want = self.oracles.brute_force_dimension_similarity(ra, rb, rel)
            if rep.per_dim[rel] != want:
                return False
            num += weights[rel] * want
            den += weights[rel]
        return math.isclose(rep.aggregate, num / den, rel_tol=1e-12, abs_tol=1e-15)

    def cli_call(self, case: int, round_no: int) -> None:
        """One `python -m sensekit` subprocess; its first call per case is
        checked in full, later ones must repeat its exit code and stdout."""
        argv, want_exit = self.cli_cases[case]
        self.stats.attempted += 1
        t0 = perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-m", "sensekit", *argv],
                                  capture_output=True, text=True, env=self.env,
                                  cwd=self.work, timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.stats.fail(f"cli {argv}: timed out")
            return
        self.stats.add("cli", perf_counter() - t0, round_no, case)
        problem = self.cli_problem(case, proc)
        if problem:
            self.stats.fail(f"cli {argv}: {problem}")
            return
        if want_exit:
            self.nonzero_exits += 1
        if self.trace:
            self.cli_in_process(argv, proc.stdout)

    def cli_problem(self, case: int, proc) -> str | None:
        argv, want_exit = self.cli_cases[case]
        if proc.returncode != want_exit:
            return f"exit {proc.returncode}, expected {want_exit}: {proc.stderr.strip()[-300:]}"
        try:
            if proc.stdout or want_exit in (0, 3):
                strict_json(proc.stdout)
        except ValueError as exc:
            return f"stdout is not strict JSON: {exc}"
        key = f"cli:{case}"
        got = sha(proc.returncode, proc.stdout)
        if key not in self.refs:
            if not self.cli_content_ok(argv, proc.stdout):
                return "output differs from the library's"
            self.refs[key] = got
        elif got != self.refs[key]:
            return "output differs from the first call"
        return None

    def cli_content_ok(self, argv, stdout: str) -> bool:
        sk = self.sk
        if argv[0] not in ("ingest", "induce") or argv[1] != "tiny.sense":
            return True
        aset = sk.parse_corpus(self.tiny.text)
        want = sk.corpus_to_json_text(aset) if argv[0] == "ingest" else sk.dag_to_json_text(sk.induce(aset))
        return stdout == want

    def cli_in_process(self, argv, stdout: str) -> None:
        """cli.main on the same argv, in this process (no interpreter or import)."""
        buf = io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.work)
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                t0 = perf_counter()
                self.cli.main(argv)
                dt = perf_counter() - t0
        finally:
            os.chdir(cwd)
        if buf.getvalue() != stdout:
            self.stats.fail(f"cli.main {argv}: stdout differs from the subprocess")
            return
        self.extra.setdefault("cli.main", []).append(dt)

    def cli_baselines(self) -> None:
        for key, code in (("cli.interpreter", "pass"), ("cli.import", "import sensekit.cli")):
            t0 = perf_counter()
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                  env=self.env, cwd=self.work, timeout=CLI_TIMEOUT_S)
            dt = perf_counter() - t0
            if proc.returncode == 0:
                self.extra.setdefault(key, []).append(dt)
            else:
                self.stats.fail(f"{key}: exit {proc.returncode}")

    def reference(self, round_no: int) -> None:
        """The in-process host reference, twice (see host_index)."""
        for _ in range(2):
            gc.collect()
            t0 = perf_counter()
            reference_work()
            self.stats.add("reference", perf_counter() - t0, round_no)

    def reference_proc(self, round_no: int) -> None:
        """The process-start host reference: an isolated interpreter that
        imports a fixed set of stdlib modules (see host_index)."""
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-I", "-B", "-c", REFERENCE_IMPORTS],
                              capture_output=True, text=True, cwd=self.work,
                              timeout=CLI_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"host reference failed: {proc.stderr.strip()[-300:]}")
        self.stats.add("reference_proc", perf_counter() - t0, round_no)

    def ops(self) -> list[tuple]:
        return [
            ("ingest", self.op_ingest, self.check_ingest),
            ("corpus_load", self.op_corpus_load, self.check_corpus_load),
            ("serialize", self.op_serialize, self.check_serialize),
            ("nominalize", self.op_nominalize, self.check_nominalize),
            ("induce", self.op_induce, self.check_induce),
            ("induce_tol", self.op_induce_tol, self.check_induce_tol),
            ("store_save", self.op_store_save, self.check_store_save),
            ("store_load", self.op_store_load, self.check_store_load),
        ]

    def first_round(self) -> None:
        """Round 0: every op once, in dependency order, checked in full."""
        ops = self.ops()
        for kind, fn, check in ops[:6]:
            self.single(kind, 0, fn, check)
            if kind == "ingest" and not hasattr(self, "aset"):
                raise RuntimeError("ingest failed in the first round; nothing else can run")
        self.elicit_batch(0, self.subjects)
        self.records_to_save = tuple(self.base_records) + tuple(self.elicited)
        for kind, fn, check in ops[6:]:
            self.single(kind, 0, fn, check)
        if not hasattr(self, "records"):
            raise RuntimeError("store load failed in the first round; similarity cannot run")
        self.sim_batch(0, range(len(self.pairs)))

    def timed_round(self, round_no: int) -> None:
        """One timed round: the similarity pairs, elicited subjects and CLI
        calls are spread between the other ops, so that every metric samples
        the whole round rather than one burst of it."""
        ops = self.ops()
        n = len(ops)
        self.reference_proc(round_no)
        for slot, (kind, fn, check) in enumerate(ops):
            self.reference(round_no)
            self.single(kind, round_no, fn, check)
            self.elicit_batch(round_no, self.subjects[slot::n])
            self.sim_batch(round_no, range(slot, len(self.pairs), n))
            for k in range(CLI_PER_ROUND):
                if k * n // CLI_PER_ROUND == slot:
                    self.cli_call(self.cli_next % len(self.cli_cases), round_no)
                    self.cli_next += 1
        if self.trace:
            self.cli_baselines()

    def run(self) -> None:
        self.first_round()
        # What the benchmark holds from here on is frozen, so the program's
        # own collections do not scan it (as in a fresh CLI process).
        gc.collect()
        gc.freeze()
        start = perf_counter()
        round_no = 0
        min_rounds = 2 if self.trace else 1
        while perf_counter() - start < self.seconds or round_no < min_rounds:
            round_no += 1
            # Set-ups are spread over the run, so their median does not hang
            # on one stretch of the host's speed.
            if len(self.setups) < SETUP_REPS:
                self.measure_setup()
            if self.trace and round_no % 2 == 1:
                self.traced_rounds.append(round_no)
                with self.tracer.patched():
                    self.timed_round(round_no)
            else:
                self.timed_round(round_no)
        self.rounds = round_no
        self.measured_s = perf_counter() - start
        while len(self.setups) < SETUP_REPS:
            self.measure_setup()


# --- metrics ------------------------------------------------------------------------

def host_index(best: dict) -> float:
    """How slow the host ran during this run, 1.0 at the reference speed.

    The host's speed also drifts over minutes, by up to half, and no
    statistic inside one run removes that.  So each timed round also times
    two fixed workloads that do not touch sensekit: reference_work() in this
    process and an isolated interpreter importing REFERENCE_IMPORTS.  The
    index is the geometric mean of their fastest times, each relative to its
    REFERENCE_* constant; the in-process one tracks compute-bound ops, the
    process-start one tracks file and memory-bound ones and subprocesses.
    """
    ref = best["reference"][None] * 1e3 / REFERENCE_MS
    proc = best["reference_proc"][None] * 1e3 / REFERENCE_PROC_MS
    return math.sqrt(ref * proc)


def end_to_end(bench: Bench, setups: list[dict]) -> tuple[dict, dict]:
    """Time metrics are taken over each item's fastest time in the run.

    An item is one op kind, similarity pair, elicited subject or CLI case;
    the timed rounds repeat every item many times.  Within seconds the
    host's speed varies (a contended stretch slows everything in it by up to
    half), and the fastest repeat is the one closest to what the program
    itself costs.  Percentiles are taken over the items: the pairs' p99 is
    set by the heaviest pairs, not by the unluckiest moment of the run.

    Every time is then divided by host_index(), so it reads as the time on
    a host of the reference speed.  Returns the metrics and, for the record,
    the same times unscaled together with the index.
    """
    s = bench.stats.samples
    best = bench.stats.best

    def over_items(kind: str, p: float, scale: float) -> tuple[float | None, int]:
        value = percentile(list(best.get(kind, {}).values()), p)
        return (None if value is None else value * scale, len(s.get(kind, [])))

    raw: dict[str, tuple[float | None, int]] = {
        "setup_s": (statistics.median(r["setup_s"] for r in setups), len(setups)),
    }
    for metric, kind in OP_METRICS.items():
        raw[metric] = over_items(kind, 50, 1e3)
    raw["sim_p50_us"] = over_items("sim", 50, 1e6)
    raw["sim_p99_us"] = over_items("sim", 99, 1e6)
    raw["elicit_p50_us"] = over_items("elicit", 50, 1e6)
    raw["cli_p50_ms"] = over_items("cli", 50, 1e3)
    index = host_index(best)
    out = {"peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}
    for metric, (value, n) in raw.items():
        out[metric] = (None if value is None else value / index, n)
    record = {"host_index": index, "unscaled": {k: v for k, (v, _) in raw.items()}}
    return out, record


def per_layer(bench: Bench, setups: list[dict]) -> dict[str, tuple[float | None, int]]:
    tr = bench.tracer
    spans = tr.spans
    child = tr.children_time()
    by_op: dict[int, list[int]] = {}
    for i, rec in enumerate(spans):
        by_op.setdefault(rec[OP], []).append(i)
    ops_of = {}
    for op, (kind, _) in enumerate(tr.ops):
        ops_of.setdefault(kind, []).append(op)

    def dur(i):
        return spans[i][END] - spans[i][START]

    def per_op(kind, fn):
        xs = [fn(by_op.get(op, [])) for op in ops_of.get(kind, [])]
        return (statistics.median(xs) if xs else None, len(xs))

    def total(name):
        return lambda ids: sum(dur(i) for i in ids if spans[i][NAME] == name) * 1e3

    def self_time(name):
        return lambda ids: sum(dur(i) - child[i] for i in ids if spans[i][NAME] == name) * 1e3

    def extent_in_induce(ids, count=False):
        hits = [i for i in ids if spans[i][NAME] == "corpus.extent"
                and spans[i][PARENT] is not None and spans[spans[i][PARENT]][NAME] == "hierarchy.induce"]
        return len(hits) if count else sum(dur(i) for i in hits) * 1e3

    def store_parse(ids):
        loads = sum(dur(i) for i in ids if spans[i][NAME] == "jsonio.loads"
                    and spans[i][PARENT] is not None
                    and spans[spans[i][PARENT]][NAME] == "semantics.store_load")
        return (sum(dur(i) for i in ids if spans[i][NAME] == "semantics.store_load") - loads) * 1e3

    # Per traced round sums over all in-process ops of that round.
    rounds: dict[int, dict[str, float]] = {}
    joins = []
    for rec in spans:
        r = rounds.setdefault(tr.ops[rec[OP]][1], {})
        name = rec[NAME]
        d = rec[END] - rec[START]
        if name in ("jsonio.dumps", "jsonio.loads", "similarity.dimension", "elicitation.provider"):
            r[name + "_ms"] = r.get(name + "_ms", 0.0) + d * 1e3
        if name == "elicitation.provider":
            r["provider_calls"] = r.get("provider_calls", 0) + 1
        if name == "jsonio.dumps" and rec[SIZE] is not None:
            r["bytes_out"] = r.get("bytes_out", 0) + rec[SIZE]
        if name == "elicitation.provider" and rec[FAILED]:
            r["provider_failures"] = r.get("provider_failures", 0) + 1
        if name == "similarity.concept":
            r["pairs"] = r.get("pairs", 0) + 1
        if name == "similarity.dimension" and rec[ARGS] is not None:
            a, b, dim = rec[ARGS][:3]
            left = {t for _, t in a.dimension(dim)}
            joins.append(sum(1 for _, t in b.dimension(dim) if t in left))

    def per_round(key):
        xs = [rounds.get(rno, {}).get(key, 0) for rno in bench.traced_rounds]
        return (statistics.median(xs) if xs else None, len(xs))

    rt = bench.stats.round_time
    traced = [rt[r] for r in bench.traced_rounds if r in rt]
    plain = [rt[r] for r in rt if r not in bench.traced_rounds]
    overhead = None
    if traced and plain:
        overhead = 100 * (statistics.median(traced) - statistics.median(plain)) / statistics.median(plain)

    interp = bench.extra.get("cli.interpreter", [])
    imp = bench.extra.get("cli.import", [])
    main_ms = bench.extra.get("cli.main", [])
    shape = bench.shape

    def count(key):
        return (shape.get(key), 1)

    return {
        "corpus.extent_ms": per_op("induce", extent_in_induce),
        "corpus.extent_calls": per_op("induce", lambda ids: extent_in_induce(ids, count=True)),
        "corpus.scan_ms": per_op("ingest", total("corpus.scan")),
        "corpus.normalize_ms": per_op("ingest", total("corpus.normalize")),
        "corpus.consistency_ms": per_op("ingest", total("corpus.consistency")),
        "corpus.to_json_ms": per_op("ingest", total("corpus.to_json")),
        "corpus.from_json_ms": per_op("corpus_load", total("corpus.from_json")),
        "corpus.serialize_ms": per_op("serialize", total("corpus.serialize")),
        "corpus.assertions": (len(bench.aset), 1),
        "hierarchy.induce_self_ms": per_op("induce", self_time("hierarchy.induce")),
        "hierarchy.induce_tol_self_ms": per_op("induce_tol", self_time("hierarchy.induce")),
        "hierarchy.extents_distinct": count("hierarchy.extents_distinct"),
        "hierarchy.nodes": count("hierarchy.nodes"),
        "hierarchy.edges": count("hierarchy.edges"),
        "hierarchy.tol_nodes": count("hierarchy.tol_nodes"),
        "hierarchy.tol_edges": count("hierarchy.tol_edges"),
        "hierarchy.diagnostics": count("hierarchy.diagnostics"),
        "hierarchy.export_ms": per_op("induce", total("hierarchy.export")),
        "hierarchy.load_ms": per_op("induce", total("hierarchy.load")),
        "hierarchy.verify_ms": per_op("induce", total("hierarchy.verify")),
        "semantics.nominalize_ms": per_op("nominalize", total("semantics.nominalize")),
        "semantics.triples": (len(expected_triples(bench.corpus)), 1),
        "semantics.store_parse_ms": per_op("store_load", store_parse),
        "semantics.records": count("semantics.records"),
        "jsonio.dumps_ms": per_round("jsonio.dumps_ms"),
        "jsonio.loads_ms": per_round("jsonio.loads_ms"),
        "jsonio.bytes_out": per_round("bytes_out"),
        "similarity.dimension_ms": per_round("similarity.dimension_ms"),
        "similarity.pairs": per_round("pairs"),
        "similarity.join_size_mean": (statistics.fmean(joins) if joins else None, len(joins)),
        "similarity.empty_join_ratio": (sum(1 for j in joins if j == 0) / len(joins) if joins else None,
                                        len(joins)),
        "elicitation.mock_build_ms": (statistics.median(r["mock_build_ms"] for r in setups), len(setups)),
        "elicitation.provider_ms": per_round("elicitation.provider_ms"),
        "elicitation.provider_calls": per_round("provider_calls"),
        "elicitation.provider_failures": per_round("provider_failures"),
        "elicitation.unusable_ratio": (shape["elicitation.warnings"] / shape["elicitation.completions"]
                                       if shape["elicitation.completions"] else None, 1),
        "cli.interpreter_ms": (statistics.median(interp) * 1e3 if interp else None, len(interp)),
        "cli.import_ms": ((statistics.median(imp) - statistics.median(interp)) * 1e3
                          if imp and interp else None, len(imp)),
        "cli.main_ms": (statistics.median(main_ms) * 1e3 if main_ms else None, len(main_ms)),
        "cli.nonzero_exits": (bench.nonzero_exits, 1),
        "trace.overhead_pct": (overhead, min(len(traced), len(plain))),
    }


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "sensekit").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "sensekit" / "__init__.py").is_file() or not ORACLES.is_file():
        print(f"error: no sensekit sources under {SRC} (or no {ORACLES.name}); "
              "run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace), work)
        t_gen = perf_counter()
        bench.generate()
        gen_s = perf_counter() - t_gen
        bench.measure_setup()  # fails fast if the program cannot even start
        bench.load_program()
        bench.run()
        if args.trace:
            values, scaling = per_layer(bench, bench.setups), None
        else:
            values, scaling = end_to_end(bench, bench.setups)
        if args.trace:
            bench.tracer.write(str(OUT / f"spans-{args.workload}.jsonl"))
    except RuntimeError as exc:  # the program failed before anything could be timed
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    st = bench.stats
    metrics, missing = {}, []
    for m in wanted:
        value, _ = values.get(m["name"], (None, 0))
        if value is None:
            missing.append(m["name"])
        else:
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    # CLI cases are left out: how many of them a short run reaches depends
    # on the machine, and the digest must depend on the seed alone.
    digest = sha(*sorted(kv for kv in bench.refs.items() if not kv[0].startswith("cli:")))[:16]
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": git_commit(), "source_sha256": source_digest(),
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(), "platform": platform.platform(),
        "sizes": bench.sizes, "rounds": bench.rounds, "measured_s": round(bench.measured_s, 3),
        "generate_s": round(gen_s, 3), "digest": digest,
        "samples": {k: n for k, (_, n) in values.items()},
        "error_rate": st.failed / st.attempted if st.attempted else None,
        "scaling": scaling,
    }
    print("# context " + json.dumps(context, sort_keys=True))
    for err in st.errors:
        print(f"# error {err}")
    for m in wanted:
        value, n = values.get(m["name"], (None, 0))
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"{m['name']:32s} {shown:>14s} {m['unit']:6s} n={n}")
    print(f"{'error_rate':32s} {context['error_rate']:>14.6g} ratio  "
          f"n={st.attempted}")
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"context": context, "metrics": metrics, "errors": st.errors}, indent=2,
                   sort_keys=True) + "\n", encoding="utf-8")
    if missing:
        print(f"error: no samples for {', '.join(missing)}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": st.failed == 0, "attempted": st.attempted,
                      "failed": st.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
