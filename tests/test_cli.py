from __future__ import annotations

import ast
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import sensekit
from sensekit import jsonio
from sensekit.cli import main
from sensekit.corpus import corpus_to_json_text, parse_corpus
from sensekit.elicitation import TEMPLATE_SETS, RemoteProvider
from sensekit.errors import ConfigError, _echo

DATA_DIR = Path(__file__).parent / "data"

LEAF = (DATA_DIR / "leaf_hierarchy.sense").read_text(encoding="utf-8")
STORE = (DATA_DIR / "meanings_book_publication.json").read_text(encoding="utf-8")

LEXICON = {
    "OLD": {"trope": "oldness", "cat": "property"},
    "HEAVY": {"trope": "heaviness", "cat": "property"},
    "HUNGRY": {"trope": "hunger", "cat": "state"},
    "ARTICULATE": {"trope": "articulation", "cat": "property"},
    "IMMINENT": {"trope": "imminence", "cat": "property"},
}


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def leaf_file(tmp_path) -> str:
    path = tmp_path / "leaf.sense"
    path.write_text(LEAF, encoding="utf-8")
    return str(path)


@pytest.fixture()
def store_file(tmp_path) -> str:
    path = tmp_path / "meanings.json"
    path.write_text(STORE, encoding="utf-8")
    return str(path)


# --- ingest ---------------------------------------------------------------------

def test_ingest_single_assertion(tmp_path, capsys) -> None:
    corpus = tmp_path / "one.sense"
    corpus.write_text("+ DELICIOUS apple\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "ingest", str(corpus))
    assert code == 0
    data = json.loads(out)
    assert data["assertions"] == [
        {
            "prop": "DELICIOUS",
            "arity": 1,
            "position": None,
            "concept": "apple",
            "polarity": "sensible",
        }
    ]


def test_ingest_syntax_error_exit_2(tmp_path, capsys) -> None:
    corpus = tmp_path / "bad.sense"
    corpus.write_text("+ OLD trip\nwhat is this\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "ingest", str(corpus))
    assert code == 2
    assert "line 2" in err


def test_ingest_conflict_exit_3_with_line_numbers(tmp_path, capsys) -> None:
    corpus = tmp_path / "conflict.sense"
    corpus.write_text("+ OLD trip\n# filler\n- OLD trip\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "ingest", str(corpus))
    assert code == 3
    assert "lines 1 and 3" in err
    data = json.loads(out)
    assert data["conflicts"] == [
        {"prop": "OLD", "arity": 1, "position": None, "concept": "trip", "lines": [1, 3]}
    ]


def _traced_peak(call, *args) -> int:
    """The most memory call(*args) held at once, as tracemalloc counts it."""
    gc.collect()
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _parse_then_render(path: str) -> str:
    text = jsonio.read_text(path, "corpus")
    return corpus_to_json_text(parse_corpus(text))


def test_ingest_peaks_near_its_parse_and_render(tmp_path, monkeypatch) -> None:
    """ingest holds no scanned (line, assertion) pairs while it renders: its
    peak is that of parsing the text and rendering the set."""
    corpus = tmp_path / "wide.sense"
    corpus.write_text("".join(
        f"{'-' if (p + c) % 7 == 0 else '+'} P{p:03d} c{c:03d}\n"
        for p in range(200) for c in range(100)
    ), encoding="utf-8")
    # A stdout that keeps nothing, so only the command's own memory counts.
    monkeypatch.setattr(sys, "stdout", type("Sink", (), {"write": len, "flush": lambda self: None})())
    reference = _traced_peak(_parse_then_render, str(corpus))
    ingest = _traced_peak(main, ["ingest", str(corpus)])
    assert ingest <= 1.05 * reference, f"ingest peaked at {ingest / reference:.3f}x parse and render"


def test_ingest_missing_file_exit_5(capsys) -> None:
    code, out, err = run_cli(capsys, "ingest", "/nonexistent/corpus.sense")
    assert code == 5


def test_ingest_writes_out_file(tmp_path, capsys) -> None:
    corpus = tmp_path / "one.sense"
    corpus.write_text("+ DELICIOUS apple\n", encoding="utf-8")
    out_path = tmp_path / "normalized.json"
    code, out, _ = run_cli(capsys, "ingest", str(corpus), "-o", str(out_path))
    assert code == 0
    assert out_path.read_text(encoding="utf-8") == out


# --- induce ---------------------------------------------------------------------

def test_induce_leaf_corpus(leaf_file, capsys) -> None:
    code, out, err = run_cli(capsys, "induce", leaf_file)
    assert code == 0
    data = json.loads(out)
    assert len(data["nodes"]) == 9
    assert len(data["edges"]) == 8
    assert data["root"] == 0


def test_induce_accepts_normalized_json(tmp_path, leaf_file, capsys) -> None:
    code, normalized, _ = run_cli(capsys, "ingest", leaf_file)
    assert code == 0
    as_json = tmp_path / "leaf.json"
    as_json.write_text(normalized, encoding="utf-8")
    code, from_json, _ = run_cli(capsys, "induce", str(as_json))
    code2, from_text, _ = run_cli(capsys, "induce", leaf_file)
    assert code == code2 == 0
    assert from_json == from_text


def test_induce_refuses_a_json_token_with_a_trailing_newline(tmp_path, capsys) -> None:
    row = {"prop": "RED", "arity": 1, "position": None, "concept": "apple\n", "polarity": "sensible"}
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps({"assertions": [row]}), encoding="utf-8")
    code, out, err = run_cli(capsys, "induce", str(path))
    assert (code, out) == (2, "")
    assert "invalid concept id 'apple\\n'" in err


def test_induce_idempotent_byte_identical(leaf_file, capsys) -> None:
    code1, out1, _ = run_cli(capsys, "induce", leaf_file)
    code2, out2, _ = run_cli(capsys, "induce", leaf_file)
    assert code1 == code2 == 0
    assert out1 == out2


def test_induce_writes_dot(tmp_path, leaf_file, capsys) -> None:
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps({"HEAVY": "physical"}), encoding="utf-8")
    dot_path = tmp_path / "dag.dot"
    code, out, _ = run_cli(
        capsys, "induce", leaf_file, "--dot", str(dot_path), "--labels", str(labels)
    )
    assert code == 0
    dot = dot_path.read_text(encoding="utf-8")
    assert dot.startswith("digraph")
    assert "physical" in dot


def test_induce_bad_tau_exit_5(leaf_file, capsys) -> None:
    code, out, err = run_cli(capsys, "induce", leaf_file, "--tau", "1.5")
    assert code == 5


@pytest.mark.parametrize("tau", ["abc", True, [0.1]], ids=["string", "bool", "list"])
def test_induce_bad_config_tau_exit_5(tau, tmp_path, leaf_file, capsys) -> None:
    cfg = tmp_path / "ws.json"
    cfg.write_text(json.dumps({"tau": tau}), encoding="utf-8")
    code, out, err = run_cli(capsys, "induce", leaf_file, "--config", str(cfg))
    assert code == 5
    assert out == ""
    assert "config 'tau'" in err


def test_induce_inconsistent_corpus_exit_3(tmp_path, capsys) -> None:
    corpus = tmp_path / "conflict.sense"
    corpus.write_text("+ OLD trip\n- OLD trip\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "induce", str(corpus))
    assert code == 3


def test_induce_without_corpus_exit_5(tmp_path, capsys, monkeypatch) -> None:
    monkeypatch.chdir(tmp_path)  # no sensekit.json here
    code, out, err = run_cli(capsys, "induce")
    assert code == 5


def test_induce_reads_the_workspace_config_without_config_flag(tmp_path, leaf_file, capsys, monkeypatch) -> None:
    monkeypatch.chdir(tmp_path)
    plain = run_cli(capsys, "induce", leaf_file)[1]
    (tmp_path / "sensekit.json").write_text(json.dumps({"corpus": leaf_file, "tau": 0.5}), encoding="utf-8")
    code, out, err = run_cli(capsys, "induce")
    assert (code, err) == (0, "")
    assert out == run_cli(capsys, "induce", leaf_file, "--tau", "0.5")[1] != plain


@pytest.mark.parametrize("text", ["[]", '[{"tau": 0.1}]'])
def test_a_config_that_is_not_an_object_exit_5(text: str, tmp_path, leaf_file, capsys) -> None:
    cfg = tmp_path / "ws.json"
    cfg.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "induce", leaf_file, "--config", str(cfg))
    assert (code, out) == (5, "")
    assert err == f"error: config {cfg}: expected a JSON object\n"


@pytest.mark.parametrize("labels", [{"HEAVY": 1}, {"HEAVY": "physical", "OLD": None}, ["HEAVY"]])
def test_induce_refuses_a_label_map_that_is_not_string_to_string(labels, tmp_path, leaf_file, capsys) -> None:
    path = tmp_path / "labels.json"
    path.write_text(json.dumps(labels), encoding="utf-8")
    code, out, err = run_cli(capsys, "induce", leaf_file, "--labels", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: label map {path}: expected a string-to-string object\n"


def test_induce_corpus_from_config(tmp_path, leaf_file, capsys) -> None:
    cfg = tmp_path / "ws.json"
    cfg.write_text(json.dumps({"corpus": leaf_file}), encoding="utf-8")
    code, out, _ = run_cli(capsys, "induce", "--config", str(cfg))
    assert code == 0
    assert len(json.loads(out)["nodes"]) == 9


# --- nominalize ------------------------------------------------------------------

def test_nominalize_emits_triples(tmp_path, leaf_file, capsys) -> None:
    lex = tmp_path / "lex.json"
    lex.write_text(json.dumps(LEXICON), encoding="utf-8")
    code, out, err = run_cli(capsys, "nominalize", leaf_file, "--lexicon", str(lex))
    assert code == 0
    triples = json.loads(out)["triples"]
    assert {"subject": "person", "relation": "hasProp", "object": "articulation"} in triples
    assert {"subject": "person", "relation": "inState", "object": "hunger"} in triples
    assert {"subject": "car", "relation": "objectOf", "object": "driving"} in triples
    # one triple per sensible assertion in the leaf corpus
    assert len(triples) == 27


def test_nominalize_missing_entry_exit_2(tmp_path, leaf_file, capsys) -> None:
    lex = tmp_path / "lex.json"
    lex.write_text(json.dumps({"OLD": {"trope": "oldness", "cat": "property"}}), encoding="utf-8")
    code, out, err = run_cli(capsys, "nominalize", leaf_file, "--lexicon", str(lex))
    assert code == 2
    assert "HUNGRY" in err


def test_nominalize_missing_entries_reported_before_a_bad_category(
    tmp_path, leaf_file, capsys
) -> None:
    lex = tmp_path / "lex.json"
    lex.write_text(json.dumps({"OLD": {"trope": "oldness", "cat": "activity"}}), encoding="utf-8")
    code, out, err = run_cli(capsys, "nominalize", leaf_file, "--lexicon", str(lex))
    assert code == 2
    assert out == ""
    assert "lacks entries for: ['ARTICULATE', 'HEAVY', 'HUNGRY', 'IMMINENT']" in err


@pytest.mark.parametrize(
    ("argv", "what"),
    [
        (["nominalize", "{leaf}", "--lexicon", "{absent}"], "lexicon"),
        (
            ["elicit", "--subject", "book", "--provider", "mock", "--fixtures", "{absent}"],
            "completion fixture",
        ),
    ],
    ids=["lexicon", "fixtures"],
)
def test_missing_loader_file_exit_5(argv, what, tmp_path, leaf_file, capsys) -> None:
    absent = str(tmp_path / "absent.json")
    code, out, err = run_cli(capsys, *[a.format(leaf=leaf_file, absent=absent) for a in argv])
    assert code == 5
    assert out == ""
    assert f"cannot read {what} {absent}" in err


def test_nominalize_requires_lexicon(tmp_path, leaf_file, capsys, monkeypatch) -> None:
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "nominalize", leaf_file)
    assert code == 5


# --- sim -------------------------------------------------------------------------

def test_sim_worked_example(store_file, capsys) -> None:
    code, out, err = run_cli(
        capsys, "sim", "book#1", "publication#3", "--store", store_file, "--dims", "hasProp"
    )
    assert code == 0
    report = json.loads(out)
    assert abs(report["aggregate"] - 0.975) < 1e-12
    assert abs(report["per_dim"]["hasProp"] - 0.975) < 1e-12
    assert report["a"] == "book#1"
    assert report["b"] == "publication#3"


def test_sim_defaults_to_standard_dimensions(store_file, capsys) -> None:
    code, out, _ = run_cli(capsys, "sim", "book#1", "publication#3", "--store", store_file)
    assert code == 0
    report = json.loads(out)
    assert set(report["per_dim"]) == {"hasProp", "agentOf", "objectOf", "inState", "partOf"}
    assert abs(report["aggregate"] - 0.975 / 5) < 1e-12


def test_sim_weights_must_match_dims(store_file, capsys) -> None:
    code, out, err = run_cli(
        capsys,
        "sim", "book#1", "publication#3",
        "--store", store_file,
        "--dims", "hasProp,agentOf",
        "--dim-weights", "1",
    )
    assert code == 5


def test_sim_weighted_aggregate(store_file, capsys) -> None:
    code, out, _ = run_cli(
        capsys,
        "sim", "book#1", "publication#3",
        "--store", store_file,
        "--dims", "hasProp,agentOf",
        "--dim-weights", "3,1",
    )
    assert code == 0
    report = json.loads(out)
    assert abs(report["aggregate"] - (3 * 0.975 + 0) / 4) < 1e-12


@pytest.mark.parametrize("weight", ["nan", "inf"])
def test_sim_non_finite_weight_exit_2(weight: str, store_file, capsys) -> None:
    code, out, err = run_cli(
        capsys,
        "sim", "book#1", "publication#3",
        "--store", store_file,
        "--dims", "hasProp",
        "--dim-weights", weight,
    )
    assert code == 2
    assert "not finite" in err
    if out:
        json.loads(out, parse_constant=pytest.fail)


@pytest.mark.parametrize(
    "config", [{}, {"dim_weights": {"hasProp": 2}}], ids=["no-config", "config-weights"]
)
def test_sim_weights_without_dims_exit_5(config, tmp_path, store_file, capsys) -> None:
    cfg = tmp_path / "ws.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    code, out, err = run_cli(
        capsys,
        "sim", "book#1", "publication#3",
        "--store", store_file,
        "--dim-weights", "5,1",
        "--config", str(cfg),
    )
    assert code == 5
    assert out == ""
    assert "--dim-weights given without dimensions" in err


def test_sim_unknown_sense_exit_2(store_file, capsys) -> None:
    code, out, err = run_cli(capsys, "sim", "book#1", "ghost#9", "--store", store_file)
    assert code == 2
    assert "ghost#9" in err


def test_sim_unknown_dimension_exit_5(store_file, capsys) -> None:
    code, out, err = run_cli(
        capsys, "sim", "book#1", "publication#3", "--store", store_file, "--dims", "hasVibes"
    )
    assert code == 5


def test_sim_malformed_store_exit_2(tmp_path, capsys) -> None:
    store = tmp_path / "broken.json"
    store.write_text(
        json.dumps([{"sense": "a#1", "gloss": "", "dims": {"hasProp": [[1.5, "x"]]}}]),
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "sim", "a#1", "a#1", "--store", str(store))
    assert code == 2


@pytest.mark.parametrize(
    ("pairs", "detail"),
    [
        ([[1.5, "x"]], "weight 1.5 outside (0, 1]"),
        ([[0.5, "x"], [0.2, "x"]], "duplicate property token 'x'"),
    ],
    ids=["weight-out-of-range", "duplicate-token"],
)
def test_store_record_error_names_file_and_record(pairs, detail, tmp_path) -> None:
    (tmp_path / "w.json").write_text(
        json.dumps([{"sense": "a#1", "gloss": "", "dims": {"hasProp": pairs}}]), encoding="utf-8"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "sensekit", "sim", "a#1", "a#1", "--store", "w.json"],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        f"error: meaning store w.json: record 0: record 'a#1', dimension 'hasProp': {detail}\n"
    )


_HUGE = 100_000  # characters of the one long value in each case below; the store case lists 20,000 senses


@pytest.mark.parametrize(
    ("files", "argv", "code"),
    [
        ({"bad_store": [{"sense": "w", "dims": {"hasProp": [[0.5] * _HUGE]}}]},
         ["sim", "w", "w", "--store", "{bad_store}"], 2),
        ({"cfg": {"tau": [0] * _HUGE}}, ["induce", "{leaf}", "--config", "{cfg}"], 5),
        ({}, ["sim", "w", "w", "--store", "{store}", "--dims", "x" * _HUGE], 5),
        ({"fixture": {"book": {"hasProp": ["1" * _HUGE]}}},
         ["elicit", "--subject", "book", "--fixtures", "{fixture}", "--dims", "hasProp"], 0),
        ({"bad_store": [{"sense": "w", "dims": {"hasProp": [[1.0, "t" * _HUGE], [0.5, "t" * _HUGE]]}}]},
         ["sim", "w", "w", "--store", "{bad_store}"], 2),
        ({"lexicon": {"K" * _HUGE: {}}}, ["nominalize", "{leaf}", "--lexicon", "{lexicon}"], 2),
        ({}, ["sim", "w", "w", "--store", "{store}", "--dims", "hasProp", "--dim-weights", "x" * _HUGE], 5),
        ({"big_store": [{"sense": f"s{i:05d}", "dims": {}} for i in range(20_000)]},
         ["sim", "nope", "s00001", "--store", "{big_store}"], 2),
        ({"corpus": {"assertions": [{"prop": "P" * _HUGE, "concept": "book", "polarity": "sensible"}]},
          "lexicon": LEXICON},
         ["nominalize", "{corpus}", "--lexicon", "{lexicon}"], 2),
    ],
    ids=["store-pair", "config-tau", "dims-name", "fixture-completion", "repeated-store-token", "lexicon-key",
         "dim-weight", "store-senses", "missing-lexicon-entry"],
)
def test_a_long_input_value_is_quoted_bounded(files, argv, code, tmp_path, leaf_file, store_file, capsys) -> None:
    paths = {"leaf": leaf_file, "store": store_file}
    for name, document in files.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        paths[name] = str(path)
    got, out, err = run_cli(capsys, *(arg.format(**paths) if arg.startswith("{") else arg for arg in argv))
    assert got == code
    assert (out == "") == (code != 0)
    assert len(err.encode()) < 1024
    assert re.search(r"\.\.\. \(\d+ characters\)", err)


def test_elicit_shows_twenty_warnings_and_counts_the_rest(tmp_path, capsys) -> None:
    """20,000 unusable completions give 20 warning lines and a count of the
    rest.  The cap leaves stdout alone: the digest is of the uncapped output."""
    fixture = tmp_path / "fixture.json"
    fixture.write_text(json.dumps({"book": {"hasProp": [str(i) for i in range(20_000)]}}), encoding="utf-8")
    code, out, err = run_cli(
        capsys, "elicit", "--subject", "book", "--fixtures", str(fixture), "--dims", "hasProp", "-n", "20000"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "46d6beb9b74a42291147e259c51cba00de8539975476ec464c68cb97292a4745"
    )
    shown = [f"warning: hasProp: completion '{i}' is not a usable property token; no assertion recorded"
             for i in range(20)]
    assert err.splitlines() == [*shown, "warning: 19980 more unusable completion(s) not shown"]


def test_induce_shows_twenty_diagnostics_and_counts_the_rest(tmp_path, capsys) -> None:
    """Each of 25 singletons x00..x24 lies in A, B and C, so 25 nodes have
    three parents: 20 diagnostic lines and a count of the rest.  The cap
    leaves stdout and TypeDag.diagnostics alone."""
    corpus = tmp_path / "three-parents.sense"
    singletons = [f"x{k:02d}" for k in range(25)]
    corpus.write_text("".join(
        [f"+ {p} {x}\n" for p in "ABC" for x in [p.lower(), *singletons]]
        + [f"+ S{x.upper()} {x}\n" for x in singletons]
    ), encoding="utf-8")
    code, out, err = run_cli(capsys, "induce", str(corpus))
    dag = sensekit.induce(parse_corpus(corpus.read_text(encoding="utf-8")))
    assert (code, out) == (0, sensekit.dag_to_json_text(dag))
    assert len(dag.diagnostics) == 25
    assert err.splitlines() == [
        *(f"diagnostic: {message}" for message in dag.diagnostics[:20]),
        "diagnostic: 5 more node(s) with more than two parents not shown",
    ]


def test_sim_string_weight_exit_2(tmp_path, capsys) -> None:
    store = tmp_path / "quoted.json"
    store.write_text(
        json.dumps([{"sense": "a#1", "gloss": "", "dims": {"hasProp": [["0.5", "x"]]}}]),
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "sim", "a#1", "a#1", "--store", str(store))
    assert code == 2
    assert out == ""
    assert "malformed pair ['0.5', 'x']" in err


# --- elicit -----------------------------------------------------------------------

def test_elicit_mock_book(capsys) -> None:
    code, out, err = run_cli(
        capsys,
        "elicit", "--subject", "book",
        "--dims", "agentOf,objectOf,hasProp",
        "-n", "25",
        "--provider", "mock",
        "--templates", "book-fixture",
    )
    assert code == 0
    data = json.loads(out)
    assert data["record"]["sense"] == "book"
    assert data["record"]["dims"]["agentOf"][0] == [1.0, "influenced"]
    assert data["failures"] == {}
    assert len(data["assertions"]["assertions"]) == 23 + 25 + 24


def test_elicit_partial_failure_flagged(tmp_path, capsys) -> None:
    fixture = tmp_path / "fixture.json"
    fixture.write_text(json.dumps({"spoon": {"hasProp": ["shiny", "bent"]}}), encoding="utf-8")
    code, out, err = run_cli(
        capsys,
        "elicit", "--subject", "spoon", "--dims", "hasProp,agentOf", "-n", "2",
        "--provider", "mock", "--fixtures", str(fixture),
    )
    assert code == 0
    data = json.loads(out)
    assert "hasProp" in data["record"]["dims"]
    assert "agentOf" in data["failures"]
    assert "agentOf" in err


def test_elicit_unknown_subject_exit_4(capsys) -> None:
    code, out, err = run_cli(
        capsys, "elicit", "--subject", "sofa", "--dims", "hasProp", "-n", "5"
    )
    assert code == 4


def test_elicit_remote_unreachable_exit_4(capsys) -> None:
    code, out, err = run_cli(
        capsys,
        "elicit", "--subject", "game", "--dims", "hasProp", "-n", "3",
        "--provider", "remote",
        "--endpoint", "http://127.0.0.1:1/complete",
        "--timeout", "0.05",
        "--retries", "0",
    )
    assert code == 4


def test_elicit_remote_loopback_exit_0(loopback, capsys) -> None:
    loopback.completions("fun", "long", "fun")
    code, out, err = run_cli(
        capsys,
        "elicit", "--subject", "game", "--dims", "hasProp", "-n", "3",
        "--provider", "remote", "--endpoint", loopback.url, "--retries", "0",
    )
    assert code == 0, err
    assert json.loads(out)["record"]["dims"] == {"hasProp": [[1.0, "fun"], [2 / 3, "long"]]}


def test_elicit_remote_deeply_nested_reply_exit_4(loopback, capsys) -> None:
    loopback.reply(payload=b"[" * 100_000 + b"]" * 100_000)
    code, out, err = run_cli(
        capsys,
        "elicit", "--subject", "game", "--dims", "hasProp", "-n", "3",
        "--provider", "remote", "--endpoint", loopback.url, "--retries", "0",
    )
    assert (code, out) == (4, "")
    assert "provider response is not JSON" in err


def test_elicit_remote_without_endpoint_exit_5(tmp_path, capsys, monkeypatch) -> None:
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(
        capsys, "elicit", "--subject", "game", "--provider", "remote"
    )
    assert code == 5


def test_elicit_custom_fixture_file(tmp_path, capsys) -> None:
    fixture = tmp_path / "fixture.json"
    fixture.write_text(
        json.dumps({"spoon": {"hasProp": ["shiny", "bent", "shiny"]}}), encoding="utf-8"
    )
    code, out, err = run_cli(
        capsys,
        "elicit", "--subject", "spoon", "--dims", "hasProp", "-n", "3",
        "--provider", "mock", "--fixtures", str(fixture),
    )
    assert code == 0
    data = json.loads(out)
    assert data["record"]["dims"]["hasProp"] == [[1.0, "shiny"], [2 / 3, "bent"]]


def test_elicit_bad_n_exit_5(capsys) -> None:
    code, out, err = run_cli(capsys, "elicit", "--subject", "game", "-n", "0")
    assert code == 5


# --- general contract ----------------------------------------------------------------

def test_stdout_is_pure_json_even_with_diagnostics(tmp_path, capsys) -> None:
    corpus = tmp_path / "multi.sense"
    corpus.write_text(
        "+ A x\n+ A y\n+ A z\n+ A w\n"
        "+ B x\n+ B y\n"
        "+ C y\n+ C z\n"
        "+ D y\n+ D w\n"
        "+ E y\n",
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "induce", str(corpus))
    assert code == 0
    json.loads(out)  # whole stdout must parse
    assert "diagnostic" in err


def test_seed_flag_accepted_everywhere(leaf_file, store_file, capsys) -> None:
    assert run_cli(capsys, "ingest", leaf_file, "--seed", "7")[0] == 0
    assert run_cli(capsys, "induce", leaf_file, "--seed", "7")[0] == 0
    assert (
        run_cli(
            capsys, "sim", "book#1", "publication#3",
            "--store", store_file, "--seed", "7",
        )[0]
        == 0
    )


def test_unknown_flag_exit_5(leaf_file, capsys) -> None:
    code, out, err = run_cli(capsys, "induce", leaf_file, "--frobnicate")
    assert code == 5


def test_no_command_exit_5(capsys) -> None:
    code, out, err = run_cli(capsys)
    assert code == 5


def test_help_documents_exit_codes(capsys) -> None:
    for command in ("ingest", "induce", "nominalize", "sim", "elicit"):
        with pytest.raises(SystemExit) as status:
            main([command, "--help"])
        assert status.value.code == 0
        out = capsys.readouterr().out
        assert "exit codes" in out
        assert "--config FILE" in out and "--seed SEED" in out


def test_console_entry_point_subprocess(tmp_path) -> None:
    corpus = tmp_path / "tiny.sense"
    corpus.write_text("+ DELICIOUS apple\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "sensekit", "ingest", str(corpus)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["assertions"][0]["concept"] == "apple"


NOT_UTF8 = b"+ OLD caf\xe9\n"


@pytest.mark.parametrize(
    ("argv", "code"),
    [
        (["ingest", "{bad}"], 2),
        (["induce", "{bad}"], 2),
        (["induce", "{leaf}", "--labels", "{bad}"], 2),
        (["nominalize", "{leaf}", "--lexicon", "{bad}"], 2),
        (["sim", "a#1", "b#1", "--store", "{bad}"], 2),
        (["elicit", "--subject", "book", "--provider", "mock", "--fixtures", "{bad}"], 2),
        (["induce", "{leaf}", "--config", "{bad}"], 5),
    ],
    ids=["ingest-corpus", "induce-corpus", "label-map", "lexicon", "store", "fixtures", "config"],
)
def test_non_utf8_file_exits_cleanly(argv, code, tmp_path, leaf_file) -> None:
    bad = tmp_path / "bad.txt"
    bad.write_bytes(NOT_UTF8)
    argv = [a.format(bad=bad, leaf=leaf_file) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "sensekit", *argv],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == code
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "not UTF-8" in proc.stderr


def test_non_finite_json_input_exits_2(tmp_path) -> None:
    corpus = tmp_path / "corpus.json"
    corpus.write_text(
        '{"assertions": [{"prop": "OLD", "arity": Infinity, "concept": "trip",'
        ' "polarity": "sensible"}]}',
        encoding="utf-8",
    )
    proc = subprocess.run(
        [sys.executable, "-m", "sensekit", "induce", str(corpus)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "Infinity is not valid JSON" in proc.stderr


def test_fractional_arity_exits_2(tmp_path) -> None:
    corpus = tmp_path / "c.json"
    corpus.write_text(
        '{"assertions": [{"prop": "OLD", "arity": 1.9, "concept": "trip",'
        ' "polarity": "sensible"}]}',
        encoding="utf-8",
    )
    proc = subprocess.run(
        [sys.executable, "-m", "sensekit", "induce", str(corpus)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "arity must be 1 or 2, got 1.9" in proc.stderr


# The child caps its address space at its size after importing what ingest
# runs, plus 48 MB; ingesting the corpus below takes about twice that.
_UNDER_RLIMIT_AS = """
import resource, sys
from sensekit import cli, corpus, jsonio
with open("/proc/self/statm") as statm:
    limit = int(statm.read().split()[0]) * resource.getpagesize() + (48 << 20)
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
sys.exit(cli.main(sys.argv[1:]))
"""


def test_running_out_of_memory_is_a_clean_exit(tmp_path) -> None:
    pytest.importorskip("resource")
    if not os.path.exists("/proc/self/statm"):
        pytest.skip("the child reads its address-space size from /proc/self/statm")
    rng = random.Random(3)
    lines = []
    for p in range(800):
        a, b = rng.randrange(1000), rng.randrange(1000)
        lines += [f"+ P{p:05d} c{c:05d}\n" for c in range(min(a, b), max(a, b) + 1)]
    corpus = tmp_path / "dense.sense"
    corpus.write_text("".join(lines), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-c", _UNDER_RLIMIT_AS, "ingest", str(corpus)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode in (0, 2, 3, 4, 5)
    assert "Traceback" not in proc.stderr
    if proc.stdout:
        json.loads(proc.stdout, parse_constant=pytest.fail)
    assert proc.stderr == "error: out of memory\n"  # the limit was reached, and reported once


@pytest.mark.parametrize(
    "argv",
    [
        ["induce", "{leaf}", "--labels", "a\0b"],
        ["induce", "{leaf}", "--dot", "a\0b"],
        ["ingest", "{leaf}", "--out", "a\0b"],
    ],
    ids=["labels", "dot", "out"],
)
def test_path_with_nul_exit_5(argv, leaf_file, capsys) -> None:
    code, out, err = run_cli(capsys, *[a.format(leaf=leaf_file) for a in argv])
    assert code == 5
    assert out == ""
    assert "embedded null byte" in err


def test_dot_label_utf8_cannot_hold_exit_5(tmp_path, leaf_file, capsys) -> None:
    labels = tmp_path / "labels.json"
    labels.write_text('{"OLD": "\\ud800"}', encoding="utf-8")
    dot = tmp_path / "out.dot"
    code, out, err = run_cli(
        capsys, "induce", leaf_file, "--labels", str(labels), "--dot", str(dot)
    )
    assert code == 5
    assert out == ""
    assert "cannot write DOT file" in err


def test_closed_stdout_exits_5(leaf_file) -> None:
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "sensekit", "ingest", leaf_file],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 5
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr
    assert "error: cannot write output:" in proc.stderr


def test_stdout_that_cannot_encode_the_output_exits_5(tmp_path) -> None:
    fixture = tmp_path / "fixture.json"
    fixture.write_text(json.dumps({"book": {"hasProp": ["café", "old"]}}), encoding="utf-8")
    proc = subprocess.run(
        [
            sys.executable, "-m", "sensekit", "elicit", "--subject", "book",
            "--dims", "hasProp", "--fixtures", str(fixture), "-n", "2",
        ],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONIOENCODING": "ascii"},
    )
    assert proc.returncode == 5
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "error: cannot write output:" in proc.stderr


def test_elicit_fixture_token_with_a_lone_surrogate_exits_2(tmp_path) -> None:
    # JSON loads "\ud800" into the token, and no stdout could encode it: the
    # fixture is refused as bad input before anything is written.
    fixture = tmp_path / "fixture.json"
    fixture.write_text('{"book": {"hasProp": ["read\\ud800", "old"]}}', encoding="utf-8")
    proc = subprocess.run(
        [
            sys.executable, "-m", "sensekit", "elicit", "--subject", "book",
            "--dims", "hasProp", "--fixtures", str(fixture), "-n", "2",
        ],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONIOENCODING": "utf-8"},
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "Traceback" not in proc.stderr
    assert "'book' 'hasProp' has a token holding a surrogate code point" in proc.stderr


def test_induce_deterministic_across_hash_seeds(tmp_path) -> None:
    corpus = tmp_path / "mixed.sense"
    corpus.write_text(LEAF + "+ SHINY car\n+ SHINY bike\n+ SHINY rock\n", encoding="utf-8")
    outputs = []
    for seed in ("0", "424242"):
        proc = subprocess.run(
            [sys.executable, "-m", "sensekit", "induce", str(corpus)],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONHASHSEED": seed},
        )
        assert proc.returncode == 0
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_templates_choices_are_the_template_sets(capsys) -> None:
    with pytest.raises(SystemExit):
        main(["elicit", "--help"])
    assert "{" + ",".join(sorted(TEMPLATE_SETS)) + "}" in capsys.readouterr().out
    code, out, err = run_cli(capsys, "elicit", "--subject", "book", "--templates", "bogus")
    assert code == 5
    assert out == ""
    assert err == (
        "error: sensekit elicit: argument --templates: invalid choice: 'bogus' "
        "(choose from 'book-fixture', 'default')\n"
    )


def test_elicit_idempotent_byte_identical(capsys) -> None:
    argv = (
        "elicit", "--subject", "book",
        "--dims", "agentOf,objectOf,hasProp", "-n", "25",
        "--templates", "book-fixture",
    )
    first = run_cli(capsys, *argv)
    second = run_cli(capsys, *argv)
    assert first == second
    assert first[0] == 0


def test_sim_reads_dims_and_weights_from_config(tmp_path, store_file, capsys) -> None:
    cfg = tmp_path / "ws.json"
    cfg.write_text(
        json.dumps(
            {
                "meaning_store": store_file,
                "dim_weights": {"hasProp": 3.0, "agentOf": 1.0},
            }
        ),
        encoding="utf-8",
    )
    code, out, _ = run_cli(capsys, "sim", "book#1", "publication#3", "--config", str(cfg))
    assert code == 0
    report = json.loads(out)
    assert abs(report["aggregate"] - (3 * 0.975 + 0) / 4) < 1e-12


def test_elicit_output_chains_into_induce(tmp_path, capsys) -> None:
    code, out, _ = run_cli(
        capsys,
        "elicit", "--subject", "game",
        "--dims", "agentOf,objectOf,hasProp", "-n", "15",
    )
    assert code == 0
    draft_corpus = json.loads(out)["assertions"]
    corpus_path = tmp_path / "draft.json"
    corpus_path.write_text(json.dumps(draft_corpus), encoding="utf-8")
    code, out, _ = run_cli(capsys, "induce", str(corpus_path))
    assert code == 0
    onto = json.loads(out)
    assert onto["nodes"][onto["root"]]["extent"] == ["game"]


# --- settings: every flag and config value is checked once -------------------------------

REMOTE = [
    "elicit", "--subject", "game", "--dims", "hasProp", "-n", "3",
    "--provider", "remote", "--endpoint", "http://127.0.0.1:1/complete",
]


@pytest.mark.parametrize(
    ("config", "argv"),
    [
        ({"dims": 5}, ["sim", "book#1", "publication#3", "--store", "{store}"]),
        ({"dims": [5]}, ["sim", "book#1", "publication#3", "--store", "{store}"]),
        (
            {"dim_weights": {"hasProp": None}},
            ["sim", "book#1", "publication#3", "--store", "{store}"],
        ),
        ({"corpus": ["a"]}, ["induce"]),
        ({"corpus": 0}, ["induce"]),
        ({"corpus": 1}, ["induce"]),  # an int path is a file descriptor to open()
        ({"lexicon": ["x"]}, ["nominalize", "{leaf}"]),
        ({"provider": "x"}, REMOTE),
        ({"provider": {"timeout": "x"}}, REMOTE),
        ({"provider": {"timeout": 1e300}}, REMOTE),
        ({}, [*REMOTE, "--timeout", "1e300"]),
        ({}, [*REMOTE, "--timeout", "9.3e9"]),
        ({"provider": {"retries": "x"}}, REMOTE),
        ({"provider": {"retries": -1}}, REMOTE),
        ({}, [*REMOTE, "--retries", "-5"]),
        (
            {},
            [
                "sim", "book#1", "publication#3", "--store", "{store}",
                "--dims", "hasProp,HASPROP", "--dim-weights", "0,1",
            ],
        ),
        ("{\"tau\": 1" + "0" * 5000 + "}", ["induce", "{leaf}"]),
        ("{\"tau\": " + "[" * 100_000 + "]" * 100_000 + "}", ["induce", "{leaf}"]),
    ],
    ids=[
        "dims-int", "dims-int-list", "dim-weight-null", "corpus-list", "corpus-zero",
        "corpus-one", "lexicon-list", "provider-string", "timeout-string",
        "timeout-past-socket-limit", "timeout-flag-past-socket-limit",
        "timeout-flag-just-past-socket-limit", "retries-string",
        "retries-negative", "retries-flag-negative", "dims-named-twice",
        "config-int-over-digit-limit", "config-nested-too-deep",
    ],
)
def test_bad_setting_exit_5(config, argv, tmp_path, leaf_file, store_file, capsys) -> None:
    cfg = tmp_path / "ws.json"
    cfg.write_text(config if isinstance(config, str) else json.dumps(config), encoding="utf-8")
    argv = [a.format(leaf=leaf_file, store=store_file) for a in argv]
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert code == 5
    assert out == ""
    assert "Traceback" not in err


@pytest.mark.parametrize(
    ("option", "value", "flag"),
    [
        ("timeout", 1e300, "1e300"),  # past threading.TIMEOUT_MAX: an OverflowError when spent
        ("timeout", 10**400, None),  # argparse's float() would read inf
        ("timeout", "1e400", "1e400"),  # the flag keeps what float() reads as inf
        pytest.param("timeout", 10**5000, None, id="timeout-int-too-large-to-print"),
        ("timeout", float("inf"), "inf"),
        ("timeout", float("nan"), "nan"),
        ("timeout", -1.0, "-1.0"),
        ("timeout", 0, None),  # argparse's float() would read 0.0
        ("timeout", "5", None),
        ("timeout", True, None),
        ("timeout", None, None),
        ("retries", -1, "-1"),
        ("retries", 2.7, None),
        ("retries", 2.0, None),
        ("retries", "5", None),
        ("retries", True, None),
        ("retries", None, None),
        pytest.param("retries", -(10**5000), None, id="retries-int-too-large-to-print"),
    ],
)
def test_a_bad_provider_option_reads_the_same_everywhere(option, value, flag, tmp_path, capsys) -> None:
    """RemoteProvider, the config key and the flag refuse a value with one
    message, which quotes the value bounded; only the name differs.  JSON
    carries no inf, NaN or int too long to print, and a flag is given only
    where argparse reads back the same value."""
    with pytest.raises(ConfigError) as caught:
        RemoteProvider("http://127.0.0.1:9/", **{option: value})
    name = f"provider {option}"
    assert str(caught.value).startswith(f"{name} must be ")
    assert str(caught.value).endswith(f", got {_echo(value)}")
    rule = str(caught.value).removeprefix(name)
    sources = {f"--{option}": [f"--{option}", flag]} if flag is not None else {}
    try:
        document = json.dumps({"provider": {option: value}}, allow_nan=False)
    except ValueError:  # inf, NaN or an int too long to print
        document = None
    if document is not None:
        cfg = tmp_path / "ws.json"
        cfg.write_text(document, encoding="utf-8")
        sources[f"config 'provider.{option}'"] = ["--config", str(cfg)]
    for where, argv in sources.items():
        assert run_cli(capsys, *REMOTE, *argv) == (5, "", f"error: {where}{rule}\n")


@pytest.mark.parametrize("where", ["flag", "config"])
def test_elicit_timeout_at_the_socket_limit_is_accepted(where, loopback, tmp_path, capsys) -> None:
    loopback.completions("fun")
    cfg = tmp_path / "ws.json"
    cfg.write_text(json.dumps({"provider": {"timeout": threading.TIMEOUT_MAX}}), encoding="utf-8")
    flags = ["--timeout", repr(threading.TIMEOUT_MAX)] if where == "flag" else ["--config", str(cfg)]
    code, out, err = run_cli(
        capsys,
        "elicit", "--subject", "game", "--dims", "hasProp", "-n", "1",
        "--provider", "remote", "--endpoint", loopback.url, "--retries", "0", *flags,
    )
    assert code == 0, err
    assert json.loads(out)["record"]["dims"] == {"hasProp": [[1.0, "fun"]]}


@pytest.mark.parametrize(
    ("weight", "shown"), [(10**400, "inf"), (-(10**400), "-inf")], ids=["positive", "negative"]
)
def test_config_weight_past_float_range_keeps_its_sign(
    weight, shown, tmp_path, store_file, capsys
) -> None:
    cfg = tmp_path / "ws.json"
    cfg.write_text(json.dumps({"dim_weights": {"hasProp": weight}}), encoding="utf-8")
    code, out, err = run_cli(
        capsys, "sim", "book#1", "publication#3", "--store", store_file, "--config", str(cfg)
    )
    assert (code, out) == (2, "")
    assert err == f"error: weight for hasProp is not finite: {shown}\n"


SAME_AND_DIFFERENT = [
    {"sense": sense, "gloss": "", "dims": {"hasProp": [[1.0, "red"]], "agentOf": [[1.0, verb]]}}
    for sense, verb in (("a#1", "eats"), ("b#1", "eats"), ("c#1", "runs"))
]


@pytest.mark.parametrize("other", ["b#1", "c#1"], ids=["equal-scores", "different-scores"])
def test_sim_weights_summing_past_float_max_exit_2(other, tmp_path, capsys) -> None:
    store = tmp_path / "store.json"
    store.write_text(json.dumps(SAME_AND_DIFFERENT), encoding="utf-8")
    code, out, err = run_cli(
        capsys,
        "sim", "a#1", other,
        "--store", str(store),
        "--dims", "hasProp,agentOf",
        "--dim-weights", "1e308,1e308",
    )
    assert code == 2
    assert out == ""
    assert "not finite" in err


#: Modules no command may load: the dataclasses machinery, typing, the HTTP
#: stack, which only a remote provider's POST imports, and importlib.resources
#: (pathlib, zipfile, tempfile, typing).
_HEAVY = ("dataclasses", "inspect", "typing", "urllib.request", "http.client", "importlib.resources")
_FOOTPRINT = f"""
import contextlib, io, json, sys
HEAVY = {_HEAVY!r}
preloaded = [m for m in HEAVY if m in sys.modules]
import sensekit
code = None
if sys.argv[1:] == ["all-layers"]:
    import sensekit.corpus, sensekit.hierarchy, sensekit.semantics, sensekit.similarity
    import sensekit.elicitation
elif sys.argv[1:]:
    from sensekit.cli import main
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(sys.argv[1:])
loaded = sorted(m for m in sys.modules if m.startswith("sensekit.") or m in HEAVY)
print(json.dumps([code, preloaded, loaded]))
"""


@pytest.mark.parametrize(
    ("argv", "absent"),
    [
        ([], {"cli", "corpus", "jsonio", "hierarchy", "semantics", "similarity", "elicitation"}),
        (["all-layers"], {"cli"}),
        (["ingest", "leaf.sense"], {"hierarchy", "semantics", "similarity", "elicitation"}),
        (
            ["ingest", "leaf.sense", "--config", "provider.json"],
            {"hierarchy", "semantics", "similarity", "elicitation"},
        ),
        (["induce", "leaf.sense"], {"semantics", "similarity", "elicitation"}),
        (
            ["nominalize", "leaf.sense", "--lexicon", "lex.json"],
            {"hierarchy", "similarity", "elicitation"},
        ),
        (["sim", "book#1", "publication#3", "--store", "store.json"], {"hierarchy", "elicitation"}),
        (["elicit", "--subject", "book", "--provider", "mock"], {"hierarchy", "similarity"}),
        (
            ["elicit", "--subject", "book", "--fixtures", "fixture.json"],
            {"hierarchy", "similarity"},
        ),
    ],
    ids=[
        "bare-import", "all-layers", "ingest", "ingest-provider-config", "induce", "nominalize", "sim",
        "elicit", "elicit-fixture-file",
    ],
)
def test_each_command_imports_only_its_layers(argv, absent, tmp_path) -> None:
    """Each command loads only its layers, and no layer loads a module of
    _HEAVY.  -S keeps site's .pth files from loading modules first; any that
    are loaded anyway are excused."""
    (tmp_path / "leaf.sense").write_text(LEAF, encoding="utf-8")
    (tmp_path / "lex.json").write_text(json.dumps(LEXICON), encoding="utf-8")
    (tmp_path / "store.json").write_text(STORE, encoding="utf-8")
    fixture = {"book": {"hasProp": ["good", "long"], "agentOf": ["moved"], "objectOf": ["read"]}}
    (tmp_path / "fixture.json").write_text(json.dumps(fixture), encoding="utf-8")
    provider = {"provider": {"timeout": 2.5, "retries": 1}}  # checked by errors, not elicitation
    (tmp_path / "provider.json").write_text(json.dumps(provider), encoding="utf-8")
    # Under -S an editable install's import hook is off, so name the package's root.
    root = str(Path(sensekit.__file__).parent.parent)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _FOOTPRINT, *argv],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([root, *sys.path])},
    )
    assert proc.returncode == 0, proc.stderr
    code, preloaded, loaded = json.loads(proc.stdout)
    assert code == (0 if argv and argv != ["all-layers"] else None)
    loaded = {name.removeprefix("sensekit.") for name in loaded}
    assert "errors" in loaded
    assert not loaded & absent, f"{argv}: loaded {sorted(loaded & absent)}"
    heavy = loaded & set(_HEAVY) - set(preloaded)
    assert not heavy, f"{argv}: loaded {sorted(heavy)}"


def test_sources_import_only_the_standard_library() -> None:
    """sensekit runs on the standard library alone, and pyproject.toml says so."""
    root = Path(__file__).parent.parent
    for path in sorted((root / "src" / "sensekit").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.partition(".")[0] in sys.stdlib_module_names, f"{path.name}: {name}"
    if sys.version_info < (3, 11):
        pytest.skip("tomllib is new in Python 3.11")
    import tomllib

    with open(root / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["dependencies"] == []


_DIM_NAMES = st.sampled_from(["hasProp", "HASPROP", "agentOf", "isa", "IsA", "hasVibes", ""])
_ANY_VALUE = st.recursive(
    st.one_of(
        st.text(max_size=8),
        st.integers(),
        st.sampled_from([10**400, -(10**400)]),
        st.floats(),  # NaN and infinities included
        st.booleans(),
        st.none(),
        _DIM_NAMES,
    ),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8) | _DIM_NAMES, inner, max_size=3),
    max_leaves=6,
)


def _config_values(paths: dict) -> st.SearchStrategy:
    """Workspace configs whose keys hold any JSON value, or a plausible one."""
    plausible = {
        "corpus": st.just(paths["corpus"]),
        "lexicon": st.just(paths["lexicon"]),
        "meaning_store": st.just(paths["store"]),
        "tau": st.floats(min_value=0.0, max_value=1.0),
        "dims": st.lists(_DIM_NAMES, max_size=3),
        "dim_weights": st.dictionaries(_DIM_NAMES, st.integers(0, 3) | st.floats(0, 2), max_size=3),
    }
    provider = st.fixed_dictionaries(
        {},
        optional={
            "endpoint": _ANY_VALUE,
            "auth_env": _ANY_VALUE,
            "timeout": _ANY_VALUE,
            "retries": _ANY_VALUE,
        },
    )
    return st.fixed_dictionaries(
        {},
        optional={
            **{key: value | _ANY_VALUE for key, value in plausible.items()},
            "provider": provider | _ANY_VALUE,
            "unknown": _ANY_VALUE,
        },
    )


@pytest.fixture(scope="module")
def workspace(tmp_path_factory) -> dict:
    root = tmp_path_factory.mktemp("workspace")
    paths = {
        "corpus": root / "leaf.sense",
        "lexicon": root / "lex.json",
        "store": root / "meanings.json",
        "config": root / "ws.json",
        "conflict": root / "conflict.sense",
        "empty_config": root / "empty.json",
        "labels": root / "labels.json",
        "fixture": root / "fixture.json",
        "out": root / "out.json",
        "missing": root / "missing.json",
        "no_dir": root / "no-such-dir" / "out.json",
        "dir": root,
    }
    paths["corpus"].write_text(LEAF, encoding="utf-8")
    paths["lexicon"].write_text(json.dumps(LEXICON), encoding="utf-8")
    paths["store"].write_text(STORE, encoding="utf-8")
    paths["conflict"].write_text("+ OLD trip\n- OLD trip\n", encoding="utf-8")
    paths["empty_config"].write_text("{}", encoding="utf-8")
    paths["labels"].write_text(json.dumps({"OLD": "old", "HUNGRY": "eater"}), encoding="utf-8")
    paths["fixture"].write_text(
        json.dumps({"book": {"hasProp": ["café", "old", "old"], "agentOf": ["read"]}}),
        encoding="utf-8",
    )
    return {key: str(path) for key, path in paths.items()}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_any_config_value_exits_cleanly(workspace, data) -> None:
    config = data.draw(_config_values(workspace), label="config")
    argv = data.draw(
        st.sampled_from(
            [
                ["induce"],
                ["nominalize"],
                ["sim", "book#1", "publication#3"],
                ["elicit", "--subject", "book", "--provider", "mock"],
            ]
        ),
        label="argv",
    )
    with open(workspace["config"], "w", encoding="utf-8") as fh:
        fh.write(json.dumps(config))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--config", workspace["config"]])
    assert code in (0, 2, 3, 4, 5)
    assert "Traceback" not in err.getvalue()
    if out.getvalue():
        json.loads(out.getvalue(), parse_constant=pytest.fail)


# Flag values a user might type: odd numbers, odd dimension lists, non-ASCII
# text.  Values may be negative numbers, which argparse takes as values
# because no flag looks like a number; none starts with "--" or with "-" and
# a letter (argparse would take it for a flag, and "--h" abbreviates --help),
# and none holds NUL, which a real argv cannot.
# Output flags only ever name files in the workspace or paths that cannot be
# written, so relative input names such as "x" stay missing.
_ODD = ["", "nan", "inf", "1e400", "-1", "0", "9" * 5000, "x", "café", "книга#1", "hasVibes"]


def _argv(paths: dict) -> st.SearchStrategy:
    """Mostly well-formed argv for every command, then the empty config."""
    files = [paths[k] for k in ("corpus", "lexicon", "store", "labels", "fixture")]
    odd_paths = [paths[k] for k in ("missing", "no_dir", "dir")]

    def value(*usual: str) -> st.SearchStrategy:
        """A usual value seven times in eight, else an odd value, path or file."""
        return st.sampled_from([True] * 7 + [False]).flatmap(
            lambda ok: st.sampled_from(usual if ok else [*_ODD, *odd_paths, *files])
        )

    out = st.sampled_from([paths["out"], paths["out"], paths["no_dir"], paths["dir"], ""])
    flags = {
        "ingest": {"--out": out, "--seed": value("0", "7")},
        "induce": {
            "--tau": value("0", "0.1", "0.5", "1"),
            "--labels": value(paths["labels"]),
            "--dot": out,
            "--out": out,
        },
        "nominalize": {"--lexicon": value(paths["lexicon"]), "--seed": value("7")},
        "sim": {
            "--dims": value("hasProp", "hasProp,agentOf", "inState,partOf", "HASPROP,hasprop"),
            "--dim-weights": value("1", "3,1", "1,0,2", "1e308,1e308"),
        },
        "elicit": {
            "--dims": value("hasProp", "agentOf,objectOf", "hasProp,hasProp", "inState"),
            "-n": value("1", "3", "25"),
            "--provider": st.just("mock"),
            "--fixtures": value(paths["fixture"]),
            "--templates": value("default", "book-fixture"),
            "--endpoint": value("http://127.0.0.1:1/complete"),
            "--timeout": value("10", "0.5"),
            "--retries": value("0", "2"),
        },
    }
    corpus = value(paths["corpus"], paths["corpus"], paths["conflict"])
    sense = value("book#1", "publication#3", "ghost#9")
    # What each command needs: its positionals and the flags that name its inputs.
    required = {
        "ingest": st.tuples(corpus),
        "induce": st.tuples(corpus),
        "nominalize": st.tuples(corpus, st.just("--lexicon"), value(paths["lexicon"])),
        "sim": st.tuples(sense, sense, st.just("--store"), value(paths["store"])),
        "elicit": st.tuples(st.just("--subject"), value("book", "apple", "Book", "book#0")),
    }

    @st.composite
    def build(draw) -> list[str]:
        command = draw(st.sampled_from(sorted(flags)))
        argv = [command, *draw(required[command])]
        for flag in draw(st.lists(st.sampled_from(sorted(flags[command])), max_size=4)):
            argv += [flag, draw(flags[command][flag])]
        return [*argv, "--config", paths["empty_config"]]

    return build()


# chdir once per test, not per example, so the function-scoped fixture is safe.
@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_any_argv_exits_cleanly(workspace, monkeypatch, data) -> None:
    monkeypatch.chdir(workspace["dir"])
    argv = data.draw(_argv(workspace), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4, 5)
    assert "Traceback" not in err.getvalue()
    if out.getvalue():
        json.loads(out.getvalue(), parse_constant=pytest.fail)
