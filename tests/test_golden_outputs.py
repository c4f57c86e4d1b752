"""Byte-identity guard: the sha256 of `ingest`, `induce` and `induce --tau
0.25` stdout, and of serialize_corpus, for every corpus in tests/data, of the
ontology JSON, DOT export and diagnostics of a seeded interval corpus, and of
the meaning-store text for a loaded store and for elicited records.

A change to any digest is a change to sensekit's output format and must be
deliberate; record the new digest together with the reason."""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

import pytest

from sensekit.cli import main
from sensekit.corpus import parse_corpus, serialize_corpus
from sensekit.elicitation import BOOK_FIXTURE_TEMPLATES, MockProvider, elicit
from sensekit.hierarchy import InduceConfig, dag_to_json_text, export_dot, induce
from sensekit.semantics import PrimitiveRelation, load_meanings, meanings_to_json_text

from conftest import interval_assertion_set

DATA_DIR = Path(__file__).parent / "data"

DIGESTS = {
    "binary_relations.sense": {
        "ingest": "e47218783f279b10f068a13bede4f3f607d18a057d330e369dc69c0f0dcf27e8",
        "induce": "0efae9a896ef36cf55f5ffa3fb49ec2a4708adfea881618c0f84cbe684972f8f",
        "induce_tau": "0efae9a896ef36cf55f5ffa3fb49ec2a4708adfea881618c0f84cbe684972f8f",
        "serialize": "e8c8f17b7f728ab626fa39fd8c00d4cec03723e1498644e5a721e61dcc452605",
    },
    "branch_split.sense": {
        "ingest": "b361eef1115fbd1938261ce62da2c208f4878cd6468c6d97c734784e13ff2a31",
        "induce": "a523ec98e1b9a2dbcfb2e5fd8fc3add130a079a3959c6178c6099ac5d084d568",
        "induce_tau": "a523ec98e1b9a2dbcfb2e5fd8fc3add130a079a3959c6178c6099ac5d084d568",
        "serialize": "51ca25a44c9f6821ae5fdd3d91658dec846bc1b82283237877322e787212abb3",
    },
    "leaf_hierarchy.sense": {
        "ingest": "e29c56fe5388f4c87e113d0805ccd126d5485647587090db37fe508c0baf132d",
        "induce": "b9edba35a183f1e5f70be7c79640d48997aa819e03a5f746b9efbc32e8960e4e",
        "induce_tau": "6dd80f8ead96c76b9ad8acd156d8363d1ccb2204673d8ea8274f1d2e3a0de10b",
        "serialize": "277451a83c0a6d54426a77b098a568704dd2241207c555852049610be729eaf6",
    },
}

# dag_to_json_text of the interval corpus below, by tau: 252 and 112 nodes,
# bitsets of 150 bits, and ancestor chains 25 and 18 edges long.
INTERVAL_DIGESTS = {
    0.0: "7fdcbec567bd770f3de286c490609589e72f0bcca382486c002fa0a5eb0a8ff8",
    0.1: "08cd265972ab9f924c8f7170b7568dfff0db1a7b8708901fd7b5777e68beb5c0",
}

# export_dot and "\n".join(diagnostics) of the same DAGs, by tau: both read
# the edge order; 129 and 13 diagnostics.
INTERVAL_DOT_DIGESTS = {
    0.0: "ce328cb844cbde8eebdc948c112e20ec7978dfc504a550e01902f2da53d2a755",
    0.1: "372452c1f33144807c9e01e6a04d2d76eb096906dc3727500eeeca0909de11de",
}
INTERVAL_DIAGNOSTICS_DIGESTS = {
    0.0: "06ca983b594e4a3747df67867121cbe7443860df125312b0bc314871978d1c29",
    0.1: "7df006a109d5b1d6035a358f0158d53b9d131313810a53de00ac3a8f861f11e7",
}

STORE_DIGESTS = {
    "meanings_book_publication.json": "f3d2fc709be0a793bc6f5820a85325f7df9d142a7a8ac0c939ed7b1d7764dc76",
    "elicited-book-game": "f8336860a6894cb1030e44537f7c14a54ee0209d7edeb6756a9a220f1df271ab",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_every_data_corpus_has_digests() -> None:
    assert sorted(p.name for p in DATA_DIR.glob("*.sense")) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
@pytest.mark.parametrize("command", ["ingest", "induce"])
def test_cli_stdout_digest(name: str, command: str, capsys) -> None:
    assert main([command, str(DATA_DIR / name)]) == 0
    assert _sha(capsys.readouterr().out) == DIGESTS[name][command]


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_induce_tau_stdout_digest(name: str, capsys) -> None:
    assert main(["induce", str(DATA_DIR / name), "--tau", "0.25"]) == 0
    assert _sha(capsys.readouterr().out) == DIGESTS[name]["induce_tau"]


@pytest.fixture(scope="module")
def interval_corpus():
    return interval_assertion_set(random.Random(13), 150, 220, 40)


@pytest.mark.parametrize("tau", sorted(INTERVAL_DIGESTS))
def test_interval_ontology_digest(tau: float, interval_corpus) -> None:
    dag = induce(interval_corpus, InduceConfig(tau=tau))
    assert _sha(dag_to_json_text(dag)) == INTERVAL_DIGESTS[tau]


@pytest.mark.parametrize("tau", sorted(INTERVAL_DOT_DIGESTS))
def test_interval_dot_and_diagnostics_digest(tau: float, interval_corpus) -> None:
    dag = induce(interval_corpus, InduceConfig(tau=tau))
    assert len(dag.diagnostics) == {0.0: 129, 0.1: 13}[tau]
    assert _sha(export_dot(dag)) == INTERVAL_DOT_DIGESTS[tau]
    assert _sha("\n".join(dag.diagnostics)) == INTERVAL_DIAGNOSTICS_DIGESTS[tau]


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_serialize_corpus_digest(name: str) -> None:
    text = (DATA_DIR / name).read_text(encoding="utf-8")
    assert _sha(serialize_corpus(parse_corpus(text))) == DIGESTS[name]["serialize"]


def test_loaded_store_text_digest() -> None:
    records = load_meanings(str(DATA_DIR / "meanings_book_publication.json"))
    assert _sha(meanings_to_json_text(records)) == STORE_DIGESTS["meanings_book_publication.json"]


def test_elicited_store_text_digest() -> None:
    dims = (PrimitiveRelation.AGENT_OF, PrimitiveRelation.OBJECT_OF, PrimitiveRelation.HAS_PROP)
    provider = MockProvider.from_file()
    records = [
        elicit(provider, "book", dims, 25, BOOK_FIXTURE_TEMPLATES).record,
        elicit(provider, "game", dims, 15).record,
    ]
    assert _sha(meanings_to_json_text(records)) == STORE_DIGESTS["elicited-book-game"]
