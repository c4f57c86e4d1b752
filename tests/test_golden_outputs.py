"""Byte-identity guard: the sha256 of `ingest` and `induce` stdout, and of
serialize_corpus, for every corpus in tests/data, and of the meaning-store
text for a loaded store and for elicited records.

A change to any digest is a change to sensekit's output format and must be
deliberate; record the new digest together with the reason."""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from sensekit.cli import main
from sensekit.corpus import parse_corpus, serialize_corpus
from sensekit.elicitation import BOOK_FIXTURE_TEMPLATES, MockProvider, elicit
from sensekit.semantics import PrimitiveRelation, load_meanings, meanings_to_json_text

DATA_DIR = Path(__file__).parent / "data"

DIGESTS = {
    "binary_relations.sense": {
        "ingest": "e47218783f279b10f068a13bede4f3f607d18a057d330e369dc69c0f0dcf27e8",
        "induce": "0efae9a896ef36cf55f5ffa3fb49ec2a4708adfea881618c0f84cbe684972f8f",
        "serialize": "e8c8f17b7f728ab626fa39fd8c00d4cec03723e1498644e5a721e61dcc452605",
    },
    "branch_split.sense": {
        "ingest": "b361eef1115fbd1938261ce62da2c208f4878cd6468c6d97c734784e13ff2a31",
        "induce": "a523ec98e1b9a2dbcfb2e5fd8fc3add130a079a3959c6178c6099ac5d084d568",
        "serialize": "51ca25a44c9f6821ae5fdd3d91658dec846bc1b82283237877322e787212abb3",
    },
    "leaf_hierarchy.sense": {
        "ingest": "e29c56fe5388f4c87e113d0805ccd126d5485647587090db37fe508c0baf132d",
        "induce": "b9edba35a183f1e5f70be7c79640d48997aa819e03a5f746b9efbc32e8960e4e",
        "serialize": "277451a83c0a6d54426a77b098a568704dd2241207c555852049610be729eaf6",
    },
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
