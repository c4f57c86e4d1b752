"""Byte-identity guard: the sha256 of `ingest`, `induce` and `induce --tau
0.25` stdout, and of serialize_corpus, for every corpus in tests/data, of
`nominalize` stdout for the binary-relations corpus and a seeded mixed
corpus, of the ontology JSON, DOT export and diagnostics of a seeded
interval corpus, of the meaning-store text for a loaded store and for
elicited records, and of the similarity reports of every ordered pair of a
seeded store.

A change to any digest is a change to sensekit's output format and must be
deliberate; record the new digest together with the reason."""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from sensekit import jsonio
from sensekit.cli import main
from sensekit.corpus import parse_corpus, serialize_corpus
from sensekit.elicitation import BOOK_FIXTURE_TEMPLATES, MockProvider, elicit
from sensekit.hierarchy import InduceConfig, dag_to_json_text, export_dot, induce
from sensekit.semantics import (
    DEFAULT_DIMS,
    MeaningRecord,
    PrimitiveRelation,
    load_lexicon,
    load_meanings,
    meanings_to_json_text,
    nominalize_assertion,
)
from sensekit.similarity import concept_similarity

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

# `nominalize` stdout: the binary-relations corpus with the starter lexicon,
# and the seeded corpus of _write_mixed_corpus with its own lexicon.
NOMINALIZE_DIGESTS = {
    "binary_relations.sense": "786e9af81669354803f071f028f5eef05980dbcc840899aec63673510a4587a3",
    "mixed": "3866f9701cb0f51abbec08e49f1eb306bdac9573810f8dc282cc66c7de8f5e0d",
}
STARTER_LEXICON = Path(jsonio.__file__).parent / "data" / "lexicon_starter.json"

STORE_DIGESTS = {
    "meanings_book_publication.json": "f3d2fc709be0a793bc6f5820a85325f7df9d142a7a8ac0c939ed7b1d7764dc76",
    "elicited-book-game": "f8336860a6894cb1030e44537f7c14a54ee0209d7edeb6756a9a220f1df271ab",
}

# "\n".join of the to_json_text of concept_similarity(a, b, weights) for every
# ordered pair (a, b) of the seeded store below, by weighting.
SIMILARITY_DIGESTS = {
    "custom": "286fe510be6dfd9adce163a9cac3bc1ffc39afdbd373e916e73efec5035d1923",
    "default": "1e3a8d4a1ae6a154790e3030527fe416b4784b5915a3fb062285133d8c7ef6c4",
}

# A 0.0 weight, int weights, a relation outside DEFAULT_DIMS, and keys
# inserted out of relation-name order.
CUSTOM_WEIGHTS = {
    PrimitiveRelation.PART_OF: 1.25,
    PrimitiveRelation.HAS_PROP: 2,
    PrimitiveRelation.AGENT_OF: 0.0,
    PrimitiveRelation.IS_A: 3,
    PrimitiveRelation.OBJECT_OF: 0.5,
    PrimitiveRelation.IN_STATE: 0.75,
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


def _write_mixed_corpus(directory: Path) -> tuple[str, str]:
    """A seeded corpus and its lexicon; returns their paths.

    Ten unary properties (property and state tropes, one with a quote) and
    six relations, as binary lines and as NAME@agent / NAME@object rows;
    RIDE and MAKE have a lexicon trope, the others take their gerund (STOP
    doubles its consonant).  Concepts carry sense suffixes, and about a
    fifth of the rows are nonsensical, so nominalize skips them.
    """
    rng = random.Random(1818)
    lexicon = {f"P{i}": {"trope": f"p{i}-ness", "cat": "state" if i % 3 == 0 else "property"}
               for i in range(10)}
    lexicon["P7"]["trope"] = "seven's_trope"
    lexicon["RIDE"] = {"trope": "riding", "cat": "activity"}
    lexicon["MAKE"] = {"trope": "manufacture", "cat": "activity"}
    relations = ["RIDE", "MAKE", "READ", "STOP", "CARRY", "WALK-ALONG"]
    concepts = [f"c{i}" + (f"#{rng.randint(1, 3)}" if rng.random() < 0.2 else "") for i in range(80)]
    signs: dict[tuple[str, str], str] = {}
    lines = []
    for _ in range(500):
        sign = "-" if rng.random() < 0.2 else "+"
        roll = rng.random()
        if roll < 0.6:
            fact = (f"P{rng.randrange(10)}", rng.choice(concepts))
            if signs.setdefault(fact, sign) == sign:
                lines.append(f"{sign} {fact[0]} {fact[1]}")
        elif roll < 0.8:
            fact = (f"{rng.choice(relations)}@{rng.choice(('agent', 'object'))}", rng.choice(concepts))
            if signs.setdefault(fact, sign) == sign:
                lines.append(f"{sign} {fact[0]} {fact[1]}")
        else:
            name, agent, obj = rng.choice(relations), rng.choice(concepts), rng.choice(concepts)
            halves = ((f"{name}@agent", agent), (f"{name}@object", obj))
            if all(signs.setdefault(fact, sign) == sign for fact in halves):
                lines.append(f"{sign} {name}({agent}, {obj})")
    corpus, lexicon_file = directory / "mixed.sense", directory / "mixed-lexicon.json"
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
    lexicon_file.write_text(json.dumps(lexicon), encoding="utf-8")
    return str(corpus), str(lexicon_file)


def test_nominalize_binary_relations_digest(capsys) -> None:
    corpus = str(DATA_DIR / "binary_relations.sense")
    assert main(["nominalize", corpus, "--lexicon", str(STARTER_LEXICON)]) == 0
    assert _sha(capsys.readouterr().out) == NOMINALIZE_DIGESTS["binary_relations.sense"]


def test_nominalize_mixed_corpus_digest(tmp_path, capsys) -> None:
    corpus, lexicon_file = _write_mixed_corpus(tmp_path)
    assert main(["nominalize", corpus, "--lexicon", lexicon_file]) == 0
    assert _sha(capsys.readouterr().out) == NOMINALIZE_DIGESTS["mixed"]
    # The same document through the library and jsonio.dumps.
    aset = parse_corpus(Path(corpus).read_text(encoding="utf-8"))
    lexicon = load_lexicon(lexicon_file)
    triples = [nominalize_assertion(a, lexicon) for a in aset.assertions if a.is_sensible]
    assert {t.relation.value for t in triples} == {"hasProp", "inState", "agentOf", "objectOf"}
    text = jsonio.dumps({"triples": [t.to_json() for t in triples]})
    assert _sha(text) == NOMINALIZE_DIGESTS["mixed"]


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


@pytest.fixture(scope="module")
def similarity_store() -> list[MeaningRecord]:
    """40 records over 200 tokens: weights k/1000 so that ties occur, some
    dimensions absent or empty, and pairs in draw order, not token order."""
    rng = random.Random(1515)
    vocabulary = [f"t{i}" for i in range(200)]  # "t10" sorts before "t2"
    records = []
    for n in range(40):
        dims = {}
        for dim in (*DEFAULT_DIMS, PrimitiveRelation.IS_A):
            roll = rng.random()
            if roll < 0.15:
                continue
            if roll < 0.25:
                dims[dim] = ()
                continue
            tokens = rng.sample(vocabulary, rng.randint(1, 40))
            dims[dim] = tuple((rng.randint(1, 1000) / 1000, token) for token in tokens)
        records.append(MeaningRecord(f"s{n}", "", dims))
    return records


@pytest.mark.parametrize("weighting", sorted(SIMILARITY_DIGESTS))
def test_similarity_reports_digest(weighting: str, similarity_store) -> None:
    weights = CUSTOM_WEIGHTS if weighting == "custom" else None
    text = "\n".join(
        concept_similarity(a, b, weights).to_json_text()
        for a in similarity_store
        for b in similarity_store
    )
    assert _sha(text) == SIMILARITY_DIGESTS[weighting]
