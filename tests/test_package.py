"""The package namespace: every public name resolves, lazily, to its layer's object,
and a wrong-type argument to a public name is a TypeError."""

from __future__ import annotations

import importlib
import importlib.util
import sys

import pytest

import sensekit

#: The names `sensekit` exports, by the module that defines them.
EXPORTS = {
    "corpus": (
        "AGENT", "NONSENSICAL", "OBJECT", "SENSIBLE", "Assertion", "AssertionSet", "ConceptId",
        "PropertyKey", "check_consistency", "corpus_from_json", "corpus_from_json_text",
        "corpus_to_json", "corpus_to_json_text", "extent", "parse_corpus", "scan_corpus",
        "serialize_corpus",
    ),
    "elicitation": (
        "BOOK_FIXTURE_TEMPLATES", "DEFAULT_TEMPLATES", "TEMPLATE_SETS", "CompletionList",
        "ElicitResult", "MockProvider", "PromptTemplate", "RemoteProvider", "elicit",
        "rank_to_weight", "render",
    ),
    "errors": (
        "ConfigError", "ConsistencyError", "CorpusSyntaxError", "ElicitationError",
        "EmptyCorpusError", "InputDataError", "LexiconError", "MeaningStoreError",
        "OntologyError", "ProviderError", "SensekitError", "TemplateError", "UnknownTypeError",
    ),
    "hierarchy": (
        "ROOT_LABEL", "InduceConfig", "TypeDag", "TypeNode", "TypedFact", "VerifyResult",
        "dag_from_json", "dag_from_json_text", "dag_to_json", "dag_to_json_text", "export_dot",
        "induce", "verify",
    ),
    "semantics": (
        "DEFAULT_DIMS", "RELATION_ALIASES", "CopularForm", "CopularStatement", "LexiconEntry",
        "MeaningRecord", "NominalizationLexicon", "PrimitiveRelation", "PrimitiveTriple",
        "build_meaning", "classify", "lexicon_from_json", "lexicon_to_json", "load_lexicon",
        "load_meanings", "meaning_record_from_json", "meaning_record_to_json",
        "meanings_from_json_text", "meanings_to_json_text", "nominalize_assertion",
        "resolve_relation", "save_meanings",
    ),
    "similarity": (
        "MatchedPair", "SimilarityReport", "concept_similarity", "dimension_join",
        "dimension_similarity", "equal_weights", "feature_sim",
    ),
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]
SUBMODULES = ("corpus", "elicitation", "hierarchy", "jsonio", "semantics", "similarity")


def _fresh_package():
    """A new `sensekit` module object, so that no name is cached on it yet."""
    spec = importlib.util.find_spec("sensekit")
    package = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(package)
    return package


def test_all_lists_exactly_the_exported_names() -> None:
    assert sorted(sensekit.__all__) == sorted(name for _, name in NAMES)
    assert len(set(sensekit.__all__)) == len(sensekit.__all__)


def test_every_exported_name_resolves_to_its_modules_object() -> None:
    package = _fresh_package()
    listed = dir(package)
    star: dict = {}
    exec("from sensekit import *", star)
    for module, name in NAMES:
        want = getattr(importlib.import_module(f"sensekit.{module}"), name)
        assert name in listed, name
        assert name in package.__all__, name
        assert getattr(package, name) is want, name
        assert vars(package)[name] is want, f"{name} is not cached after first use"
        assert star[name] is want, name


def test_layer_modules_resolve_as_attributes() -> None:
    package = _fresh_package()
    for module in SUBMODULES:
        assert module in dir(package)
        assert getattr(package, module) is sys.modules[f"sensekit.{module}"]


def test_unknown_attribute_raises_attribute_error() -> None:
    package = _fresh_package()
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name  # noqa: B018
    assert not hasattr(package, "no_such_name")
    assert not hasattr(sensekit, "cli_main")


class _CountingProvider:
    """A provider that counts its calls and would answer every prompt."""

    def __init__(self) -> None:
        self.calls = 0

    def complete(self, prompt: str, n: int) -> list[str]:
        self.calls += 1
        return ["fun"]


def _elicit(provider, n):
    return sensekit.elicit(provider, "game", (sensekit.PrimitiveRelation.HAS_PROP,), n)


_ASET = sensekit.parse_corpus("+ Q x\n+ R x\n+ R y\n")
_DAG = sensekit.induce(_ASET)
_FACT = sensekit.TypedFact(sensekit.PropertyKey("Q", 1, None), "Q")


@pytest.mark.parametrize(
    ("call", "message"),
    [
        (lambda provider: sensekit.InduceConfig(tau="0.1"), None),
        (lambda provider: _elicit(provider, 2.5), "n must be an int, not float"),
        (lambda provider: _elicit(provider, "3"), "n must be an int, not str"),
        (lambda provider: _elicit(provider, True), "n must be an int, not bool"),
        (lambda provider: sensekit.rank_to_weight("1", 2), None),
        (lambda provider: sensekit.CopularStatement("x", "adjective", 5), None),
        (lambda provider: sensekit.MatchedPair((None, "a"), (1.0, "a")), None),
        (lambda provider: sensekit.TypeDag(nodes=(1,), edges=(), root=0),
         "nodes[0] must be a TypeNode, not int"),
        (lambda provider: _DAG.resolve("Q", ["x"]), "labels must be a mapping or None, not list"),
        (lambda provider: sensekit.verify(_DAG, _FACT, _ASET, ["x"]),
         "labels must be a mapping or None, not list"),
    ],
    ids=["induce-config-tau-str", "elicit-n-float", "elicit-n-str", "elicit-n-bool",
         "rank-to-weight-rank-str", "copular-statement-payload-int", "matched-pair-weight-none",
         "type-dag-node-int", "resolve-labels-list", "verify-labels-list"],
)
def test_a_wrong_type_argument_is_a_type_error(call, message) -> None:
    """Only a SensekitError, a constructor's documented ValueError or a
    TypeError for a wrong-type argument escapes a public name; elicit refuses
    its n before asking the provider anything."""
    provider = _CountingProvider()
    with pytest.raises(TypeError) as caught:
        call(provider)
    if message is not None:
        assert str(caught.value) == message
    assert provider.calls == 0
