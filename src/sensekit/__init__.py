"""sensekit: symbolic concept representation from sensibility judgments.

The pipeline: parse polarity-tagged applicability assertions (corpus), induce
the type hierarchy implicit in their extents (hierarchy), reify assertions
into primitive-relation triples and weighted meaning records (semantics),
compare senses dimension by dimension (similarity), and harvest draft records
from a masked-completion provider (elicitation).

`import sensekit` loads only the error classes.  Every other name below, and
each layer module, is imported on first access (PEP 562) and then kept as a
plain attribute, so a CLI command pays only for the layers it runs.
"""

from __future__ import annotations

from importlib import import_module as _import_module

from .errors import (
    ConfigError,
    ConsistencyError,
    CorpusSyntaxError,
    ElicitationError,
    EmptyCorpusError,
    InputDataError,
    LexiconError,
    MeaningStoreError,
    OntologyError,
    ProviderError,
    SensekitError,
    TemplateError,
    UnknownTypeError,
)

__version__ = "0.1.0"

#: The public names each layer module exports through the package.
_EXPORTS = {
    "corpus": """AGENT NONSENSICAL OBJECT SENSIBLE Assertion AssertionSet ConceptId
        PropertyKey check_consistency corpus_from_json corpus_from_json_text corpus_to_json
        corpus_to_json_text extent parse_corpus scan_corpus serialize_corpus""",
    "elicitation": """BOOK_FIXTURE_TEMPLATES DEFAULT_TEMPLATES TEMPLATE_SETS CompletionList
        ElicitResult MockProvider PromptTemplate RemoteProvider elicit rank_to_weight render""",
    "hierarchy": """ROOT_LABEL InduceConfig TypeDag TypeNode TypedFact VerifyResult dag_from_json
        dag_from_json_text dag_to_json dag_to_json_text export_dot induce verify""",
    "semantics": """DEFAULT_DIMS RELATION_ALIASES CopularForm CopularStatement LexiconEntry
        MeaningRecord NominalizationLexicon PrimitiveRelation PrimitiveTriple build_meaning
        classify lexicon_from_json lexicon_to_json load_lexicon load_meanings
        meaning_record_from_json meaning_record_to_json meanings_from_json_text
        meanings_to_json_text nominalize_assertion resolve_relation save_meanings""",
    "similarity": """MatchedPair SimilarityReport concept_similarity dimension_join
        dimension_similarity equal_weights feature_sim""",
    "jsonio": "",  # reachable as sensekit.jsonio; exports no names of its own
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted([*(name for name in globals() if name.endswith("Error")), *_HOME])


def __getattr__(name: str):
    if name in _EXPORTS:
        return _import_module(f".{name}", __name__)  # the import binds the attribute
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
