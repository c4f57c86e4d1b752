from __future__ import annotations

import json

import pytest
import requests

from sensekit.corpus import PropertyKey
from sensekit.elicitation import (
    BOOK_FIXTURE_TEMPLATES,
    DEFAULT_TEMPLATES,
    CompletionList,
    MockProvider,
    PromptTemplate,
    RemoteProvider,
    elicit,
    rank_to_weight,
    render,
)
from sensekit.errors import (
    ElicitationError,
    InputDataError,
    ProviderError,
    TemplateError,
)
from sensekit.semantics import PrimitiveRelation, meaning_record_to_json

REL = PrimitiveRelation
BOOK_DIMS = (REL.AGENT_OF, REL.OBJECT_OF, REL.HAS_PROP)


# --- templates and rendering -----------------------------------------------------

def test_render_default_has_prop_frame() -> None:
    prompt = render(DEFAULT_TEMPLATES[REL.HAS_PROP], "game")
    assert prompt == "The game was very [MASK]."


def test_render_default_agent_frame() -> None:
    prompt = render(DEFAULT_TEMPLATES[REL.AGENT_OF], "game")
    assert prompt == "The game [MASK] everyone."


def test_render_strips_sense_suffix() -> None:
    prompt = render(DEFAULT_TEMPLATES[REL.OBJECT_OF], "game#2")
    assert prompt == "John has [MASK] the game."


def test_template_requires_mask() -> None:
    with pytest.raises(TemplateError):
        PromptTemplate(REL.HAS_PROP, "The {X} was very nice.")


def test_template_requires_subject_slot() -> None:
    with pytest.raises(TemplateError):
        PromptTemplate(REL.HAS_PROP, "The game was very [MASK].")


def test_template_rejects_duplicate_slots() -> None:
    with pytest.raises(TemplateError):
        PromptTemplate(REL.HAS_PROP, "{X} {X} [MASK]")
    with pytest.raises(TemplateError):
        PromptTemplate(REL.HAS_PROP, "{X} [MASK] [MASK]")


# --- rank_to_weight -----------------------------------------------------------------

def test_rank_one_is_full_weight() -> None:
    assert rank_to_weight(1, 25) == 1.0


def test_last_rank_of_25() -> None:
    assert rank_to_weight(25, 25) == pytest.approx(0.04, abs=1e-12)


def test_middle_rank_of_25() -> None:
    assert rank_to_weight(13, 25) == pytest.approx(0.52, abs=1e-12)


@pytest.mark.parametrize("rank,n", [(0, 5), (6, 5), (1, 0)])
def test_rank_out_of_range(rank: int, n: int) -> None:
    with pytest.raises(InputDataError):
        rank_to_weight(rank, n)


def test_weights_monotone_in_rank() -> None:
    weights = [rank_to_weight(r, 10) for r in range(1, 11)]
    assert weights == sorted(weights, reverse=True)
    assert all(0.0 < w <= 1.0 for w in weights)


# --- completion lists ----------------------------------------------------------------

def test_completion_list_dedupes_keeping_first_rank() -> None:
    clist = CompletionList.from_raw("book", REL.AGENT_OF, ["a", "b", "a", "c", "b"])
    assert clist.completions == ("a", "b", "c")
    assert clist.original_ranks == (1, 2, 4)
    assert clist.total == 5


def test_completion_list_rejects_empty() -> None:
    with pytest.raises(InputDataError):
        CompletionList.from_raw("book", REL.AGENT_OF, [])


# --- mock provider ---------------------------------------------------------------------

def test_shipped_fixture_answers_book_prompts() -> None:
    provider = MockProvider.from_file()
    tokens = provider.complete("The book has [MASK] millions of people", 25)
    assert tokens[0] == "influenced"
    assert len(tokens) == 25


def test_shipped_fixture_answers_game_prompts() -> None:
    provider = MockProvider.from_file()
    assert provider.complete("The game was very [MASK].", 3) == [
        "Exciting",
        "Difficult",
        "Enjoyable",
    ]


def test_mock_provider_truncates_to_n() -> None:
    provider = MockProvider.from_file()
    assert len(provider.complete("Jon has [MASK] the book", 5)) == 5


def test_mock_provider_unknown_prompt() -> None:
    provider = MockProvider.from_file()
    with pytest.raises(ProviderError):
        provider.complete("The couch [MASK] everyone.", 5)


def test_mock_provider_deterministic() -> None:
    a = MockProvider.from_file().complete("Das Kapital was a very [MASK] book", 25)
    b = MockProvider.from_file().complete("Das Kapital was a very [MASK] book", 25)
    assert a == b


# --- elicit ------------------------------------------------------------------------------

def test_elicit_book_fixture_dimensions() -> None:
    provider = MockProvider.from_file()
    result = elicit(provider, "book", BOOK_DIMS, 25, BOOK_FIXTURE_TEMPLATES)
    record = result.record
    assert record.sense == "book"
    # duplicates collapse: provoked/challenged in the agent column, a repeat
    # of controversial in the property column
    assert len(record.dims[REL.AGENT_OF]) == 23
    assert len(record.dims[REL.OBJECT_OF]) == 25
    assert len(record.dims[REL.HAS_PROP]) == 24
    assert record.dims[REL.AGENT_OF][0] == (1.0, "influenced")
    assert record.dims[REL.OBJECT_OF][0] == (1.0, "wrote")
    assert record.dims[REL.HAS_PROP][0] == (1.0, "influential")
    for pairs in record.dims.values():
        weights = [w for w, _ in pairs]
        assert all(x > y for x, y in zip(weights, weights[1:]))
    agents = [tok for _, tok in record.dims[REL.AGENT_OF]]
    assert agents.count("challenged") == 1
    assert result.failures == {}


def test_elicit_single_completion_gets_weight_one() -> None:
    provider = MockProvider.from_file()
    result = elicit(provider, "game", (REL.HAS_PROP,), 1)
    assert result.record.dims[REL.HAS_PROP] == ((1.0, "Exciting"),)


def test_elicit_emits_assertions_with_positions() -> None:
    provider = MockProvider.from_file()
    result = elicit(provider, "game", BOOK_DIMS, 3)
    props = {a.property for a in result.assertions.assertions}
    assert PropertyKey("AMAZED", 2, "agent") in props
    assert PropertyKey("WON", 2, "object") in props
    assert PropertyKey("EXCITING") in props
    assert all(a.is_sensible for a in result.assertions.assertions)
    assert all(a.concept.name == "game" for a in result.assertions.assertions)


def test_elicit_partial_failure_keeps_other_dimensions() -> None:
    provider = MockProvider.from_file()
    result = elicit(provider, "game", (REL.HAS_PROP, REL.IN_STATE), 5, {
        **DEFAULT_TEMPLATES,
        REL.IN_STATE: PromptTemplate(REL.IN_STATE, "The {X} is in a state of [MASK]."),
    })
    assert REL.HAS_PROP in result.record.dims
    assert REL.IN_STATE in result.failures
    assert REL.IN_STATE not in result.record.dims


def test_elicit_all_dimensions_failed() -> None:
    provider = MockProvider.from_file()
    with pytest.raises(ElicitationError):
        elicit(provider, "spoon", (REL.HAS_PROP,), 5)


class ScriptedProvider:
    """Answers successive complete() calls with the given lists, in order."""

    def __init__(self, *replies: list) -> None:
        self._replies = iter(replies)

    def complete(self, prompt: str, n: int) -> list:
        return next(self._replies)


def test_elicit_non_string_completion_fails_its_dimension() -> None:
    # Completions are never turned into text: None, 7 and True are not tokens.
    provider = ScriptedProvider(["exciting", "long"], [None, 7, True], ["fun", 7])
    result = elicit(provider, "game", (REL.HAS_PROP, REL.AGENT_OF, REL.OBJECT_OF), 5)
    assert list(result.record.dims) == [REL.HAS_PROP]
    assert set(result.failures) == {REL.AGENT_OF, REL.OBJECT_OF}
    assert all("not a string" in msg for msg in result.failures.values())
    assert {a.property.token for a in result.assertions.assertions} == {"EXCITING", "LONG"}


def test_elicit_all_dimensions_non_string_raises() -> None:
    provider = ScriptedProvider([None, 7, True], [b"bytes"])
    with pytest.raises(ElicitationError, match="not a string"):
        elicit(provider, "game", (REL.HAS_PROP, REL.AGENT_OF), 5)


def test_elicit_requires_templates_for_every_dimension() -> None:
    provider = MockProvider.from_file()
    with pytest.raises(TemplateError):
        elicit(provider, "game", (REL.PART_OF,), 5)


def test_elicit_deterministic_output() -> None:
    provider = MockProvider.from_file()
    runs = [
        json.dumps(
            meaning_record_to_json(
                elicit(provider, "book", BOOK_DIMS, 25, BOOK_FIXTURE_TEMPLATES).record
            ),
            sort_keys=True,
        )
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


def test_elicit_record_satisfies_invariants() -> None:
    provider = MockProvider.from_file()
    result = elicit(provider, "book", BOOK_DIMS, 25, BOOK_FIXTURE_TEMPLATES)
    for pairs in result.record.dims.values():
        tokens = [tok for _, tok in pairs]
        assert len(tokens) == len(set(tokens))
        assert all(0.0 < w <= 1.0 for w, _ in pairs)


# --- remote provider ----------------------------------------------------------------------

class _FakeResponse:
    def __init__(self, status_code: int = 200, body: object = None) -> None:
        self.status_code = status_code
        self._body = body

    def json(self) -> object:
        if isinstance(self._body, Exception):
            raise self._body
        return self._body


class _FakeSession:
    def __init__(self, outcomes) -> None:
        self.outcomes = list(outcomes)
        self.calls: list[dict] = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append(
            {"url": url, "json": json, "headers": headers, "timeout": timeout}
        )
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def test_remote_provider_success() -> None:
    session = _FakeSession([_FakeResponse(200, {"completions": ["exciting", "boring"]})])
    provider = RemoteProvider("https://masker.example/complete", session=session)
    assert provider.complete("The game was very [MASK].", 2) == ["exciting", "boring"]
    call = session.calls[0]
    assert call["json"] == {"prompt": "The game was very [MASK].", "n": 2}
    assert call["timeout"] == 10.0


def test_remote_provider_sends_bearer_token(monkeypatch) -> None:
    monkeypatch.setenv("SENSEKIT_PROVIDER_TOKEN", "hunter2")
    session = _FakeSession([_FakeResponse(200, {"completions": []}), _FakeResponse(200, {"completions": ["x"]})])
    provider = RemoteProvider("https://masker.example", session=session, retries=0)
    provider.complete("p [MASK] {q}", 1)
    assert session.calls[0]["headers"]["Authorization"] == "Bearer hunter2"


def test_remote_provider_value_error_is_a_request_failure() -> None:
    # urllib3 raises LocationParseError, a ValueError, for a host with an empty label
    session = _FakeSession([ValueError("Failed to parse: 'a..b', label empty or too long")])
    provider = RemoteProvider("http://a..b/", session=session, retries=0)
    with pytest.raises(ProviderError, match="request failed: .*label empty"):
        provider.complete("p [MASK]", 1)


def test_remote_provider_retries_then_fails(monkeypatch) -> None:
    monkeypatch.delenv("SENSEKIT_PROVIDER_TOKEN", raising=False)
    session = _FakeSession(
        [
            requests.ConnectionError("down"),
            requests.Timeout("slow"),
            _FakeResponse(500, {}),
        ]
    )
    provider = RemoteProvider("https://masker.example", retries=2, session=session)
    with pytest.raises(ProviderError):
        provider.complete("prompt [MASK]", 3)
    assert len(session.calls) == 3


def test_remote_provider_recovers_within_budget() -> None:
    session = _FakeSession(
        [
            requests.Timeout("slow"),
            _FakeResponse(200, {"completions": ["a", "b", "c", "d"]}),
        ]
    )
    provider = RemoteProvider("https://masker.example", retries=1, session=session)
    assert provider.complete("prompt [MASK]", 3) == ["a", "b", "c"]


def test_remote_provider_rejects_malformed_body() -> None:
    session = _FakeSession(
        [
            _FakeResponse(200, {"tokens": ["a"]}),
            _FakeResponse(200, ValueError("not json")),
        ]
    )
    provider = RemoteProvider("https://masker.example", retries=1, session=session)
    with pytest.raises(ProviderError):
        provider.complete("prompt [MASK]", 3)


def test_remote_provider_failure_feeds_per_dimension_path() -> None:
    session = _FakeSession([requests.ConnectionError("down"), requests.ConnectionError("down")])
    provider = RemoteProvider("https://masker.example", retries=1, session=session)
    with pytest.raises(ElicitationError):
        elicit(provider, "game", (REL.HAS_PROP,), 5)


def test_mock_provider_rejects_colliding_fixture_entries() -> None:
    # book and book#2 share the surface form "book", so both entries render
    # the same prompts; differing token lists would be unanswerable
    fixture = {
        "book": {"hasProp": ["influential"]},
        "book#2": {"hasProp": ["heavy"]},
    }
    with pytest.raises(InputDataError):
        MockProvider(fixture)


@pytest.mark.parametrize(
    "fixture",
    [
        {"book": 5},
        {"book": ["hasProp"]},
        {"book": {"hasProp": 5}},
        {"book": {"hasProp": "heavy"}},
        {"book": {"hasProp": {"heavy": 1}}},
        {"x y": {"hasProp": ["heavy"]}},
        {"book": {"hasProp": ["heavy", None]}},
        {"book": {"hasProp": [7]}},
        {"book": {"hasProp": [True]}},
        {"book": {"hasProp": [["heavy"]]}},
    ],
    ids=[
        "subject-int", "subject-list", "tokens-int", "tokens-string", "tokens-object",
        "subject-not-a-concept", "token-null", "token-int", "token-bool", "token-list",
    ],
)
def test_mock_provider_rejects_malformed_fixture(fixture) -> None:
    with pytest.raises(InputDataError, match="completion fixture"):
        MockProvider(fixture)


def test_mock_provider_accepts_identical_colliding_entries() -> None:
    fixture = {
        "book": {"hasProp": ["influential"]},
        "book#2": {"hasProp": ["influential"]},
    }
    provider = MockProvider(fixture)
    assert provider.complete("The book was very [MASK].", 1) == ["influential"]


def test_elicited_assertions_feed_hierarchy_induction() -> None:
    # the draft corpus from elicitation is a valid induction input, and the
    # vocabulary the two subjects share becomes their common parent type
    from sensekit.corpus import AssertionSet
    from sensekit.hierarchy import induce

    provider = MockProvider.from_file()
    book = elicit(provider, "book", BOOK_DIMS, 25, BOOK_FIXTURE_TEMPLATES)
    game = elicit(provider, "game", BOOK_DIMS, 15)
    merged = AssertionSet(book.assertions.assertions + game.assertions.assertions)
    dag = induce(merged)
    root = dag.node_by_id(dag.root)
    assert not root.is_synthetic_root
    assert root.extent == frozenset({"book", "game"})
    assert root.characteristic_properties == (
        "CAPTIVATED@agent",
        "CHALLENGED@agent",
        "CHALLENGING",
        "ENGAGED@agent",
        "INTRIGUED@agent",
    )
    book_node = dag.resolve("INFLUENTIAL")
    game_node = dag.resolve("EXCITING")
    assert book_node.extent == frozenset({"book"})
    assert game_node.extent == frozenset({"game"})
    assert set(dag.parents(book_node.id)) == {dag.root}
    assert set(dag.parents(game_node.id)) == {dag.root}
