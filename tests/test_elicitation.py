from __future__ import annotations

import json
import re
import socket

import pytest
from hypothesis import given, settings, strategies as st

from oracles import reference_elicit
from sensekit.corpus import PropertyKey, corpus_to_json_text
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


@pytest.mark.parametrize(
    "pattern, mark",
    [
        ("The {X} was very nice.", "'[MASK]' token"),
        ("The game was very [MASK].", "'{X}' slot"),
        ("{X} {X} [MASK]", "'{X}' slot"),
        ("{X} [MASK] [MASK]", "'[MASK]' token"),
        ("no marks", "'{X}' slot"),
    ],
)
def test_template_names_the_mark_it_lacks(pattern: str, mark: str) -> None:
    with pytest.raises(TemplateError) as info:
        PromptTemplate(REL.HAS_PROP, pattern)
    assert str(info.value) == f"template for hasProp must contain exactly one {mark}: {pattern!r}"


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
    with pytest.raises(InputDataError, match="^completion list must not be empty$"):
        CompletionList.from_raw("book", REL.AGENT_OF, [])


@pytest.mark.parametrize(
    "completions, ranks, message",
    [
        (("a", "b", "a"), (1, 2, 3), "completion list must be deduplicated"),
        (("a", "b"), (1,), "original_ranks must parallel completions"),
        (("a",), (1, 2), "original_ranks must parallel completions"),
    ],
)
def test_completion_list_refuses_repeats_and_unmatched_ranks(completions, ranks, message) -> None:
    with pytest.raises(InputDataError) as info:
        CompletionList("book", REL.AGENT_OF, completions, ranks, 3)
    assert str(info.value) == message


@given(st.lists(st.sampled_from(["a", "b", "c", "d", " a", "A"]), max_size=12), st.sampled_from(list(REL)))
def test_prop_from_raw_equals_the_constructor(raw: list, dimension: PrimitiveRelation) -> None:
    """from_raw, which skips __init__, builds what __init__ builds from the same fields."""
    first_rank: dict = {}
    for rank, token in enumerate(raw, start=1):
        first_rank.setdefault(token, rank)
    fields = ("book", dimension, tuple(first_rank), tuple(first_rank.values()), len(raw))
    if not raw:
        with pytest.raises(InputDataError) as want:
            CompletionList(*fields)
        with pytest.raises(InputDataError) as got:
            CompletionList.from_raw("book", dimension, raw)
        assert str(got.value) == str(want.value)
        return
    built, want = CompletionList.from_raw("book", dimension, raw), CompletionList(*fields)
    assert (built, hash(built), repr(built)) == (want, hash(want), repr(want))
    assert built.weighted() == want.weighted()


@pytest.mark.parametrize("repeats", [False, True], ids=["distinct", "with-repeats"])
def test_completion_weights_equal_rank_to_weight(repeats: bool) -> None:
    for total in range(1, 61):
        raw = [f"t{i // 3 if repeats else i}" for i in range(total)]
        clist = CompletionList.from_raw("book", REL.AGENT_OF, raw)
        expected = tuple(
            (rank_to_weight(rank, total), token)
            for rank, token in zip(clist.original_ranks, clist.completions)
        )
        assert clist.weighted() == expected  # exact floats, not approx


@pytest.mark.parametrize(
    ("ranks", "total"),
    [((0, 2), 5), ((1, 6), 5), ((1, 2), 2), ((1, 2), 0), ((1, 2), -3)],
    ids=["rank-0", "rank-above-total", "rank-equal-total-ok", "total-0", "total-negative"],
)
def test_completion_list_checks_its_ranks_when_built(ranks: tuple, total: int) -> None:
    args = ("book", REL.AGENT_OF, ("a", "b"), ranks, total)
    try:
        expected = [rank_to_weight(rank, total) for rank in ranks]
    except InputDataError as exc:
        with pytest.raises(InputDataError) as info:
            CompletionList(*args)
        assert str(info.value) == str(exc)
    else:
        assert [w for w, _ in CompletionList(*args).weighted()] == expected


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


@pytest.mark.parametrize("n", [0, -1])
def test_mock_provider_refuses_a_count_below_one(n: int) -> None:
    provider = MockProvider.from_file()
    with pytest.raises(ProviderError) as info:
        provider.complete("Jon has [MASK] the book", n)
    assert str(info.value) == f"completion count must be >= 1, got {n}"


@pytest.mark.parametrize("text", ["[]", '["book"]', '"book"', "null"])
def test_mock_provider_refuses_a_fixture_file_that_is_not_an_object(text: str, tmp_path) -> None:
    path = tmp_path / "fixture.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(InputDataError) as info:
        MockProvider.from_file(str(path))
    assert str(info.value) == "completion fixture must map subjects to dimensions"


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
    """Answers successive complete() calls with the given lists, in order; an
    exception in place of a list is raised.  calls counts the calls."""

    def __init__(self, *replies) -> None:
        self._replies = iter(replies)
        self.calls = 0

    def complete(self, prompt: str, n: int) -> list:
        self.calls += 1
        reply = next(self._replies)
        if isinstance(reply, Exception):
            raise reply
        return list(reply)


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


def test_elicit_surrogate_completion_fails_its_dimension() -> None:
    # UTF-8 cannot encode a surrogate, so no output could hold the token.
    provider = ScriptedProvider(["fun", "read\ud800"], ["long"])
    result = elicit(provider, "game", (REL.HAS_PROP, REL.AGENT_OF), 5)
    assert list(result.record.dims) == [REL.AGENT_OF]
    assert result.failures == {
        REL.HAS_PROP: "provider returned a completion holding a surrogate code point, "
        "which UTF-8 cannot encode",
    }
    with pytest.raises(ElicitationError, match="surrogate code point"):
        elicit(ScriptedProvider(["\udc00"]), "game", (REL.HAS_PROP,), 5)


@pytest.mark.parametrize(
    ("dims", "replies"),
    [
        (["nope"], [["fun"]]),
        (["hasProp"], [["fun"]]),
        (["hasProp", "agentOf"], [ProviderError("down")] * 2),
    ],
    ids=["unknown-name", "relation-name", "all-failing"],
)
def test_elicit_refuses_a_dimension_that_is_not_a_relation(dims: list, replies: list) -> None:
    provider = ScriptedProvider(*replies)
    with pytest.raises(InputDataError, match=f"^dimension {dims[0]!r} is not a primitive relation$"):
        elicit(provider, "game", dims, 5)
    assert provider.calls == 0


@pytest.mark.parametrize(
    "dims",
    [(REL.HAS_PROP, REL.HAS_PROP), [REL.AGENT_OF, REL.HAS_PROP, REL.AGENT_OF]],
    ids=["adjacent", "apart"],
)
def test_elicit_refuses_a_repeated_dimension(dims) -> None:
    # Asked twice, one dimension could be both failed and in the record.
    provider = ScriptedProvider(ProviderError("down"), ["fun"], ["fun"])
    with pytest.raises(InputDataError, match=f"^dimension {dims[-1].value} is named twice$"):
        elicit(provider, "game", dims, 5)
    assert provider.calls == 0


@pytest.mark.parametrize("subject", ["Game", "game#0", 7])
def test_elicit_refuses_a_subject_that_is_not_a_concept_id(subject) -> None:
    provider = ScriptedProvider(["fun"])
    with pytest.raises(InputDataError, match=f"^invalid concept id {subject!r}: expected a lowercase token"):
        elicit(provider, subject, (REL.HAS_PROP,), 5)
    assert provider.calls == 0


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


_TEMPLATES = {**DEFAULT_TEMPLATES, REL.IN_STATE: PromptTemplate(REL.IN_STATE, "The {X} is [MASK].")}
# Repeats, case and space variants of one name, and tokens that are no name.
_TOKENS = st.one_of(
    st.sampled_from([
        "fun", "Fun", " fun ", "FUN", "long book", "Long-Book", "a_b", "x1", "1x", "",
        "  ", "café", "straße", "ﬁne", "fun@agent", "a\nb", "a\n", "read\ud800", "\udfff",
    ]),
    st.text(max_size=4),
)
_REPLIES = st.one_of(
    st.lists(_TOKENS, max_size=8),
    st.lists(st.one_of(_TOKENS, st.sampled_from([None, 7, True, b"fun"])), min_size=1, max_size=4),
    st.builds(ProviderError, st.sampled_from(["down", "HTTP 500"])),
)
# Mostly relations with a template; partOf has none, and the strs are not relations.
_DIMS = st.sampled_from([REL.HAS_PROP, REL.AGENT_OF, REL.OBJECT_OF, REL.IN_STATE] * 4 + [REL.PART_OF, "hasProp", "nope"])


def _outcome(call):
    try:
        return call()
    except (ElicitationError, InputDataError, TemplateError) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_DIMS, _REPLIES), max_size=5), st.integers(0, 6), st.sampled_from(["game", "book#2", "Game"]))
def test_prop_elicit_equals_the_reference(asked: list, n: int, subject: str) -> None:
    """elicit, which builds its values unchecked, returns and raises what the
    checking constructors do."""
    dims = [dim for dim, _ in asked]
    replies = [reply for _, reply in asked]
    got = _outcome(lambda: elicit(ScriptedProvider(*replies), subject, dims, n, _TEMPLATES))
    want = _outcome(lambda: reference_elicit(ScriptedProvider(*replies), subject, dims, n, _TEMPLATES))
    if isinstance(want, tuple):
        assert got == want
        return
    assert (got, repr(got)) == (want, repr(want))
    assert list(got.failures.items()) == list(want.failures.items())
    assert got.warnings == want.warnings
    built, expected = got.assertions, want.assertions
    assert (built, hash(built), repr(built)) == (expected, hash(expected), repr(expected))
    assert built.assertions == expected.assertions
    assert corpus_to_json_text(built) == corpus_to_json_text(expected)


# --- remote provider, against a loopback server ---------------------------------------

PROMPT = "The game was very [MASK]."


def test_remote_provider_success(loopback) -> None:
    loopback.completions("exciting", "boring", "fun")
    provider = RemoteProvider(loopback.url + "/complete")
    assert provider.timeout == 10.0
    assert provider.complete(PROMPT, 2) == ["exciting", "boring"]
    [(method, path, headers, body)] = loopback.received
    assert (method, path) == ("POST", "/complete")
    assert body == b'{"prompt": "The game was very [MASK].", "n": 2}'
    assert headers["Content-Type"] == "application/json"


@pytest.mark.parametrize("encoding", ["utf-8", "utf-16", "utf-32"])
def test_remote_provider_detects_the_reply_encoding(loopback, encoding) -> None:
    loopback.reply(payload=json.dumps({"completions": ["süß"]}).encode(encoding))
    assert RemoteProvider(loopback.url, retries=0).complete(PROMPT, 1) == ["süß"]


def test_remote_provider_sends_bearer_token(loopback, monkeypatch) -> None:
    monkeypatch.setenv("SENSEKIT_PROVIDER_TOKEN", "hunter2")
    loopback.completions("x")
    RemoteProvider(loopback.url, retries=0).complete(PROMPT, 1)
    assert loopback.received[0][2]["Authorization"] == "Bearer hunter2"


def test_remote_provider_sends_no_header_without_a_token(loopback, monkeypatch) -> None:
    monkeypatch.delenv("SENSEKIT_PROVIDER_TOKEN", raising=False)
    loopback.completions("x")
    RemoteProvider(loopback.url, retries=0).complete(PROMPT, 1)
    assert "Authorization" not in loopback.received[0][2]


def _refused_url() -> str:
    with socket.create_server(("127.0.0.1", 0)) as sock:
        port = sock.getsockname()[1]
    return f"http://127.0.0.1:{port}/complete"


def test_remote_provider_error_text_never_holds_the_token(loopback, monkeypatch) -> None:
    monkeypatch.setenv("SENSEKIT_PROVIDER_TOKEN", "hunter2")
    loopback.reply(500, b"hunter2")
    loopback.reply(200, b"hunter2 is not JSON")
    loopback.reply(302, headers={"Location": "http://127.0.0.1:1/hunter2"})
    for url in (loopback.url,) * 3 + (_refused_url(),):
        with pytest.raises(ProviderError) as info:
            RemoteProvider(url, retries=0).complete(PROMPT, 1)
        assert "hunter2" not in str(info.value)
    # http.client would quote a header value it refuses, so such a token is not sent
    monkeypatch.setenv("SENSEKIT_PROVIDER_TOKEN", "hunter2\nX-Injected: 1")
    with pytest.raises(ProviderError, match="control character") as info:
        RemoteProvider(loopback.url, retries=0).complete(PROMPT, 1)
    assert "hunter2" not in str(info.value)
    assert len(loopback.received) == 3


def test_remote_provider_value_error_is_a_request_failure(no_proxies) -> None:
    # encoding the empty label to IDNA raises UnicodeError, a ValueError
    provider = RemoteProvider("http://a..b/", retries=0)
    with pytest.raises(ProviderError, match="request failed: .*label empty"):
        provider.complete(PROMPT, 1)


def test_remote_provider_refused_port_is_a_request_failure(no_proxies) -> None:
    with pytest.raises(ProviderError, match="after 2 attempt.*request failed: .*refused"):
        RemoteProvider(_refused_url(), retries=1).complete(PROMPT, 1)


def test_remote_provider_needs_an_endpoint() -> None:
    with pytest.raises(ProviderError) as info:
        RemoteProvider("")
    assert str(info.value) == "remote provider needs an endpoint URL"


def test_remote_provider_keeps_its_options_as_given() -> None:
    provider = RemoteProvider("http://127.0.0.1:9/", timeout=3, retries=0)
    assert (type(provider.timeout), provider.timeout, provider.retries) == (int, 3, 0)


def test_remote_provider_times_out(loopback) -> None:
    loopback.reply(payload=b'{"completions": ["late"]}', delay=0.5)
    provider = RemoteProvider(loopback.url, timeout=0.1, retries=0)
    with pytest.raises(ProviderError, match="request failed: .*timed out"):
        provider.complete(PROMPT, 1)


def test_remote_provider_retries_then_fails(loopback) -> None:
    provider = RemoteProvider(loopback.url, retries=2)
    with pytest.raises(ProviderError, match=r"after 3 attempt\(s\): provider returned HTTP 500$"):
        provider.complete(PROMPT, 3)
    assert len(loopback.received) == 3


def test_remote_provider_recovers_within_budget(loopback) -> None:
    loopback.reply(500)
    loopback.completions("a", "b", "c", "d")
    provider = RemoteProvider(loopback.url, retries=1)
    assert provider.complete(PROMPT, 3) == ["a", "b", "c"]
    assert len(loopback.received) == 2


def test_remote_provider_rejects_malformed_body(loopback) -> None:
    loopback.reply(payload=b'{"tokens": ["a"]}')
    loopback.reply(payload=b"not json")
    provider = RemoteProvider(loopback.url, retries=1)
    with pytest.raises(ProviderError, match="provider response is not JSON$"):
        provider.complete(PROMPT, 3)
    assert len(loopback.received) == 2


@pytest.mark.parametrize(
    ("payload", "reason"),
    [
        (b"\xff\xfe\xfd", "provider response is not JSON"),
        (b'{"completions": NaN}', "provider response is not JSON"),
        (b"[" * 100_000 + b"]" * 100_000, "provider response is not JSON"),
        (b'{"tokens": ["a"]}', "provider response lacks a 'completions' string list"),
        (b'{"completions": ["a", 7]}', "provider response lacks a 'completions' string list"),
        (b'["a"]', "provider response lacks a 'completions' string list"),
    ],
    ids=["undecodable", "nan", "deeply-nested", "no-completions", "non-string", "list"],
)
def test_remote_provider_bad_reply_is_a_failed_attempt(loopback, payload, reason) -> None:
    loopback.reply(payload=payload)
    with pytest.raises(ProviderError, match=re.escape(reason) + "$"):
        RemoteProvider(loopback.url, retries=0).complete(PROMPT, 1)


@pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
def test_remote_provider_does_not_follow_redirects(loopback, status) -> None:
    loopback.reply(status, headers={"Location": loopback.url + "/elsewhere"})
    loopback.completions("followed")
    with pytest.raises(ProviderError, match=f"provider returned HTTP {status}$"):
        RemoteProvider(loopback.url + "/complete", retries=0).complete(PROMPT, 1)
    assert [path for _, path, _, _ in loopback.received] == ["/complete"]


@pytest.mark.parametrize("scheme", ["file", "data", "ftp"])
def test_remote_provider_opens_only_http_endpoints(tmp_path, no_proxies, scheme) -> None:
    reply = '{"completions": ["opened"]}'
    (tmp_path / "reply.json").write_text(reply, encoding="utf-8")
    with socket.create_server(("127.0.0.1", 0)) as listener:
        endpoint = {
            "file": (tmp_path / "reply.json").as_uri(),
            "data": "data:application/json," + reply,
            "ftp": f"ftp://127.0.0.1:{listener.getsockname()[1]}/reply.json",
        }[scheme]
        provider = RemoteProvider(endpoint, timeout=0.5, retries=0)
        with pytest.raises(ProviderError, match=f"request failed: unsupported URL scheme '{scheme}'"):
            provider.complete(PROMPT, 1)
        listener.setblocking(False)
        with pytest.raises(BlockingIOError):  # nothing connected
            listener.accept()


def test_remote_provider_uses_the_proxy_from_the_environment(loopback, monkeypatch) -> None:
    monkeypatch.setenv("http_proxy", loopback.url)
    loopback.completions("proxied")
    # Refused if the proxy were bypassed: nothing listens on 127.0.0.2:1.
    assert RemoteProvider("http://127.0.0.2:1/complete", retries=0).complete(PROMPT, 1) == ["proxied"]
    assert loopback.received[0][1] == "http://127.0.0.2:1/complete"


def test_remote_provider_failure_feeds_per_dimension_path(loopback) -> None:
    provider = RemoteProvider(loopback.url, retries=1)
    with pytest.raises(ElicitationError, match="hasProp: .*HTTP 500; agentOf: .*HTTP 500$"):
        elicit(provider, "game", (REL.HAS_PROP, REL.AGENT_OF), 5)
    assert len(loopback.received) == 4


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
        {"book": {"hasProp": ["heavy", "read\ud800"]}},
        {"book": {"hasProp": ["\ud83d\ude00"]}},
    ],
    ids=[
        "subject-int", "subject-list", "tokens-int", "tokens-string", "tokens-object",
        "subject-not-a-concept", "token-null", "token-int", "token-bool", "token-list",
        "token-lone-surrogate", "token-surrogate-pair",
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
