"""Masked-completion elicitation of draft meaning records and assertions.

A sentence frame with a [MASK] slot ("The game was very [MASK].") is rendered
for a subject and sent to a completion provider, which returns ranked
plausible fillers.  Rank r of n becomes weight (n - r + 1) / n, completions
are deduplicated keeping their first rank, and every kept token also yields a
sensible assertion so elicited vocabularies can feed hierarchy induction.

Providers are opaque: prompt text and a count go in, an ordered token list
comes out.  The shipped mock provider answers from a fixture file; the remote
provider speaks a single-exchange JSON protocol over HTTP.
"""

from __future__ import annotations

import json
import os
from collections.abc import Mapping, Sequence

from . import jsonio
from .corpus import (
    _PROPERTY_RE, AGENT, OBJECT, AssertionSet, ConceptId, PropertyKey, Value, _key_of, _sensible_of, _setattr,
)
from .errors import ElicitationError, InputDataError, ProviderError, TemplateError, _echo, _retries, _seconds
from .semantics import MeaningRecord, PrimitiveRelation, WeightedProperty, _record_of, resolve_relation

#: The shipped mock fixture, read as a plain file next to this module.
_FIXTURE = os.path.join(os.path.dirname(__file__), "data", "masked_completions.json")


class PromptTemplate(Value):
    """A sentence frame with one {X} subject slot and one [MASK] slot."""

    dimension: PrimitiveRelation
    pattern: str

    def __init__(self, dimension, pattern) -> None:
        if pattern.count("{X}") != 1:
            raise TemplateError(
                f"template for {dimension.value} must contain exactly one "
                f"'{{X}}' slot: {_echo(pattern)}"
            )
        if pattern.count("[MASK]") != 1:
            raise TemplateError(
                f"template for {dimension.value} must contain exactly one "
                f"'[MASK]' token: {_echo(pattern)}"
            )
        _setattr(self, "dimension", dimension)
        _setattr(self, "pattern", pattern)


def render(template: PromptTemplate, subject: str | ConceptId) -> str:
    """Fill the subject slot with the surface form; [MASK] stays verbatim."""
    if isinstance(subject, str):
        subject = ConceptId(subject)
    return template.pattern.replace("{X}", subject.base)


def _templates(*pairs: tuple[PrimitiveRelation, str]) -> dict[PrimitiveRelation, PromptTemplate]:
    return {dim: PromptTemplate(dim, pattern) for dim, pattern in pairs}


#: Generic frames usable for any subject.
DEFAULT_TEMPLATES: dict[PrimitiveRelation, PromptTemplate] = _templates(
    (PrimitiveRelation.OBJECT_OF, "John has [MASK] the {X}."),
    (PrimitiveRelation.AGENT_OF, "The {X} [MASK] everyone."),
    (PrimitiveRelation.HAS_PROP, "The {X} was very [MASK]."),
)

#: The frames the shipped book fixture was collected with; they hard-code
#: their surrounding context, so use them only to reproduce that fixture.
BOOK_FIXTURE_TEMPLATES: dict[PrimitiveRelation, PromptTemplate] = _templates(
    (PrimitiveRelation.AGENT_OF, "The {X} has [MASK] millions of people"),
    (PrimitiveRelation.OBJECT_OF, "Jon has [MASK] the {X}"),
    (PrimitiveRelation.HAS_PROP, "Das Kapital was a very [MASK] {X}"),
)

TEMPLATE_SETS: dict[str, dict[PrimitiveRelation, PromptTemplate]] = {
    "default": DEFAULT_TEMPLATES,
    "book-fixture": BOOK_FIXTURE_TEMPLATES,
}


def rank_to_weight(rank: int, n: int) -> float:
    """Linear rank weighting: rank 1 of n maps to 1.0, rank n to 1/n."""
    if n < 1:
        raise InputDataError(f"completion list length must be >= 1, got {_echo(n)}")
    if not 1 <= rank <= n:
        raise InputDataError(f"rank {_echo(rank)} out of range 1..{_echo(n)}")
    return (n - rank + 1) / n


class CompletionList(Value):
    """Ranked completions for one subject and dimension, deduplicated.

    original_ranks keeps each surviving token's 1-based rank in the raw
    provider output and total is the raw output length, so weights computed
    from original ranks still decrease strictly after deduplication.
    """

    subject: str
    dimension: PrimitiveRelation
    completions: tuple[str, ...]
    original_ranks: tuple[int, ...]
    total: int

    def __init__(self, subject, dimension, completions, original_ranks, total) -> None:
        if not completions:
            raise InputDataError("completion list must not be empty")
        if len(completions) != len(set(completions)):
            raise InputDataError("completion list must be deduplicated")
        if len(original_ranks) != len(completions):
            raise InputDataError("original_ranks must parallel completions")
        for rank in original_ranks:  # checked here, so weighted() need not
            rank_to_weight(rank, total)
        _setattr(self, "subject", subject)
        _setattr(self, "dimension", dimension)
        _setattr(self, "completions", completions)
        _setattr(self, "original_ranks", original_ranks)
        _setattr(self, "total", total)

    @classmethod
    def from_raw(
        cls, subject: str, dimension: PrimitiveRelation, raw: Sequence[str]
    ) -> "CompletionList":
        """raw's distinct tokens, each at the 1-based rank it first holds in raw,
        out of len(raw).  An empty raw is refused as __init__ refuses it; the
        rest of __init__'s checks hold by construction, so it is not called:
        the dict dedupes the tokens and enumerate ranks them in 1..len(raw).
        """
        if not raw:
            raise InputDataError("completion list must not be empty")
        first_rank: dict[str, int] = {}
        for rank, token in enumerate(raw, start=1):
            if token not in first_rank:
                first_rank[token] = rank
        clist = object.__new__(cls)
        _setattr(clist, "subject", subject)
        _setattr(clist, "dimension", dimension)
        _setattr(clist, "completions", tuple(first_rank))
        _setattr(clist, "original_ranks", tuple(first_rank.values()))
        _setattr(clist, "total", len(raw))
        return clist

    def weighted(self) -> tuple[WeightedProperty, ...]:
        """rank_to_weight(rank, total) for each completion, in rank order."""
        total = self.total
        return tuple([
            ((total - rank + 1) / total, token)
            for rank, token in zip(self.original_ranks, self.completions)
        ])


def _has_surrogate(tokens: Sequence[str]) -> bool:
    """Whether the str tokens hold a surrogate code point, the one kind UTF-8
    cannot encode: one join and, for text that is not ASCII, one encode."""
    text = "".join(tokens)
    if text.isascii():
        return False
    try:
        text.encode()
    except UnicodeEncodeError:
        return True
    return False


class MockProvider:
    """Deterministic provider answering from a (subject, dimension) fixture.

    The fixture maps subjects to dimensions to ordered lists of string
    tokens; prompts are matched by pre-rendering every fixture entry through
    each of TEMPLATE_SETS, so the provider still only sees prompt text at
    call time.
    """

    def __init__(self, fixture: Mapping[str, Mapping[str, Sequence[str]]]) -> None:
        prompts: dict[str, tuple[str, ...]] = {}
        for subject in sorted(fixture):
            per_dim = fixture[subject]
            if not isinstance(per_dim, Mapping):
                raise InputDataError(f"completion fixture: {_echo(subject)} must map dimensions to lists")
            for dim_name in sorted(per_dim):
                dimension = resolve_relation(dim_name)
                if not isinstance(per_dim[dim_name], (list, tuple)):
                    raise InputDataError(f"completion fixture: {_echo(subject)} {_echo(dim_name)} is not a list")
                tokens = tuple(per_dim[dim_name])
                if not set(map(type, tokens)) <= {str}:
                    raise InputDataError(
                        f"completion fixture: {_echo(subject)} {_echo(dim_name)} has a non-string token"
                    )
                if _has_surrogate(tokens):
                    raise InputDataError(
                        f"completion fixture: {_echo(subject)} {_echo(dim_name)} has a token "
                        "holding a surrogate code point, which UTF-8 cannot encode"
                    )
                for templates in TEMPLATE_SETS.values():
                    template = templates.get(dimension)
                    if template is None:
                        continue
                    try:
                        prompt = render(template, subject)
                    except ValueError as exc:
                        raise InputDataError(f"completion fixture: {exc}") from exc
                    existing = prompts.get(prompt)
                    if existing is not None and existing != tokens:
                        raise InputDataError(
                            f"fixture renders two different completion lists "
                            f"for prompt {_echo(prompt)}"
                        )
                    prompts[prompt] = tokens
        self._prompts = prompts

    @classmethod
    def from_file(cls, path: str | None = None) -> "MockProvider":
        text = jsonio.read_text(_FIXTURE if path is None else path, "completion fixture")
        data = jsonio.loads(text, what="completion fixture")
        if not isinstance(data, dict):
            raise InputDataError("completion fixture must map subjects to dimensions")
        return cls(data)

    def complete(self, prompt: str, n: int) -> list[str]:
        if n < 1:
            raise ProviderError(f"completion count must be >= 1, got {_echo(n)}")
        tokens = self._prompts.get(prompt)
        if tokens is None:
            raise ProviderError(f"mock provider has no completions for prompt {_echo(prompt)}")
        return list(tokens[:n])


class RemoteProvider:
    """HTTP provider: POST {"prompt", "n"}, receive {"completions": [...]}.

    The bearer token is read from the environment variable named by
    auth_env (never from config files).  A request is retried up to
    `retries` additional times; exhausting the budget raises ProviderError.
    timeout and retries are kept as given, once errors._seconds and
    errors._retries accept them; nothing is converted.
    """

    def __init__(
        self,
        endpoint: str,
        auth_env: str = "SENSEKIT_PROVIDER_TOKEN",
        timeout: float = 10.0,
        retries: int = 2,
    ) -> None:
        if not endpoint:
            raise ProviderError("remote provider needs an endpoint URL")
        self.endpoint = endpoint
        self.auth_env = auth_env
        self.timeout = _seconds("provider timeout", timeout)
        self.retries = _retries("provider retries", retries)

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(self.auth_env, "")
        if token:
            if not token.isprintable():  # the header check would quote it
                raise ProviderError(f"the token in {self.auth_env} holds a control character")
            headers["Authorization"] = f"Bearer {token}"
        return headers

    def _post(self, body: bytes) -> bytes:
        """The body of a 2xx reply to one POST; ProviderError says why not.

        Only http and https endpoints are opened, and a redirect is not
        followed: it would re-send the headers, the token included, to
        whatever host the Location names.
        """
        import http.client
        import urllib.error
        import urllib.request

        class NoRedirect(urllib.request.HTTPRedirectHandler):
            def redirect_request(self, *args):  # a 3xx stays an HTTPError
                return None

        try:
            request = urllib.request.Request(self.endpoint, body, self._headers())
            if request.type not in ("http", "https"):
                raise ValueError(f"unsupported URL scheme {_echo(request.type)}")
            opener = urllib.request.build_opener(NoRedirect)
            with opener.open(request, timeout=self.timeout) as response:
                return response.read()
        except urllib.error.HTTPError as exc:
            exc.close()
            raise ProviderError(f"provider returned HTTP {exc.code}") from None
        # OSError covers URLError and timeouts; idna's UnicodeError and a bad
        # IPv6 literal are ValueErrors; a control character is an InvalidURL.
        except (OSError, ValueError, http.client.HTTPException) as exc:
            raise ProviderError(f"request failed: {exc}") from None

    def complete(self, prompt: str, n: int) -> list[str]:
        body = json.dumps({"prompt": prompt, "n": n}, allow_nan=False).encode()
        last_error = "no attempt made"
        for _ in range(self.retries + 1):
            try:
                reply = jsonio.loads(self._post(body), what="provider response")
            except ProviderError as exc:
                last_error = str(exc)
                continue
            except InputDataError:
                last_error = "provider response is not JSON"
                continue
            completions = reply.get("completions") if isinstance(reply, dict) else None
            if not isinstance(completions, list) or not all(
                isinstance(t, str) for t in completions
            ):
                last_error = "provider response lacks a 'completions' string list"
                continue
            return completions[:n]
        raise ProviderError(
            f"remote provider at {self.endpoint} failed after "
            f"{self.retries + 1} attempt(s): {last_error}"
        )


_DIM_POSITION = {
    PrimitiveRelation.AGENT_OF: AGENT,
    PrimitiveRelation.OBJECT_OF: OBJECT,
}


class ElicitResult(Value):
    record: MeaningRecord
    assertions: AssertionSet
    failures: Mapping[PrimitiveRelation, str]
    warnings: tuple[str, ...]

    def __init__(self, record, assertions, failures=None, warnings=()) -> None:
        failures = {} if failures is None else failures  # a fresh dict per result
        _setattr(self, "record", record)
        _setattr(self, "assertions", assertions)
        _setattr(self, "failures", failures)
        _setattr(self, "warnings", warnings)


def elicit(
    provider,
    subject: str,
    dims: Sequence[PrimitiveRelation],
    n: int,
    templates: Mapping[PrimitiveRelation, PromptTemplate] | None = None,
) -> ElicitResult:
    """Build a draft meaning record and draft assertions for one subject.

    provider is any object whose complete(prompt, n) returns a list of up
    to n ranked completions for the [MASK] in prompt, or raises
    ProviderError.  Each of dims must be a PrimitiveRelation, named once
    (InputDataError otherwise), with a template in templates (TemplateError
    otherwise), and subject must be a concept id (InputDataError otherwise),
    all checked before the provider is asked anything.  Dimensions are processed
    in declaration order; a provider failure on one dimension is recorded in
    failures and does not discard the others.  A dimension also fails when its completions
    are empty or hold a token that is not a str or that UTF-8 cannot encode.
    Only when every dimension fails is ElicitationError raised.

    Each completion is normalized once (stripped, uppercased, spaces made
    hyphens); a property name becomes a sensible assertion of the dimension's
    arity and position, anything else a warning.  The record, the completion
    lists and the property keys are built from these checked values, not
    checked again by their constructors.
    """
    if templates is None:
        templates = DEFAULT_TEMPLATES
    if n < 1:
        raise InputDataError(f"completion count must be >= 1, got {_echo(n)}")
    if not dims:
        raise InputDataError("at least one dimension is required")
    for dimension in dims:
        if not isinstance(dimension, PrimitiveRelation):
            raise InputDataError(f"dimension {_echo(dimension)} is not a primitive relation")
    if len(set(dims)) < len(dims):
        repeated = next(d for i, d in enumerate(dims) if d in dims[:i])
        raise InputDataError(f"dimension {repeated.value} is named twice")
    missing = [d.value for d in dims if d not in templates]
    if missing:
        raise TemplateError(f"no template for dimension(s): {', '.join(missing)}")
    try:
        concept = ConceptId(subject)
    except ValueError as exc:
        raise InputDataError(str(exc)) from None

    entries: dict[PrimitiveRelation, tuple[WeightedProperty, ...]] = {}
    keyed: dict[tuple[str, str], PropertyKey] = {}  # _sensible_of's run keys
    failures: dict[PrimitiveRelation, str] = {}
    warnings: list[str] = []
    fullmatch = _PROPERTY_RE.fullmatch
    for dimension in dims:
        prompt = render(templates[dimension], concept)
        try:
            raw = provider.complete(prompt, n)
        except ProviderError as exc:
            failures[dimension] = str(exc)
            continue
        raw = raw[:n]
        if not raw:
            failures[dimension] = "provider returned no completions"
            continue
        if not set(map(type, raw)) <= {str}:
            failures[dimension] = "provider returned a completion that is not a string"
            continue
        if _has_surrogate(raw):
            failures[dimension] = (
                "provider returned a completion holding a surrogate code point, "
                "which UTF-8 cannot encode"
            )
            continue
        completion_list = CompletionList.from_raw(concept.name, dimension, raw)
        entries[dimension] = completion_list.weighted()
        # A token names a property of the dimension's arity and position.
        position = _DIM_POSITION.get(dimension)
        slot = position or ""
        for token in completion_list.completions:
            name = token.strip().upper().replace(" ", "-")
            if fullmatch(name) is None:
                warnings.append(
                    f"{dimension.value}: completion {_echo(token)} is not a usable "
                    "property token; no assertion recorded"
                )
            elif (name, slot) not in keyed:
                keyed[name, slot] = _key_of(name, position)
    if not entries:
        detail = "; ".join(f"{d.value}: {msg}" for d, msg in failures.items())
        raise ElicitationError(f"all dimensions failed: {detail}")

    record = _record_of(concept.name, entries)
    return ElicitResult(record, _sensible_of(concept, keyed), failures, tuple(warnings))
