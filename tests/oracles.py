"""Independent brute-force reference implementations used as test oracles.

These deliberately avoid the production code paths: normalization hashes
the assertion value objects, extents and sensible properties come from a full
scan of the assertions, the conflict oracle ignores assertion order,
the hierarchy oracles work directly on the (tolerant) inclusion relation
between extents, the hierarchy exports sort each node's name sets and write
JSON with the stdlib encoder, verify's oracle goes through corpus.extent(),
the meaning store is parsed as one tree before its rows are read, the
similarity and join oracles enumerate all
cross-pairs instead of probing a token index, the corpus scanner matches
each line against a unary, then a binary regex, and elicitation builds every
value through its public, checking constructor.  All are slow and obviously
correct.
"""

from __future__ import annotations

import json
import re
from typing import Iterable

from sensekit import jsonio
from sensekit.corpus import (
    AGENT, NONSENSICAL, OBJECT, SENSIBLE, Assertion, AssertionSet, ConceptId, PropertyKey, extent,
)
from sensekit.elicitation import DEFAULT_TEMPLATES, CompletionList, ElicitResult, rank_to_weight, render
from sensekit.errors import (
    CorpusSyntaxError, ElicitationError, InputDataError, MeaningStoreError, ProviderError, TemplateError,
)
from sensekit.hierarchy import TypeDag, TypedFact, VerifyResult
from sensekit.semantics import MeaningRecord, PrimitiveRelation, _record_from_json
from sensekit.similarity import MatchedPair


def reference_normalize(
    assertions: Iterable[Assertion],
) -> tuple[tuple[Assertion, ...], frozenset[ConceptId]]:
    """AssertionSet's (assertions, concepts): dedupe by field-wise hash, sort by fields."""
    ordered = tuple(sorted(
        set(assertions),
        key=lambda a: (a.property.name, a.property.position or "", a.concept.name, a.polarity),
    ))
    return ordered, frozenset(a.concept for a in ordered)


def sensible_properties(aset: AssertionSet) -> list[PropertyKey]:
    """Every property with a sensible assertion, sorted by token, from a full scan."""
    seen = {a.property.token: a.property for a in aset.assertions if a.is_sensible}
    return [seen[t] for t in sorted(seen)]


def full_scan_extent(aset: AssertionSet, prop: PropertyKey) -> frozenset[ConceptId]:
    """Concepts with a sensible assertion for prop, found by reading every assertion."""
    return frozenset(a.concept for a in aset.assertions if a.is_sensible and a.property == prop)


def brute_force_conflicts(aset: AssertionSet):
    """(property, concept) pairs asserted with both polarities, by token then name.

    Unlike corpus.check_consistency, this does not rely on the order in
    which AssertionSet sorts its assertions.
    """
    sensible = {(a.property, a.concept) for a in aset.assertions if a.is_sensible}
    nonsensical = {(a.property, a.concept) for a in aset.assertions if not a.is_sensible}
    return sorted(sensible & nonsensical, key=lambda pc: (pc[0].token, pc[1].name))


def brute_force_hierarchy(aset: AssertionSet):
    """Exact reference construction at tau = 0.

    Returns (nodes, edges, root_extent) where nodes maps each distinct
    extent (frozenset of concept names) to the sorted tuple of its property
    tokens, edges is a set of (parent_extent, child_extent) pairs forming
    the covering relation of strict inclusion, and root_extent is the full
    concept set.
    """
    nodes: dict[frozenset, list[str]] = {}
    for prop in sensible_properties(aset):
        members = frozenset(c.name for c in full_scan_extent(aset, prop))
        if members:
            nodes.setdefault(members, []).append(prop.token)
    node_map = {ext: tuple(sorted(props)) for ext, props in nodes.items()}

    all_concepts = frozenset(c.name for c in aset.concepts)
    if all_concepts not in node_map:
        node_map[all_concepts] = ()

    extents = list(node_map)
    edges = set()
    for parent in extents:
        for child in extents:
            if child == parent or not child < parent:
                continue
            # covering relation: no strictly intermediate extent
            if any(
                mid != parent and mid != child and child < mid < parent
                for mid in extents
            ):
                continue
            edges.add((parent, child))
    return node_map, edges, all_concepts


def brute_force_tolerant_hierarchy(aset: AssertionSet, tau: float):
    """Reference construction at any tau, same return shape as above.

    A is tolerantly included in B when |A \\ B| <= tau*|A|.  Distinct
    extents are merged while any pair includes each other tolerantly: sort
    largest first (then by member list, then by tokens), merge the first such
    pair, and start over.  Edges are the one-way tolerant inclusions, minus
    every edge whose child is also reachable through another candidate
    child of the same parent.  Unless some node's extent is exactly the full
    concept set, a synthetic root goes above every parentless node.
    """

    def within(a: frozenset, b: frozenset) -> bool:
        return len(a - b) <= tau * len(a)

    by_extent: dict[frozenset, list[str]] = {}
    for prop in sensible_properties(aset):
        members = frozenset(c.name for c in full_scan_extent(aset, prop))
        if members:
            by_extent.setdefault(members, []).append(prop.token)
    groups = [(ext, tuple(sorted(props))) for ext, props in by_extent.items()]
    while True:
        groups.sort(key=lambda g: (-len(g[0]), tuple(sorted(g[0])), g[1]))
        pair = next(
            (
                (i, j)
                for i in range(len(groups))
                for j in range(i + 1, len(groups))
                if within(groups[i][0], groups[j][0]) and within(groups[j][0], groups[i][0])
            ),
            None,
        )
        if pair is None:
            break
        i, j = pair
        (a, a_props), (b, b_props) = groups[i], groups.pop(j)
        groups[i] = (a | b, tuple(sorted(set(a_props) | set(b_props))))

    node_map = dict(groups)
    extents = list(node_map)
    candidates = {
        (p, c) for p in extents for c in extents if within(c, p) and not within(p, c)
    }
    reach = set(candidates)
    for mid in extents:
        reach |= {
            (p, c) for p in extents for c in extents if (p, mid) in reach and (mid, c) in reach
        }
    edges = {
        (p, c)
        for p, c in candidates
        if not any((p, mid) in candidates and (mid, c) in reach for mid in extents if mid != c)
    }

    all_concepts = frozenset(c.name for c in aset.concepts)
    if all_concepts not in node_map:
        with_parent = {c for _, c in edges}
        edges |= {(all_concepts, c) for c in extents if c not in with_parent}
        node_map[all_concepts] = ()
    return node_map, edges, all_concepts


def reference_dag_to_json_text(dag: TypeDag) -> str:
    """dag_to_json_text: each node's names sorted from its frozensets, written
    by the stdlib encoder."""
    document = {
        "nodes": [
            {
                "id": n.id,
                "extent": sorted(n.extent),
                "props": list(n.characteristic_properties),
                "members": sorted(n.direct_members),
            }
            for n in dag.nodes
        ],
        "edges": [list(e) for e in dag.edges],
        "root": dag.root,
    }
    return json.dumps(document, indent=2, sort_keys=True, ensure_ascii=False, allow_nan=False) + "\n"


def reference_export_dot(dag: TypeDag, labels: dict[str, str] | None = None) -> str:
    """export_dot, with each node's direct members sorted from its frozenset."""

    def escape(text: str) -> str:
        return text.replace("\\", "\\\\").replace('"', '\\"')

    lines = ["digraph concept_hierarchy {", "  node [shape=box];"]
    for node in dag.nodes:
        caption = []
        if not node.characteristic_properties:
            caption.append("entity")
        else:
            named = [labels[p] for p in node.characteristic_properties if p in (labels or {})]
            caption += [name for name in named[:1] if name]  # an empty label shows nothing
        caption.append(", ".join(node.characteristic_properties) or "(no properties)")
        if node.direct_members:
            caption.append("members: " + ", ".join(sorted(node.direct_members)))
        lines.append(f'  n{node.id} [label="' + "\\n".join(map(escape, caption)) + '"];')
    lines += [f"  n{parent} -> n{child};" for parent, child in dag.edges]
    return "\n".join(lines) + "\n}\n"


def reference_verify(dag: TypeDag, fact: TypedFact, aset: AssertionSet, labels=None) -> VerifyResult:
    """verify() through corpus.extent(): the node's extent minus the names of
    the property's extent, sorted."""
    node = dag.resolve(fact.type_name, labels)
    covered = {c.name for c in extent(aset, fact.property)}
    violations = tuple(sorted(node.extent - covered))
    return VerifyResult(consistent=not violations, violations=violations)


def reference_meanings_from_json_text(text, what: str) -> tuple[MeaningRecord, ...]:
    """meanings_from_json_text() as one parsed tree: jsonio.loads() of the
    whole text, then its rows read in order; the rows are emptied as read."""
    rows = jsonio.loads(text, what=what)
    if not isinstance(rows, list):
        raise MeaningStoreError(f"{what}: expected a JSON array of records")
    # The first str read for each token; the sharing ends with the load.
    share = {}.setdefault
    records = []
    seen: set[str] = set()
    for i, raw in enumerate(rows):
        rows[i] = None  # raw holds the row alone, until the next row replaces it
        record = _record_from_json(raw, f"{what}: record {i}", share)
        if record.sense in seen:
            raise MeaningStoreError(f"{what}: record {i}: duplicate sense {record.sense!r}")
        seen.add(record.sense)
        records.append(record)
    return tuple(records)


def brute_force_dimension_similarity(
    a: MeaningRecord, b: MeaningRecord, dim: PrimitiveRelation
) -> float:
    """Cross-pair enumeration with the same arithmetic and summation order."""
    matches: dict[str, float] = {}
    for left_weight, left_token in a.dimension(dim):
        for right_weight, right_token in b.dimension(dim):
            if left_token == right_token:
                matches[left_token] = 1.0 - abs(left_weight - right_weight)
    if not matches:
        return 0.0
    total = 0.0
    for token in sorted(matches):
        total += matches[token]
    return total / len(matches)


def reference_dimension_join(
    a: MeaningRecord, b: MeaningRecord, dim: PrimitiveRelation
) -> frozenset[MatchedPair]:
    """Every cross pair of entries whose property tokens are equal."""
    return frozenset(
        MatchedPair(left=left, right=right)
        for left in a.dimension(dim)
        for right in b.dimension(dim)
        if left[1] == right[1]
    )


_UNARY_LINE_RE = re.compile(
    r"^([+-])\s+([A-Z][A-Z0-9_-]*(?:@(?:agent|object))?)\s+(\S+)$"
)
_BINARY_LINE_RE = re.compile(
    r"^([+-])\s+([A-Z][A-Z0-9_-]*)\(\s*([^,()\s]+)\s*,\s*([^,()\s]+)\s*\)$"
)
_COMMENT_RE = re.compile(r"(?:^|(?<=\s))#")  # for str patterns, \s is str.isspace

_ECHO_LIMIT = 200  # characters of an input line or token an error message repeats


def _echo(text: str) -> str:
    """repr(text), cut to its first _ECHO_LIMIT characters and marked when longer."""
    if len(text) <= _ECHO_LIMIT:
        return repr(text)
    return f"{text[:_ECHO_LIMIT]!r}... ({len(text)} characters)"


def _interned(memo: dict, make, *fields):
    """make(*fields), built and validated once per memo.  A constructor that raises
    stores nothing, and unhashable fields skip the memo to reach its check."""
    key = (make, *fields)
    try:
        return memo[key]
    except KeyError:
        made = memo[key] = make(*fields)
    except TypeError:
        made = make(*fields)
    return made


def reference_scan_corpus(text: str) -> list[tuple[int, Assertion]]:
    """Parse corpus text into (line number, assertion) pairs, one regex match a line.

    The line-regex scanner that corpus.scan_corpus replaced, kept verbatim
    (with the regexes and helpers above) as its differential oracle.

    Binary lines contribute two entries with the same line number.  Equal
    tokens share one object, and so do repeated facts.  Raises
    CorpusSyntaxError with the offending line number on any malformed line.
    """
    out: list[tuple[int, Assertion]] = []
    memo: dict = {}  # (sign, prop token, concept token) -> Assertion, and _interned's keys
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = (_COMMENT_RE.split(raw, 1)[0] if "#" in raw else raw).strip()
        if not line:
            continue
        m = _UNARY_LINE_RE.match(line) or _BINARY_LINE_RE.match(line)
        if m is None:
            raise CorpusSyntaxError(lineno, f"cannot parse {_echo(line)}: expected '+ PROP concept', "
                                    "'- PROP concept', '+ REL(a, b)', or '- REL(a, b)'")
        facts = (m.groups(),)
        if m.re is _BINARY_LINE_RE:
            sign, name, agent_tok, object_tok = facts[0]
            facts = ((sign, f"{name}@{AGENT}", agent_tok), (sign, f"{name}@{OBJECT}", object_tok))
        for fact in facts:
            a = memo.get(fact)
            if a is None:
                sign, prop_tok, concept_tok = fact
                try:
                    a = memo[fact] = Assertion(
                        _interned(memo, PropertyKey.from_token, prop_tok),
                        _interned(memo, ConceptId, concept_tok),
                        SENSIBLE if sign == "+" else NONSENSICAL,
                    )
                except ValueError as exc:
                    raise CorpusSyntaxError(lineno, str(exc)) from exc
            out.append((lineno, a))
    return out


def reference_elicit(provider, subject, dims, n, templates=None) -> ElicitResult:
    """elicit() with every value built through its public constructor, which
    checks it: CompletionList(...), PropertyKey(...), MeaningRecord(...) and
    an AssertionSet of Assertions.  The dimension check reads every
    dimension, and the surrogate check every character of every token.
    """
    if templates is None:
        templates = DEFAULT_TEMPLATES
    if n < 1:
        raise InputDataError(f"completion count must be >= 1, got {n}")
    if not dims:
        raise InputDataError("at least one dimension is required")
    not_relations = [d for d in dims if not isinstance(d, PrimitiveRelation)]
    if not_relations:
        raise InputDataError(f"dimension {not_relations[0]!r} is not a primitive relation")
    seen: list[PrimitiveRelation] = []
    for dimension in dims:
        if dimension in seen:
            raise InputDataError(f"dimension {dimension.value} is named twice")
        seen.append(dimension)
    missing = [d.value for d in dims if d not in templates]
    if missing:
        raise TemplateError(f"no template for dimension(s): {', '.join(missing)}")
    concept = ConceptId(subject)
    positions = {PrimitiveRelation.AGENT_OF: AGENT, PrimitiveRelation.OBJECT_OF: OBJECT}

    entries = {}
    props: list[PropertyKey] = []
    failures = {}
    warnings: list[str] = []
    for dimension in dims:
        try:
            raw = provider.complete(render(templates[dimension], concept), n)
        except ProviderError as exc:
            failures[dimension] = str(exc)
            continue
        raw = raw[:n]
        if not raw:
            failures[dimension] = "provider returned no completions"
            continue
        if any(type(token) is not str for token in raw):
            failures[dimension] = "provider returned a completion that is not a string"
            continue
        if any("\ud800" <= ch <= "\udfff" for token in raw for ch in token):
            failures[dimension] = (
                "provider returned a completion holding a surrogate code point, "
                "which UTF-8 cannot encode"
            )
            continue
        first_rank: dict[str, int] = {}
        for rank, token in enumerate(raw, start=1):
            first_rank.setdefault(token, rank)
        clist = CompletionList(concept.name, dimension, tuple(first_rank), tuple(first_rank.values()), len(raw))
        entries[dimension] = tuple(
            (rank_to_weight(rank, clist.total), token)
            for rank, token in zip(clist.original_ranks, clist.completions)
        )
        position = positions.get(dimension)
        for token in clist.completions:
            try:
                props.append(PropertyKey(token.strip().upper().replace(" ", "-"), 1 if position is None else 2, position))
            except ValueError:
                warnings.append(
                    f"{dimension.value}: completion {token!r} is not a usable "
                    "property token; no assertion recorded"
                )
    if not entries:
        detail = "; ".join(f"{d.value}: {msg}" for d, msg in failures.items())
        raise ElicitationError(f"all dimensions failed: {detail}")
    assertions = AssertionSet(Assertion(prop, concept, SENSIBLE) for prop in props)
    return ElicitResult(MeaningRecord(concept.name, "", entries), assertions, failures, tuple(warnings))
