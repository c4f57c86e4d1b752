"""Concept-hierarchy induction from property extents.

Every property in a corpus determines an extent: the set of concepts it can
sensibly be said of.  Distinct extents become type nodes, subset inclusion
between extents becomes subsumption, and the transitive reduction of that
order is the induced DAG.  A property that applies to everything forms the
root; when none does, a synthetic "entity" group of the full extent joins the
covering step, and so covers exactly the nodes that no other node covers.

The output is a DAG rather than a tree: two incomparable extents may both
include a third, which then has two parents.  Nodes with more than two
parents are flagged in TypeDag.diagnostics instead of being reshaped.

With tolerance tau > 0, A counts as included in B when |A \\ B| <= tau*|A|;
extents that tolerantly include each other are merged (their union becomes
the node extent).  Each step merges the first such pair in node order, and
steps repeat until no pair is left.  tau = 0 is the exact procedure and the
default.

Induction works on integer bitsets: each concept owns one bit and an extent
is the sum of its members' bits.  A is tolerantly included in B when
(A & B).bit_count() >= |A| - floor(tau*|A|), which is exact and allocates no
complement: |A \\ B| = |A| - |A & B| is an integer, and an integer is <= x
exactly when it is <= floor(x).  An AssertionSet stores each property's run,
so induction reads each property's token once and its sensible concept names
as the node extent; that sorted tuple is also the node's sorted_extent, which
the exports read.  Two groups can include each other only if their sizes lie
within a factor 1 - tau, so each pair inside that size window is tested once
and, after a merge, only the merged group's window again: at most O(G^2)
inclusion tests for G groups, and far fewer when sizes spread.  Reachability
among groups is an int bitset, so a parent candidate that already reaches a
child is skipped.

dag_to_json_text renders the ontology document directly from each node's
sorted names and the sorted edges, byte for byte as jsonio.dumps() writes
dag_to_json(), which stays the document's JSON value.
"""

from __future__ import annotations

import bisect
import math
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from functools import cached_property

from . import jsonio
from .corpus import AssertionSet, PropertyKey, Value, _gc_paused, _setattr, check_consistency
from .corpus import extent  # noqa: F401  kept as hierarchy.extent, a trace point of perfbench/spans.py
from .errors import (
    ConfigError,
    ConsistencyError,
    EmptyCorpusError,
    OntologyError,
    UnknownTypeError,
    _echo,
)

ROOT_LABEL = "entity"


class InduceConfig(Value):
    tau: float

    def __init__(self, tau=0.0) -> None:
        if not 0.0 <= tau <= 1.0:
            raise ConfigError(f"tau must be in [0, 1], got {_echo(tau)}")
        _setattr(self, "tau", tau)


class TypeNode(Value):
    """One induced type: a distinct property extent.

    characteristic_properties are the property tokens whose extent is exactly
    this node's extent (empty only for a synthetic root).  direct_members are
    extent members that belong to no child node.

    sorted_extent and sorted_members are the two name sets as sorted tuples,
    which the exports read.  Each is derived once, on first use, unless
    induce has preset it; neither is a field, so neither takes part in
    equality, hash or repr.
    """

    id: int
    extent: frozenset[str]
    characteristic_properties: tuple[str, ...]
    direct_members: frozenset[str]

    def __init__(self, id, extent, characteristic_properties, direct_members) -> None:
        _setattr(self, "id", id)
        _setattr(self, "extent", extent)
        _setattr(self, "characteristic_properties", characteristic_properties)
        _setattr(self, "direct_members", direct_members)

    @property
    def is_synthetic_root(self) -> bool:
        return not self.characteristic_properties

    @cached_property
    def sorted_extent(self) -> tuple[str, ...]:
        return tuple(sorted(self.extent))

    @cached_property
    def sorted_members(self) -> tuple[str, ...]:
        return tuple(sorted(self.direct_members))


class TypedFact(Value):
    """An applicability claim at the type level: property applies to a whole type."""

    property: PropertyKey
    type_name: str

    def __init__(self, property, type_name) -> None:
        if not isinstance(property, PropertyKey):
            raise TypeError(f"property must be a PropertyKey, not {type(property).__name__}")
        if not isinstance(type_name, str):
            raise TypeError(f"type_name must be a str, not {type(type_name).__name__}")
        _setattr(self, "property", property)
        _setattr(self, "type_name", type_name)


class VerifyResult(Value):
    consistent: bool
    violations: tuple[str, ...]

    def __init__(self, consistent, violations=()) -> None:
        _setattr(self, "consistent", consistent)
        _setattr(self, "violations", violations)


class TypeDag(Value):
    """Type nodes, covering edges (parent id, child id) and the root; nodes[i].id == i.

    The constructor checks the structure (ValueError), sorts the edges, and
    flags every node with more than two parents in diagnostics.  Ids, the
    root and edge ends are of exact class int (not a bool, float or
    IntEnum).  induce, which builds a valid structure, sets the same fields
    without the checks.
    """

    nodes: tuple[TypeNode, ...]
    edges: tuple[tuple[int, int], ...]
    root: int
    diagnostics: tuple[str, ...]  # derived, not an argument

    def __init__(self, nodes, edges, root) -> None:
        n = len(nodes)
        for i, node in enumerate(nodes):
            if node.id.__class__ is not int:
                raise ValueError(f"node {i} has id {_echo(node.id)}, not {i}")
            if node.id != i:
                raise ValueError("TypeDag nodes must be numbered by position: nodes[i].id == i")
            if not node.direct_members <= node.extent:
                raise ValueError(f"node {i}: members not within extent")
        if root.__class__ is not int or not 0 <= root < n:
            raise ValueError(f"root {_echo(root)} is not a node id")
        for i, edge in enumerate(edges):
            parent, child = edge
            if not parent.__class__ is child.__class__ is int:
                raise ValueError(f"edge {i}: ends must be integers, got {_echo(edge)}")
            if not (0 <= parent < n and 0 <= child < n):
                raise ValueError(f"edge {i} references unknown node")
            # Every induced edge, tolerant ones included, strictly shrinks the
            # extent; this also rules out self-loops and cycles.
            if len(nodes[child].extent) >= len(nodes[parent].extent):
                raise ValueError(f"edge {i}: child {child} is not smaller than parent {parent}")
        if len(set(edges)) < len(edges):
            i = next(i for i, edge in enumerate(edges) if edge in edges[:i])
            raise ValueError(f"edge {i} repeats an earlier edge")
        self._set(nodes, edges, root)

    def _set(self, nodes, edges, root) -> None:
        """Set the fields of a checked structure: the edges sorted, diagnostics derived."""
        _setattr(self, "nodes", nodes)
        _setattr(self, "edges", tuple(sorted(edges)))
        _setattr(self, "root", root)
        _setattr(self, "diagnostics", tuple(
            f"node {c} ({', '.join(nodes[c].characteristic_properties) or ROOT_LABEL}) has {k} parents"
            for c, k in sorted(Counter(child for _, child in edges).items()) if k > 2
        ))

    def node_by_id(self, node_id: int) -> TypeNode:
        if not 0 <= node_id < len(self.nodes):
            raise UnknownTypeError(f"no node with id {_echo(node_id)}")
        return self.nodes[node_id]

    def parents(self, node_id: int) -> tuple[int, ...]:
        return tuple(p for p, c in self.edges if c == node_id)

    def resolve(self, type_name: str, labels: Mapping[str, str] | None = None) -> TypeNode:
        """Resolve a type name to exactly one node.

        A name matches a node when it is one of the node's characteristic
        property tokens, the label assigned to one of them by the optional
        label map, or "entity" for a synthetic root.
        """
        matches: list[TypeNode] = []
        for node in self.nodes:
            hit = type_name in node.characteristic_properties
            if not hit and labels:
                hit = any(
                    labels.get(p) == type_name for p in node.characteristic_properties
                )
            if not hit and node.is_synthetic_root and type_name == ROOT_LABEL:
                hit = True
            if hit:
                matches.append(node)
        if not matches:
            raise UnknownTypeError(f"unknown type name {_echo(type_name)}")
        if len(matches) > 1:
            ids = ", ".join(str(n.id) for n in matches)
            raise UnknownTypeError(f"type name {_echo(type_name)} is ambiguous (nodes {ids})")
        return matches[0]


class _Group:
    """Working node during induction: extent bits and names, property tokens.

    names is the sorted tuple of members when induce already holds one (a
    property's run, or every name for the synthetic root), else None.  key
    orders groups largest first, then by sorted member list, then by tokens.
    Concepts take bits in descending name order, so among extents of one
    size the lexicographically smaller member list is the larger integer.
    need is the fewest members the group shares with a group that includes
    it tolerantly: size - floor(tau*size).
    """

    __slots__ = ("bits", "members", "props", "names", "size", "key", "need")

    def __init__(self, bits: int, members: frozenset[str], props: tuple[str, ...], tau: float,
                 names: tuple[str, ...] | None = None) -> None:
        self.bits = bits
        self.members = members
        self.props = props
        self.names = names
        self.size = len(members)
        self.key = (-self.size, -bits, props)
        self.need = self.size - math.floor(tau * self.size)


def _group_key(group: _Group) -> tuple:
    return group.key


def _minus_size(group: _Group) -> int:
    return group.key[0]


def _merge_mutual_inclusions(groups: list[_Group], tau: float) -> list[_Group]:
    """Merge groups that include each other tolerantly until no pair does.

    groups must be sorted by key.  Each step merges the first such pair in
    sort order: the first group with a partner and its earliest partner.  No
    other group changes, so only the merged group's pairs are tested again.
    Partners have close sizes (for |A| >= |B|, |A| - |B| <= |A \\ B|), so the
    first pass stops at the first group too small to pair, and a merged group
    of size s meets only the sizes x with s - tau*s - 1 < x < (s + 1)/(1 - tau)
    (the ones cover the rounding of tau*size), a run widened by one more on
    each side for the rounding of its bounds.
    """

    def mutual(a: _Group, b: _Group) -> bool:
        return (a.bits & b.bits).bit_count() >= max(a.need, b.need)

    partners: dict[_Group, set[_Group]] = {g: set() for g in groups}
    for i, a in enumerate(groups):
        limit = tau * a.size
        for b in groups[i + 1:]:
            if a.size - b.size > limit:
                break  # so is every later group
            if mutual(a, b):
                partners[a].add(b)
                partners[b].add(a)
    while True:
        a = next((g for g in groups if partners[g]), None)
        if a is None:
            return groups
        b = min(partners[a], key=_group_key)
        for g in (partners.pop(a) | partners.pop(b)) - {a, b}:
            partners[g] -= {a, b}
        groups.remove(a)
        groups.remove(b)
        merged = _Group(a.bits | b.bits, a.members | b.members, tuple(sorted(a.props + b.props)), tau)
        s = merged.size
        top = -math.inf if tau == 1 else -(s + 1) / (1 - tau) - 1
        lo = bisect.bisect_left(groups, top, key=_minus_size)
        hi = bisect.bisect_right(groups, tau * s + 2 - s, key=_minus_size)
        partners[merged] = {g for g in groups[lo:hi] if mutual(merged, g)}
        for g in partners[merged]:
            partners[g].add(merged)
        bisect.insort(groups, merged, key=_group_key)


def _covering_edges(groups: Sequence[_Group]) -> list[tuple[int, int]]:
    """Transitive reduction of tolerant inclusion.

    No two groups include each other tolerantly (equal extents are grouped,
    and tau > 0 merges the rest), so every inclusion is one-way, which
    forces the child extent to be strictly smaller than the parent's.  Groups
    are sorted largest first, so every parent precedes its children.  A
    node's covering parents are its candidate parents minus everything that
    reaches one of them.  Candidates are tested nearest first, and one that
    already reaches the child through a nearer parent is not tested.
    """
    edges: list[tuple[int, int]] = []
    reach: list[int] = []  # bit i of reach[j]: group i reaches group j
    all_bits = [g.bits for g in groups]
    for j, child in enumerate(groups):
        above, bits, need = 0, child.bits, child.need
        for i in range(j - 1, -1, -1):
            if not above >> i & 1 and (bits & all_bits[i]).bit_count() >= need:
                edges.append((i, j))
                above |= reach[i] | 1 << i
        reach.append(above)
    return edges


@_gc_paused
def induce(aset: AssertionSet, cfg: InduceConfig | None = None) -> TypeDag:
    """Induce the type DAG implicit in an assertion set.

    Deterministic for identical input: nodes are ordered by extent size
    (largest first), then by lexicographic member list, and ids follow that
    order.  A node whose extent is one property's run, or every concept,
    gets that sorted name tuple as its sorted_extent; a merged node derives
    it on first use.  An aset that is not an AssertionSet, or a cfg that is
    neither None nor an InduceConfig, is a TypeError.
    """
    if not isinstance(aset, AssertionSet):
        raise TypeError(f"aset must be an AssertionSet, not {type(aset).__name__}")
    if cfg is None:
        cfg = InduceConfig()
    elif not isinstance(cfg, InduceConfig):
        raise TypeError(f"cfg must be an InduceConfig or None, not {type(cfg).__name__}")
    if not aset.concepts:
        raise EmptyCorpusError("cannot induce a hierarchy from an empty corpus")
    conflicts = check_consistency(aset)
    if conflicts:
        shown = ", ".join(f"({p.token}, {c.name})" for p, c in conflicts[:5])
        raise ConsistencyError(
            f"corpus is inconsistent ({len(conflicts)} conflicting pair(s)): {shown}"
        )

    names = tuple(sorted(aset._concept_ids))
    bit = {name: 1 << (len(names) - 1 - i) for i, name in enumerate(names)}
    by_extent: dict[int, tuple[tuple[str, ...], list[str]]] = {}  # bits -> (sensible names, tokens)
    for token, run in sorted((prop.token, sensible) for prop, sensible, _ in aset._runs.values()):
        if run:
            by_extent.setdefault(sum(map(bit.__getitem__, run)), (run, []))[1].append(token)
    if not by_extent:
        raise EmptyCorpusError("corpus has no sensible assertions")
    groups = [_Group(b, frozenset(run), tuple(props), cfg.tau, run) for b, (run, props) in by_extent.items()]
    groups.sort(key=_group_key)
    if cfg.tau > 0:
        groups = _merge_mutual_inclusions(groups, cfg.tau)
    # Merged extents are distinct, so one equal to the full concept set is
    # the strictly largest group; otherwise a synthetic root goes first.  It is
    # tested last and reached through any other parent, so it covers the rest.
    if groups[0].size != len(names):
        groups.insert(0, _Group((1 << len(names)) - 1, frozenset(names), (), cfg.tau, names))
    edges = _covering_edges(groups)

    children: list[list[frozenset[str]]] = [[] for _ in groups]
    for u, v in edges:
        children[u].append(groups[v].members)

    nodes = []
    for i, g in enumerate(groups):
        node = TypeNode(i, g.members, g.props, g.members.difference(*children[i]))
        if g.names is not None:
            _setattr(node, "sorted_extent", g.names)
        nodes.append(node)
    dag = object.__new__(TypeDag)
    dag._set(tuple(nodes), edges, 0)
    return dag


def verify(
    dag: TypeDag,
    fact: TypedFact,
    aset: AssertionSet,
    labels: Mapping[str, str] | None = None,
) -> VerifyResult:
    """Check a type-level applicability claim against the corpus.

    Consistent iff every concept in the named node's extent has a sensible
    assertion for the property (closed world); otherwise the violating
    concepts are returned, sorted.  The covered names are read from the
    property's run, as corpus.extent() finds it, without building its
    ConceptIds; an unknown property covers none.  A fact that is not a
    TypedFact, or an aset that is not an AssertionSet, is a TypeError.
    """
    if not isinstance(fact, TypedFact):
        raise TypeError(f"fact must be a TypedFact, not {type(fact).__name__}")
    if not isinstance(aset, AssertionSet):
        raise TypeError(f"aset must be an AssertionSet, not {type(aset).__name__}")
    node = dag.resolve(fact.type_name, labels)
    prop = fact.property
    run = aset._runs.get((prop.name, prop.position or ""))
    violations = tuple(sorted(node.extent.difference(run[1] if run else ())))
    return VerifyResult(consistent=not violations, violations=violations)


# --- exports -----------------------------------------------------------------

def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def node_label(node: TypeNode, labels: Mapping[str, str] | None = None) -> str | None:
    """Human-readable name for a node, if the label map provides one."""
    if node.is_synthetic_root:
        return ROOT_LABEL
    if labels:
        for prop in node.characteristic_properties:
            if prop in labels:
                return labels[prop]
    return None


def export_dot(dag: TypeDag, labels: Mapping[str, str] | None = None) -> str:
    """Render the DAG as a DOT digraph with deterministic ordering."""
    lines = ["digraph concept_hierarchy {", "  node [shape=box];"]
    for node in dag.nodes:
        caption: list[str] = []
        name = node_label(node, labels)
        if name:
            caption.append(name)
        caption.append(", ".join(node.characteristic_properties) or "(no properties)")
        if node.direct_members:
            caption.append("members: " + ", ".join(node.sorted_members))
        text = "\\n".join(map(_dot_escape, caption))  # DOT's line break, unescaped
        lines.append(f'  n{node.id} [label="{text}"];')
    for parent, child in dag.edges:
        lines.append(f"  n{parent} -> n{child};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def dag_to_json(dag: TypeDag) -> dict:
    """The DAG as a JSON value, every list new: names copied from sorted_extent and sorted_members."""
    return {
        "nodes": [
            {
                "id": n.id,
                "extent": list(n.sorted_extent),
                "props": list(n.characteristic_properties),
                "members": list(n.sorted_members),
            }
            for n in dag.nodes
        ],
        "edges": [list(e) for e in dag.edges],
        "root": dag.root,
    }


_DOC = '{\n  "edges": %s,\n  "nodes": %s,\n  "root": %d\n}\n'
_NODE = '{\n      "extent": %s,\n      "id": %d,\n      "members": %s,\n      "props": %s\n    }'
_EDGE = "[\n      %d,\n      %d\n    ]"


def _array(items: Iterable[str], nl: str) -> str:
    """The JSON array of the encoded items, laid out as dumps() lays it out at indent nl."""
    body = ("," + nl + "  ").join(items)
    return f"[{nl}  {body}{nl}]" if body else "[]"


def _names(names: Iterable[str]) -> str:
    return _array(map(jsonio._encode, names), "\n      ")


def dag_to_json_text(dag: TypeDag) -> str:
    """jsonio.dumps(dag_to_json(dag)), rendered without building the dicts.

    A name that is not a str is the string encoder's TypeError.
    """
    nodes = [
        _NODE % (_names(n.sorted_extent), n.id, _names(n.sorted_members), _names(n.characteristic_properties))
        for n in dag.nodes
    ]
    edges = [_EDGE % (p, c) for p, c in dag.edges]
    return _DOC % (_array(edges, "\n  "), _array(nodes, "\n  "), dag.root)


def _strings(raw: dict, key: str) -> list[str]:
    """raw[key], which must be a JSON array of strings."""
    value = raw[key]
    if value.__class__ is not list or not set(map(type, value)) <= {str}:
        raise TypeError(f"{key!r} must be a list of strings")
    return value


def dag_from_json(data: object) -> TypeDag:
    """Read an ontology document; values are checked, never converted.

    This checks the JSON shape; TypeDag checks the structure and the
    integer rule for ids and the root.  Edge ends are checked here too, so
    that the message quotes the edge as it appears in the document.
    """
    if not isinstance(data, dict):
        raise OntologyError("ontology JSON must be an object")
    try:
        raw_nodes = data["nodes"]
        raw_edges = data["edges"]
        root = data["root"]
    except KeyError as exc:
        raise OntologyError(f"ontology JSON is missing nodes/edges/root: {exc}") from exc
    if not isinstance(raw_nodes, list) or not isinstance(raw_edges, list):
        raise OntologyError("ontology JSON: 'nodes' and 'edges' must be lists")
    nodes: list[TypeNode] = []
    for i, raw in enumerate(raw_nodes):
        try:
            node = TypeNode(
                id=raw["id"],
                extent=frozenset(_strings(raw, "extent")),
                characteristic_properties=tuple(_strings(raw, "props")),
                direct_members=frozenset(_strings(raw, "members")),
            )
        except (KeyError, TypeError) as exc:
            raise OntologyError(f"ontology JSON: node {i}: {exc}") from exc
        nodes.append(node)
    edges = []
    for i, raw in enumerate(raw_edges):
        try:
            parent, child = raw
        except (TypeError, ValueError) as exc:
            raise OntologyError(f"ontology JSON: edge {i}: {exc}") from exc
        if not parent.__class__ is child.__class__ is int:
            raise OntologyError(f"ontology JSON: edge {i}: ends must be integers, got {_echo(raw)}")
        edges.append((parent, child))
    try:
        return TypeDag(nodes=tuple(nodes), edges=edges, root=root)
    except ValueError as exc:
        raise OntologyError(f"ontology JSON: {exc}") from exc


@_gc_paused
def dag_from_json_text(text: str) -> TypeDag:
    return dag_from_json(jsonio.loads(text, what="ontology JSON"))
