from __future__ import annotations

import enum
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from sensekit import jsonio
from sensekit.corpus import (
    NONSENSICAL,
    SENSIBLE,
    Assertion,
    AssertionSet,
    ConceptId,
    PropertyKey,
    check_consistency,
    parse_corpus,
)
from sensekit.errors import (
    ConfigError,
    ConsistencyError,
    EmptyCorpusError,
    OntologyError,
    UnknownTypeError,
)
from sensekit.hierarchy import (
    InduceConfig,
    TypeDag,
    TypedFact,
    TypeNode,
    dag_from_json,
    dag_from_json_text,
    dag_to_json,
    dag_to_json_text,
    export_dot,
    induce,
    verify,
)

from conftest import interval_assertion_set, random_assertion_set
from oracles import (
    brute_force_conflicts,
    brute_force_hierarchy,
    brute_force_tolerant_hierarchy,
    reference_dag_to_json_text,
    reference_export_dot,
    reference_verify,
)

# Expected covering relation for the leaf corpus, by characteristic property.
LEAF_EDGES = {
    ("OLD", "HEAVY"),
    ("OLD", "IMMINENT"),
    ("HEAVY", "HUNGRY"),
    ("HEAVY", "MAKE@object"),
    ("HUNGRY", "ARTICULATE"),
    ("MAKE@object", "MANUFACTURE@object"),
    ("MAKE@object", "RIDE@object"),
    ("RIDE@object", "DRIVE@object"),
}


def edges_by_property(dag: TypeDag) -> set[tuple[str, str]]:
    by_id = {n.id: n for n in dag.nodes}
    out = set()
    for parent, child in dag.edges:
        pp = by_id[parent].characteristic_properties
        cp = by_id[child].characteristic_properties
        out.add((pp[0] if pp else "entity", cp[0] if cp else "entity"))
    return out


def node_by_property(dag: TypeDag, token: str):
    return dag.resolve(token)


# --- induce -------------------------------------------------------------------

def test_leaf_corpus_nine_node_dag(leaf_corpus) -> None:
    dag = induce(leaf_corpus)
    assert len(dag.nodes) == 9
    assert edges_by_property(dag) == LEAF_EDGES
    root = dag.node_by_id(dag.root)
    assert root.characteristic_properties == ("OLD",)
    assert len(root.extent) == 8


def test_leaf_corpus_matches_brute_force(leaf_corpus) -> None:
    node_map, edges, root_extent = brute_force_hierarchy(leaf_corpus)
    dag = induce(leaf_corpus)
    got_nodes = {n.extent: n.characteristic_properties for n in dag.nodes}
    assert got_nodes == node_map
    by_id = {n.id: n for n in dag.nodes}
    got_edges = {(by_id[p].extent, by_id[c].extent) for p, c in dag.edges}
    assert got_edges == edges
    assert by_id[dag.root].extent == root_extent


def test_single_property_single_concept(leaf_corpus) -> None:
    dag = induce(parse_corpus("+ OLD trip\n"))
    assert len(dag.nodes) == 1
    assert dag.edges == ()
    assert dag.node_by_id(dag.root).extent == frozenset({"trip"})


def test_branch_split_corpus(branch_corpus) -> None:
    dag = induce(branch_corpus)
    assemble = node_by_property(dag, "ASSEMBLE@object")
    running = node_by_property(dag, "RUNNING@agent")
    assert (assemble.id, running.id) in dag.edges
    assert running.extent < assemble.extent
    assert "couch" not in running.extent
    assert assemble.direct_members == frozenset({"couch"})


def test_equal_extents_merge_into_one_node() -> None:
    aset = parse_corpus("+ HUNGRY dog\n+ HUNGRY person\n+ ALIVE dog\n+ ALIVE person\n")
    dag = induce(aset)
    assert len(dag.nodes) == 1
    assert dag.node_by_id(dag.root).characteristic_properties == ("ALIVE", "HUNGRY")


def test_synthetic_root_added_when_no_property_covers_everything(branch_corpus) -> None:
    dag = induce(branch_corpus)
    root = dag.node_by_id(dag.root)
    # ASSEMBLE@object covers every mentioned concept here, so it is the root
    assert root.characteristic_properties == ("ASSEMBLE@object",)

    aset = parse_corpus("+ HEAVY rock\n+ IMMINENT trip\n")
    dag = induce(aset)
    root = dag.node_by_id(dag.root)
    assert root.is_synthetic_root
    assert root.extent == frozenset({"rock", "trip"})
    assert edges_by_property(dag) == {("entity", "HEAVY"), ("entity", "IMMINENT")}


def test_concept_seen_only_negatively_still_under_root() -> None:
    aset = parse_corpus("+ DELICIOUS apple\n- DELICIOUS thursday\n")
    dag = induce(aset)
    root = dag.node_by_id(dag.root)
    assert root.is_synthetic_root
    assert root.extent == frozenset({"apple", "thursday"})
    assert root.direct_members == frozenset({"thursday"})


def test_multi_parent_nodes_are_kept_and_flagged() -> None:
    aset = parse_corpus(
        "+ A x\n+ A y\n+ A z\n+ A w\n"
        "+ B x\n+ B y\n"
        "+ C y\n+ C z\n"
        "+ D y\n+ D w\n"
        "+ E y\n"
    )
    dag = induce(aset)
    e_node = dag.resolve("E")
    assert len(dag.parents(e_node.id)) == 3
    assert any(f"node {e_node.id}" in d for d in dag.diagnostics)


def test_empty_corpus_rejected() -> None:
    with pytest.raises(EmptyCorpusError):
        induce(AssertionSet(()))


def test_negative_only_corpus_rejected() -> None:
    with pytest.raises(EmptyCorpusError):
        induce(parse_corpus("- OLD sugar\n"))


def test_inconsistent_corpus_rejected() -> None:
    with pytest.raises(ConsistencyError):
        induce(parse_corpus("+ OLD trip\n- OLD trip\n"))


def conflict_message(aset: AssertionSet) -> str:
    conflicts = check_consistency(aset)
    shown = ", ".join(f"({p.token}, {c.name})" for p, c in conflicts[:5])
    return f"corpus is inconsistent ({len(conflicts)} conflicting pair(s)): {shown}"


def test_conflicts_reported_in_token_order() -> None:
    # A-B precedes A@agent as a token but follows it by (name, position).
    aset = parse_corpus("+ A-B x\n- A-B x\n+ A@agent x\n- A@agent x\n+ A@object y\n")
    with pytest.raises(ConsistencyError) as info:
        induce(aset)
    assert str(info.value) == (
        "corpus is inconsistent (2 conflicting pair(s)): (A-B, x), (A@agent, x)"
    )


def test_conflict_message_matches_check_consistency() -> None:
    rng = random.Random(31)
    extra_props = [PropertyKey("A-B"), PropertyKey.from_token("A@agent"), PropertyKey("A")]
    for _ in range(200):
        aset = random_assertion_set(rng, max_properties=10)
        flipped = [
            Assertion(a.property, a.concept, NONSENSICAL if a.is_sensible else SENSIBLE)
            for a in rng.sample(aset.assertions, min(len(aset.assertions), rng.randint(1, 9)))
        ]
        concept = ConceptId(f"c{rng.randint(0, 9)}")
        for prop in rng.sample(extra_props, rng.randint(0, 3)):
            flipped += [Assertion(prop, concept, SENSIBLE), Assertion(prop, concept, NONSENSICAL)]
        conflicting = AssertionSet(aset.assertions + tuple(flipped))
        assert check_consistency(conflicting) == brute_force_conflicts(conflicting)
        with pytest.raises(ConsistencyError) as info:
            induce(conflicting, InduceConfig(tau=rng.choice([0.0, 0.25])))
        assert str(info.value) == conflict_message(conflicting)


@pytest.mark.parametrize("tau", [-0.1, 1.5, float("nan")])
def test_tau_out_of_range_rejected(tau: float) -> None:
    # Checked once, when the config is built, not on each induce call.
    with pytest.raises(ConfigError, match=r"tau must be in \[0, 1\]"):
        InduceConfig(tau=tau)


def test_tolerant_inclusion_absorbs_noise() -> None:
    # BIRD has one straggler (penguin) outside FLIER; tau = 0.25 tolerates it
    # without being loose enough to merge the two extents.
    aset = parse_corpus(
        "+ FLIER sparrow\n+ FLIER eagle\n+ FLIER bat\n+ FLIER drone\n"
        "+ FLIER kite\n+ FLIER plane\n"
        "+ BIRD sparrow\n+ BIRD eagle\n+ BIRD kite\n+ BIRD penguin\n"
    )
    exact = induce(aset)
    assert ("FLIER", "BIRD") not in edges_by_property(exact)
    tolerant = induce(aset, InduceConfig(tau=0.25))
    assert ("FLIER", "BIRD") in edges_by_property(tolerant)
    assert len(tolerant.nodes) == 3  # synthetic root + FLIER + BIRD


def test_tolerant_mutual_inclusion_merges() -> None:
    aset = parse_corpus(
        "+ P a\n+ P b\n+ P c\n+ P d\n"
        "+ Q a\n+ Q b\n+ Q c\n+ Q e\n"
    )
    dag = induce(aset, InduceConfig(tau=0.25))
    merged = [n for n in dag.nodes if set(n.characteristic_properties) == {"P", "Q"}]
    assert len(merged) == 1
    assert merged[0].extent == frozenset({"a", "b", "c", "d", "e"})


def assert_matches_tolerant_oracle(aset: AssertionSet, tau: float) -> TypeDag:
    node_map, edges, root_extent = brute_force_tolerant_hierarchy(aset, tau)
    dag = induce(aset, InduceConfig(tau=tau))
    assert {n.extent: n.characteristic_properties for n in dag.nodes} == node_map
    by_id = {n.id: n for n in dag.nodes}
    assert {(by_id[p].extent, by_id[c].extent) for p, c in dag.edges} == edges
    assert by_id[dag.root].extent == root_extent
    return dag


def test_merge_cascades_to_new_partner() -> None:
    # P and Q include each other at tau = 0.25; R includes neither, but R and
    # the union of P and Q include each other, so a second merge follows.
    aset = parse_corpus(
        "".join(f"+ P c{i}\n" for i in (1, 2, 3, 4))
        + "".join(f"+ Q c{i}\n" for i in (1, 2, 3, 5))
        + "".join(f"+ R c{i}\n" for i in (1, 2, 4, 5, 6))
        + "+ S c7\n"
    )
    dag = assert_matches_tolerant_oracle(aset, 0.25)
    assert [n.characteristic_properties for n in dag.nodes] == [(), ("P", "Q", "R"), ("S",)]
    assert dag.nodes[1].extent == frozenset(f"c{i}" for i in range(1, 7))


def test_first_pair_in_sort_order_merges_first() -> None:
    # At tau = 0.25 R pairs with P and P with Q, but R and Q do not.  P sorts
    # first (member list c1-c4), and its earliest partner is R (c1-c3, c5), so
    # P and R merge; their union no longer pairs with Q.  Merging P with Q
    # first would have left R alone instead.
    aset = parse_corpus(
        "".join(f"+ P c{i}\n" for i in (1, 2, 3, 4))
        + "".join(f"+ R c{i}\n" for i in (1, 2, 3, 5))
        + "".join(f"+ Q c{i}\n" for i in (1, 2, 4, 6))
    )
    dag = assert_matches_tolerant_oracle(aset, 0.25)
    assert sorted(n.characteristic_properties for n in dag.nodes) == [(), ("P", "R"), ("Q",)]


def test_synthetic_root_above_tolerantly_full_node() -> None:
    # P covers 9 of 10 concepts, so at tau = 0.2 it tolerantly equals the full
    # set; only an extent exactly equal to it makes a property node the root.
    names = [f"c{i}" for i in range(10)]
    aset = parse_corpus("".join(f"+ P {n}\n" for n in names[:9]) + f"+ Q {names[9]}\n")
    dag = induce(aset, InduceConfig(tau=0.2))
    assert [(n.characteristic_properties, len(n.extent)) for n in dag.nodes] == [
        ((), 10),
        (("P",), 9),
        (("Q",), 1),
    ]
    assert dag.edges == ((0, 1), (0, 2))
    assert dag.root == 0


@pytest.mark.parametrize("b_size, merged", [(9, True), (8, False)])
def test_size_window_edge(b_size: int, merged: bool) -> None:
    # B is inside A, so the pair merges iff |A| - |B| <= tau*|A|.  At tau = 0.1
    # and |A| = 10 that holds with equality for |B| = 9 and fails for 8.
    names = [f"c{i}" for i in range(10)]
    aset = parse_corpus(
        "".join(f"+ A {n}\n" for n in names) + "".join(f"+ B {n}\n" for n in names[:b_size])
    )
    dag = assert_matches_tolerant_oracle(aset, 0.1)
    props = [n.characteristic_properties for n in dag.nodes]
    assert props == ([("A", "B")] if merged else [("A",), ("B",)])


def _corpus(extents: dict[str, range]) -> AssertionSet:
    return parse_corpus("".join(f"+ {p} c{i}\n" for p, r in extents.items() for i in r))


@pytest.mark.parametrize(
    "extents, expected",
    [
        # P and Q (size 5) merge into c0-c5 (size 6) at tau = 0.25.  An R of
        # size 8 around it sits on the larger edge of the merged group's
        # window (8 - 6 == 0.25 * 8), though it is too large to pair with P
        # or Q alone; an R of size 9 falls outside.
        ({"P": range(5), "Q": range(1, 6), "R": range(8), "S": range(9, 10)},
         [(), ("P", "Q", "R"), ("S",)]),
        ({"P": range(5), "Q": range(1, 6), "R": range(9), "S": range(9, 10)},
         [(), ("R",), ("P", "Q"), ("S",)]),
        # P and Q (size 7) merge into c0-c7 (size 8).  An R of size 6 inside
        # it sits on the smaller edge of that window (8 - 6 == 0.25 * 8); an
        # R of size 5 falls outside.
        ({"P": range(7), "Q": range(1, 8), "R": range(2, 8)}, [("P", "Q", "R")]),
        ({"P": range(7), "Q": range(1, 8), "R": range(3, 8)}, [("P", "Q"), ("R",)]),
    ],
)
def test_merged_group_window_edge(extents: dict[str, range], expected: list) -> None:
    dag = assert_matches_tolerant_oracle(_corpus(extents), 0.25)
    assert [n.characteristic_properties for n in dag.nodes] == expected


# --- invariants over random corpora -----------------------------------------------

def test_oracle_equivalence_on_random_corpora() -> None:
    rng = random.Random(2024)
    checked = 0
    while checked < 120:
        aset = random_assertion_set(rng, allow_negative=False)
        if not aset.assertions:
            continue
        checked += 1
        node_map, edges, root_extent = brute_force_hierarchy(aset)
        dag = induce(aset)
        assert {n.extent: n.characteristic_properties for n in dag.nodes} == node_map
        by_id = {n.id: n for n in dag.nodes}
        assert {(by_id[p].extent, by_id[c].extent) for p, c in dag.edges} == edges
        assert by_id[dag.root].extent == root_extent


@pytest.mark.parametrize("tau", [0.1, 0.2, 0.25, 0.5, 1.0])
def test_tolerant_oracle_equivalence_on_random_corpora(tau: float) -> None:
    rng = random.Random(int(tau * 100))
    checked = 0
    while checked < 60:
        aset = random_assertion_set(rng, allow_negative=rng.random() < 0.5)
        if not any(a.is_sensible for a in aset.assertions):
            continue
        checked += 1
        node_map, edges, root_extent = brute_force_tolerant_hierarchy(aset, tau)
        dag = induce(aset, InduceConfig(tau=tau))
        assert {n.extent: n.characteristic_properties for n in dag.nodes} == node_map
        by_id = {n.id: n for n in dag.nodes}
        assert {(by_id[p].extent, by_id[c].extent) for p, c in dag.edges} == edges
        assert by_id[dag.root].extent == root_extent


# tau * size lands on an integer (0.1 * 10, 0.3 * 20, 1/3 * 3, 0.7 * 30) or
# just below one ((0.3 - 2**-54) * 30 is 8.999999999999998), where a test
# that rounds differently from |A \ B| <= tau * |A| would flip: the float
# form |A & B| >= |A| - tau * |A| fails the last case.
@pytest.mark.parametrize("tau", [0.1, 0.2, 0.3, 1 / 3, 0.7, 0.3 - 2**-54])
def test_tolerant_oracle_equivalence_where_tau_times_size_is_near_an_integer(tau: float) -> None:
    rng = random.Random(int(tau * 10**6))
    for _ in range(40):
        aset = random_assertion_set(rng, max_properties=14, max_concepts=21)
        if any(a.is_sensible for a in aset.assertions):
            assert_matches_tolerant_oracle(aset, tau)
    for _ in range(20):
        assert_matches_tolerant_oracle(interval_assertion_set(rng, 30, 8, 6, max_drop=4), tau)


@pytest.mark.parametrize("tau", [0.1, 0.25, 0.5])
def test_tolerant_oracle_equivalence_with_many_groups(tau: float) -> None:
    # Up to 30 properties over 24 concepts.  At tau 0.25 and 0.5 a corpus
    # sees up to 11 and 24 merges, so partner sets are updated many times.
    rng = random.Random(int(tau * 1000))
    for _ in range(40):
        aset = random_assertion_set(rng, max_properties=30, max_concepts=24)
        if any(a.is_sensible for a in aset.assertions):
            assert_matches_tolerant_oracle(aset, tau)


@pytest.mark.parametrize("tau", [0.05, 0.1, 0.2])
def test_tolerant_oracle_equivalence_on_interval_corpora(tau: float) -> None:
    # Nested intervals with near-duplicates, the shape of the benchmark's
    # hierarchy_wide corpus: many extents lie within a few percent of each
    # other's size, so pairs on both sides of the size window are common.
    rng = random.Random(int(tau * 1000) + 7)
    with_merges = 0
    for _ in range(40):
        aset = interval_assertion_set(rng, rng.randint(20, 60), rng.randint(4, 14), 6)
        dag = assert_matches_tolerant_oracle(aset, tau)
        with_merges += len(dag.nodes) < len(induce(aset).nodes)
    assert with_merges >= 20


def test_antisymmetry_and_edge_soundness_at_tau_zero() -> None:
    rng = random.Random(99)
    for _ in range(60):
        aset = random_assertion_set(rng, allow_negative=False)
        if not aset.assertions:
            continue
        dag = induce(aset)
        extents = [n.extent for n in dag.nodes]
        assert len(extents) == len(set(extents))
        by_id = {n.id: n for n in dag.nodes}
        for parent, child in dag.edges:
            assert by_id[child].extent < by_id[parent].extent


def test_monotone_refinement_changes_labels_not_edges() -> None:
    rng = random.Random(5)
    for _ in range(20):
        aset = random_assertion_set(rng, allow_negative=False)
        if not aset.assertions:
            continue
        dag = induce(aset)
        target = max(dag.nodes, key=lambda n: (len(n.extent), n.id))
        if not target.characteristic_properties:
            continue
        extra = tuple(
            parse_corpus(f"+ ZNEW {name}\n").assertions[0]
            for name in sorted(target.extent)
        )
        refined = induce(AssertionSet(aset.assertions + extra))
        assert refined.edges == dag.edges
        assert [n.extent for n in refined.nodes] == [n.extent for n in dag.nodes]
        refined_target = next(n for n in refined.nodes if n.extent == target.extent)
        assert "ZNEW" in refined_target.characteristic_properties


# --- verify --------------------------------------------------------------------

def test_verify_property_against_own_node(leaf_corpus) -> None:
    dag = induce(leaf_corpus)
    result = verify(dag, TypedFact(PropertyKey("HEAVY"), "HEAVY"), leaf_corpus)
    assert result.consistent
    assert result.violations == ()


def test_verify_reports_violating_concepts(leaf_corpus) -> None:
    dag = induce(leaf_corpus)
    result = verify(dag, TypedFact(PropertyKey("ARTICULATE"), "HUNGRY"), leaf_corpus)
    assert not result.consistent
    assert result.violations == ("dog",)


def test_verify_universal_property_at_root(leaf_corpus) -> None:
    dag = induce(leaf_corpus)
    result = verify(dag, TypedFact(PropertyKey("OLD"), "OLD"), leaf_corpus)
    assert result.consistent


def test_verify_resolves_via_label_map(leaf_corpus) -> None:
    dag = induce(leaf_corpus)
    labels = {"HUNGRY": "living"}
    result = verify(
        dag, TypedFact(PropertyKey("HUNGRY"), "living"), leaf_corpus, labels=labels
    )
    assert result.consistent


def test_verify_unknown_type_name(leaf_corpus) -> None:
    dag = induce(leaf_corpus)
    with pytest.raises(UnknownTypeError):
        verify(dag, TypedFact(PropertyKey("OLD"), "no-such-type"), leaf_corpus)


def test_verify_refuses_a_fact_that_is_not_a_typed_fact(leaf_corpus) -> None:
    dag = induce(leaf_corpus)
    with pytest.raises(TypeError, match="^fact must be a TypedFact, not str$"):
        verify(dag, "X", leaf_corpus)


def test_induce_refuses_a_config_that_is_not_an_induce_config(leaf_corpus) -> None:
    with pytest.raises(TypeError, match="^cfg must be an InduceConfig or None, not float$"):
        induce(leaf_corpus, 0.1)


def test_induce_refuses_an_aset_that_is_not_an_assertion_set(leaf_corpus) -> None:
    with pytest.raises(TypeError, match="^aset must be an AssertionSet, not tuple$"):
        induce(leaf_corpus.assertions)


def test_verify_refuses_an_aset_that_is_not_an_assertion_set(leaf_corpus) -> None:
    dag = induce(leaf_corpus)
    with pytest.raises(TypeError, match="^aset must be an AssertionSet, not tuple$"):
        verify(dag, TypedFact(PropertyKey("OLD"), "OLD"), leaf_corpus.assertions)


@pytest.mark.parametrize(
    ("args", "message"),
    [
        (("OLD", "OLD"), "property must be a PropertyKey, not str"),
        ((PropertyKey("OLD"), 5), "type_name must be a str, not int"),
    ],
    ids=["property", "type_name"],
)
def test_typed_fact_refuses_a_field_of_the_wrong_type(args, message) -> None:
    with pytest.raises(TypeError, match=f"^{message}$"):
        TypedFact(*args)


# --- exports -------------------------------------------------------------------

def test_dot_two_node_chain() -> None:
    dag = induce(parse_corpus("+ OLD cat\n+ OLD dog\n+ HUNGRY dog\n"))
    dot = export_dot(dag)
    assert dot.startswith("digraph concept_hierarchy {")
    assert dot.count("->") == 1
    assert "n0 -> n1;" in dot


def test_dot_leaf_corpus_lists_nine_nodes(leaf_corpus) -> None:
    dag = induce(leaf_corpus)
    dot = export_dot(dag)
    assert dot.count("[label=") == 9
    assert dot.count("->") == 8


def test_dot_without_labels_uses_property_captions(leaf_corpus) -> None:
    dag = induce(leaf_corpus)
    dot = export_dot(dag, labels=None)
    assert "OLD" in dot
    assert "physical" not in dot


def test_dot_with_label_map(leaf_corpus) -> None:
    dag = induce(leaf_corpus)
    dot = export_dot(dag, labels={"HEAVY": "physical"})
    assert "physical" in dot


def test_dot_caption_lines_break_and_label_text_stays_escaped() -> None:
    dag = induce(parse_corpus("+ OLD trip\n+ OLD book\n+ RED book\n"))
    dot = export_dot(dag, labels={"RED": 'say "hi" \\ there'})
    # One backslash before n: DOT's line break, not an escaped backslash.
    assert '  n0 [label="OLD\\nmembers: trip"];\n' in dot
    assert '  n1 [label="say \\"hi\\" \\\\ there\\nRED\\nmembers: book"];\n' in dot


def test_dot_deterministic(leaf_corpus) -> None:
    dag1 = induce(leaf_corpus)
    dag2 = induce(leaf_corpus)
    assert export_dot(dag1) == export_dot(dag2)
    assert dag_to_json_text(dag1) == dag_to_json_text(dag2)


def test_ontology_json_round_trip(leaf_corpus) -> None:
    for tau in (0.0, 0.25):
        dag = induce(leaf_corpus, InduceConfig(tau=tau))
        once = dag_to_json_text(dag)
        loaded = dag_from_json_text(once)
        assert dag_to_json_text(loaded) == once
        assert loaded.diagnostics == dag.diagnostics


def test_ontology_json_shape(branch_corpus) -> None:
    dag = induce(branch_corpus)
    data = dag_to_json(dag)
    assert set(data) == {"nodes", "edges", "root"}
    assert data["root"] == dag.root
    assert all(set(n) == {"id", "extent", "props", "members"} for n in data["nodes"])


def _renumber_last_node(data: dict) -> None:
    """Move the last node from id n - 1 to id n, edges included: a gap in the ids."""
    last = len(data["nodes"]) - 1
    data["nodes"][last]["id"] = last + 1
    data["edges"] = [[last + 1 if x == last else x for x in e] for e in data["edges"]]


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("root"),
        lambda d: d["edges"].append([0, 99]),
        lambda d: d["nodes"].append({"id": 0, "extent": [], "props": [], "members": []}),
        lambda d: d["nodes"][0]["members"].append("ghost"),
        lambda d: d["edges"].append([1, 0]),
        lambda d: d["edges"].append([1, 1]),
        _renumber_last_node,
        lambda d: d["nodes"].reverse(),
        lambda d: d["nodes"][0].__setitem__("id", -1),
        lambda d: d.__setitem__("root", -1),
        lambda d: d.__setitem__("root", len(d["nodes"])),
        lambda d: d["edges"].append([0, -1]),
        lambda d: d["edges"].append([0, len(d["nodes"])]),
        lambda d: d.__setitem__("nodes", 5),
        lambda d: d.__setitem__("edges", {"0": 1}),
        lambda d: d["edges"].append({"x": 1}),
        # An edge is exactly a [parent, child] pair.
        lambda d: d["edges"].append([0, 1, 99]),
        lambda d: d["edges"].append([0]),
        # Values are not converted: ids, the root and edge ends are JSON
        # integers, and extent, props and members lists of strings.
        lambda d: d["nodes"][0].__setitem__("extent", "dog"),
        lambda d: d["nodes"][0].__setitem__("extent", [*d["nodes"][0]["extent"], 7]),
        lambda d: d["nodes"][0].__setitem__("props", [None]),
        lambda d: d["nodes"][0].__setitem__("members", {}),
        lambda d: d.__setitem__("root", float(d["root"])),
        lambda d: d.__setitem__("root", d["root"] + 0.7),
        lambda d: d.__setitem__("root", str(d["root"])),
        lambda d: d.__setitem__("root", bool(d["root"])),
        lambda d: d["nodes"][0].__setitem__("id", "0"),
        lambda d: d["nodes"][1].__setitem__("id", True),
        lambda d: d["edges"].__setitem__(0, [float(d["edges"][0][0]), d["edges"][0][1]]),
        lambda d: d["edges"].__setitem__(0, [d["edges"][0][0] + 0.2, True]),
        lambda d: d["edges"].__setitem__(0, [str(x) for x in d["edges"][0]]),
        # Each edge appears once.
        lambda d: d["edges"].append(list(d["edges"][0])),
    ],
)
def test_ontology_json_validation(mutate, leaf_corpus) -> None:
    data = dag_to_json(induce(leaf_corpus))
    mutate(data)
    import json

    with pytest.raises(OntologyError):
        dag_from_json_text(json.dumps(data))


def test_node_by_id_is_the_list_position(leaf_corpus) -> None:
    dag = dag_from_json_text(dag_to_json_text(induce(leaf_corpus)))
    assert [dag.node_by_id(i) for i in range(len(dag.nodes))] == list(dag.nodes)
    for node_id in (-1, len(dag.nodes)):
        with pytest.raises(UnknownTypeError):
            dag.node_by_id(node_id)


def test_hand_built_dag_must_number_nodes_by_position(leaf_corpus) -> None:
    dag = induce(leaf_corpus)
    shuffled = (dag.nodes[-1], *dag.nodes[:-1])
    with pytest.raises(ValueError, match="numbered by position"):
        TypeDag(nodes=shuffled, edges=dag.edges, root=dag.root)


def _three_parent_dag_parts() -> tuple[tuple[TypeNode, ...], list[tuple[int, int]]]:
    """T over A, B and C, which all include D: node 4 has three parents."""
    extents = [{"a", "b", "c", "d"}, {"a", "b"}, {"a", "c"}, {"a", "d"}, {"a"}]
    members = [set(), {"b"}, {"c"}, {"d"}, {"a"}]
    nodes = tuple(
        TypeNode(i, frozenset(e), (p,), frozenset(m))
        for i, (e, p, m) in enumerate(zip(extents, "TABCD", members))
    )
    return nodes, [(3, 4), (0, 1), (0, 2), (0, 3), (1, 4), (2, 4)]


def test_hand_built_dag_sorts_edges_and_derives_diagnostics() -> None:
    nodes, edges = _three_parent_dag_parts()
    dag = TypeDag(nodes=nodes, edges=tuple(edges), root=0)
    assert dag.edges == tuple(sorted(edges))
    assert dag.diagnostics == ("node 4 (D) has 3 parents",)
    assert dag_from_json_text(dag_to_json_text(dag)) == dag


@pytest.mark.parametrize("tau", [0.0, 0.1, 0.5])
def test_induced_dag_equals_the_checked_rebuild(tau: float) -> None:
    """induce sets the fields without the constructor's checks; the checked
    constructor accepts its structure and derives the same fields."""
    # D lies in A, B and C, no two of which merge even at tau = 0.5.
    three_parents = parse_corpus("".join(
        f"+ {p} {c}\n" for p, names in {"A": "abcd", "B": "aefg", "C": "ahij", "D": "a"}.items() for c in names
    ))
    rng = random.Random(int(tau * 100) + 31)
    asets = [random_assertion_set(rng, max_properties=16, max_concepts=12) for _ in range(40)]
    for aset in [three_parents, *asets]:
        if not any(a.is_sensible for a in aset.assertions):
            continue
        dag = induce(aset, InduceConfig(tau=tau))
        rebuilt = TypeDag(nodes=dag.nodes, edges=list(reversed(dag.edges)), root=dag.root)
        assert rebuilt == dag
        assert (rebuilt.edges, rebuilt.diagnostics) == (dag.edges, dag.diagnostics)
    assert induce(three_parents, InduceConfig(tau=tau)).diagnostics == ("node 4 (D) has 3 parents",)


class _Id(enum.IntEnum):
    ZERO = 0
    ONE = 1


class _Name(str):
    pass


def _retyped(chain: TypeDag, ids=(0, 1), root=0, edges=None, props=None) -> TypeDag:
    """The two-node chain rebuilt with the given ids, root, edges and node 1 props."""
    a, b = chain.nodes
    return TypeDag(
        nodes=(TypeNode(ids[0], a.extent, a.characteristic_properties, a.direct_members),
               TypeNode(ids[1], b.extent, props or b.characteristic_properties, b.direct_members)),
        edges=chain.edges if edges is None else edges, root=root,
    )


@pytest.mark.parametrize(
    "kw, shown",
    [
        ({"ids": (0, True)}, ValueError("node 1 has id True, not 1")),
        ({"ids": (0.0, 1)}, ValueError("node 0 has id 0.0, not 0")),
        ({"ids": (_Id.ZERO, _Id.ONE)}, ValueError("node 0 has id <_Id.ZERO: 0>, not 0")),
        ({"root": 0.0}, ValueError("root 0.0 is not a node id")),
        ({"root": _Id.ZERO}, ValueError("root <_Id.ZERO: 0> is not a node id")),
        ({"edges": [(0, True)]}, ValueError("edge 0: ends must be integers, got (0, True)")),
        ({"edges": [(_Id.ZERO, 1)]}, ValueError("edge 0: ends must be integers, got (<_Id.ZERO: 0>, 1)")),
        ({"props": (_Name("Q"),)}, '"Q"'),
        ({"props": (_Name("Q"), 7)}, TypeError("first argument must be a string, not int")),
    ],
    ids=["id-true", "id-float", "id-intenum", "root-float", "root-intenum", "edge-true",
         "edge-intenum", "props-str-subclass", "props-int"],
)
def test_hand_built_ontology_text_equals_dumps(kw: dict, shown) -> None:
    """Ids, root and edge ends that equal ints without being exact ints are
    refused by the constructor; a str subclass is written as dumps() writes
    it, and a name of another type is the string encoder's TypeError."""
    chain = induce(parse_corpus("+ P a\n+ P b\n+ Q a\n"))
    if isinstance(shown, Exception):
        with pytest.raises(type(shown)) as caught:
            dag_to_json_text(_retyped(chain, **kw))
        assert str(caught.value) == str(shown)
        return
    dag = _retyped(chain, **kw)
    text = dag_to_json_text(dag)
    assert text == jsonio.dumps(dag_to_json(dag)) == reference_dag_to_json_text(dag)
    assert shown in text


def test_diagnostics_is_not_a_constructor_argument() -> None:
    nodes, edges = _three_parent_dag_parts()
    with pytest.raises(TypeError):
        TypeDag(nodes=nodes, edges=tuple(edges), root=0, diagnostics=())


def _ghost_member(nodes: tuple[TypeNode, ...]) -> tuple[TypeNode, ...]:
    """nodes with a direct member of node 1 that is outside its extent."""
    n = nodes[1]
    ghost = TypeNode(n.id, n.extent, n.characteristic_properties, n.direct_members | {"ghost"})
    return (nodes[0], ghost, *nodes[2:])


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda n, e, r: (n, e, len(n)), "root 5 is not a node id"),
        (lambda n, e, r: (n, e, -1), "root -1 is not a node id"),
        (lambda n, e, r: (n, [*e, (0, len(n))], r), "edge 6 references unknown node"),
        (lambda n, e, r: (n, [*e, (-1, 4)], r), "edge 6 references unknown node"),
        (lambda n, e, r: (n, [*e, (2, 2)], r), "edge 6: child 2 is not smaller than parent 2"),
        (lambda n, e, r: (n, [*e, (4, 1)], r), "edge 6: child 1 is not smaller than parent 4"),
        (lambda n, e, r: (n, [*e, (1, 2)], r), "edge 6: child 2 is not smaller than parent 1"),
        (lambda n, e, r: (n, [*e, e[2]], r), "edge 6 repeats an earlier edge"),
        (lambda n, e, r: (_ghost_member(n), e, r), "node 1: members not within extent"),
    ],
)
def test_type_dag_constructor_checks_structure(mutate, message) -> None:
    nodes, edges = _three_parent_dag_parts()
    nodes, edges, root = mutate(nodes, edges, 0)
    with pytest.raises(ValueError, match=message):
        TypeDag(nodes=nodes, edges=tuple(edges), root=root)


# Edge faults as the loader has always worded them, after "edge i: ".
_EDGE_FAULTS = [
    (5, "cannot unpack non-iterable int object"),
    ([0], "not enough values to unpack (expected 2, got 1)"),
    ([0, 1, 2], "too many values to unpack (expected 2)"),
    ([0.0, 1], "ends must be integers, got [0.0, 1]"),
    ([0, True], "ends must be integers, got [0, True]"),
    ("ab", "ends must be integers, got 'ab'"),
    (None, "cannot unpack non-iterable NoneType object"),
]


def _three_parent_document() -> dict:
    nodes, edges = _three_parent_dag_parts()
    return json.loads(dag_to_json_text(TypeDag(nodes=nodes, edges=edges, root=0)))


@pytest.mark.parametrize("edge, fault", _EDGE_FAULTS)
def test_a_bad_edge_is_named_as_given_by_the_loader_and_the_constructor(edge, fault) -> None:
    data = _three_parent_document()
    data["edges"].append(edge)
    with pytest.raises(OntologyError) as loaded:
        dag_from_json(data)
    assert str(loaded.value) == f"ontology JSON: edge 6: {fault}"
    nodes, edges = _three_parent_dag_parts()
    with pytest.raises(ValueError) as built:
        TypeDag(nodes=nodes, edges=[*edges, edge], root=0)
    assert type(built.value) is ValueError and str(built.value) == f"edge 6: {fault}"


def test_a_bad_edge_end_is_reported_before_a_bad_node_id() -> None:
    data = _three_parent_document()
    data["nodes"][1]["id"] = "1"
    data["edges"][2] = [0.0, 3]
    with pytest.raises(OntologyError) as loaded:
        dag_from_json(data)
    assert str(loaded.value) == "ontology JSON: edge 2: ends must be integers, got [0.0, 3]"
    del data["edges"][2]
    with pytest.raises(OntologyError) as loaded:
        dag_from_json(data)
    assert str(loaded.value) == "ontology JSON: node 1 has id '1', not 1"


def test_the_constructor_takes_list_pairs_as_edges() -> None:
    nodes, edges = _three_parent_dag_parts()
    dag = TypeDag(nodes=nodes, edges=[list(e) for e in edges], root=0)
    assert dag == TypeDag(nodes=nodes, edges=edges, root=0)
    assert dag.edges == tuple(sorted(edges))


def test_a_label_that_two_nodes_share_is_ambiguous() -> None:
    nodes, edges = _three_parent_dag_parts()
    dag = TypeDag(nodes=nodes, edges=edges, root=0)
    with pytest.raises(UnknownTypeError) as info:
        dag.resolve("shared", {"A": "shared", "C": "shared"})
    assert str(info.value) == "type name 'shared' is ambiguous (nodes 1, 3)"


@pytest.mark.parametrize("tau", [0.0, 0.1, 0.25])
def test_ontology_json_round_trip_is_identity(tau: float) -> None:
    rng = random.Random(int(tau * 100) + 71)
    for _ in range(30):
        aset = random_assertion_set(rng, max_properties=12, max_concepts=14)
        if not any(a.polarity == SENSIBLE for a in aset.assertions):
            continue
        dag = induce(aset, InduceConfig(tau=tau))
        assert dag_from_json_text(dag_to_json_text(dag)) == dag


def test_node_ids_follow_size_then_member_order() -> None:
    rng = random.Random(1234)
    for _ in range(40):
        aset = random_assertion_set(rng, allow_negative=False)
        if not aset.assertions:
            continue
        dag = induce(aset)
        keys = [
            (-len(n.extent), tuple(sorted(n.extent)))
            for n in sorted(dag.nodes, key=lambda n: n.id)
        ]
        assert keys == sorted(keys)
        assert [n.id for n in dag.nodes] == list(range(len(dag.nodes)))


# --- sorted node names and the exports, against the references --------------------

# Names and tokens whose sorted order is easy to get wrong ("c-d" < "c_d",
# "book" < "book#1", "A-B" < "A_B"); NEVER is only ever nonsensical.
_names = st.sampled_from(["a", "b", "book", "book#1", "c-d", "c_d", "x9", "z"])
_TOKENS = ["OLD", "A-B", "A_B", "RIDE@agent", "RIDE@object", "Z9"]


@st.composite
def _corpora(draw) -> AssertionSet:
    """Sensible extents for up to six properties, unary and positional, plus
    concepts seen only in nonsensical facts of a property of their own."""
    extents = draw(st.lists(st.sets(_names, min_size=1), min_size=1, max_size=len(_TOKENS)))
    tokens = draw(st.permutations(_TOKENS))
    negative = draw(st.sets(_names, max_size=2))
    return AssertionSet(tuple(
        [Assertion(PropertyKey.from_token(t), ConceptId(n), SENSIBLE) for t, ext in zip(tokens, extents) for n in ext]
        + [Assertion(PropertyKey("NEVER"), ConceptId(n), NONSENSICAL) for n in negative]
    ))


def _hand_built(dag: TypeDag) -> TypeDag:
    """dag rebuilt from fresh TypeNodes, none of whose sorted names is derived yet."""
    nodes = tuple(TypeNode(n.id, n.extent, n.characteristic_properties, n.direct_members) for n in dag.nodes)
    return TypeDag(nodes=nodes, edges=dag.edges, root=dag.root)


@settings(max_examples=200, deadline=None)
@given(_corpora(), st.sampled_from([0.0, 0.1, 0.5]), st.dictionaries(st.sampled_from(_TOKENS), st.text(max_size=3)))
def test_prop_exports_equal_the_references(aset: AssertionSet, tau: float, labels: dict) -> None:
    """The exports read each node's sorted names, preset by induce or derived
    on first use; either way they equal names sorted from the frozensets."""
    dag = induce(aset, InduceConfig(tau=tau))
    text = reference_dag_to_json_text(dag)
    for built in (dag, dag_from_json_text(text), _hand_built(dag)):
        for _ in range(2):  # the second export reads what the first derived
            assert dag_to_json_text(built) == text == jsonio.dumps(dag_to_json(built))
            assert export_dot(built) == reference_export_dot(built)
            assert export_dot(built, labels) == reference_export_dot(built, labels)


def test_induce_presets_sorted_extent_with_the_runs_it_read(leaf_corpus) -> None:
    dag = induce(leaf_corpus)
    runs = [sensible for _, sensible, _ in leaf_corpus._runs.values()]
    for node in dag.nodes:
        assert "sorted_extent" in vars(node) and "sorted_members" not in vars(node)
        if not node.is_synthetic_root:
            assert any(node.sorted_extent is run for run in runs)
    loaded = dag_from_json_text(dag_to_json_text(dag))
    assert not any("sorted_extent" in vars(node) for node in loaded.nodes)


def test_sorted_names_are_not_fields(leaf_corpus) -> None:
    node = induce(leaf_corpus).nodes[1]
    fresh = TypeNode(node.id, node.extent, node.characteristic_properties, node.direct_members)
    assert node.sorted_members == tuple(sorted(node.direct_members))
    assert "sorted_members" in vars(node) and "sorted_extent" not in vars(fresh)
    assert (node, hash(node), repr(node)) == (fresh, hash(fresh), repr(fresh))
    assert "sorted" not in repr(node)


def test_mutating_a_json_value_leaves_later_exports_unchanged(leaf_corpus) -> None:
    dag = induce(leaf_corpus)
    text, dot = dag_to_json_text(dag), export_dot(dag)
    data = dag_to_json(dag)
    for node in data["nodes"]:
        node["extent"].append("zzz")
        node["members"].reverse()
        node["props"].clear()
    data["edges"][0].append(9)
    assert dag_to_json_text(dag) == text
    assert export_dot(dag) == dot


@settings(max_examples=200, deadline=None)
@given(_corpora(), st.sampled_from([0.0, 0.1, 0.5]))
def test_prop_verify_equals_the_extent_reference(aset: AssertionSet, tau: float) -> None:
    """verify reads the property's run; its oracle builds corpus.extent().
    Unary, positional and unknown properties (NEVER has no sensible fact)."""
    dag = induce(aset, InduceConfig(tau=tau))
    loaded = dag_from_json_text(dag_to_json_text(dag))
    type_names = [p for n in dag.nodes for p in n.characteristic_properties]
    if dag.nodes[dag.root].is_synthetic_root:
        type_names.append("entity")
    for type_name in type_names:
        for token in [*_TOKENS, "NEVER", "NOPE", "NOPE@object", "OLD@agent"]:
            fact = TypedFact(PropertyKey.from_token(token), type_name)
            want = reference_verify(dag, fact, aset)
            assert verify(dag, fact, aset) == want
            assert verify(loaded, fact, aset) == want
