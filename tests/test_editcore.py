import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    deform_sequence_search,
    edge_canonical,
    labeled_canonical,
    random_abstract_tree,
    random_field,
    random_tiny_tree,
)
from mtstab import mergetree as mt
from mtstab.editcore import (
    ABS_DIFF,
    WASSERSTEIN_POINT,
    EdgeTree,
    EditMapping,
    EditOp,
    EditSequence,
    MappingConstraint,
    brute_force_distance,
    check_sequence,
    contract,
    deform_brute_force,
    deform_witness_search,
    _path_variants,
    _quotient,
    _subset_variants,
    edge_tree_of,
    mapping_to_sequence,
)
from mtstab.errors import InapplicableOperationError, SizeGuardError
from mtstab.mergetree import _id_key, abstract_merge_tree, label_for_scheme, merge_tree_of
from mtstab.perturb import apply_perturbation
from mtstab.stability import (
    CounterexampleFamily,
    counterexample,
    random_grid_field,
    random_minimal_perturbation,
    stability_degree,
)

CONSTRAINTS = (
    MappingConstraint.TAI,
    MappingConstraint.ZHANG_CONSTRAINED,
    MappingConstraint.SELKOW,
)


def single_node(label):
    return mt.LabeledTree("node_dist_to_parent", "r", {"r": None}, {"r": label}, {"r": ()})


def labeled(tree, scheme=mt.NODE_DIST_TO_PARENT):
    return label_for_scheme(tree, scheme)


# ---------------------------------------------------------------------------
# Cost models
# ---------------------------------------------------------------------------

@given(st.floats(-50, 50), st.floats(-50, 50))
@settings(max_examples=60, deadline=None)
def test_absdiff_axioms(a, b):
    assert ABS_DIFF.relabel(a, a) == 0.0
    assert ABS_DIFF.relabel(a, b) == ABS_DIFF.relabel(b, a) >= 0.0
    assert ABS_DIFF.delete(a) == ABS_DIFF.insert(a) == abs(a)


@given(st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
       st.tuples(st.floats(-50, 50), st.floats(-50, 50)))
@settings(max_examples=60, deadline=None)
def test_wasserstein_axioms(p, q):
    assert WASSERSTEIN_POINT.relabel(p, p) == 0.0
    assert WASSERSTEIN_POINT.relabel(p, q) == WASSERSTEIN_POINT.relabel(q, p) >= 0.0
    assert WASSERSTEIN_POINT.delete(p) == pytest.approx(abs(p[0] - p[1]) / math.sqrt(2))


# ---------------------------------------------------------------------------
# Brute-force mapping search
# ---------------------------------------------------------------------------

def test_identical_trees_zero_any_constraint():
    rng = random.Random(1)
    t = random_abstract_tree(rng)
    lt = labeled(t)
    for c in CONSTRAINTS:
        cost, mapping = brute_force_distance(lt, lt, c)
        assert cost == pytest.approx(0.0)
        assert all(a == b for a, b in mapping.pairs)


def test_single_node_distance():
    cost, _ = brute_force_distance(single_node(3.0), single_node(5.0), MappingConstraint.TAI)
    assert cost == pytest.approx(2.0)


def test_fig7_tai_distance_exceeds_x():
    t1, t2 = counterexample(CounterexampleFamily.EDGE_SPLIT_FIG7, 10.0, 0.1)
    cost, _ = brute_force_distance(labeled(t1), labeled(t2), MappingConstraint.TAI)
    assert cost > 10.0
    assert cost == pytest.approx(20.1)  # 2x + eps: one length-x edge stays unmapped


def test_constraint_monotonicity():
    rng = random.Random(2)
    for _ in range(15):
        l1 = labeled(random_abstract_tree(rng, max_edges=5))
        l2 = labeled(random_abstract_tree(rng, max_edges=5))
        tai, _ = brute_force_distance(l1, l2, MappingConstraint.TAI)
        zh, _ = brute_force_distance(l1, l2, MappingConstraint.ZHANG_CONSTRAINED)
        se, _ = brute_force_distance(l1, l2, MappingConstraint.SELKOW)
        assert tai <= zh + 1e-9
        assert zh <= se + 1e-9


def test_mapping_constraint_axioms_sampled():
    rng = random.Random(3)
    trees = [labeled(random_abstract_tree(rng, max_edges=4)) for _ in range(6)]
    for c in CONSTRAINTS:
        for l1 in trees[:3]:
            for l2 in trees[3:]:
                d_ab, _ = brute_force_distance(l1, l2, c)
                d_ba, _ = brute_force_distance(l2, l1, c)
                assert d_ab == pytest.approx(d_ba, abs=1e-9)
        a, b, cc = trees[0], trees[1], trees[2]
        ab, _ = brute_force_distance(a, b, c)
        bc, _ = brute_force_distance(b, cc, c)
        ac, _ = brute_force_distance(a, cc, c)
        assert ac <= ab + bc + 1e-9


def test_brute_force_size_guard():
    rng = random.Random(4)
    big = labeled(random_abstract_tree(rng))
    with pytest.raises(SizeGuardError):
        brute_force_distance(big, big, MappingConstraint.TAI, node_limit=2)


# ---------------------------------------------------------------------------
# Deformation operations: the three-step example sequence
# ---------------------------------------------------------------------------

def fig3_left():
    # A root; B(3); C(2)@B; D(4)@C; E(2)@C; F(5)@B  -- edge lengths
    return EdgeTree(
        {"A": None, "B": "A", "C": "B", "D": "C", "E": "C", "F": "B"},
        {"B": 3, "C": 2, "D": 4, "E": 2, "F": 5},
        "A",
    )


def fig3_right():
    return EdgeTree(
        {"A": None, "B": "A", "D": "B", "C": "B", "E": "C", "F": "C"},
        {"B": 2, "D": 6, "C": 3, "E": 1.5, "F": 2},
        "A",
    )


def test_deformation_three_step_sequence():
    seq = EditSequence(
        (
            EditOp("edge_delete", "E", 2.0),
            EditOp("edge_relabel", "B", 1.0, label=2.0),
            EditOp(
                "edge_insert", "E2", 1.5, label=1.5, parent="C2",
                split=("F", "C2", 2.0, 3.0),
            ),
        )
    )
    assert seq.total_cost == pytest.approx(4.5)  # 2 + 1 + 1.5
    result = check_sequence(fig3_left(), seq)
    assert edge_canonical(result) == edge_canonical(fig3_right())


def test_delete_with_prune_merges_labels():
    et = fig3_left()
    out = check_sequence(et, EditSequence((EditOp("edge_delete", "E", 2.0),)))
    # C became regular: (D,C)+(C,B) merged into a length-6 edge
    assert sorted(round(v, 6) for v in out.length.values()) == [3.0, 5.0, 6.0]


def test_empty_sequence_identity():
    et = fig3_left()
    out = check_sequence(et, EditSequence(()))
    assert edge_canonical(out) == edge_canonical(et)


def test_inapplicable_operation_reports_step():
    with pytest.raises(InapplicableOperationError) as err:
        check_sequence(fig3_left(), EditSequence((EditOp("edge_delete", "Z", 1.0),)))
    assert err.value.step_index == 0


# ---------------------------------------------------------------------------
# deform_brute_force
# ---------------------------------------------------------------------------

def test_deform_identical_zero():
    rng = random.Random(5)
    for _ in range(5):
        t = random_abstract_tree(rng, max_edges=6)
        assert deform_brute_force(t, t) == pytest.approx(0.0)
        assert deform_brute_force(t, t, one_degree=True) == pytest.approx(0.0)


def test_deform_fig7_costs_epsilon():
    t1, t2 = counterexample(CounterexampleFamily.EDGE_SPLIT_FIG7, 10.0, 0.1)
    assert deform_brute_force(t1, t2) == pytest.approx(0.1)
    assert deform_brute_force(t1, t2, one_degree=True) == pytest.approx(0.1)


def test_one_degree_at_least_free():
    rng = random.Random(6)
    for _ in range(12):
        t1 = random_abstract_tree(rng, max_edges=5)
        t2 = random_abstract_tree(rng, max_edges=5)
        free = deform_brute_force(t1, t2)
        od = deform_brute_force(t1, t2, one_degree=True)
        assert free <= od + 1e-9


def test_deform_size_guard():
    rng = random.Random(7)
    t = random_abstract_tree(rng)
    with pytest.raises(SizeGuardError):
        deform_brute_force(t, t, edge_limit=1)


def test_contract_operational_semantics():
    # deleting both leaves of a cherry keeps their parent as a leaf edge
    et = EdgeTree(
        {"r": None, "p": "r", "c": "p", "d": "p"},
        {"p": 1.0, "c": 2.0, "d": 3.0},
        "r",
    )
    q = contract(et, {"c", "d"})
    assert q.edge_count() == 1
    assert list(q.length.values()) == [pytest.approx(1.0)]


def test_deform_matches_sequence_search_free_and_one_degree():
    """Cross-check against the independent Dijkstra sequence search: the
    normalized delete-relabel-insert optimum equals the true sequence
    optimum on tiny instances (both modes).

    The search confirms two directions: nothing cheaper than the normalized
    optimum exists (cap slightly above it), and the optimum itself is
    reachable by an actual operation sequence.
    """
    rng = random.Random(8)
    pairs = []
    while len(pairs) < 8:
        t1 = random_tiny_tree(rng, max_edges=2)
        t2 = random_tiny_tree(rng, max_edges=2)
        pairs.append((t1, t2))
    # a nearby hand-picked pair: an edge split plus small label shifts, so
    # the optimal plan mixes a split-insert with relabels
    a = abstract_merge_tree(
        {"r": None, "s": "r", "m": "s", "n": "s"},
        {"r": 0.0, "s": 0.2, "m": 0.9, "n": 0.5},
    )
    b = abstract_merge_tree(
        {"r": None, "s": "r", "m": "s", "q": "s", "n": "q", "o": "q"},
        {"r": 0.0, "s": 0.2, "m": 0.9, "q": 0.35, "n": 0.5, "o": 0.4},
    )
    pairs.extend([(a, b), (b, a)])
    for t1, t2 in pairs:
        for od in (False, True):
            expected = deform_brute_force(t1, t2, one_degree=od)
            found = deform_sequence_search(t1, t2, one_degree=od, cost_cap=expected + 1e-6)
            assert found == pytest.approx(expected, abs=1e-9)


def test_deform_fig7_sequence_search_agrees():
    t1, t2 = counterexample(CounterexampleFamily.EDGE_SPLIT_FIG7, 10.0, 0.1)
    assert deform_sequence_search(t1, t2, cost_cap=0.11) == pytest.approx(0.1)


# ---------------------------------------------------------------------------
# Delete-set variants: direct quotients, the delta_P filter, per-tree memo
# ---------------------------------------------------------------------------

def grid_trees(seed, count, max_edges=8):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        t = merge_tree_of(random_field(rng, 4, 4))
        if t.edge_count() <= max_edges:
            out.append(t)
    return out


def test_direct_quotient_matches_contract_on_every_delete_set():
    for t in grid_trees(12, 30):
        et = edge_tree_of(t)
        order = [et.root]
        for v in order:
            order.extend(et.children[v])
        edges = [v for v in et.nodes() if et.parent[v] is not None]
        for r in range(len(edges) + 1):
            for combo in itertools.combinations(edges, r):
                q = _quotient(et, frozenset(combo), order)
                assert edge_canonical(q) == edge_canonical(contract(et, combo)), combo


def test_path_variants_are_the_leaf_deletion_sets_in_order():
    """delta_P's variants filter delta_E's full list; they must be exactly
    the sets reachable by iterated leaf-edge deletions, sorted as before."""
    for t in grid_trees(13, 20):
        et = edge_tree_of(t)
        reach, frontier = {frozenset()}, [frozenset()]
        while frontier:
            grown = []
            for d in frontier:
                for v in et.nodes():
                    if et.parent[v] is None or v in d:
                        continue
                    if all(c in d for c in et.children[v]):
                        bigger = d | {v}
                        if bigger not in reach:
                            reach.add(bigger)
                            grown.append(bigger)
            frontier = grown
        expected = sorted(
            reach,
            key=lambda d: (sum(et.length[v] for v in d), tuple(sorted(map(_id_key, d)))),
        )
        got = [item[1] for item in _path_variants(et, _subset_variants(et))]
        assert got == expected


def test_memoized_variants_give_the_fresh_results():
    """e, p and the witness search agree whether each call sees freshly
    built trees or trees whose variants an earlier call memoized."""
    rng = random.Random(14)
    checked = 0
    while checked < 8:
        f = random_grid_field(rng, 4, 4)
        pert = random_minimal_perturbation(rng, f)
        f2 = apply_perturbation(f, pert)
        t1, t2 = merge_tree_of(f), merge_tree_of(f2)
        if max(t1.edge_count(), t2.edge_count()) > 8:
            continue
        checked += 1
        deg = stability_degree(t1)

        def results(pair):
            w = deform_witness_search(*pair(), max_ops=deg, max_op_cost=pert.extent)
            return (
                deform_brute_force(*pair()),
                deform_brute_force(*pair(), one_degree=True),
                None if w is None else (
                    w.deleted1, w.deleted2, w.iso_pairs,
                    edge_canonical(w.quotient1), edge_canonical(w.quotient2),
                ),
            )

        fresh = results(lambda: (merge_tree_of(f), merge_tree_of(f2)))
        deform_brute_force(t1, t2)
        assert "_deform_variants" in vars(t1) and "_deform_variants" in vars(t2)
        assert results(lambda: (t1, t2)) == fresh


# ---------------------------------------------------------------------------
# mapping_to_sequence / check_sequence round trips
# ---------------------------------------------------------------------------

def test_identity_mapping_empty_sequence():
    rng = random.Random(9)
    t = random_abstract_tree(rng, max_edges=5)
    lt = labeled(t)
    cost, mapping = brute_force_distance(lt, lt, MappingConstraint.SELKOW)
    seq = mapping_to_sequence(lt, lt, mapping)
    assert len(seq) == 0 and seq.total_cost == 0.0


def test_delete_everything_mapping():
    a = abstract_merge_tree({"r": None, "m": "r"}, {"r": 0.0, "m": 1.0})
    b = abstract_merge_tree(
        {"r": None, "s": "r", "m": "s", "n": "s"},
        {"r": 0.0, "s": 1.0, "m": 3.0, "n": 2.0},
    )
    la, lb = labeled(a), labeled(b)
    mapping = EditMapping.of([("r", "r")])  # roots only; everything else edited
    seq = mapping_to_sequence(la, lb, mapping)
    kinds = [op.kind for op in seq.ops]
    assert kinds.count("node_delete") == 1  # non-root node of a
    assert kinds.count("node_insert") == 3
    out = check_sequence(la, seq)
    assert labeled_canonical(out) == labeled_canonical(lb)


def test_mapping_to_sequence_random_round_trip():
    rng = random.Random(10)
    for constraint in CONSTRAINTS:
        for _ in range(10):
            l1 = labeled(random_abstract_tree(rng, max_edges=5))
            l2 = labeled(random_abstract_tree(rng, max_edges=5))
            cost, mapping = brute_force_distance(l1, l2, constraint)
            seq = mapping_to_sequence(l1, l2, mapping)
            assert seq.total_cost == pytest.approx(cost, abs=1e-9)
            out = check_sequence(l1, seq)
            assert labeled_canonical(out) == labeled_canonical(l2)


def test_deform_witness_sequence_round_trip():
    rng = random.Random(11)
    for _ in range(25):
        t1 = random_abstract_tree(rng, max_edges=5)
        t2 = random_abstract_tree(rng, max_edges=5)
        cost, witness = deform_brute_force(t1, t2, want_witness=True)
        seq = mapping_to_sequence(t1, t2, witness)
        assert seq.total_cost == pytest.approx(cost, abs=1e-9)
        out = check_sequence(t1, seq)
        assert edge_canonical(out) == edge_canonical(edge_tree_of(t2))


def test_deform_fig7_witness_single_insert():
    t1, t2 = counterexample(CounterexampleFamily.EDGE_SPLIT_FIG7, 10.0, 0.1)
    cost, witness = deform_brute_force(t2, t1, want_witness=True)
    seq = mapping_to_sequence(t2, t1, witness)
    assert len(seq) == 1 and seq.ops[0].kind == "edge_insert"
    assert seq.total_cost == pytest.approx(0.1)


def test_witness_search_finds_bounded_witness():
    # plain saddle shift: the identity plan has 3 relabels, each <= extent
    t1 = abstract_merge_tree(
        {"r": None, "s": "r", "m": "s", "n": "s"},
        {"r": 0.0, "s": 1.0, "m": 3.0, "n": 2.0},
    )
    t2 = abstract_merge_tree(
        {"r": None, "s": "r", "m": "s", "n": "s"},
        {"r": 0.0, "s": 1.2, "m": 3.0, "n": 2.0},
    )
    w = deform_witness_search(t1, t2, max_ops=3, max_op_cost=0.2)
    assert w is not None
    seq = mapping_to_sequence(t1, t2, w)
    assert len(seq) <= 3 and max(op.cost for op in seq.ops) <= 0.2 + 1e-9
