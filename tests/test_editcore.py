import gc
import itertools
import json
import math
import os
import random
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import (
    check_edge_sequence,
    deform_sequence,
    deform_sequence_search,
    eager_deform_brute_force,
    eager_deform_witness_search,
    eager_subset_variants,
    edges_of,
    labeled_canonical,
    length_tree,
    path_variants,
    random_abstract_tree,
    random_field,
    random_tiny_tree,
    replay_contract,
    selkow_brute_force,
    suite_trials,
    zhang_brute_force,
)
from mtstab import editcore
from mtstab import mergetree as mt
from mtstab.distances import DEFAULT_GUARDS, Guards, MetricId, delta_p, tree_distance
from mtstab.editcore import (
    ABS_DIFF,
    WASSERSTEIN_POINT,
    CostModel,
    EditMapping,
    EditOp,
    brute_force_distance,
    check_sequence,
    contract,
    deform_brute_force,
    deform_witness_search,
    _qualifying_iso,
    mapping_to_sequence,
)
from mtstab.errors import InapplicableOperationError, SizeGuardError, ValidationError
from mtstab.field import ScalarField
from mtstab.mergetree import _id_key, abstract_merge_tree, label_for_scheme, merge_tree_of
from mtstab.perturb import apply_perturbation
from mtstab.stability import (
    CounterexampleFamily,
    counterexample,
    random_grid_field,
    random_minimal_perturbation,
    stability_degree,
)

#: The exact mapping searches, each (l1, l2) -> (cost, EditMapping): Tai,
#: constrained and Selkow mappings, each constraint stricter than the last.
SEARCHES = (brute_force_distance, zhang_brute_force, selkow_brute_force)


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
    assert ABS_DIFF.delete(a) == abs(a)


@given(st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
       st.tuples(st.floats(-50, 50), st.floats(-50, 50)))
@settings(max_examples=60, deadline=None)
def test_wasserstein_axioms(p, q):
    assert WASSERSTEIN_POINT.relabel(p, p) == 0.0
    assert WASSERSTEIN_POINT.relabel(p, q) == WASSERSTEIN_POINT.relabel(q, p) >= 0.0
    assert WASSERSTEIN_POINT.delete(p) == pytest.approx(abs(p[0] - p[1]) / math.sqrt(2))


def test_cost_models_hash_by_identity():
    """_collapse_costs keys its memo on the cost model, so every lookup
    hashes it: by identity, not through a generated hash of its fields. A
    second call returns the memoized dict."""
    assert CostModel.__hash__ is object.__hash__
    lt = labeled(random_abstract_tree(random.Random(3), max_edges=5))
    first = editcore._collapse_costs(lt, ABS_DIFF)
    assert editcore._collapse_costs(lt, ABS_DIFF) is first


def test_relabel_rows_is_relabel_cell_by_cell():
    """The row kernel of the one-degree DPs returns relabel's floats, bit
    for bit. Its labels are never blank: the one-degree DPs pass child
    labels, and only a merge tree's root is blank."""
    rng = random.Random(67)
    for _ in range(50):
        scalars = [rng.uniform(-10, 10) * 10 ** rng.randint(-6, 3) for _ in range(rng.randint(0, 6))]
        points = [tuple(rng.uniform(-10, 10) * 10 ** rng.randint(-6, 3) for _ in range(2))
                  for _ in range(rng.randint(0, 6))]
        for cost, labels in ((ABS_DIFF, scalars), (WASSERSTEIN_POINT, points)):
            la, lb = rng.sample(labels, len(labels) // 2), labels
            rows = cost.relabel_rows(la, lb)
            assert [[c.hex() for c in row] for row in rows] == [
                [cost.relabel(a, b).hex() for b in lb] for a in la
            ]


def _extreme_floats(rng, k):
    """k floats: random bit patterns (NaN excluded), signed zeros,
    subnormals, the largest finite floats and infinities."""
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, 8e307, -8e307, math.inf, -math.inf, 1.0, -1.0]
    out = []
    while len(out) < k:
        x = rng.choice(special) if rng.random() < 0.3 else struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
        if not math.isnan(x):
            out.append(x)
    return out


def test_math_dist_is_the_hypot_of_the_differences():
    """relabel_block's birth-death cells call math.dist(a, b) where relabel
    calls math.hypot(a0 - b0, a1 - b1): the same floats, bit for bit, on
    extreme labels (docs/decisions.md §15)."""
    rng = random.Random(97)
    for _ in range(20000):
        a0, a1, b0, b1 = _extreme_floats(rng, 4)
        assert math.dist((a0, a1), (b0, b1)).hex() == math.hypot(a0 - b0, a1 - b1).hex()


def test_relabel_block_is_relabel_rows():
    """The array form of the wide node pairs holds relabel_rows' floats,
    bit for bit, on spread and extreme labels. Like relabel_rows, it gets
    no blank label: the wide pairs pass child labels."""
    rng = random.Random(98)
    for k in range(200):
        n1, n2 = rng.randint(1, 9), rng.randint(1, 9)
        if k % 2:
            scalars = _extreme_floats(rng, n1 + n2)
            points = [tuple(_extreme_floats(rng, 2)) for _ in range(n1 + n2)]
        else:
            scalars = [rng.uniform(-10, 10) * 10 ** rng.randint(-6, 3) for _ in range(n1 + n2)]
            points = [tuple(rng.uniform(-10, 10) * 10 ** rng.randint(-6, 3) for _ in range(2))
                      for _ in range(n1 + n2)]
        for cost, labels in ((ABS_DIFF, scalars), (WASSERSTEIN_POINT, points)):
            la, lb = labels[:n1], labels[n1:]
            with np.errstate(all="ignore"):
                block = cost.relabel_block(la, lb, np.empty((n1, n2)))
            assert [[c.hex() for c in row] for row in block.tolist()] == [
                [c.hex() for c in row] for row in cost.relabel_rows(la, lb)
            ]


# ---------------------------------------------------------------------------
# Brute-force mapping search
# ---------------------------------------------------------------------------

def test_identical_trees_zero_any_constraint():
    rng = random.Random(1)
    t = random_abstract_tree(rng)
    lt = labeled(t)
    for search in SEARCHES:
        cost, mapping = search(lt, lt)
        assert cost == pytest.approx(0.0)
        assert all(a == b for a, b in mapping.pairs)


def test_single_node_distance():
    cost, _ = brute_force_distance(single_node(3.0), single_node(5.0))
    assert cost == pytest.approx(2.0)


def test_fig7_tai_distance_exceeds_x():
    t1, t2 = counterexample(CounterexampleFamily.EDGE_SPLIT_FIG7, 10.0, 0.1)
    cost, _ = brute_force_distance(labeled(t1), labeled(t2))
    assert cost > 10.0
    assert cost == pytest.approx(20.1)  # 2x + eps: one length-x edge stays unmapped


def test_constraint_monotonicity():
    rng = random.Random(2)
    for _ in range(15):
        l1 = labeled(random_abstract_tree(rng, max_edges=5))
        l2 = labeled(random_abstract_tree(rng, max_edges=5))
        tai, _ = brute_force_distance(l1, l2)
        zh, _ = zhang_brute_force(l1, l2)
        se, _ = selkow_brute_force(l1, l2)
        assert tai <= zh + 1e-9
        assert zh <= se + 1e-9


def test_mapping_constraint_axioms_sampled():
    rng = random.Random(3)
    trees = [labeled(random_abstract_tree(rng, max_edges=4)) for _ in range(6)]
    for search in SEARCHES:
        for l1 in trees[:3]:
            for l2 in trees[3:]:
                d_ab, _ = search(l1, l2)
                d_ba, _ = search(l2, l1)
                assert d_ab == pytest.approx(d_ba, abs=1e-9)
        a, b, cc = trees[0], trees[1], trees[2]
        ab, _ = search(a, b)
        bc, _ = search(b, cc)
        ac, _ = search(a, cc)
        assert ac <= ab + bc + 1e-9


def test_brute_force_size_guard():
    """delta_G refuses a pair above mapping_nodes before it searches."""
    big = random_abstract_tree(random.Random(4))
    with pytest.raises(SizeGuardError) as info:
        tree_distance(MetricId.G, big, big, Guards(mapping_nodes=2))
    assert (info.value.what, info.value.size, info.value.limit) == (
        "brute-force mapping search", big.node_count(), 2)


# ---------------------------------------------------------------------------
# Deformation operations: the three-step example sequence
# ---------------------------------------------------------------------------

def fig3_left():
    # A root; B(3); C(2)@B; D(4)@C; E(2)@C; F(5)@B  -- edge lengths
    return length_tree(
        {"A": None, "B": "A", "C": "B", "D": "C", "E": "C", "F": "B"},
        {"B": 3, "C": 2, "D": 4, "E": 2, "F": 5},
        "A",
    )


def fig3_right():
    return length_tree(
        {"A": None, "B": "A", "D": "B", "C": "B", "E": "C", "F": "C"},
        {"B": 2, "D": 6, "C": 3, "E": 1.5, "F": 2},
        "A",
    )


def test_deformation_three_step_sequence():
    seq = (
        EditOp("edge_delete", "E", 2.0),
        EditOp("edge_relabel", "B", 1.0, label=2.0),
        EditOp(
            "edge_insert", "E2", 1.5, label=1.5, parent="C2",
            split=("F", "C2", 2.0, 3.0),
        ),
    )
    assert sum(op.cost for op in seq) == pytest.approx(4.5)  # 2 + 1 + 1.5
    result = check_edge_sequence(fig3_left(), seq)
    assert labeled_canonical(result) == labeled_canonical(fig3_right())


def test_delete_with_prune_merges_labels():
    lt = fig3_left()
    out = check_edge_sequence(lt, (EditOp("edge_delete", "E", 2.0),))
    # C became regular: (D,C)+(C,B) merged into a length-6 edge
    assert sorted(round(out.labels[v], 6) for v in edges_of(out)) == [3.0, 5.0, 6.0]


def test_empty_sequence_identity():
    lt = fig3_left()
    out = check_edge_sequence(lt, ())
    assert labeled_canonical(out) == labeled_canonical(lt)


def test_inapplicable_operation_reports_step():
    with pytest.raises(InapplicableOperationError) as err:
        check_edge_sequence(fig3_left(), (EditOp("edge_delete", "Z", 1.0),))
    assert err.value.step_index == 0


# ---------------------------------------------------------------------------
# deform_brute_force
# ---------------------------------------------------------------------------

def test_deform_identical_zero():
    rng = random.Random(5)
    for _ in range(5):
        t = random_abstract_tree(rng, max_edges=6)
        assert deform_brute_force(t, t) == pytest.approx(0.0)
        assert delta_p(t, t) == pytest.approx(0.0)


def test_deform_fig7_costs_epsilon():
    t1, t2 = counterexample(CounterexampleFamily.EDGE_SPLIT_FIG7, 10.0, 0.1)
    assert deform_brute_force(t1, t2) == pytest.approx(0.1)
    assert delta_p(t1, t2) == pytest.approx(0.1)


def test_one_degree_at_least_free():
    rng = random.Random(6)
    for _ in range(12):
        t1 = random_abstract_tree(rng, max_edges=5)
        t2 = random_abstract_tree(rng, max_edges=5)
        free = deform_brute_force(t1, t2)
        od = delta_p(t1, t2)
        assert free <= od + 1e-9


def test_deform_size_guard():
    """delta_E refuses a pair above deform_edges before it searches."""
    t = random_abstract_tree(random.Random(7))
    with pytest.raises(SizeGuardError) as info:
        tree_distance(MetricId.E, t, t, Guards(deform_edges=1))
    assert (info.value.what, info.value.size, info.value.limit) == (
        "deformation enumeration", t.edge_count(), 1)


def test_contract_operational_semantics():
    # deleting both leaves of a cherry keeps their parent as a leaf edge,
    # in the direct quotient and in the deletion replay
    lt = length_tree(
        {"r": None, "p": "r", "c": "p", "d": "p"},
        {"p": 1.0, "c": 2.0, "d": 3.0},
        "r",
    )
    for q in (contract(lt, {"c", "d"}), replay_contract(lt, {"c", "d"})):
        assert [q.labels[v] for v in edges_of(q)] == [pytest.approx(1.0)]
    with pytest.raises(ValidationError):
        contract(lt, {"r"})


def test_deform_matches_sequence_search_free_and_one_degree():
    """Cross-check against the independent Dijkstra sequence search: the
    normalized delete-relabel-insert optimum equals the true sequence
    optimum on tiny instances, for delta_E's enumeration and for delta_P's
    path mapping DP.

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
            expected = delta_p(t1, t2) if od else deform_brute_force(t1, t2)
            found = deform_sequence_search(t1, t2, one_degree=od, cost_cap=expected + 1e-6)
            assert found == pytest.approx(expected, abs=1e-9)


def test_deform_fig7_sequence_search_agrees():
    t1, t2 = counterexample(CounterexampleFamily.EDGE_SPLIT_FIG7, 10.0, 0.1)
    assert deform_sequence_search(t1, t2, cost_cap=0.11) == pytest.approx(0.1)


# ---------------------------------------------------------------------------
# Delete-set variants: direct quotients, delta_P's oracle sets, per-tree memo
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
    """contract, the direct quotient, has the shape and lengths of the
    top-down deletion replay on every delete set."""
    for t in grid_trees(12, 30):
        lt = labeled(t)
        edges = [v for v in lt.nodes() if lt.parent[v] is not None]
        for r in range(len(edges) + 1):
            for combo in itertools.combinations(edges, r):
                q = contract(lt, frozenset(combo))
                assert labeled_canonical(q) == labeled_canonical(replay_contract(lt, combo)), combo


def test_path_variants_are_the_leaf_deletion_sets_in_order():
    """The delete sets of delta_P's oracle must be exactly the sets
    reachable by iterated leaf-edge deletions, sorted as delta_E's list
    sorts them, with the costs of its entries."""
    for t in grid_trees(13, 20):
        lt = labeled(t)
        reach, frontier = {frozenset()}, [frozenset()]
        while frontier:
            grown = []
            for d in frontier:
                for v in lt.nodes():
                    if lt.parent[v] is None or v in d:
                        continue
                    if all(c in d for c in lt.children[v]):
                        bigger = d | {v}
                        if bigger not in reach:
                            reach.add(bigger)
                            grown.append(bigger)
            frontier = grown
        expected = sorted(
            reach,
            key=lambda d: (sum(lt.labels[v] for v in d), tuple(sorted(map(_id_key, d)))),
        )
        got = [item[1] for item in path_variants(lt)]
        assert got == expected
        closed = [(c, d) for c, d, _, _ in eager_subset_variants(lt)
                  if all(k in d for v in d for k in lt.children[v])]
        assert [(c, d) for c, d, _, _ in path_variants(lt)] == closed


#: (parent, value) of hand-built trees with string ids and edges of length 1
#: (and one of length 2): many delete sets cost the same, also between sets
#: of different sizes, and the sorted ids break the ties.
TIED_TREES = [
    ({"r": None, "a": "r"}, {"r": 0, "a": 1}),
    ({"r": None, "a": "r"}, {"r": 0, "a": 2}),
    ({"r": None, "s": "r", "a": "s", "z": "s"}, {"r": 0, "s": 1, "a": 2, "z": 3}),
    ({"r": None, "s": "r", "a": "s", "b": "s"}, {"r": 0, "s": 1, "a": 2, "b": 2}),
    (
        {"r": None, "s": "r", "a": "s", "b": "s", "c": "s"},
        {"r": 0, "s": 1, "a": 2, "b": 2, "c": 2},
    ),
    (
        {"r": None, "s": "r", "a": "s", "t": "s", "b": "t", "c": "t"},
        {"r": 0, "s": 1, "a": 2, "t": 2, "b": 3, "c": 3},
    ),
    (
        {"r": None, "s": "r", "t": "s", "u": "s", "a": "t", "b": "t", "c": "u", "d": "u"},
        {"r": 0, "s": 1, "t": 2, "u": 2, "a": 3, "b": 3, "c": 3, "d": 3},
    ),
]

#: Two string-id trees whose delta_E and delta_P depend on the order in
#: which a delete set's four leaf edges are summed: 0.1 + 0.2 + 0.3 is not
#: 0.3 + 0.2 + 0.1 in floats.
HASH_ORDER_PAIR = (
    (
        {"root": None, "s": "root", "p": "s", "q": "s", "r": "s", "t": "s"},
        {"root": 0.0, "s": 0.1, "p": 0.3, "q": 0.6, "r": 0.7, "t": 1.5},
    ),
    ({"root": None, "x": "root"}, {"root": 0.0, "x": 1.0}),
)


def test_subset_variants_are_the_combinations_summed_in_edge_order():
    """_delete_sets makes every delete set once, its cost the sum of its
    lengths in id order (int 0 for the empty set, as sum gives), in the
    order of cost and then the sorted ids: the same type, bits and set per
    entry as a reference built with itertools.combinations and sorted, on
    int-id grid trees and on string-id trees with tied costs."""
    trees = grid_trees(21, 20, max_edges=9)
    trees += [abstract_merge_tree(p, v) for p, v in (*TIED_TREES, *HASH_ORDER_PAIR)]
    for t in trees:
        lt = labeled(t)
        edges = sorted((v for v in lt.nodes() if lt.parent[v] is not None), key=_id_key)
        want = sorted(
            (
                (sum(lt.labels[v] for v in combo), frozenset(combo), tuple(map(_id_key, combo)))
                for r in range(len(edges) + 1)
                for combo in itertools.combinations(edges, r)
            ),
            key=lambda entry: (entry[0], entry[2]),
        )
        got = list(editcore._delete_sets(lt))
        assert [(type(c), float(c).hex(), d) for c, (d, _, _) in got] == [
            (type(c), float(c).hex(), d) for c, d, _ in want
        ]
        assert all(entry[2] is None for _, entry in got)


def test_deform_values_do_not_depend_on_the_hash_seed():
    """delta_E and delta_P on string-id trees give the same bits under two
    hash seeds, which order the ids of a frozenset differently."""
    src = os.path.dirname(os.path.dirname(editcore.__file__))
    code = (
        "from mtstab.distances import delta_p\n"
        "from mtstab.editcore import deform_brute_force\n"
        "from mtstab.mergetree import abstract_merge_tree\n"
        f"t1, t2 = (abstract_merge_tree(p, v) for p, v in {HASH_ORDER_PAIR!r})\n"
        "print(deform_brute_force(t1, t2).hex(), delta_p(t1, t2).hex())\n"
    )
    outputs = [
        subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
        ).stdout
        for seed in ("0", "1")
    ]
    assert outputs[0] == outputs[1]


def test_memoized_variants_give_the_fresh_results():
    """e, p and the witness search agree whether each call sees trees built
    from a new field object, with nothing memoized yet, or the memoized
    trees of the same field, whose labeled tree and its parents-first walk
    an earlier call built."""
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
            return (
                deform_brute_force(*pair()),
                delta_p(*pair()),
                deform_witness_search(*pair(), max_ops=deg, max_op_cost=pert.extent),
            )

        def new_trees():
            pair = tuple(merge_tree_of(ScalarField(g.domain, g.values)) for g in (f, f2))
            assert pair[0] is not t1 and pair[1] is not t2
            return pair

        fresh = results(new_trees)
        deform_brute_force(t1, t2)
        for g, t in ((f, t1), (f2, t2)):
            assert merge_tree_of(g) is t and labeled(merge_tree_of(g)) is labeled(t)
            assert "_memo" in vars(labeled(t))
        assert results(lambda: (t1, t2)) == fresh


def test_deform_computes_shapes_once_per_delete_set(monkeypatch):
    """Quotients are built when a search first needs their delete set in a
    pair of one root shape and kept with it for the rest of that search:
    _shapes runs at most once per delete set of either tree in each of
    delta_E and the witness search, and never inside _iso. delta_E stops
    before it reaches every set, so it calls _shapes fewer times than there
    are delete sets."""
    quotient, shapes, iso = editcore.contract, editcore._shapes, editcore._iso
    made = {}  # id of a quotient -> (the quotient, id of its base tree, delete set)
    per_set = {}
    calls = {"other": 0, "in_iso": 0}
    inside = [False]

    def tagged_quotient(lt, deleted):
        q = quotient(lt, deleted)
        made[id(q)] = (q, id(lt), deleted)
        return q

    def counted_shapes(q):
        calls["in_iso"] += inside[0]
        if id(q) in made:
            key = made[id(q)][1:]
            per_set[key] = per_set.get(key, 0) + 1
        else:
            calls["other"] += 1
        return shapes(q)

    def flagged_iso(*args):
        inside[0] = True
        try:
            return iso(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(editcore, "contract", tagged_quotient)
    monkeypatch.setattr(editcore, "_shapes", counted_shapes)
    monkeypatch.setattr(editcore, "_iso", flagged_iso)
    t1, t2 = grid_trees(15, 2)
    deform_brute_force(t1, t2)
    assert calls == {"other": 0, "in_iso": 0}
    assert set(per_set.values()) == {1}
    assert len(per_set) < 2 ** t1.edge_count() + 2 ** t2.edge_count()
    per_set.clear()
    assert not deform_witness_search(t1, t2, max_ops=stability_degree(t1), max_op_cost=0.5)
    assert set(per_set.values()) == {1} and calls["in_iso"] == 0


def _suite_trial(seed, i, grid):
    """Trial i of suite_trials(seed, ..., grid), its trees built afresh."""
    return list(suite_trials(seed, i + 1, grid))[i]


def test_delta_e_makes_only_the_delete_sets_its_walk_reads(monkeypatch):
    """On a 12-edge pair one minimal perturbation apart (seed-1 trial 192
    of the 5x5 suite) at Guards(deform_edges=12), delta_E makes fewer than
    the 2^12 delete sets of either tree, and its value is the eager walk's."""
    t1, t2, _ = _suite_trial(1, 192, 5)
    assert t1.edge_count() == t2.edge_count() == 12
    made, sets = {}, editcore._delete_sets

    def counted(lt):
        for entry in sets(lt):
            made[id(lt)] = made.get(id(lt), 0) + 1
            yield entry

    monkeypatch.setattr(editcore, "_delete_sets", counted)
    e = tree_distance(MetricId.E, t1, t2, guards=Guards(deform_edges=12))
    assert len(made) == 2 and max(made.values()) < 2 ** 12
    lt1, lt2 = labeled(t1), labeled(t2)
    want = eager_deform_brute_force(lt1, eager_subset_variants(lt1), lt2, eager_subset_variants(lt2))
    assert e.hex() == want.hex()


def _holds_delete_sets(value):
    if isinstance(value, (list, tuple)):
        return any(map(_holds_delete_sets, value))
    return isinstance(value, frozenset)


def test_deform_searches_keep_no_delete_set_list_on_the_trees():
    """delta_E and the witness search make their delete sets per call:
    after both, no memo of the merge trees or of their labeled trees holds
    a delete set."""
    trees = grid_trees(15, 4)
    for t1, t2 in itertools.product(trees[:2], trees[2:]):
        deform_brute_force(t1, t2)
        deform_witness_search(t1, t2, max_ops=stability_degree(t1), max_op_cost=0.5)
        for obj in (t1, t2, labeled(t1), labeled(t2)):
            assert not _holds_delete_sets(list(vars(obj).get("_memo", {}).values()))


def test_delta_e_keeps_little_on_the_trees_of_seed_42_trial_40():
    """The two 9-edge trees of seed-42 trial 40 of the 4x4 suite kept
    1.35 MB after delta_E while every delete set and quotient stayed on
    them; now they keep their labeled trees and walks, under 0.2 MB."""
    tree_distance(MetricId.E, *_suite_trial(42, 40, 4)[:2])  # loads the solver untraced
    t1, t2, _ = _suite_trial(42, 40, 4)
    tracemalloc.start()
    try:
        tree_distance(MetricId.E, t1, t2)
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert current < 0.2e6


def test_witness_search_builds_only_the_quotients_it_compares(monkeypatch):
    """Pairs are tried fewest deletions first and a quotient is built when
    a pair first needs it: on seed-42 trial 40, where the two empty delete
    sets qualify, the search builds their two quotients and no other. On a
    pair with no witness, every quotient it builds is handed to
    _qualifying_iso with a partner of the same root shape."""
    built = _recorded_quotients(monkeypatch)
    t1, t2, extent = _suite_trial(42, 40, 4)
    assert deform_witness_search(t1, t2, max_ops=stability_degree(t1), max_op_cost=extent)
    assert [d for _, d in built] == [frozenset(), frozenset()]
    assert all(len(quotients) == 1 for quotients in built.values())
    built.clear()
    compared, qualifying = set(), editcore._qualifying_iso

    def recorded(q1, s1, q2, s2, *rest):
        assert s1[q1.root] == s2[q2.root]
        compared.update((id(q1), id(q2)))
        return qualifying(q1, s1, q2, s2, *rest)

    monkeypatch.setattr(editcore, "_qualifying_iso", recorded)
    t1, t2 = grid_trees(15, 2)
    assert not deform_witness_search(t1, t2, max_ops=stability_degree(t1), max_op_cost=0.5)
    made = [id(q) for quotients in built.values() for q in quotients]
    assert made and set(made) == compared


def test_deform_length_bound_skips_isomorphisms_the_eager_oracle_runs(monkeypatch):
    """Past its first witness, delta_E skips a pair of delete sets whose
    surviving lengths differ by enough that no isomorphism could lower
    `best`. The eager oracle has no such bound: on the same pair it runs
    more isomorphisms for the same value."""
    calls = {"lazy": 0, "eager": 0}

    def counting(key, iso):
        def counted(*args):
            calls[key] += 1
            return iso(*args)
        return counted

    monkeypatch.setattr(editcore, "_iso", counting("lazy", editcore._iso))
    monkeypatch.setattr(helpers, "_iso", counting("eager", helpers._iso))
    t1, t2 = grid_trees(15, 2)
    lt1, lt2 = labeled(t1), labeled(t2)
    want = eager_deform_brute_force(lt1, eager_subset_variants(lt1), lt2, eager_subset_variants(lt2))
    assert deform_brute_force(t1, t2).hex() == want.hex()
    assert 0 < calls["lazy"] < calls["eager"]


def _recorded_quotients(monkeypatch):
    """Wrap editcore.contract for the searches; returns the dict it fills,
    (id of the base tree, delete set) -> the quotients built of it."""
    built, quotient = {}, editcore.contract

    def recorded(lt, deleted):
        q = quotient(lt, deleted)
        built.setdefault((id(lt), deleted), []).append(q)
        return q

    monkeypatch.setattr(editcore, "contract", recorded)
    return built


def _assert_lazy_matches_eager(t1, t2, max_ops, max_op_cost, filled, built):
    """delta_E and the witness search on t1, t2 equal the eager oracles'
    bit for bit, _delete_sets makes the eager list's costs and sets in its
    order, _root_shape gives each set its eager quotient's root shape, and
    every quotient the searches built, at most one per delete set and
    search, equals the eager one of its delete set. `built` is
    _recorded_quotients' dict; `filled` counts [sets built, sets]."""
    eager = [(lt, eager_subset_variants(lt)) for lt in (labeled(t1), labeled(t2))]
    oracle_args = (*eager[0], *eager[1])
    built.clear()
    assert deform_brute_force(t1, t2).hex() == eager_deform_brute_force(*oracle_args).hex()
    got_w = deform_witness_search(t1, t2, max_ops, max_op_cost)
    assert type(got_w) is bool
    assert got_w == (eager_deform_witness_search(*oracle_args, max_ops, max_op_cost) is not None)
    for lt, want_variants in eager:
        # the empty set costs the int 0, as sum() returns it
        assert [(type(c), float(c).hex(), d) for c, (d, _, _) in editcore._delete_sets(lt)] == [
            (type(c), float(c).hex(), d) for c, d, _, _ in want_variants
        ]
        for _, d, q, shapes in want_variants:
            assert editcore._root_shape(lt, d) == shapes[q.root]
            quotients = built.get((id(lt), d), ())
            filled[0] += bool(quotients)
            filled[1] += 1
            assert len(quotients) <= 2
            for got in quotients:
                assert labeled_canonical(got) == labeled_canonical(q)
                assert editcore._shapes(got) == shapes


DEFORM_HEX = Path(__file__).parent / "data" / "deform_hex.json"


def test_deform_values_and_verdicts_match_the_recorded_bits():
    """delta_E's .hex() and the witness search's verdict at deg(T_f) and the
    perturbation's extent, on the seed-42 4x4 and seed-5 5x5 suite pairs,
    equal tests/data/deform_hex.json ("skipped" above delta_E's default
    deform_edges guard, which the suite's witness check follows).
    The file was recorded before delta_E and the witness search moved onto
    the labeled tree of delta_L, so it pins their bits independently of the
    oracles in tests/helpers.py."""
    for suite in json.loads(DEFORM_HEX.read_text()):
        got = []
        for t1, t2, extent in suite_trials(suite["seed"], suite["trials"], suite["grid_size"]):
            if max(t1.edge_count(), t2.edge_count()) > DEFAULT_GUARDS.deform_edges:
                got.append(["skipped", "skipped"])
                continue
            e = deform_brute_force(t1, t2).hex()
            got.append([e, deform_witness_search(t1, t2, stability_degree(t1), extent)])
        assert got == suite["pairs"], suite["seed"]


def test_lazy_quotients_match_the_eager_oracle_on_random_pairs(monkeypatch):
    """200 pairs of 3x3 and 4x4 grid trees, one minimal perturbation apart
    or independent."""
    rng = random.Random(16)
    built, filled = _recorded_quotients(monkeypatch), [0, 0]
    compared = 0
    while compared < 200:
        n = rng.choice((3, 4))
        f = random_grid_field(rng, n, n)
        if compared % 2:
            pert = random_minimal_perturbation(rng, f)
            f2, max_op_cost = apply_perturbation(f, pert), pert.extent
        else:
            m = rng.choice((3, 4))
            f2, max_op_cost = random_grid_field(rng, m, m), rng.uniform(0.05, 0.5)
        t1, t2 = merge_tree_of(f), merge_tree_of(f2)
        if max(t1.edge_count(), t2.edge_count()) > DEFAULT_GUARDS.deform_edges:
            with pytest.raises(SizeGuardError):
                tree_distance(MetricId.E, t1, t2)
            continue
        _assert_lazy_matches_eager(t1, t2, stability_degree(t1), max_op_cost, filled, built)
        compared += 1
    assert 0 < filled[0] < filled[1]


def test_lazy_quotients_match_the_eager_oracle_on_ties_and_one_edge_trees(monkeypatch):
    """Hand-built trees with edges of length 1 (and one of length 2), so
    many delete sets cost the same and the sorted ids break the ties, also
    between sets of different sizes, and 1-edge trees."""
    built, filled = _recorded_quotients(monkeypatch), [0, 0]
    for (p1, v1), (p2, v2) in itertools.product(TIED_TREES, repeat=2):
        for max_ops, max_op_cost in ((1, 1.0), (3, 1.0), (6, 0.5)):
            t1, t2 = abstract_merge_tree(p1, v1), abstract_merge_tree(p2, v2)
            _assert_lazy_matches_eager(t1, t2, max_ops, max_op_cost, filled, built)
    assert 0 < filled[0] <= filled[1]


def _sweep_pair(seed, grid, i, near):
    """Merge trees of a grid field and of its minimal perturbation (near)
    or of the next random field (independent), drawn from one seed."""
    rng = random.Random(seed * 1_000_003 + i + grid * 7919)
    f = random_grid_field(rng, grid, grid)
    p = random_minimal_perturbation(rng, f)
    f2 = apply_perturbation(f, p) if near else random_grid_field(rng, grid, grid)
    return merge_tree_of(f), merge_tree_of(f2)


def test_delta_e_and_g_are_the_least_float_of_their_candidates():
    """Two pairs where a tie slack of 1e-12 kept the first total found
    instead of one a last bit lower: delta_E's walk met
    0x1.30e69b2d430dfp+0 before 0x1.30e69b2d430dep+0, and the Tai search
    0x1.132494915baf3p+0 before 0x1.132494915baf2p+0. Both searches now
    return the least float, the unpruned minimum bit for bit
    (docs/decisions.md section 22)."""
    t1, t2 = _sweep_pair(2, 3, 13, near=False)
    e = tree_distance(MetricId.E, t1, t2)
    assert e.hex() == "0x1.30e69b2d430dep+0"
    assert e.hex() == helpers.deform_minimum_unpruned(t1, t2).hex()
    t1, t2 = _sweep_pair(1, 3, 39, near=True)
    g = tree_distance(MetricId.G, t1, t2)
    assert g.hex() == "0x1.132494915baf2p+0"
    assert g.hex() == helpers.tai_minimum_unpruned(labeled(t1), labeled(t2)).hex()


def test_delta_e_and_g_are_the_unpruned_minima_on_random_trees():
    """On 200 pairs of random trees of up to 6 edges, half of them a
    minimal perturbation apart, delta_E and the Tai search have the .hex()
    of the unpruned minima in tests/helpers.py."""
    rng = random.Random(22)
    compared = 0
    while compared < 200:
        f = random_grid_field(rng, 3, 3)
        if compared % 2:
            f2 = apply_perturbation(f, random_minimal_perturbation(rng, f))
        else:
            f2 = random_grid_field(rng, 3, 3)
        t1, t2 = merge_tree_of(f), merge_tree_of(f2)
        if max(t1.edge_count(), t2.edge_count()) > 6:
            continue
        assert deform_brute_force(t1, t2).hex() == helpers.deform_minimum_unpruned(t1, t2).hex()
        l1, l2 = labeled(t1), labeled(t2)
        assert brute_force_distance(l1, l2)[0].hex() == helpers.tai_minimum_unpruned(l1, l2).hex()
        compared += 1


def test_iso_leaves_no_cyclic_garbage():
    """_iso recurses at module level, so its calls leave nothing for the
    cycle collector; the 2-leaf groups go through the assignment solver."""
    t = abstract_merge_tree(
        {"r": None, "s": "r", "a": "s", "b": "s", "t": "s", "c": "t", "d": "t"},
        {"r": 0.0, "s": 1.0, "a": 2.5, "b": 3.0, "t": 2.0, "c": 3.5, "d": 4.0},
    )
    q1 = labeled(t)
    q2 = length_tree(q1.parent, {v: 2.0 * q1.labels[v] for v in edges_of(q1)}, q1.root)
    s1, s2 = editcore._shapes(q1), editcore._shapes(q2)
    # the first call loads the assignment solver, and that load leaves
    # cyclic garbage of its own: count only the calls after it
    editcore._iso(q1, s1, q2, s2, editcore._length_diff)
    gc.collect()
    gc.disable()
    try:
        for _ in range(200):
            editcore._iso(q1, s1, q2, s2, editcore._length_diff)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_deform_searches_leave_no_cyclic_garbage():
    """delta_E's walks break off inside the delete-set generators, and the
    witness search returns from inside its pair loop or runs it out; none
    of it leaves anything for the cycle collector."""
    trees = grid_trees(15, 6)
    # the first call loads the assignment solver, which leaves garbage
    deform_brute_force(trees[0], trees[1])
    gc.collect()
    gc.disable()
    try:
        for t1, t2 in itertools.product(trees[:3], trees[3:]):
            deform_brute_force(t1, t2)
            for t in (t1, t2):
                deform_witness_search(t1, t, max_ops=stability_degree(t1), max_op_cost=0.5)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_tai_search_leaves_no_cyclic_garbage():
    """_tai_search recurses at module level, so the delta_G search leaves
    nothing for the cycle collector."""
    rng = random.Random(12)
    trees = [labeled(random_abstract_tree(rng, max_edges=4)) for _ in range(6)]
    gc.collect()
    gc.disable()
    try:
        for l1, l2 in itertools.product(trees[:3], trees[3:]):
            brute_force_distance(l1, l2)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_shape_of_a_2000_level_chain():
    """_shapes fills its shapes bottom-up, so depth is no RecursionError."""
    depth = 2000
    parent = {0: None, **{v: v - 1 for v in range(1, depth + 1)}}
    lt = length_tree(parent, {v: 1.0 for v in range(1, depth + 1)}, 0)
    shape = editcore._shapes(lt)[lt.root]
    for _ in range(depth):
        (shape,) = shape
    assert shape == ()


# ---------------------------------------------------------------------------
# mapping_to_sequence / check_sequence round trips
# ---------------------------------------------------------------------------

def test_identity_mapping_empty_sequence():
    rng = random.Random(9)
    t = random_abstract_tree(rng, max_edges=5)
    lt = labeled(t)
    cost, mapping = selkow_brute_force(lt, lt)
    seq = mapping_to_sequence(lt, lt, mapping)
    assert seq == ()


def test_delete_everything_mapping():
    a = abstract_merge_tree({"r": None, "m": "r"}, {"r": 0.0, "m": 1.0})
    b = abstract_merge_tree(
        {"r": None, "s": "r", "m": "s", "n": "s"},
        {"r": 0.0, "s": 1.0, "m": 3.0, "n": 2.0},
    )
    la, lb = labeled(a), labeled(b)
    mapping = EditMapping.of([("r", "r")])  # roots only; everything else edited
    seq = mapping_to_sequence(la, lb, mapping)
    kinds = [op.kind for op in seq]
    assert kinds.count("node_delete") == 1  # non-root node of a
    assert kinds.count("node_insert") == 3
    out = check_sequence(la, seq)
    assert labeled_canonical(out) == labeled_canonical(lb)


def test_mapping_to_sequence_random_round_trip():
    rng = random.Random(10)
    for search in SEARCHES:
        for _ in range(10):
            l1 = labeled(random_abstract_tree(rng, max_edges=5))
            l2 = labeled(random_abstract_tree(rng, max_edges=5))
            cost, mapping = search(l1, l2)
            seq = mapping_to_sequence(l1, l2, mapping)
            assert sum(op.cost for op in seq) == pytest.approx(cost, abs=1e-9)
            out = check_sequence(l1, seq)
            assert labeled_canonical(out) == labeled_canonical(l2)


def cherry():
    """r - s with the leaves m and n, labeled by distance to the parent."""
    return labeled(abstract_merge_tree(
        {"r": None, "s": "r", "m": "s", "n": "s"}, {"r": 0.0, "s": 1.0, "m": 3.0, "n": 2.0},
    ))


@pytest.mark.parametrize("op, reason", [
    (EditOp("node_relabel", "z", 1.0, label=1.0), "no node 'z'"),
    (EditOp("node_delete", "z", 1.0), "no node 'z'"),
    (EditOp("node_delete", "r", 0.0), "cannot delete the root"),
    (EditOp("node_insert", "m", 1.0, label=1.0, parent="s"), "node 'm' already present"),
    (EditOp("node_insert", "x", 1.0, label=1.0, parent="z"), "no attach node 'z'"),
    (EditOp("node_insert", "x", 1.0, label=1.0, parent="r", moved_children=("m",)),
     "'m' is not a child of 'r'"),
    (EditOp("edge_delete", "m", 2.0), "unknown node op 'edge_delete'"),
], ids=["relabel-missing", "delete-missing", "delete-root", "insert-present",
        "insert-no-attach", "insert-foreign-child", "edge-op"])
def test_check_sequence_names_the_inapplicable_step(op, reason):
    """Each way a node operation fails to apply raises
    InapplicableOperationError with the index of the failing step, here
    the second, after a relabel that applies."""
    seq = (EditOp("node_relabel", "m", 0.5, label=1.5), op)
    with pytest.raises(InapplicableOperationError) as err:
        check_sequence(cherry(), seq)
    assert err.value.step_index == 1 and reason in err.value.reason


@pytest.mark.parametrize("pairs, message", [
    ([("r", "r"), ("m", "m"), ("n", "m")], "mapping is not one-to-one"),
    ([("r", "r"), ("m", "m"), ("m", "n")], "mapping is not one-to-one"),
    ([("r", "r"), ("z", "m")], "mapping pair ('z', 'm') references unknown nodes"),
    ([("r", "r"), ("m", "z")], "mapping pair ('m', 'z') references unknown nodes"),
    ([("m", "m")], "mapping must match the roots"),
    ([("r", "s"), ("s", "r")], "mapping must match the roots"),
])
def test_mapping_to_sequence_rejects_a_bad_mapping(pairs, message):
    lt = cherry()
    with pytest.raises(ValidationError) as err:
        mapping_to_sequence(lt, lt, EditMapping.of(pairs))
    assert str(err.value) == message


def eager_witness(t1, t2):
    """delta_E's value and DeformWitness, from the eager oracle."""
    lt1, lt2 = labeled(t1), labeled(t2)
    return eager_deform_brute_force(
        lt1, eager_subset_variants(lt1), lt2, eager_subset_variants(lt2), want_witness=True
    )


def test_deform_witness_sequence_round_trip():
    rng = random.Random(11)
    for _ in range(25):
        t1 = random_abstract_tree(rng, max_edges=5)
        t2 = random_abstract_tree(rng, max_edges=5)
        cost, witness = eager_witness(t1, t2)
        seq = deform_sequence(t1, t2, witness)
        assert sum(op.cost for op in seq) == pytest.approx(cost, abs=1e-9)
        out = check_edge_sequence(t1, seq)
        assert labeled_canonical(out) == labeled_canonical(labeled(t2))


def test_deform_fig7_witness_single_insert():
    t1, t2 = counterexample(CounterexampleFamily.EDGE_SPLIT_FIG7, 10.0, 0.1)
    cost, witness = eager_witness(t2, t1)
    seq = deform_sequence(t2, t1, witness)
    assert len(seq) == 1 and seq[0].kind == "edge_insert"
    assert seq[0].cost == pytest.approx(0.1)


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
    assert deform_witness_search(t1, t2, max_ops=3, max_op_cost=0.2) is True
    lt1, lt2 = labeled(t1), labeled(t2)
    w = eager_deform_witness_search(
        lt1, eager_subset_variants(lt1), lt2, eager_subset_variants(lt2), 3, 0.2
    )
    seq = deform_sequence(t1, t2, w)
    assert len(seq) <= 3 and max(op.cost for op in seq) <= 0.2 + 1e-9


def test_qualifying_iso_rejects_a_relabel_above_cap():
    """One edge whose lengths differ by 1.0: above cap, no budget of
    relabels lets it through; with cap above the difference it is the one
    relabel of the identity."""
    q1 = length_tree({"r": None, "a": "r"}, {"a": 1.0}, "r")
    q2 = length_tree({"r": None, "b": "r"}, {"b": 2.0}, "r")
    s1, s2 = editcore._shapes(q1), editcore._shapes(q2)
    assert _qualifying_iso(q1, s1, q2, s2, 5, 0.5) is None
    assert _qualifying_iso(q1, s1, q2, s2, 5, 1.5) == [("r", "r"), ("a", "b")]
    assert _qualifying_iso(q1, s1, q2, s2, 0, 1.5) is None


# ---------------------------------------------------------------------------
# The assignment solvers: Python while numpy is not imported, else compiled
# ---------------------------------------------------------------------------

def _twin_matrix(rng, n1, n2, kind):
    """An n1 x n2 cost matrix as a list of rows: values spread over 1e-3 to
    1e2, three values repeated (exact ties), one value and its neighbours
    one ulp either side (near ties), small integers, ints 0 and 1 (the
    classifier's matchings), inf among finite values (some infeasible),
    values up to 1.7e308 whose reduced costs overflow, or a block
    augmented as distances._assignment_min augments it, `big` included."""
    x = 10 ** rng.uniform(-3, 2)
    if kind == "augmented":
        n1 = max(1, min(n1, 13))
        n2 = max(1, min(n2, 14 - n1))
        dels = [10 ** rng.uniform(-3, 2) for _ in range(n1)]
        inss = [10 ** rng.uniform(-3, 2) for _ in range(n2)]
        rows = [[math.nextafter(d + e, rng.choice((0.0, math.inf))) for e in inss] for d in dels]
        return helpers.assignment_matrix_reference(rows, dels, inss).tolist()
    ties = (x, 2 * x, 3 * x)
    cell = {
        "spread": lambda: 10 ** rng.uniform(-3, 2),
        "exact ties": lambda: rng.choice(ties),
        "near ties": lambda: math.nextafter(x, rng.choice((0.0, x, math.inf))),
        "integers": lambda: float(rng.randint(0, 4)),
        "zero one": lambda: rng.randint(0, 1),
        "inf": lambda: rng.choice((math.inf, x, 10 ** rng.uniform(-3, 2))),
        "huge": lambda: rng.choice((1e300, rng.random() * 1e300, 1.7e308, 0.0, rng.random())),
    }[kind]
    return [[cell() for _ in range(n2)] for _ in range(n1)]


TWIN_KINDS = ("spread", "exact ties", "near ties", "integers", "zero one", "inf", "huge", "augmented")


def _answer(solve, mat):
    """(rows, cols) as lists of ints, or the message of the ValueError."""
    try:
        rows, cols = solve(mat)
    except ValueError as exc:
        return str(exc)
    return [int(r) for r in rows], [int(c) for c in cols]


def test_python_solver_returns_the_compiled_solvers_assignment():
    """editcore._solve_in_python returns the compiled solver's rows and
    columns on 21,000 random matrices of 1 to 14 rows and columns, wide
    and tall, and on every 1 x k and k x 1 shape of each kind: spread
    values, exact and one-ulp near ties, integer and 0/1 costs, inf and
    huge entries and augmented blocks. Where the compiled solver raises
    ValueError, the Python one raises it with the same message."""
    compiled = editcore._solver()
    rng = random.Random(2016)
    shapes = [(rng.randint(1, 14), rng.randint(1, 14)) for _ in range(21000)]
    shapes += [shape for k in range(1, 15) for shape in ((1, k), (k, 1))] * len(TWIN_KINDS)
    differ, raised, tall = [], 0, 0
    for k, (n1, n2) in enumerate(shapes):
        mat = _twin_matrix(rng, n1, n2, TWIN_KINDS[k % len(TWIN_KINDS)])
        want = _answer(compiled, mat)
        if _answer(editcore._solve_in_python, mat) != want:
            differ.append(mat)
        raised += isinstance(want, str)
        tall += len(mat) > len(mat[0])
    assert len(shapes) >= 20000 and differ == []
    assert 0 < raised < len(shapes) // 10 and tall > len(shapes) // 3


@pytest.mark.parametrize("mat", [
    [], [[]], [[], []], [[math.nan]], [[-math.inf]], [[math.inf]],
    [[math.inf, 1.0], [math.inf, 2.0]], [[1.0, math.nan], [math.inf, -math.inf]],
    [[1.0], [math.nan], [2.0]], [[math.inf], [math.inf]], [[0.0, -math.inf, 1.0]],
    [[-1e308, -1e308], [1.0, 2.0]],
])
def test_python_solver_raises_and_returns_as_the_compiled_one(mat):
    """Empty matrices, NaN and -inf entries and infeasible matrices give the
    compiled solver's answer or its ValueError message; a row whose entries
    sum to -inf without holding -inf is valid."""
    assert _answer(editcore._solve_in_python, mat) == _answer(editcore._solver(), mat)


def _shape_tree(rng, depth):
    """A random tree shape as a parent map over ints, root 0: up to 4
    children per node, each a leaf or, above `depth`, a random subtree; a
    node's children often share a shape, so _iso matches them."""
    parent = {0: None}
    stack = [(0, depth)]
    while stack:
        v, d = stack.pop()
        for _ in range(rng.randint(0 if v else 2, 4)):
            c = len(parent)
            parent[c] = v
            if d > 0 and rng.random() < 0.5:
                stack.append((c, d - 1))
    return parent


def test_iso_is_the_same_on_either_solver(monkeypatch):
    """_iso returns the same cost bits and node pairs whichever solver
    answers its sibling matchings, on random same-shape trees with spread
    lengths, small integer lengths (exact ties) and lengths one ulp apart."""
    def isos():
        rng = random.Random(461)
        out = []
        for k in range(150):
            parent = _shape_tree(rng, 3)
            length = [lambda: 10 ** rng.uniform(-3, 2), lambda: float(rng.randint(0, 3)),
                      lambda: math.nextafter(1.5, rng.choice((0.0, 1.5, math.inf)))][k % 3]
            q1, q2 = (length_tree(parent, {v: length() for v in parent if v}, 0) for _ in "ab")
            cost, pairs = editcore._iso(q1, editcore._shapes(q1), q2, editcore._shapes(q2),
                                        editcore._length_diff)
            out.append((cost.hex(), pairs))
        return out

    python, compiled, solved = helpers.solved_both_ways(monkeypatch, isos)
    assert python == compiled and solved > 100


def test_covers_is_the_same_on_either_solver(monkeypatch):
    """mergetree._covers answers whether each node of cs1 gets its own
    node of cs2 that it fits the same way whichever solver matches them,
    and as a search over every injective choice does, on random fit
    relations between up to 6 and 6 nodes."""
    def covers():
        rng = random.Random(433)
        out = []
        for _ in range(3000):
            cs1, cs2 = list(range(rng.randint(0, 6))), list(range(10, 10 + rng.randint(0, 6)))
            p = rng.choice((0.2, 0.5, 0.8))
            fits = {(a, b): rng.random() < p for a in cs1 for b in cs2}
            out.append((cs1, cs2, fits, mt._covers(cs1, cs2, fits)))
        return out

    python, compiled, solved = helpers.solved_both_ways(monkeypatch, covers)
    assert python == compiled and solved > 500
    for cs1, cs2, fits, got in python:
        assert got == any(all(fits[a, b] for a, b in zip(cs1, chosen))
                          for chosen in itertools.permutations(cs2, len(cs1)))


#: Each route to an assignment in a fresh process, with the matrices the
#: Python solver answers counted per route: the classification of a swap
#: (vertex 2 crosses vertex 4; a step that crosses no value reaches no
#: solve), whose merge-tree inclusion matches two children in
#: mergetree._covers, w on BDTs whose roots have 2 and 3 children (a 2x3
#: block, which always reaches a solver), a 3x3 stability suite on two
#: CPUs, and the classify and perturb commands on two field files.
#: Afterwards neither numpy nor scipy is imported.
SMALL_SOLVES = """
import contextlib, io, os, sys
os.sched_getaffinity = lambda pid: {0, 1}
from mtstab import editcore
from mtstab.cli import main
from mtstab.distances import MetricId, tree_distance
from mtstab.field import build_domain, dump_field, validate_field
from mtstab.mergetree import merge_tree_of
from mtstab.perturb import classify_change_detailed
from mtstab.stability import run_stability_suite

solved = [0]
python_solver = editcore._solve_in_python

def counted(mat):
    solved[0] += 1
    return python_solver(mat)

editcore._solve_in_python = counted

def path_field(values):
    edges = [(i, i + 1) for i in range(len(values) - 1)]
    return validate_field(build_domain(len(values), edges), values)

def route():
    count, solved[0] = solved[0], 0
    return count > 0

a, b = path_field([0.0, 5.0, 1.0, 6.0, 2.0]), path_field([0.0, 5.0, 2.5, 6.0, 2.0])
classify_change_detailed(a, b)
routes = [route()]
tree_distance(MetricId.W, merge_tree_of(path_field([0.0, 5.0, 1.0, 6.0, 2.0, 7.0, 3.0])),
              merge_tree_of(path_field([0.0, 5.0, 1.0, 6.0, 2.0, 7.0, 3.0, 8.0, 4.0])))
routes.append(route())
run_stability_suite(0, 4, 3)
routes.append(route())
dump_field(a, sys.argv[1] + "/a.json")
dump_field(b, sys.argv[1] + "/b.json")
with contextlib.redirect_stdout(io.StringIO()):
    main(["classify", "--field-a", sys.argv[1] + "/a.json", "--field-b", sys.argv[1] + "/b.json"])
    routes.append(route())
    main(["perturb", "--field", sys.argv[1] + "/a.json", "--vertex", "2"])
print(routes, sorted({"numpy", "scipy"} & {m.split(".")[0] for m in sys.modules}))
"""


def _run_fresh(code: str, *args) -> str:
    src = os.path.dirname(os.path.dirname(editcore.__file__))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src}).stdout.strip()


def test_small_solves_import_neither_numpy_nor_scipy(tmp_path):
    """The classifier's matching, the DPs' small blocks, the suite's pool
    and the classify and perturb commands solve their assignments in
    Python when numpy is not imported, and leave numpy and scipy out of the
    process (docs/decisions.md section 16)."""
    assert _run_fresh(SMALL_SOLVES, str(tmp_path)) == "[True, True, True, True] []"


#: A block of n1 + n2 = 15 and a wide node pair (two stars of 64 and 70
#: leaves), each in a fresh process: both need arrays, so they import
#: numpy, and the compiled solver answers them.
LARGE_SOLVES = {
    "block": "from mtstab.distances import _assignment_min\n"
             "_assignment_min([[float(i * j % 5) for j in range(8)] for i in range(7)],"
             " [1.0] * 7, [2.0] * 8)\n",
    "wide pair": "from mtstab.distances import one_degree_dp\n"
                 "from mtstab.editcore import ABS_DIFF\n"
                 "from mtstab.mergetree import BLANK, NODE_DIST_TO_PARENT, LabeledTree\n"
                 "def star(k, scale):\n"
                 "    leaves = range(1, k + 1)\n"
                 "    return LabeledTree(NODE_DIST_TO_PARENT, 0, {0: None, **dict.fromkeys(leaves, 0)},\n"
                 "                       {0: BLANK, **{v: scale * v for v in leaves}},\n"
                 "                       {0: tuple(leaves), **{v: () for v in leaves}})\n"
                 "one_degree_dp(star(64, 1.0), star(70, 1.1), ABS_DIFF)\n",
}


@pytest.mark.parametrize("route", sorted(LARGE_SOLVES))
def test_large_solves_load_only_the_solver_module(route):
    """A block over _LIST_BLOCK_MAX and a wide node pair go to the compiled
    solver, loaded from its own extension module: scipy.optimize._lsap is
    then the only module of scipy in the process."""
    code = LARGE_SOLVES[route] + (
        "import sys\n"
        "print('numpy' in sys.modules, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    assert _run_fresh(code) == "True ['scipy.optimize._lsap']"


def test_import_mtstab_loads_no_submodule():
    """The package root holds only __version__, so importing it loads no
    mtstab module, and mtstab.cli still loads every module a command needs
    (widepairs only on its first wide node pair)."""
    code = (
        "import sys\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.startswith('mtstab.'))\n"
        "import mtstab\n"
        "root = loaded()\n"
        "import mtstab.cli\n"
        "print(root, loaded())\n"
    )
    modules = ["cli", "distances", "editcore", "errors", "field", "mergetree", "perturb", "pool",
               "stability"]
    assert _run_fresh(code) == f"[] {['mtstab.' + m for m in modules]}"


def test_loaded_solver_is_the_public_one():
    """On the pinned build scipy.optimize exports the extension module's
    function, so the loaded one is that same function, and it returns the
    rows and columns of the public one on random, tied and list inputs."""
    import scipy.optimize

    public = scipy.optimize.linear_sum_assignment
    assert public.__module__ == "scipy.optimize._lsap"
    assert editcore._solver() is public
    rng = np.random.default_rng(16)
    mats = [rng.random((n1, n2)) for n1, n2 in ((1, 1), (3, 3), (4, 7), (9, 5), (30, 30))]
    mats += [np.full((4, 4), 0.5), np.eye(5), np.zeros((3, 6))]
    mats += [[[0, 1, 1], [1, 0, 1]], [[2.0, 2.0], [2.0, 2.0], [1.0, 3.0]]]
    for mat in mats:
        got, want = editcore._solver()(mat), public(mat)
        assert [a.tolist() for a in got] == [a.tolist() for a in want]


def test_solver_falls_back_to_scipy_optimize():
    """Where scipy/optimize holds no _lsap file of any extension suffix,
    the solver is scipy.optimize's own, imported."""
    code = (
        "import importlib.machinery, sys\n"
        "importlib.machinery.EXTENSION_SUFFIXES = ['.no-such-suffix']\n"
        "from mtstab import editcore\n"
        "solve = editcore._solver()\n"
        "imported = 'scipy.optimize' in sys.modules\n"
        "import scipy.optimize\n"
        "print(imported, solve is scipy.optimize.linear_sum_assignment)\n"
    )
    assert _run_fresh(code) == "True True"
