import gc
import itertools
import math
import os
import random
import subprocess
import sys

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
    edge_canonical,
    labeled_canonical,
    path_variants,
    random_abstract_tree,
    random_field,
    random_tiny_tree,
    replay_contract,
    selkow_brute_force,
    zhang_brute_force,
)
from mtstab import editcore
from mtstab import mergetree as mt
from mtstab.distances import delta_p
from mtstab.editcore import (
    ABS_DIFF,
    WASSERSTEIN_POINT,
    CostModel,
    EdgeTree,
    EditMapping,
    EditOp,
    brute_force_distance,
    check_sequence,
    contract,
    deform_brute_force,
    deform_witness_search,
    _qualifying_iso,
    _subset_variants,
    edge_tree_of,
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
    for bit, blank scalar labels included."""
    rng = random.Random(67)
    for _ in range(50):
        scalars = [rng.uniform(-10, 10) * 10 ** rng.randint(-6, 3) for _ in range(rng.randint(0, 6))]
        points = [tuple(rng.uniform(-10, 10) * 10 ** rng.randint(-6, 3) for _ in range(2))
                  for _ in range(rng.randint(0, 6))]
        for cost, labels in ((ABS_DIFF, scalars + [mt.BLANK]), (WASSERSTEIN_POINT, points)):
            la, lb = rng.sample(labels, len(labels) // 2), labels
            rows = cost.relabel_rows(la, lb)
            assert [[c.hex() for c in row] for row in rows] == [
                [cost.relabel(a, b).hex() for b in lb] for a in la
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
    rng = random.Random(4)
    big = labeled(random_abstract_tree(rng))
    with pytest.raises(SizeGuardError):
        brute_force_distance(big, big, node_limit=2)


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
    assert edge_canonical(result) == edge_canonical(fig3_right())


def test_delete_with_prune_merges_labels():
    et = fig3_left()
    out = check_edge_sequence(et, (EditOp("edge_delete", "E", 2.0),))
    # C became regular: (D,C)+(C,B) merged into a length-6 edge
    assert sorted(round(v, 6) for v in out.length.values()) == [3.0, 5.0, 6.0]


def test_empty_sequence_identity():
    et = fig3_left()
    out = check_edge_sequence(et, ())
    assert edge_canonical(out) == edge_canonical(et)


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
    rng = random.Random(7)
    t = random_abstract_tree(rng)
    with pytest.raises(SizeGuardError):
        deform_brute_force(t, t, edge_limit=1)


def test_contract_operational_semantics():
    # deleting both leaves of a cherry keeps their parent as a leaf edge,
    # in the direct quotient and in the deletion replay
    et = EdgeTree(
        {"r": None, "p": "r", "c": "p", "d": "p"},
        {"p": 1.0, "c": 2.0, "d": 3.0},
        "r",
    )
    for q in (contract(et, {"c", "d"}), replay_contract(et, {"c", "d"})):
        assert q.edge_count() == 1
        assert list(q.length.values()) == [pytest.approx(1.0)]
    with pytest.raises(ValidationError):
        contract(et, {"r"})


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
        et = edge_tree_of(t)
        edges = [v for v in et.nodes() if et.parent[v] is not None]
        for r in range(len(edges) + 1):
            for combo in itertools.combinations(edges, r):
                q = contract(et, frozenset(combo))
                assert edge_canonical(q) == edge_canonical(replay_contract(et, combo)), combo


def test_path_variants_are_the_leaf_deletion_sets_in_order():
    """The delete sets of delta_P's oracle must be exactly the sets
    reachable by iterated leaf-edge deletions, sorted as delta_E's list
    sorts them, with the costs of its entries."""
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
        got = [item[1] for item in path_variants(et)]
        assert got == expected
        closed = [(c, d) for c, d, _, _ in eager_subset_variants(et)
                  if all(k in d for v in d for k in et.children[v])]
        assert [(c, d) for c, d, _, _ in path_variants(et)] == closed


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
    """Every delete set once, its cost the sum of its lengths in id order
    (int 0 for the empty set, as sum gives), sorted by cost and then by the
    sorted ids: the same type, bits and set per entry as a reference built
    with itertools.combinations, on int-id grid trees and on string-id
    trees with tied costs."""
    trees = grid_trees(21, 20, max_edges=9)
    trees += [abstract_merge_tree(p, v) for p, v in (*TIED_TREES, *HASH_ORDER_PAIR)]
    for t in trees:
        et = edge_tree_of(t)
        edges = sorted((v for v in et.nodes() if et.parent[v] is not None), key=_id_key)
        want = sorted(
            (
                (sum(et.length[v] for v in combo), frozenset(combo), tuple(map(_id_key, combo)))
                for r in range(len(edges) + 1)
                for combo in itertools.combinations(edges, r)
            ),
            key=lambda entry: (entry[0], entry[2]),
        )
        got = _subset_variants(et)
        assert [(type(c), float(c).hex(), d) for c, d, _ in got] == [
            (type(c), float(c).hex(), d) for c, d, _ in want
        ]
        assert all(built is None for _, _, built in got)


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
    trees of the same field, whose variants an earlier call enumerated."""
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
        memo1, memo2 = editcore._variants_of(t1), editcore._variants_of(t2)
        assert merge_tree_of(f) is t1 and editcore._variants_of(merge_tree_of(f)) is memo1
        assert merge_tree_of(f2) is t2 and editcore._variants_of(merge_tree_of(f2)) is memo2
        assert results(lambda: (t1, t2)) == fresh


def test_deform_computes_shapes_once_per_delete_set(monkeypatch):
    """Quotients are built when a search first reaches their delete set and
    kept with it: on a fresh pair, shapes() runs at most once per delete set
    of either tree, over delta_E and the witness search together,
    and never inside _iso. delta_E stops before it reaches every set, so it
    calls shapes() fewer times than there are delete sets."""
    quotient, shapes, iso = editcore.contract, EdgeTree.shapes, editcore._iso
    made = {}  # id of a quotient -> (the quotient, id of its edge tree, delete set)
    per_set = {}
    calls = {"other": 0, "in_iso": 0}
    inside = [False]

    def tagged_quotient(et, deleted):
        q = quotient(et, deleted)
        made[id(q)] = (q, id(et), deleted)
        return q

    def counted_shapes(self):
        calls["in_iso"] += inside[0]
        if id(self) in made:
            key = made[id(self)][1:]
            per_set[key] = per_set.get(key, 0) + 1
        else:
            calls["other"] += 1
        return shapes(self)

    def flagged_iso(*args):
        inside[0] = True
        try:
            return iso(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(editcore, "contract", tagged_quotient)
    monkeypatch.setattr(EdgeTree, "shapes", counted_shapes)
    monkeypatch.setattr(editcore, "_iso", flagged_iso)
    t1, t2 = grid_trees(15, 2)
    deform_brute_force(t1, t2)
    assert calls == {"other": 0, "in_iso": 0}
    assert set(per_set.values()) == {1}
    assert len(per_set) < 2 ** t1.edge_count() + 2 ** t2.edge_count()
    deform_witness_search(t1, t2, max_ops=stability_degree(t1), max_op_cost=0.5)
    assert set(per_set.values()) == {1} and calls["in_iso"] == 0


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
    et1, et2 = edge_tree_of(t1), edge_tree_of(t2)
    want = eager_deform_brute_force(et1, eager_subset_variants(et1), et2, eager_subset_variants(et2))
    assert deform_brute_force(t1, t2).hex() == want.hex()
    assert 0 < calls["lazy"] < calls["eager"]


def _assert_lazy_matches_eager(t1, t2, max_ops, max_op_cost, filled):
    """delta_E and the witness search on t1, t2 equal the eager oracles'
    bit for bit, and every quotient the lazy searches built equals the
    eager one of its delete set. `filled` counts [built entries, entries]."""
    eager = [(et, eager_subset_variants(et)) for et in (edge_tree_of(t1), edge_tree_of(t2))]
    oracle_args = (*eager[0], *eager[1])
    assert deform_brute_force(t1, t2).hex() == eager_deform_brute_force(*oracle_args).hex()
    got_w = deform_witness_search(t1, t2, max_ops, max_op_cost)
    assert type(got_w) is bool
    assert got_w == (eager_deform_witness_search(*oracle_args, max_ops, max_op_cost) is not None)
    for t, (_, want_variants) in zip((t1, t2), eager):
        _, variants = editcore._variants_of(t)
        # the empty set costs the int 0, as sum() returns it
        assert [(type(c), float(c).hex(), d) for c, d, _ in variants] == [
            (type(c), float(c).hex(), d) for c, d, _, _ in want_variants
        ]
        for (_, _, built), (_, _, q, shapes) in zip(variants, want_variants):
            filled[1] += 1
            if built is not None:
                filled[0] += 1
                assert edge_canonical(built[0]) == edge_canonical(q)
                assert built[1] == shapes


def test_lazy_quotients_match_the_eager_oracle_on_random_pairs():
    """200 pairs of 3x3 and 4x4 grid trees, one minimal perturbation apart
    or independent."""
    rng = random.Random(16)
    filled = [0, 0]
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
        if max(t1.edge_count(), t2.edge_count()) > editcore.DEFORM_EDGE_LIMIT:
            with pytest.raises(SizeGuardError):
                deform_brute_force(t1, t2)
            continue
        _assert_lazy_matches_eager(t1, t2, stability_degree(t1), max_op_cost, filled)
        compared += 1
    assert 0 < filled[0] < filled[1]


def test_lazy_quotients_match_the_eager_oracle_on_ties_and_one_edge_trees():
    """Hand-built trees with edges of length 1 (and one of length 2), so
    many delete sets cost the same and the sorted ids break the ties, also
    between sets of different sizes, and 1-edge trees."""
    filled = [0, 0]
    for (p1, v1), (p2, v2) in itertools.product(TIED_TREES, repeat=2):
        for max_ops, max_op_cost in ((1, 1.0), (3, 1.0), (6, 0.5)):
            t1, t2 = abstract_merge_tree(p1, v1), abstract_merge_tree(p2, v2)
            _assert_lazy_matches_eager(t1, t2, max_ops, max_op_cost, filled)
    assert 0 < filled[0] <= filled[1]


def test_iso_leaves_no_cyclic_garbage():
    """_iso recurses at module level, so its calls leave nothing for the
    cycle collector; the 2-leaf groups go through the assignment solver."""
    t = abstract_merge_tree(
        {"r": None, "s": "r", "a": "s", "b": "s", "t": "s", "c": "t", "d": "t"},
        {"r": 0.0, "s": 1.0, "a": 2.5, "b": 3.0, "t": 2.0, "c": 3.5, "d": 4.0},
    )
    q1 = edge_tree_of(t)
    q2 = EdgeTree(q1.parent, {v: 2.0 * x for v, x in q1.length.items()}, q1.root)
    s1, s2 = q1.shapes(), q2.shapes()
    # the first call imports the assignment solver, and that import leaves
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
    """shapes() fills its shapes bottom-up, so depth is no RecursionError."""
    depth = 2000
    parent = {0: None, **{v: v - 1 for v in range(1, depth + 1)}}
    et = EdgeTree(parent, {v: 1.0 for v in range(1, depth + 1)}, 0)
    shape = et.shapes()[et.root]
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


def eager_witness(t1, t2):
    """delta_E's value and DeformWitness, from the eager oracle."""
    et1, et2 = edge_tree_of(t1), edge_tree_of(t2)
    return eager_deform_brute_force(
        et1, eager_subset_variants(et1), et2, eager_subset_variants(et2), want_witness=True
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
        assert edge_canonical(out) == edge_canonical(edge_tree_of(t2))


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
    et1, et2 = edge_tree_of(t1), edge_tree_of(t2)
    w = eager_deform_witness_search(
        et1, eager_subset_variants(et1), et2, eager_subset_variants(et2), 3, 0.2
    )
    seq = deform_sequence(t1, t2, w)
    assert len(seq) <= 3 and max(op.cost for op in seq) <= 0.2 + 1e-9


def test_qualifying_iso_rejects_a_relabel_above_cap():
    """One edge whose lengths differ by 1.0: above cap, no budget of
    relabels lets it through; with cap above the difference it is the one
    relabel of the identity."""
    q1 = EdgeTree({"r": None, "a": "r"}, {"a": 1.0}, "r")
    q2 = EdgeTree({"r": None, "b": "r"}, {"b": 2.0}, "r")
    s1, s2 = q1.shapes(), q2.shapes()
    assert _qualifying_iso(q1, s1, q2, s2, 5, 0.5) is None
    assert _qualifying_iso(q1, s1, q2, s2, 5, 1.5) == [("r", "r"), ("a", "b")]
    assert _qualifying_iso(q1, s1, q2, s2, 0, 1.5) is None
