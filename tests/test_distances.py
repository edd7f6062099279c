import math
import random

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from helpers import random_abstract_tree, random_field, staircase_field
from mtstab import mergetree as mt
from mtstab.distances import (
    DEFAULT_GUARDS,
    Guards,
    MetricId,
    _all_decompositions,
    _assignment_min,
    compute,
    delta_b,
    delta_e,
    delta_g,
    delta_l,
    delta_p,
    delta_s,
    delta_w,
    delta_x,
    metric_from_string,
    tree_distance,
)
from mtstab.editcore import MappingConstraint, brute_force_distance
from mtstab.errors import SizeGuardError
from mtstab.field import apply_value_change, validate_field
from mtstab.mergetree import (
    build_bdt,
    build_obdt,
    label_for_scheme,
    merge_tree_of,
    persistence_branch_decomposition,
)
from mtstab.perturb import apply_perturbation
from mtstab.stability import (
    CounterexampleFamily,
    counterexample,
    random_grid_field,
    random_minimal_perturbation,
)

ALL_METRICS = tuple(MetricId)


def small_tree_pairs(seed, count, max_edges=5):
    rng = random.Random(seed)
    return [
        (random_abstract_tree(rng, max_edges), random_abstract_tree(rng, max_edges))
        for _ in range(count)
    ]


def test_metric_from_string():
    assert metric_from_string("W") is MetricId.W
    with pytest.raises(ValueError):
        metric_from_string("zz")


def test_identical_trees_all_metrics_zero():
    rng = random.Random(0)
    for _ in range(5):
        t = random_abstract_tree(rng, max_edges=5)
        for m in ALL_METRICS:
            assert tree_distance(m, t, t) == pytest.approx(0.0, abs=1e-12)


def test_oracle_equivalence_w_x_l():
    """The polynomial DPs agree exactly with the brute-force mapping
    enumeration on 200 random small tree pairs."""
    pairs = small_tree_pairs(17, 200, max_edges=5)
    small = [(a, b) for a, b in pairs if a.node_count() <= 6 and b.node_count() <= 6]
    assert len(small) >= 150
    for a, b in small:
        lw1 = label_for_scheme(build_bdt(persistence_branch_decomposition(a)), mt.BDT_BIRTH_DEATH)
        lw2 = label_for_scheme(build_bdt(persistence_branch_decomposition(b)), mt.BDT_BIRTH_DEATH)
        ow, _ = brute_force_distance(lw1, lw2, MappingConstraint.SELKOW)
        assert delta_w(a, b) == pytest.approx(ow, abs=1e-9)
        lx1 = label_for_scheme(build_obdt(persistence_branch_decomposition(a)), mt.OBDT_BIRTH_DEATH)
        lx2 = label_for_scheme(build_obdt(persistence_branch_decomposition(b)), mt.OBDT_BIRTH_DEATH)
        ox, _ = brute_force_distance(lx1, lx2, MappingConstraint.SELKOW)
        assert delta_x(a, b) == pytest.approx(ox, abs=1e-9)
        ll1 = label_for_scheme(a, mt.NODE_DIST_TO_PARENT)
        ll2 = label_for_scheme(b, mt.NODE_DIST_TO_PARENT)
        ol, _ = brute_force_distance(ll1, ll2, MappingConstraint.SELKOW)
        assert delta_l(a, b) == pytest.approx(ol, abs=1e-9)


def test_cross_metric_orderings():
    for a, b in small_tree_pairs(23, 40, max_edges=5):
        assert delta_w(a, b) <= delta_x(a, b) + 1e-9
        assert delta_g(a, b) <= delta_l(a, b) + 1e-9
        assert delta_e(a, b) <= delta_p(a, b) + 1e-9


def test_symmetry_all_metrics():
    for a, b in small_tree_pairs(29, 12, max_edges=4):
        for m in ALL_METRICS:
            assert tree_distance(m, a, b) == pytest.approx(tree_distance(m, b, a), abs=1e-9)


def test_triangle_inequality_sampled_all_but_b():
    rng = random.Random(31)
    triples = [
        tuple(random_abstract_tree(rng, max_edges=4) for _ in range(3)) for _ in range(8)
    ]
    for m in ALL_METRICS:
        if m is MetricId.B:
            continue  # the branch mapping distance is not a metric
        for a, b, c in triples:
            ab = tree_distance(m, a, b)
            bc = tree_distance(m, b, c)
            ac = tree_distance(m, a, c)
            assert ac <= ab + bc + 1e-9


def test_chain_bdt_x_equals_w():
    """On trees whose BDTs are chains (every node at most one child), the
    ordered and unordered matchings coincide."""
    rng = random.Random(37)
    chains = []
    while len(chains) < 8:
        t = random_abstract_tree(rng, max_edges=5)
        bdt = build_bdt(persistence_branch_decomposition(t))
        if all(len(bdt.children[b]) <= 1 for b in bdt.nodes()):
            chains.append(t)
    for a in chains[:4]:
        for b in chains[4:]:
            assert delta_x(a, b) == pytest.approx(delta_w(a, b), abs=1e-9)


def test_compute_field_level():
    rng = random.Random(41)
    f = random_field(rng, 3, 3)
    for m in ALL_METRICS:
        assert compute(m, f, f) == pytest.approx(0.0, abs=1e-12)


def test_compute_shift_invariance():
    """Difference-labeled metrics vanish under a constant shift. The
    birth-death-labeled ones cannot: every branch point moves diagonally by
    the shift, so each matched pair costs shift * sqrt(2)."""
    rng = random.Random(43)
    f = random_field(rng, 3, 3)
    shift = 11.5
    g = validate_field(f.domain, [v + shift for v in f.values])
    for m in (MetricId.E, MetricId.P, MetricId.L, MetricId.G):
        assert compute(m, f, g) == pytest.approx(0.0, abs=1e-9)
    n_branches = len(persistence_branch_decomposition(merge_tree_of(f)).branches)
    expected = n_branches * shift * 2 ** 0.5
    for m in (MetricId.W, MetricId.X):
        d = compute(m, f, g)
        assert 0.0 < d <= expected + 1e-9


# ---------------------------------------------------------------------------
# Values on the counterexample figures (verified by the brute-force oracles)
# ---------------------------------------------------------------------------

def test_fig7_values():
    t1, t2 = counterexample(CounterexampleFamily.EDGE_SPLIT_FIG7, 10.0, 0.1)
    assert delta_e(t1, t2) == pytest.approx(0.1, abs=1e-9)
    assert delta_p(t1, t2) == pytest.approx(0.1, abs=1e-9)
    assert delta_l(t1, t2) == pytest.approx(20.1)
    assert delta_g(t1, t2) == pytest.approx(20.1)
    assert delta_w(t1, t2) == pytest.approx(0.1 / 2 ** 0.5)
    assert delta_s(t1, t2) == pytest.approx(0.2 / 2 ** 0.5)


def test_fig8_values():
    t1, t2 = counterexample(CounterexampleFamily.HORIZONTAL_FIG8, 10.0, 0.1)
    # deformation and general classic: delete+insert the inner epsilon edge
    # plus relabels of the c, f and root edges: 6 * eps in total
    assert delta_e(t1, t2) == pytest.approx(0.6)
    assert delta_g(t1, t2) == pytest.approx(0.6)
    assert delta_p(t1, t2) == pytest.approx(20.2)
    assert delta_l(t1, t2) == pytest.approx(20.2)
    expected_w = 0.1 + 10.0 / 2 ** 0.5 + 9.9 / 2 ** 0.5
    assert delta_w(t1, t2) == pytest.approx(expected_w)
    assert delta_x(t1, t2) == pytest.approx(expected_w)
    assert delta_b(t1, t2) >= 9.9


def test_fig10_values():
    t1, t2 = counterexample(CounterexampleFamily.VERTICAL_FIG10, 10.0, 0.1)
    for d in (delta_e, delta_p, delta_l, delta_g):
        assert d(t1, t2) == pytest.approx(0.2)
    assert delta_w(t1, t2) == pytest.approx(0.2 + 10.0 * 2 ** 0.5)
    assert delta_s(t1, t2) >= 10.0
    assert delta_b(t1, t2) == pytest.approx(0.2)


def test_fig10_classic_is_single_relabel():
    t1, t2 = counterexample(CounterexampleFamily.VERTICAL_FIG10, 10.0, 0.1)
    l1 = label_for_scheme(t1, mt.NODE_DIST_TO_PARENT)
    l2 = label_for_scheme(t2, mt.NODE_DIST_TO_PARENT)
    cost, mapping = brute_force_distance(l1, l2, MappingConstraint.SELKOW)
    assert cost == pytest.approx(0.2)
    assert all(a == b for a, b in mapping.pairs)  # identity, one label differs


# ---------------------------------------------------------------------------
# Depth robustness of the one-degree DPs and their 1x1 assignment kernel
# ---------------------------------------------------------------------------

def _depth(children, root):
    deepest, stack = 0, [(root, 0)]
    while stack:
        v, d = stack.pop()
        deepest = max(deepest, d)
        stack.extend((c, d + 1) for c in children(v))
    return deepest


def test_one_degree_dps_on_1200_level_trees():
    """w, x and l run bottom-up: no RecursionError on trees far deeper than
    the interpreter's recursion limit."""
    a, b = merge_tree_of(staircase_field(2400, 0.0)), merge_tree_of(staircase_field(2400, 0.3))
    bdt = build_bdt(persistence_branch_decomposition(a))
    assert _depth(a.children, a.root) >= 1199
    assert _depth(lambda v: bdt.children[v], bdt.root_branch) >= 1199
    for m in (MetricId.W, MetricId.X, MetricId.L):
        ab = tree_distance(m, a, b)
        assert 0.0 < ab < math.inf
        assert ab == tree_distance(m, b, a)
        assert tree_distance(m, a, a) == 0.0


def test_assignment_min_1x1_is_the_solver_value():
    """The 1x1 closed form returns exactly what the solver returns on the
    2x2 matrix it replaces, on random triples and on near-ties c = d + i,
    one ulp either side of it."""
    rng = random.Random(59)
    for k in range(4000):
        scale = 10 ** rng.uniform(-3, 3)
        d = rng.uniform(0.0, scale) if k % 7 else 0.0
        i = rng.uniform(0.0, scale) * 10 ** rng.uniform(-2, 2) if k % 11 else 0.0
        c = (rng.uniform(0.0, 2 * scale), d + i,
             math.nextafter(d + i, math.inf), math.nextafter(d + i, 0.0))[k % 4]
        mat = np.array([[c, d], [i, 0.0]])
        rows, cols = linear_sum_assignment(mat)
        assert _assignment_min([[c]], [d], [i]) == float(mat[rows, cols].sum())


# ---------------------------------------------------------------------------
# delta_b: the ordered one-degree DP over every decomposition pair
# ---------------------------------------------------------------------------

def delta_b_per_pair(t1, t2, guards=DEFAULT_GUARDS):
    """delta_b's oracle: every decomposition pair builds both labeled OBDTs
    and runs its own brute-force Selkow search."""
    m = max(t1.edge_count(), t2.edge_count())
    if m > guards.branch_edges:
        raise SizeGuardError("branch decomposition enumeration", m, guards.branch_edges)
    best = math.inf
    for bd1 in _all_decompositions(t1):
        l1 = label_for_scheme(build_obdt(bd1), mt.OBDT_BIRTH_DEATH)
        for bd2 in _all_decompositions(t2):
            l2 = label_for_scheme(build_obdt(bd2), mt.OBDT_BIRTH_DEATH)
            cost, _ = brute_force_distance(l1, l2, MappingConstraint.SELKOW)
            best = min(best, cost)
    return best


def delta_b_pairs():
    """Random 4x4 tree pairs with at most 8 edges: independent fields, and
    fields one minimal perturbation apart (as in the stability suite), plus
    the three counterexample figures."""
    rng = random.Random(61)
    pairs = []
    while len(pairs) < 160:
        f = random_grid_field(rng, 4, 4)
        if len(pairs) % 2:
            g = random_grid_field(rng, 4, 4)
        else:
            g = apply_perturbation(f, random_minimal_perturbation(rng, f))
        t1, t2 = merge_tree_of(f), merge_tree_of(g)
        if max(t1.edge_count(), t2.edge_count()) <= 8:
            pairs.append((t1, t2))
    for family in (
        CounterexampleFamily.EDGE_SPLIT_FIG7,
        CounterexampleFamily.HORIZONTAL_FIG8,
        CounterexampleFamily.VERTICAL_FIG10,
    ):
        pairs.append(counterexample(family, 10.0, 0.1))
    return pairs


def test_delta_b_matches_the_per_pair_selkow_oracle():
    """The DP sums in another order than the search, so the two agree within
    the tolerance the w, x and l DPs are held to, not bit for bit."""
    for t1, t2 in delta_b_pairs():
        assert delta_b(t1, t2) == pytest.approx(delta_b_per_pair(t1, t2), abs=1e-9)


def test_delta_b_guards_raise_the_per_pair_errors():
    """A tight branch_edges guard raises the oracle's error with the same
    fields. delta_b runs no mapping search, so mapping_nodes does not bind."""
    t1, t2 = counterexample(CounterexampleFamily.HORIZONTAL_FIG8, 10.0, 0.1)
    for distance in (delta_b, delta_b_per_pair):
        with pytest.raises(SizeGuardError) as info:
            distance(t1, t2, Guards(branch_edges=4))
        fields = (info.value.what, info.value.size, info.value.limit)
        assert fields == ("branch decomposition enumeration", 5, 4)
    assert delta_b(t1, t2, Guards(mapping_nodes=2)) == delta_b(t1, t2)
