import collections
import itertools
import math
import random
import warnings

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import helpers
from helpers import (
    all_pair_order,
    assignment_matrix_reference,
    assignment_min_reference,
    caterpillar_field,
    finite_tree_pairs,
    one_degree_dp_all_pairs,
    ordered_one_degree_dp_all_pairs,
    path_brute_force,
    random_abstract_tree,
    random_field,
    selkow_brute_force,
    staircase_field,
    suite_tree_pairs,
    zhang_brute_force,
)
from mtstab import distances, editcore, widepairs
from mtstab import mergetree as mt
from mtstab.distances import (
    DEFAULT_GUARDS,
    Guards,
    MetricId,
    _all_decompositions,
    _assignment_min,
    _pair_order,
    compute,
    constrained_dp,
    delta_b,
    delta_e,
    delta_g,
    delta_l,
    delta_p,
    delta_s,
    delta_w,
    delta_x,
    metric_from_string,
    one_degree_dp,
    ordered_one_degree_dp,
    tree_distance,
)
from mtstab.editcore import ABS_DIFF, WASSERSTEIN_POINT, cost_model_for
from mtstab.errors import SizeGuardError, ValidationError
from mtstab.field import TOLERANCE, apply_value_change, build_grid_domain, validate_field
from mtstab.mergetree import (
    BLANK,
    LabeledTree,
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
    run_finite_stability,
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
        lw1 = build_bdt(persistence_branch_decomposition(a))
        lw2 = build_bdt(persistence_branch_decomposition(b))
        ow, _ = selkow_brute_force(lw1, lw2)
        assert delta_w(a, b) == pytest.approx(ow, abs=1e-9)
        lx1 = build_obdt(persistence_branch_decomposition(a))
        lx2 = build_obdt(persistence_branch_decomposition(b))
        ox, _ = selkow_brute_force(lx1, lx2)
        assert delta_x(a, b) == pytest.approx(ox, abs=1e-9)
        ll1 = label_for_scheme(a, mt.NODE_DIST_TO_PARENT)
        ll2 = label_for_scheme(b, mt.NODE_DIST_TO_PARENT)
        ol, _ = selkow_brute_force(ll1, ll2)
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
    cost, mapping = selkow_brute_force(l1, l2)
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
    assert _depth(lambda v: bdt.children[v], bdt.root) >= 1199
    for m in (MetricId.W, MetricId.X, MetricId.L):
        ab = tree_distance(m, a, b)
        assert 0.0 < ab < math.inf
        assert ab == tree_distance(m, b, a)
        assert tree_distance(m, a, a) == 0.0


def test_assignment_min_1x1_is_the_solver_value():
    """The 1x1 closed form returns exactly what the solver returns on the
    2x2 matrix it replaces, on random triples and on near-ties c = d + i,
    one ulp either side of it; so does its array form, which the wide
    pairs of the ordered DP take for every group pair at once."""
    rng = random.Random(59)
    triples, solved = [], []
    for k in range(4000):
        scale = 10 ** rng.uniform(-3, 3)
        d = rng.uniform(0.0, scale) if k % 7 else 0.0
        i = rng.uniform(0.0, scale) * 10 ** rng.uniform(-2, 2) if k % 11 else 0.0
        c = (rng.uniform(0.0, 2 * scale), d + i,
             math.nextafter(d + i, math.inf), math.nextafter(d + i, 0.0))[k % 4]
        mat = np.array([[c, d], [i, 0.0]])
        rows, cols = linear_sum_assignment(mat)
        solved.append(float(mat[rows, cols].sum()))
        assert _assignment_min([[c]], [d], [i]) == solved[-1]
        triples.append((c, d, i))
    c, d, i = (np.array(column) for column in zip(*triples))
    assert [v.hex() for v in widepairs.one_by_one(c, d, i).tolist()] == [v.hex() for v in solved]


def _assignment_block(rng, n1, n2, kind):
    """A cost block with its deletion and insertion costs: values spread
    over 1e-3 to 1e2, rows of zeros, one value everywhere with half of it
    on every deletion and insertion (a float of 20 significant bits, so
    every matching sums to the same float), or entries one ulp either side
    of their row's deletion plus a column's insertion."""
    spread = lambda: 10 ** rng.uniform(-3, 2)
    dels = [spread() for _ in range(n1)]
    inss = [spread() for _ in range(n2)]
    rows = [[spread() for _ in range(n2)] for _ in range(n1)]
    if kind == "zero rows":
        for r in rng.sample(range(n1), (n1 + 1) // 2):
            rows[r] = [0.0] * n2
            dels[r] = 0.0
    elif kind == "ties":
        tie = math.ldexp(rng.randint(2**19, 2**20), rng.randint(-30, 0))
        rows = [[tie] * n2 for _ in range(n1)]
        dels, inss = [tie / 2] * n1, [tie / 2] * n2
    elif kind == "near ties":
        for a in range(n1):
            for b in range(n2):
                rows[a][b] = math.nextafter(dels[a] + inss[b], rng.choice((0.0, math.inf)))
    return rows, dels, inss


def _solver_calls(monkeypatch):
    """Patch the solver of _assignment_min to record the float64 bytes of
    each matrix it receives, the bytes the compiled solver converts a list
    to; returns the list of records. A block of n1 + n2 up to
    _LIST_BLOCK_MAX must arrive as a list, a larger one as an array."""
    seen = []

    def solver(mat):
        assert (type(mat) is list) == (len(mat) <= distances._LIST_BLOCK_MAX)
        seen.append(np.asarray(mat, dtype=float).tobytes())
        return linear_sum_assignment(mat)

    monkeypatch.setattr(distances, "linear_sum_assignment", solver)
    return seen


def _closed_form_shape(n1, n2):
    return n1 == n2 == 2 or (
        (n1 == 1 or n2 == 1) and 2 < n1 + n2 <= distances._FOLD_SUM_MAX
    )


def _solver_is_certain(rows, dels, inss):
    """Whether the closed forms answer a block of their shapes: numpy sums
    the cells each partial matching takes in the augmented matrix, in row
    order; the least sum is finite and every other one is the same float
    or lies more than TOLERANCE * (1 + the block's sum) above it."""
    n1, n2 = len(dels), len(inss)
    sums = []
    for k in range(min(n1, n2) + 1):
        for matched in itertools.combinations(range(n1), k):
            for cols in itertools.permutations(range(n2), k):
                to = dict(zip(matched, cols))
                cells = [rows[i][to[i]] if i in to else dels[i] for i in range(n1)]
                cells += [0.0 if j in cols else inss[j] for j in range(n2)]
                sums.append(float(np.array(cells).sum()))
    least = min(sums)
    margin = least + TOLERANCE * (1.0 + sum(map(sum, rows)) + sum(dels) + sum(inss))
    return least < math.inf and all(s == least or s > margin for s in sums)


@pytest.mark.parametrize("kind", ["spread", "zero rows", "ties", "near ties"])
def test_assignment_min_builds_the_in_place_matrix_bytes(monkeypatch, kind):
    """Every shape with n1 + n2 from 2 to threshold + 4 returns the
    reference value bit for bit. The 1x1 block makes no solver call; every
    other one makes none or hands the solver the bytes of the in-place
    matrix, from lists below the threshold and in place above it. In the
    shapes the closed forms cover, a block makes no solver call exactly
    when the solver's value is certain: exact ties make none, and near
    ties reach the solver unless their matchings sum to one float."""
    seen = _solver_calls(monkeypatch)
    rng = random.Random(1818)
    calls_in_closed_form_shapes = 0
    for size in range(2, distances._LIST_BLOCK_MAX + 5):
        for n1 in range(1, size):
            n2 = size - n1
            for _ in range(3):
                rows, dels, inss = _assignment_block(rng, n1, n2, kind)
                seen.clear()
                got = _assignment_min(rows, dels, inss)
                assert got.hex() == assignment_min_reference(rows, dels, inss).hex()
                if size == 2:
                    assert seen == []
                    continue
                solved = [assignment_matrix_reference(rows, dels, inss).tobytes()]
                if not _closed_form_shape(n1, n2):
                    assert seen == solved
                    continue
                certain = _solver_is_certain(rows, dels, inss)
                assert certain or kind != "ties"
                assert seen == ([] if certain else solved)
                calls_in_closed_form_shapes += len(seen)
    assert (calls_in_closed_form_shapes > 0) == (kind == "near ties")


def _small_block(rng, n1, n2, kind):
    """A block of a shape the closed forms cover: spread values, zero rows,
    small integers (many exact ties), cells one ulp either side of their
    row's deletion plus their column's insertion or equal to it, or a 2x2
    block whose two full matchings c00 + c11 and c01 + c10 lie within one
    ulp of each other and below every other matching."""
    if kind == "integer ties":
        small = lambda: float(rng.randint(0, 4))
        return ([[small() for _ in range(n2)] for _ in range(n1)],
                [small() for _ in range(n1)], [small() for _ in range(n2)])
    if kind == "diagonal near ties":
        c00, c11 = 10 ** rng.uniform(-3, 2), 10 ** rng.uniform(-3, 2)
        c01 = rng.uniform(0.0, c00 + c11)
        c10 = (c00 + c11) - c01
        c10 = rng.choice((c10, math.nextafter(c10, 0.0), math.nextafter(c10, math.inf)))
        far = 2 * (c00 + c01 + c10 + c11)
        return [[c00, c01], [c10, c11]], [far, far], [far, far]
    rows, dels, inss = _assignment_block(rng, n1, n2, "near ties" if kind == "d + e near ties" else kind)
    if kind == "d + e near ties":
        for a in range(n1):
            for b in range(n2):
                rows[a][b] = rng.choice((rows[a][b], dels[a] + inss[b]))
    return rows, dels, inss


@pytest.mark.parametrize(
    "kind", ["spread", "zero rows", "integer ties", "d + e near ties", "diagonal near ties"]
)
def test_small_block_closed_forms_are_the_solver_value(monkeypatch, kind):
    """Blocks of 1x2 to 1x6, 2x1 to 6x1 and 2x2 give the solver's value bit
    for bit, near ties included: there the least matching sum in floats
    need not be the solver's choice. Spread values never reach the
    solver."""
    seen = _solver_calls(monkeypatch)
    shapes = [(1, k) for k in range(2, 7)] + [(k, 1) for k in range(2, 7)] + [(2, 2)]
    if kind == "diagonal near ties":
        shapes = [(2, 2)]
    assert all(_closed_form_shape(n1, n2) for n1, n2 in shapes)
    rng = random.Random(2222)
    for n1, n2 in shapes:
        for _ in range(3000 // len(shapes)):
            rows, dels, inss = _small_block(rng, n1, n2, kind)
            seen.clear()
            got = _assignment_min(rows, dels, inss)
            assert got.hex() == assignment_min_reference(rows, dels, inss).hex()
            if kind == "spread":
                assert seen == []


def test_numpy_order_sum_is_numpys_sum():
    """distances._numpy_order_sum has the bits of float(np.array(a).sum())
    for every length from 1 to 200 and around 256, 512, 1024 and deep's
    1,198-cell solutions, where numpy splits its pairwise sum: spread and
    signed values, zeros of both signs, values whose sum overflows and
    infinities of both signs."""
    rng = random.Random(128)
    kinds = [
        lambda: 10 ** rng.uniform(-3, 3),
        lambda: rng.uniform(-1.0, 1.0) * 10 ** rng.randint(-3, 3),
        lambda: rng.choice((0.0, -0.0)),
        lambda: rng.uniform(-8e307, 8e307),
        lambda: rng.choice((math.inf, -math.inf, 1.0)),
    ]
    lengths = [*range(1, 201), 255, 256, 257, 511, 512, 513, 1023, 1024, 1025, 1197, 1198, 1199]
    for n in lengths:
        for k in range(250 if n <= 40 else 50):
            cells = [kinds[k % len(kinds)]() for _ in range(n)]
            with np.errstate(all="ignore"):
                want = float(np.array(cells).sum())
            assert distances._numpy_order_sum(cells).hex() == want.hex(), cells


@pytest.mark.parametrize("kind", ["spread", "zero rows", "ties", "near ties",
                                  "d + e near ties", "diagonal near ties"])
def test_assignment_min_has_the_same_bits_on_either_solver(monkeypatch, kind):
    """Every shape with n1 + n2 from 2 to threshold + 4, and the shapes the
    closed forms cover with near ties, give the reference value bit for
    bit whichever solver answers the list-built blocks, the Python one or
    the compiled one: Python sums the chosen cells in numpy's order."""
    def values():
        rng = random.Random(1919)
        if kind in ("spread", "zero rows", "ties", "near ties"):
            shapes = [(n1, size - n1) for size in range(2, distances._LIST_BLOCK_MAX + 5)
                      for n1 in range(1, size)] * 3
            blocks = [_assignment_block(rng, n1, n2, kind) for n1, n2 in shapes]
        else:
            shapes = [(1, k) for k in range(2, 7)] + [(k, 1) for k in range(2, 7)] + [(2, 2)]
            blocks = [_small_block(rng, n1, n2, kind) for n1, n2 in shapes * 100]
        return [(_assignment_min(*block).hex(), assignment_min_reference(*block).hex())
                for block in blocks]

    python, compiled, solved = helpers.solved_both_ways(monkeypatch, values)
    assert python == compiled and solved > 0
    assert all(got == want for got, want in python)


@pytest.mark.filterwarnings("error")
def test_overflowing_blocks_raise_the_same_errors_on_either_solver(monkeypatch):
    """The fields of test_float_overflow_raises_a_typed_error_naming_its_source:
    s and p raise the same ValidationError naming the metric, and l and g
    the same overflow, whichever solver answers the blocks, and no numpy
    warning is raised on the way."""
    def errors():
        rng = random.Random(1)
        dom = build_grid_domain(3, 3)
        f1, f2 = (validate_field(dom, [rng.uniform(-8e307, 8e307) for _ in range(9)]) for _ in "ab")
        out = []
        for m in (MetricId.S, MetricId.P, MetricId.L, MetricId.G):
            with pytest.raises(ValidationError) as info:
                compute(m, f1, f2)
            out.append(str(info.value))
        return out

    python, compiled, solved = helpers.solved_both_ways(monkeypatch, errors)
    assert python == compiled and solved > 0
    assert [e.split(":")[0] for e in python] == ["delta_s", "delta_p", "delta_l overflows a float",
                                                 "delta_g overflows a float"]
    assert "an assignment block's costs overflow" in python[0]


# ---------------------------------------------------------------------------
# Inner pairs memoized, pairs with a leaf in closed form
# ---------------------------------------------------------------------------

def _dp_inputs(t1, t2):
    """(DP, oracle, labeled pair, cost model) for w, x and l on two trees."""
    def bdt(t):
        return build_bdt(persistence_branch_decomposition(t))

    def obdt(t):
        return build_obdt(persistence_branch_decomposition(t))

    def classic(t):
        return label_for_scheme(t, mt.NODE_DIST_TO_PARENT)

    return [
        (one_degree_dp, one_degree_dp_all_pairs, bdt(t1), bdt(t2), WASSERSTEIN_POINT),
        (ordered_one_degree_dp, ordered_one_degree_dp_all_pairs, obdt(t1), obdt(t2), WASSERSTEIN_POINT),
        (one_degree_dp, one_degree_dp_all_pairs, classic(t1), classic(t2), ABS_DIFF),
    ]


def _assert_dps_match_the_oracles(t1, t2):
    for dp, oracle, l1, l2, cost in _dp_inputs(t1, t2):
        for a, b in ((l1, l2), (l2, l1)):
            assert dp(a, b, cost).hex() == oracle(a, b, cost).hex()


def random_labeled_tree(rng, parents, scalar):
    """Labeled tree on nodes 0..len(parents), node v + 1 under parents[v],
    each node's children shuffled into ordered groups of 1 to 3. Labels are
    scalars under a blank root, or birth-death points, spread over several
    magnitudes so that sums round differently in another order."""
    def value():
        return rng.uniform(0.1, 1.0) * 10 ** rng.randint(-3, 2)

    parent, children = {0: None}, {0: []}
    for v, p in enumerate(parents, start=1):
        parent[v], children[v] = p, []
        children[p].append(v)
    groups = {}
    for v, cs in children.items():
        rng.shuffle(cs)
        groups[v], i = [], 0
        while i < len(cs):
            k = rng.randint(1, 3)
            groups[v].append(tuple(cs[i:i + k]))
            i += k
        groups[v] = tuple(groups[v])
    if scalar:
        labels = {v: BLANK if parent[v] is None else value() for v in parent}
        scheme = mt.NODE_DIST_TO_PARENT
    else:
        labels = {v: (value(), value()) for v in parent}
        scheme = mt.OBDT_BIRTH_DEATH
    ch = {v: tuple(cs) for v, cs in children.items()}
    return LabeledTree(scheme, 0, parent, labels, ch, groups)


def _pruned(lt, v):
    """Copy of a labeled tree with the subtree below v cut off."""
    gone, stack = set(), list(lt.children[v])
    while stack:
        u = stack.pop()
        gone.add(u)
        stack.extend(lt.children[u])
    keep = [u for u in lt.parent if u not in gone]
    children = {u: () if u == v else lt.children[u] for u in keep}
    groups = {u: () if u == v else lt.groups[u] for u in keep}
    return LabeledTree(lt.scheme, lt.root, {u: lt.parent[u] for u in keep},
                       {u: lt.labels[u] for u in keep}, children, groups)


def test_dps_match_the_all_pairs_oracles_on_grid_pairs():
    """w, x and l equal the all-pairs recurrences bit for bit on random grid
    trees, one minimal perturbation apart and independent, both ways round."""
    rng = random.Random(71)
    for k in range(150):
        rows, cols = rng.randint(3, 12), rng.randint(3, 12)
        f = random_grid_field(rng, rows, cols)
        g = apply_perturbation(f, random_minimal_perturbation(rng, f)) if k % 2 else random_grid_field(rng, rows, cols)
        _assert_dps_match_the_oracles(merge_tree_of(f), merge_tree_of(g))


def test_delta_b_matches_the_all_pairs_oracle_bit_for_bit():
    """delta_b is the minimum of the ordered DP over decomposition pairs;
    with the oracle DP on every pair in its place, the minimum delta_b
    reaches through its bound has the same bits. Each tree against itself
    ties the bound with the least value, where the walk stops."""
    pairs = delta_b_pairs()
    for t1, t2 in pairs + [(t1, t1) for t1, _ in pairs[::8]]:
        expect = min(
            ordered_one_degree_dp_all_pairs(l1, l2, WASSERSTEIN_POINT)
            for l1 in [build_obdt(bd) for bd in _all_decompositions(t1)]
            for l2 in [build_obdt(bd) for bd in _all_decompositions(t2)]
        )
        assert delta_b(t1, t2).hex() == expect.hex()


def test_dps_match_the_all_pairs_oracles_on_deep_trees():
    """A 400-node caterpillar pair (BDTs are 199-leaf stars) and the
    2,400-vertex staircase pair (chains)."""
    rng = random.Random(73)
    _assert_dps_match_the_oracles(
        merge_tree_of(caterpillar_field(rng, 400)), merge_tree_of(caterpillar_field(rng, 400))
    )
    _assert_dps_match_the_oracles(
        merge_tree_of(staircase_field(2400, 0.0)), merge_tree_of(staircase_field(2400, 0.3))
    )


def test_dps_match_the_all_pairs_oracles_on_hand_built_trees():
    """Groups of several children and leaves next to inner nodes, where the
    ordered rest (a fold over group sums) and the unordered rest (one sum
    over the children) round differently; single-node trees included.

    Independent random trees are compared, and each tree with its copy with
    the subtree below its widest inner node cut off. There the identity
    maps everything else at cost 0.0, so the distance is that node's rest,
    and a rest summed in another order shows in its bits. The wide trees (a
    root over one node with 4 to 7 leaves) give that rest many groups.
    """
    rng = random.Random(79)
    for _ in range(400):
        for scalar in (False, True):
            cost = ABS_DIFF if scalar else WASSERSTEIN_POINT
            shapes = [[rng.randrange(v) for v in range(1, rng.randint(1, 16))] for _ in range(3)]
            shapes.append([0] + [1] * rng.randint(4, 7))
            t1, t2, t3, wide = (random_labeled_tree(rng, p, scalar) for p in shapes)
            pairs = [(t1, t2)]
            for t in (t3, wide):
                inner = [v for v in t.parent if t.children[v]]
                if inner:
                    pairs.append((t, _pruned(t, max(inner, key=lambda v: len(t.children[v])))))
            for l1, l2 in pairs:
                for a, b in ((l1, l2), (l2, l1)):
                    assert one_degree_dp(a, b, cost).hex() == one_degree_dp_all_pairs(a, b, cost).hex()
                    if not scalar:
                        assert (ordered_one_degree_dp(a, b, cost).hex()
                                == ordered_one_degree_dp_all_pairs(a, b, cost).hex())


def _wide_labeled_tree(rng, kind, scalar):
    """A random labeled tree whose root has 8 to 40 children, some of them
    inner, in child groups of 1 to 3, or, for kind "childless", a single
    node. Labels by kind: spread over magnitudes, small integers (exact
    ties), one value nudged by at most one ulp (near ties), or values in
    +-8e307, whose costs overflow."""
    if kind == "childless":
        return random_labeled_tree(rng, [], scalar)
    k = rng.randint(8, 40)
    parents = [0] * k + [rng.randrange(1, k + 1 + v) for v in range(rng.randint(0, 2 * k))]
    lt = random_labeled_tree(rng, parents, scalar)

    def value():
        if kind == "ties":
            return float(rng.randint(0, 3))
        if kind == "near ties":
            return math.nextafter(1.5, rng.choice((0.0, 1.5, math.inf)))
        if kind == "huge":
            return rng.uniform(-8e307, 8e307)
        return rng.uniform(0.1, 1.0) * 10 ** rng.randint(-3, 2)

    if kind != "spread":
        labels = {v: lab if lab is BLANK else value() if scalar else (value(), value())
                  for v, lab in lt.labels.items()}
        lt = LabeledTree(lt.scheme, lt.root, lt.parent, labels, lt.children, lt.groups)
    return lt


def _outcome(dp, l1, l2, cost):
    """The DP's value as .hex(), or the message of the error it raises."""
    try:
        return dp(l1, l2, cost).hex()
    except ValidationError as exc:
        return f"ValidationError: {exc}"


@pytest.mark.parametrize("kind", ["spread", "ties", "near ties", "huge"])
def test_wide_pairs_give_the_row_loop_bits(monkeypatch, kind):
    """The wide-pair path of the one-degree DPs keeps the row loop's bits
    (docs/decisions.md §15): with the threshold at 1 every pair with
    children on both sides takes it, and with a threshold no tree reaches
    none does; w, x and l give the same .hex(), or the same error, both
    ways round. Trees have inner children and multi-child groups, and each
    is also compared with a single node."""
    wide_calls = []
    real_child_rows = widepairs.child_rows
    monkeypatch.setattr(widepairs, "child_rows", lambda *a: wide_calls.append(1) or real_child_rows(*a))
    rng = random.Random(83)
    for k in range(24):
        scalar = k % 2 == 1
        cost = ABS_DIFF if scalar else WASSERSTEIN_POINT
        t1, t2 = (_wide_labeled_tree(rng, kind, scalar) for _ in "ab")
        single = _wide_labeled_tree(rng, "childless", scalar)
        dps = [one_degree_dp] if scalar else [one_degree_dp, ordered_one_degree_dp]
        for dp in dps:
            for a, b in ((t1, t2), (t2, t1), (t1, single), (single, t2)):
                outcomes = []
                for threshold in (1, 10 ** 9):
                    monkeypatch.setattr(distances, "_WIDE_PAIR_MIN", threshold)
                    wide_calls.clear()
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        outcomes.append(_outcome(dp, a, b, cost))
                    assert bool(wide_calls) == (threshold == 1 and single not in (a, b))
                assert outcomes[0] == outcomes[1]


def test_pair_order_lists_only_inner_pairs():
    """The memo holds the root pair and the inner pairs reachable from it:
    on a 400-node caterpillar pair the BDT stars give the root pair alone,
    and the merge trees give every inner pair of the all-pairs order."""
    rng = random.Random(73)
    t1, t2 = merge_tree_of(caterpillar_field(rng, 400)), merge_tree_of(caterpillar_field(rng, 400))
    b1, b2 = (build_bdt(persistence_branch_decomposition(t)) for t in (t1, t2))
    assert _pair_order(b1, b2) == [(b1.root, b2.root)]
    l1, l2 = (label_for_scheme(t, mt.NODE_DIST_TO_PARENT) for t in (t1, t2))
    order = _pair_order(l1, l2)
    inner = [(a, b) for a, b in all_pair_order(l1, l2) if l1.children[a] and l2.children[b]]
    assert order[0] == (l1.root, l2.root)
    assert sorted(order, key=repr) == sorted(inner, key=repr)
    assert len(order) == len(set(order)) == 200  # root and 199 saddles, paired by depth


# ---------------------------------------------------------------------------
# delta_s: Zhang's constrained DP against the branch and bound
# ---------------------------------------------------------------------------

def test_constrained_dp_matches_the_zhang_oracle_on_random_pairs():
    """400 random pairs of at most 6 edges per label scheme: branch labels
    with Wasserstein costs, and distances to the parent, blank roots
    included, with |l1 - l2|. The DP sums in another order than the search,
    so the two agree within 1e-12, not bit for bit (docs/decisions.md §13)."""
    for scheme in (mt.BRANCH_LABEL_ON_NODES, mt.NODE_DIST_TO_PARENT):
        rng = random.Random(71)
        for _ in range(400):
            l1 = label_for_scheme(random_abstract_tree(rng, 6), scheme)
            l2 = label_for_scheme(random_abstract_tree(rng, 6), scheme)
            oracle, _ = zhang_brute_force(l1, l2)
            assert constrained_dp(l1, l2, cost_model_for(l1)) == pytest.approx(oracle, abs=1e-12)


@pytest.mark.parametrize("grid", [6, 8])
def test_constrained_dp_matches_the_zhang_oracle_on_suite_pairs(grid):
    """The 40 seed-5 suite pairs at 6x6 and 8x8, up to 30 nodes, which the
    12-node guard of the search used to refuse; the oracle's limit is
    lifted."""
    for t1, t2 in suite_tree_pairs(5, 40, grid):
        l1 = label_for_scheme(t1, mt.BRANCH_LABEL_ON_NODES)
        l2 = label_for_scheme(t2, mt.BRANCH_LABEL_ON_NODES)
        oracle, _ = zhang_brute_force(l1, l2, node_limit=math.inf)
        assert delta_s(t1, t2) == pytest.approx(oracle, abs=1e-12)


def test_delta_s_deletes_both_nodes_of_far_apart_two_node_trees():
    """A relabel from (0, 0.1) to (10, 10.1) costs 10 * sqrt(2), deleting
    and inserting all four labels 4 * 0.1 / sqrt(2). T's case del(v) +
    ins(w) + F finds the second; without it the DP returns 14.28."""
    t1 = mt.abstract_merge_tree({"r": None, "m": "r"}, {"r": 0.0, "m": 0.1})
    t2 = mt.abstract_merge_tree({"r": None, "m": "r"}, {"r": 10.0, "m": 10.1})
    assert delta_s(t1, t2) == pytest.approx(4 * 0.1 / 2 ** 0.5, abs=1e-12)
    l1 = label_for_scheme(t1, mt.BRANCH_LABEL_ON_NODES)
    l2 = label_for_scheme(t2, mt.BRANCH_LABEL_ON_NODES)
    assert delta_s(t1, t2) == pytest.approx(zhang_brute_force(l1, l2)[0], abs=1e-12)


def test_delta_s_has_no_size_guard():
    """delta_s runs no search, so mapping_nodes does not bind."""
    for t1, t2 in itertools.islice(suite_tree_pairs(5, 40, 8), 5):
        assert delta_s(t1, t2, Guards(mapping_nodes=2)) == delta_s(t1, t2)


def test_delta_s_is_symmetric_with_a_zero_diagonal_on_6x6_pairs():
    for t1, t2 in suite_tree_pairs(5, 40, 6):
        assert delta_s(t1, t2) == pytest.approx(delta_s(t2, t1), abs=1e-12)
        assert delta_s(t1, t1) == 0.0


# ---------------------------------------------------------------------------
# delta_p: the path mapping DP against the delete-set walk
# ---------------------------------------------------------------------------

def test_path_mapping_dp_matches_the_path_oracle_on_random_pairs():
    """400 random pairs of at most 8 edges, both ways round and each tree
    against itself. The DP sums in another order than the walk, so the two
    agree within 1e-12, not bit for bit (docs/decisions.md §14)."""
    rng = random.Random(73)
    for _ in range(400):
        t1, t2 = random_abstract_tree(rng, 8), random_abstract_tree(rng, 8)
        for a, b in ((t1, t2), (t2, t1), (t1, t1)):
            assert delta_p(a, b) == pytest.approx(path_brute_force(a, b), abs=1e-12)


@pytest.mark.parametrize("suite, pairs", [
    ("seed-42 4x4", lambda: suite_tree_pairs(42, 200, 4)),
    ("seed-5 5x5", lambda: suite_tree_pairs(5, 40, 5)),
    ("seed-7 3x3 finite", lambda: finite_tree_pairs(7, 100, 3, 0.05)),
])
def test_path_mapping_dp_matches_the_path_oracle_on_suite_pairs(suite, pairs):
    """The pairs the stability suites run, the 5x5 ones up to the sizes
    the deform guard used to refuse; the oracle has no guard."""
    for t1, t2 in pairs():
        assert delta_p(t1, t2) == pytest.approx(path_brute_force(t1, t2), abs=1e-12)


@pytest.mark.parametrize("x", [10.0, 20.0, 40.0])
def test_delta_p_on_the_counterexample_figures(x):
    """fig7 and fig10 stay at eps and 2 eps; fig8 grows as 2x + 2 eps."""
    eps = 0.1
    for family, want in (
        (CounterexampleFamily.EDGE_SPLIT_FIG7, eps),
        (CounterexampleFamily.HORIZONTAL_FIG8, 2 * x + 2 * eps),
        (CounterexampleFamily.VERTICAL_FIG10, 2 * eps),
    ):
        t1, t2 = counterexample(family, x, eps)
        assert delta_p(t1, t2) == pytest.approx(want, abs=1e-9)
        assert delta_p(t1, t2) == pytest.approx(path_brute_force(t1, t2), abs=1e-12)


def test_delta_p_has_no_size_guard():
    """delta_p runs no search, so deform_edges does not bind."""
    for t1, t2 in itertools.islice(suite_tree_pairs(5, 40, 6), 5):
        assert delta_p(t1, t2, Guards(deform_edges=1)) == delta_p(t1, t2)


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
        l1 = build_obdt(bd1)
        for bd2 in _all_decompositions(t2):
            l2 = build_obdt(bd2)
            cost, _ = selkow_brute_force(l1, l2)
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


@pytest.mark.parametrize("name", ["mapping_nodes", "deform_edges", "branch_edges"])
def test_guards_refuse_a_negative_limit(name):
    """A negative limit would skip every check of its metric; it raises a
    ValidationError naming the guard and the value. A limit of 0 stands."""
    with pytest.raises(ValidationError, match=f"^guard {name} must be at least 0, got -1$"):
        Guards(**{name: -1})
    assert getattr(Guards(**{name: 0}), name) == 0


def test_collapse_costs_are_summed_once_per_tree_and_side(monkeypatch):
    """delta_b runs the DP on the decomposition pairs its bound does not
    rule out, so a labeled OBDT can meet several decompositions of the other
    tree; its collapse costs are still summed once. On the fig8 pair every
    OBDT meets at least one. Deleting and inserting cost the same, so a
    tree on both sides is summed once too."""
    builds = collections.Counter()
    walk = editcore._parents_first

    def counting(lt):
        builds[id(lt)] += 1
        return walk(lt)

    monkeypatch.setattr(editcore, "_parents_first", counting)
    t1, t2 = counterexample(CounterexampleFamily.HORIZONTAL_FIG8, 10.0, 0.1)
    n1, n2 = len(list(_all_decompositions(t1))), len(list(_all_decompositions(t2)))
    assert n1 > 1 and n2 > 1
    delta_b(t1, t2)
    assert sorted(builds.values()) == [1] * (n1 + n2)
    builds.clear()
    lt = build_obdt(persistence_branch_decomposition(t1))
    for _ in range(3):
        ordered_one_degree_dp(lt, lt, WASSERSTEIN_POINT)
    assert builds == {id(lt): 1}


def test_delta_b_stops_at_the_first_bound_that_reaches_the_least_value(monkeypatch):
    """The root relabel bound rules out decomposition pairs before their DP:
    on the fig8 pair fewer than n1 * n2 pairs run it. Against itself a tree
    runs it once: the identity pair reaches 0.0, and the next pair's bound
    0.0 ties it and stops the walk."""
    runs = []
    dp = distances.ordered_one_degree_dp

    def counting(l1, l2, cost):
        runs.append((l1, l2))
        return dp(l1, l2, cost)

    monkeypatch.setattr(distances, "ordered_one_degree_dp", counting)
    t1, t2 = counterexample(CounterexampleFamily.HORIZONTAL_FIG8, 10.0, 0.1)
    n1, n2 = len(list(_all_decompositions(t1))), len(list(_all_decompositions(t2)))
    delta_b(t1, t2)
    assert 0 < len(runs) < n1 * n2
    runs.clear()
    assert delta_b(t1, t1) == 0.0
    assert len(runs) == 1


@pytest.mark.filterwarnings("error")
def test_float_overflow_raises_a_typed_error_naming_its_source():
    """Two 3x3 fields of values in +-8e307: s and p meet an assignment block
    whose costs overflow, which the solver cannot match, and l and g sum to
    inf. Each raises ValidationError naming the metric, and the block's
    error says what overflowed; the other four metrics stay finite. No
    numpy warning is raised on the way."""
    rng = random.Random(1)
    dom = build_grid_domain(3, 3)
    f1, f2 = (validate_field(dom, [rng.uniform(-8e307, 8e307) for _ in range(9)]) for _ in "ab")
    for m in (MetricId.S, MetricId.P):
        with pytest.raises(ValidationError, match=f"^delta_{m.value}: an assignment block's costs overflow"):
            compute(m, f1, f2)
    for m in (MetricId.L, MetricId.G):
        with pytest.raises(ValidationError, match=f"delta_{m.value} overflows a float"):
            compute(m, f1, f2)
    for m in (MetricId.W, MetricId.X, MetricId.E, MetricId.B):
        assert math.isfinite(compute(m, f1, f2))


@pytest.mark.parametrize("metric", [MetricId.P, MetricId.E])
def test_finite_stability_on_overflowing_noise_raises_a_typed_error(metric):
    """eps 8.9e307 on 3x3 fields: p's assignment blocks overflow and e's
    value is inf; the suite raises ValidationError, not scipy's ValueError
    nor an inf distance."""
    with pytest.raises(ValidationError, match="overflow"):
        run_finite_stability(0, 10, 3, 8.9e307, metrics=(metric,))
