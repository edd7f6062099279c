import gc
import json
import os
import random
import re
import weakref

import pytest

from helpers import (
    check_edge_sequence,
    deform_sequence,
    eager_deform_witness_search,
    eager_subset_variants,
    labeled_canonical,
    scenario_suite,
)
from mtstab import pool, stability
from mtstab import mergetree as mt
from mtstab.distances import DEFAULT_GUARDS, Guards, MetricId, tree_distance
from mtstab.editcore import deform_witness_search
from mtstab.errors import DuplicateValueError, SizeGuardError, ValidationError
from mtstab.field import TOLERANCE, apply_value_change, build_domain, validate_field
from mtstab.mergetree import label_for_scheme, merge_tree_of
from mtstab.perturb import (
    ChangeClass,
    apply_perturbation,
    check_minimal,
    classify_change,
    enumerate_minimal_perturbations,
)
from mtstab.stability import (
    STABILITY_MATRIX,
    CellStats,
    CounterexampleFamily,
    check_bound,
    counterexample,
    counterexample_fields,
    instability_growth,
    linear_growth_ok,
    random_grid_field,
    random_minimal_perturbation,
    run_finite_stability,
    run_stability_suite,
    stability_degree,
)

FAMS = CounterexampleFamily


def test_counterexample_parameter_error():
    with pytest.raises(ValidationError):
        counterexample(FAMS.HORIZONTAL_FIG8, 0.1, 0.1)


@pytest.mark.parametrize("build", [counterexample, counterexample_fields])
@pytest.mark.parametrize("x, eps", [(0.1, 0.1), (0.2, 0.1), (1.0, 0.0), (1.0, -0.1)])
def test_counterexample_trees_and_fields_need_x_above_twice_eps(build, x, eps):
    """Both the trees and the fields of a family need x > 2 * eps > 0."""
    with pytest.raises(ValidationError, match=r"need x > 2\*eps > 0"):
        build(FAMS.HORIZONTAL_FIG8, x, eps)


@pytest.mark.parametrize("build", [counterexample, counterexample_fields])
@pytest.mark.parametrize("family", list(FAMS), ids=lambda family: family.value)
@pytest.mark.parametrize("x, eps", [(1e17, 1.0), (10.0, 1e-320), (1e308, 1.0)])
def test_counterexample_refuses_an_eps_that_vanishes_against_x(build, family, x, eps):
    """x +- eps, 2x +- eps / 2 and 4x +- eps must stay floats distinct from
    x, 2x and 4x (4x overflows at 1e308): otherwise the trees coincide or a
    field repeats a value, so one ValidationError names x and eps."""
    with pytest.raises(ValidationError, match=re.escape(f"got x={x}, eps={eps}") + "$"):
        build(family, x, eps)


def test_counterexample_fig8_values():
    t1, t2 = counterexample(FAMS.HORIZONTAL_FIG8, 10.0, 0.1)
    assert sorted(t1.value.values()) == [0, 9.9, 10, 20, 30, 40]
    assert sorted(t2.value.values()) == [0, 10, 10.1, 20, 30, 40]


def test_counterexample_fig10_values():
    t1, _ = counterexample(FAMS.VERTICAL_FIG10, 10.0, 0.1)
    leaves = sorted(t1.value[v] for v in t1.leaves())
    assert leaves == [30.0, 40.0, 40.1]


def test_counterexample_fig7_edge_lengths():
    t1, _ = counterexample(FAMS.EDGE_SPLIT_FIG7, 10.0, 0.1)
    lengths = sorted(
        round(t1.value[v] - t1.value[t1.parent[v]], 6)
        for v in t1.nodes()
        if t1.parent[v] is not None
    )
    assert lengths == [0.1, 10.0, 10.0, 10.0, 20.0]


def test_counterexample_fields_minimal_and_classified():
    expected = {
        FAMS.EDGE_SPLIT_FIG7: ChangeClass.EDGE_SPLIT,
        FAMS.HORIZONTAL_FIG8: ChangeClass.UNORDERED_HORIZONTAL_SWAP,
        FAMS.VERTICAL_FIG10: ChangeClass.VERTICAL_SWAP,
    }
    for fam, cls in expected.items():
        f, f2 = counterexample_fields(fam, 10.0, 0.1)
        assert classify_change(f, f2) is cls


def test_check_bound_fig7_deformation_passes():
    f, f2 = counterexample_fields(FAMS.EDGE_SPLIT_FIG7, 10.0, 0.1)
    rep = check_bound(f, f2, MetricId.E)
    assert rep.claimed and rep.passed
    # the field realization crosses the saddle value halfway, so the new
    # edge is eps/2 long (the exact-eps value belongs to the tree pair)
    assert rep.distance == pytest.approx(0.05, abs=1e-9)
    assert rep.extent == pytest.approx(0.1, abs=1e-9)
    assert rep.distance <= rep.bound


def test_check_bound_fig8_path_mapping_informational():
    f, f2 = counterexample_fields(FAMS.HORIZONTAL_FIG8, 10.0, 0.1)
    rep = check_bound(f, f2, MetricId.P)
    assert not rep.claimed and rep.passed is None
    assert rep.distance >= 9.9


def test_check_bound_identity():
    f = validate_field(build_domain(3, [(0, 1), (1, 2)]), [0, 1, 2])
    rep = check_bound(f, f, MetricId.E)
    assert rep.passed and rep.distance == 0.0 and rep.bound == 0.0
    assert rep.to_dict() == {
        "metric": "e", "class": "SimpleChange", "extent": 0.0, "degree": 1, "degree_g": 1,
        "distance": 0.0, "bound": 0.0, "claimed": True, "passed": True, "skipped": False,
        "witness": None,
    }


def test_growth_tables():
    rows = instability_growth(FAMS.HORIZONTAL_FIG8, MetricId.W, [10.0, 20.0], 0.1)
    assert linear_growth_ok(rows)
    control = instability_growth(FAMS.EDGE_SPLIT_FIG7, MetricId.E, [10.0, 20.0], 0.1)
    assert control[0][1] == pytest.approx(control[1][1], abs=1e-9)
    for flat in ([(1e17, 0.0), (2e17, 0.0)], [(10.0, 1.0)], []):
        assert not linear_growth_ok(flat)


def test_suite_deterministic():
    a = run_stability_suite(seed=5, trials=12, grid_size=3, metrics=(MetricId.E, MetricId.L))
    b = run_stability_suite(seed=5, trials=12, grid_size=3, metrics=(MetricId.E, MetricId.L))
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)


def test_suite_matches_per_metric_check_bound():
    """The suite prepares each trial once; its cells must equal those of a
    check_bound call per (trial, metric) on the same draws. The guards are
    tight enough that e and b skip some trials and pass others."""
    seed, trials, grid = 9, 10, 4
    guards = Guards(mapping_nodes=9, deform_edges=6, branch_edges=5)
    rep = run_stability_suite(seed, trials, grid, metrics=tuple(MetricId), guards=guards)
    cells = {}
    for i in range(trials):
        rng = random.Random(seed * 1_000_003 + i)
        f = random_grid_field(rng, grid, grid)
        f2 = apply_perturbation(f, random_minimal_perturbation(rng, f))
        for m in MetricId:
            r = check_bound(f, f2, m, guards)
            stats = cells.setdefault((m, r.change_class), CellStats())
            stats.trials += 1
            if r.skipped:
                stats.skipped += 1
            elif not r.claimed:
                stats.informational += 1
            elif r.passed:
                stats.passed += 1
            else:
                stats.failed += 1
                stats.failures.append(
                    {"trial": i, "distance": r.distance, "bound": r.bound, "witness": r.witness}
                )
    assert {k: v.to_dict() for k, v in rep.cells.items()} == {
        k: v.to_dict() for k, v in cells.items()
    }


def test_delta_s_on_a_two_node_simple_change_is_twice_the_extent():
    """Why delta_S fails its claimed SimpleChange cell off the pinned seed
    (seed 2, trial 36 of run_stability_suite). On a 2-node tree
    BRANCH_LABEL_ON_NODES gives the root and the leaf the same birth-death
    label, so moving the maximum relabels two nodes: delta_S = 2 * delta_W
    = 2 * extent, above deg(T_f) * extent = extent. This records the cause
    only; whether the bound or the label changes is still open."""
    rng = random.Random(2 * 1_000_003 + 36)
    f = random_grid_field(rng, 4, 4)
    p = random_minimal_perturbation(rng, f)
    f2 = apply_perturbation(f, p)
    assert classify_change(f, f2) is ChangeClass.SIMPLE_CHANGE
    t1, t2 = merge_tree_of(f), merge_tree_of(f2)
    for t in (t1, t2):
        assert t.node_count() == 2
        labels = label_for_scheme(t, mt.BRANCH_LABEL_ON_NODES).labels
        (leaf,) = t.leaves()
        assert labels[t.root] == labels[leaf]
    s = tree_distance(MetricId.S, t1, t2)
    w = tree_distance(MetricId.W, t1, t2)
    assert abs(w - p.extent) <= TOLERANCE
    assert abs(s - 2 * w) <= TOLERANCE
    report = check_bound(f, f2, MetricId.S)
    assert report.claimed and report.degree == 1 and report.passed is False


#: Guard skips of run_stability_suite(seed=5, trials=40) by grid size, per
#: metric; every metric not named skips no trial (ROADMAP's guard table).
_SEED_5_SKIPS = {4: {"b": 4}, 5: {"b": 28, "e": 8, "g": 1},
                 6: {"b": 37, "e": 33, "g": 21}, 8: {"b": 40, "e": 40, "g": 40}}


def test_guard_skips_by_grid_size():
    """The size guards fire on the seed-5 suites as recorded, the witness
    check skips exactly the trials that delta_E skips, and a tight Guards
    makes tree_distance raise each guard's (what, size, limit)."""
    for grid, want in _SEED_5_SKIPS.items():
        report = run_stability_suite(seed=5, trials=40, grid_size=grid)
        skips = {m.value: 0 for m in MetricId}
        for (m, _), cell in report.cells.items():
            skips[m.value] += cell.skipped
        assert skips == {m.value: want.get(m.value, 0) for m in MetricId}, grid
        assert report.witness_checks.skipped == skips["e"], grid
    t1, t2 = counterexample(FAMS.HORIZONTAL_FIG8, 10.0, 0.1)
    for metric, guards, fields in [
        (MetricId.G, Guards(mapping_nodes=5), ("brute-force mapping search", 6, 5)),
        (MetricId.E, Guards(deform_edges=4), ("deformation enumeration", 5, 4)),
        (MetricId.B, Guards(branch_edges=4), ("branch decomposition enumeration", 5, 4)),
    ]:
        with pytest.raises(SizeGuardError) as info:
            tree_distance(metric, t1, t2, guards)
        assert (info.value.what, info.value.size, info.value.limit) == fields


@pytest.mark.parametrize("grid", [5, 6, 8])
def test_delta_s_skips_no_trial_of_the_seed_5_suites(grid):
    """delta_s runs a DP with no size guard, so the seed-5 suites skip none
    of its 40 trials, up to 8x8 grids (trees of up to 30 nodes)."""
    report = run_stability_suite(seed=5, trials=40, grid_size=grid, metrics=(MetricId.S,))
    assert sum(c.trials for c in report.cells.values()) == 40
    assert [c.skipped for c in report.cells.values()] == [0] * len(report.cells)


@pytest.mark.parametrize("grid", [5, 6, 8])
def test_delta_p_skips_no_trial_of_the_seed_5_suites(grid):
    """delta_p runs the path mapping DP with no size guard, so the seed-5
    suites skip none of its 40 trials, up to 8x8 grids."""
    report = run_stability_suite(seed=5, trials=40, grid_size=grid, metrics=(MetricId.P,))
    assert sum(c.trials for c in report.cells.values()) == 40
    assert [c.skipped for c in report.cells.values()] == [0] * len(report.cells)


@pytest.mark.parametrize(
    "seed, trial, distance, extent",
    [(2, 103, 0.400202, 0.130622), (16, 142, 0.188784, 0.049022), (26, 156, 0.123749, 0.039705)],
)
def test_delta_e_and_g_on_saddle_swaps_exceed_deg_f_times_extent(seed, trial, distance, extent):
    """Why delta_E and delta_G fail their claimed horizontal-swap cells off
    the pinned seed (these trials of run_stability_suite, 4x4 grid). A
    saddle of T_g merges three subtrees, so deg(T_g) = 4 while
    deg(T_f) = 3, and delta_E = delta_G lies above 3 * extent but within
    4 * extent. Each is at most the split bound deg(T_f) * |f(partner) -
    old| + deg(T_g) * |new - f(partner)|, within a relative 1e-12: the
    ratio reads 0.9999999999999994 to 1.0000000000000027. This records the
    cause only; which tree deg is taken in is still open
    (docs/decisions.md section 2)."""
    rng = random.Random(seed * 1_000_003 + trial)
    f = random_grid_field(rng, 4, 4)
    p = random_minimal_perturbation(rng, f)
    f2 = apply_perturbation(f, p)
    assert classify_change(f, f2).is_horizontal
    t1, t2 = merge_tree_of(f), merge_tree_of(f2)
    assert stability_degree(t1) == 3 and stability_degree(t2) == 4
    e = tree_distance(MetricId.E, t1, t2)
    assert abs(tree_distance(MetricId.G, t1, t2) - e) <= TOLERANCE
    assert abs(e - distance) <= 1e-6 and abs(p.extent - extent) <= 1e-6
    assert 3 * p.extent + TOLERANCE < e <= 4 * p.extent
    crossed = f.values[p.swap_partner]
    split = 3 * abs(crossed - p.old_value) + 4 * abs(p.new_value - crossed)
    for m in (MetricId.E, MetricId.G):
        assert tree_distance(m, t1, t2) <= split * (1 + 1e-12), m
        report = check_bound(f, f2, m)
        assert report.claimed and report.degree == 3 and report.passed is False
        assert report.degree_g == 4 and report.to_dict()["degree_g"] == 4


@pytest.mark.parametrize("x", [10.0, 40.0])
def test_delta_e_and_g_exceed_deg_f_times_extent_on_a_scaled_saddle_swap(x):
    """The failure of the test above without a seed: the 6-vertex graph of
    the saddle_passes_saddle_all_move_ordered scenario, values
    [0, x - eps, x, 5x, 7x, 6x], vertex 1 moved to x + eps. T_g has a
    saddle of degree 4, and delta_E = delta_G = 3.5 * extent at every
    scale. This records the cause only; which tree deg is taken in is still
    open (docs/decisions.md section 2)."""
    eps = 0.1
    f = validate_field(
        build_domain(6, [(0, 1), (1, 2), (2, 3), (2, 4), (1, 3), (1, 4), (1, 5)]),
        [0, x - eps, x, 5 * x, 7 * x, 6 * x],
    )
    f2 = apply_value_change(f, 1, x + eps)
    assert classify_change(f, f2) is ChangeClass.ORDERED_HORIZONTAL_SWAP
    t1, t2 = merge_tree_of(f), merge_tree_of(f2)
    assert stability_degree(t1) == 3 and stability_degree(t2) == 4
    extent = check_minimal(f, f2).extent
    for m in (MetricId.E, MetricId.G):
        d = tree_distance(m, t1, t2)
        assert d == pytest.approx(3.5 * extent, rel=1e-9) and d <= 4 * extent
        report = check_bound(f, f2, m)
        assert report.passed is False and report.degree_g == 4


def test_l_g_p_and_e_exceed_deg_f_times_extent_on_a_simple_change_from_4_to_5():
    """The same failure where deg(T_f) = 4 and deg(T_g) = 5, without a
    seed: the 6-vertex graph of the test above, values [1, 2, 0, 3, 4, 5],
    vertex 1 moved down past vertex 0 to 0.5 (extent 1.5). Vertex 0 becomes
    a new maximum under the saddle 1, which has three children in T_f and
    four in T_g. delta_L, delta_G, delta_P and delta_E all read 6.5: above
    4 * 1.5 = 6.0, equal to the split bound 4 * |1 - 2| + 5 * |0.5 - 1|
    and below the max-degree bound 5 * 1.5 = 7.5. This records the cause
    only; the group is open (docs/decisions.md section 2)."""
    f = validate_field(
        build_domain(6, [(0, 1), (1, 2), (2, 3), (2, 4), (1, 3), (1, 4), (1, 5)]),
        [1, 2, 0, 3, 4, 5],
    )
    f2 = apply_value_change(f, 1, 0.5)
    assert classify_change(f, f2) is ChangeClass.SIMPLE_CHANGE
    t1, t2 = merge_tree_of(f), merge_tree_of(f2)
    assert stability_degree(t1) == 4 and stability_degree(t2) == 5
    extent = check_minimal(f, f2).extent
    assert extent == 1.5
    split = 4 * abs(1 - 2) + 5 * abs(0.5 - 1)
    for m in (MetricId.L, MetricId.G, MetricId.P, MetricId.E):
        d = tree_distance(m, t1, t2)
        assert d == 6.5 and d == pytest.approx(split, rel=1e-12), m
        assert 4 * extent + TOLERANCE < d < 5 * extent, m
        report = check_bound(f, f2, m)
        assert report.claimed and report.passed is False and report.degree == 4, m
        assert report.degree_g == 5, m


def test_l_g_p_and_e_exceed_deg_f_times_extent_on_a_3d_simple_change():
    """The same failure on a simple change, where l and p fail too: the
    3x3x3 Freudenthal grid (vertex (z * 3 + y) * 3 + x, edges to the
    offsets (1,0,0), (0,1,0), (0,0,1), (1,1,0), (1,0,1), (0,1,1) and
    (1,1,1)), values from random.Random(20014), vertex 22 moved down past
    vertex 18. Vertex 18 becomes a new maximum under 22, so T_f is included
    in T_g, and vertex 22 has degree 3 in T_f and 4 in T_g. delta_L,
    delta_G, delta_P and delta_E all equal the split bound
    3 * |f(18) - old| + 4 * |new - f(18)| to the bit, 1.2195 * deg(T_f) *
    extent. This records the cause only; the group is open
    (docs/decisions.md section 2)."""
    n = 3
    offsets = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
    edges = [((z * n + y) * n + x, ((z + dz) * n + y + dy) * n + x + dx)
             for z in range(n) for y in range(n) for x in range(n)
             for dx, dy, dz in offsets if x + dx < n and y + dy < n and z + dz < n]
    assert len(edges) == 98
    rng = random.Random(20014)
    f = validate_field(build_domain(n ** 3, edges), [rng.random() for _ in range(n ** 3)])
    (p,) = [p for p in enumerate_minimal_perturbations(f, 22) if p.swap_partner == 18]
    f2 = apply_perturbation(f, p)
    assert classify_change(f, f2) is ChangeClass.SIMPLE_CHANGE
    t1, t2 = merge_tree_of(f), merge_tree_of(f2)
    assert stability_degree(t1) == 3 and stability_degree(t2) == 4
    split = 3 * abs(f.values[18] - p.old_value) + 4 * abs(p.new_value - f.values[18])
    assert split.hex() == "0x1.475576a974060p-3"
    assert split == pytest.approx(1.2195 * 3 * p.extent, rel=1e-4)
    for m in (MetricId.L, MetricId.G, MetricId.P, MetricId.E):
        assert tree_distance(m, t1, t2).hex() == split.hex(), m


@pytest.mark.parametrize("seed", [42, 0, 1, 2, 3])
def test_every_witness_the_search_finds_replays_within_its_limits(seed):
    """The suite's witness check is deform_witness_search's verdict
    (docs/decisions.md section 2). For every True verdict on a suite trial
    (200 trials, 4x4 grid), the replay oracle finds a witness on the eager
    delete-set lists, and it becomes a sequence of at most deg(T_f)
    operations, each costing at most the extent, that check_edge_sequence
    replays onto T2; for every False verdict the oracle finds none. Some
    witnesses delete edges, so inserts are replayed too, not only
    relabels."""
    found = with_deletions = 0
    for i in range(200):
        rng = random.Random(seed * 1_000_003 + i)
        f = random_grid_field(rng, 4, 4)
        p = random_minimal_perturbation(rng, f)
        t1, t2 = merge_tree_of(f), merge_tree_of(apply_perturbation(f, p))
        deg = stability_degree(t1)
        verdict = deform_witness_search(t1, t2, max_ops=deg, max_op_cost=p.extent)
        l1, l2 = (label_for_scheme(t, mt.NODE_DIST_TO_PARENT) for t in (t1, t2))
        witness = eager_deform_witness_search(
            l1, eager_subset_variants(l1), l2, eager_subset_variants(l2), deg, p.extent
        )
        assert verdict is (witness is not None), i
        if not verdict:
            continue
        found += 1
        with_deletions += bool(witness.deleted1 or witness.deleted2)
        seq = deform_sequence(t1, t2, witness)
        assert len(seq) <= deg, i
        assert all(op.cost <= p.extent + TOLERANCE for op in seq), i
        out = check_edge_sequence(t1, seq)
        want = label_for_scheme(t2, mt.NODE_DIST_TO_PARENT)
        assert labeled_canonical(out) == labeled_canonical(want), i
    assert found >= 190 and with_deletions > 0


def test_each_tree_is_built_and_prepared_once(monkeypatch, one_cpu):
    """The classifier, the eight metrics and the witness search share each
    field's merge tree and its persistence decomposition, so a trial builds
    each once per field: two per trial. The finite suite builds no field's
    tree twice either: its end field's tree is the last step's. The hooks
    count in this process, so the trials run here; the pool runs the same
    trial code (test_suite_pool_reports_are_the_serial_bytes)."""
    calls = {"_build_merge_tree": [], "persistence_choice": []}
    for name in calls:

        def counted(arg, _name=name, _original=getattr(mt, name)):
            calls[_name].append(arg)
            return _original(arg)

        monkeypatch.setattr(mt, name, counted)
    trials = 10
    run_stability_suite(seed=42, trials=trials, grid_size=4, metrics=tuple(MetricId))
    assert {name: len(args) for name, args in calls.items()} == {
        "_build_merge_tree": 2 * trials,
        "persistence_choice": 2 * trials,
    }
    calls["_build_merge_tree"].clear()
    run_finite_stability(7, 10, 3, 0.05)
    built = [tuple(f.values) for f in calls["_build_merge_tree"]]
    assert len(built) == len(set(built))


def test_shared_trees_die_with_their_fields(monkeypatch, one_cpu):
    """What is memoized on a tree never refers back to it, and no search
    closure holds it: with the cycle collector off, every merge tree and
    persistence decomposition a suite built is freed when it returns. The
    weakrefs live in this process, so the trials run here."""
    refs = []
    for name in ("_build_merge_tree", "decomposition_from_choice"):

        def recorded(*args, _original=getattr(mt, name)):
            out = _original(*args)
            refs.append(weakref.ref(out))
            return out

        monkeypatch.setattr(mt, name, recorded)
    gc.collect()
    gc.disable()
    try:
        run_stability_suite(seed=42, trials=5, grid_size=4, metrics=tuple(MetricId))
        assert len(refs) == 20 and all(r() is None for r in refs)
    finally:
        gc.enable()


def _suite_bytes(seed, trials, finite_trials, guards=DEFAULT_GUARDS):
    reports = (
        run_stability_suite(seed, trials, 4, metrics=tuple(MetricId), guards=guards),
        run_finite_stability(seed, finite_trials, 3, 0.05, guards=guards),
    )
    return [json.dumps(r.to_dict(), indent=2, sort_keys=True) for r in reports]


def test_suite_pool_reports_are_the_serial_bytes(two_cpus, monkeypatch):
    """Seed 25's first 57 trials hold a claimed-cell failure of s (trial 44)
    and a failed witness search (trial 56)."""
    pooled = _suite_bytes(25, 57, 40)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert pooled == _suite_bytes(25, 57, 40)
    report = json.loads(pooled[0])
    failed = {k: [f["trial"] for f in c["failures"]]
              for k, c in report["cells"].items() if c["failures"]}
    assert failed == {"s/SimpleChange": [44]}
    assert [f["trial"] for f in report["witness_checks"]["failures"]] == [56]
    assert report["witness_checks"]["failures"][0]["ops"] is None


def test_suite_guard_skips_cross_the_pool(two_cpus, monkeypatch):
    guards = Guards(branch_edges=1)
    pooled = _suite_bytes(3, 12, 12, guards)
    b_cells = [c for k, c in json.loads(pooled[0])["cells"].items() if k.startswith("b/")]
    assert sum(c["skipped"] for c in b_cells) == sum(c["trials"] for c in b_cells) == 12
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert pooled == _suite_bytes(3, 12, 12, guards)


@pytest.mark.parametrize("suite", ["stability", "finite"])
def test_suite_trial_errors_reach_the_caller_with_their_type(in_child, monkeypatch, suite):
    """Fork carries the patched validate_field into the child, the only
    process where it fails; the error names the child's pid."""
    original = stability.validate_field

    def failing(domain, values):
        if in_child():
            raise DuplicateValueError(os.getpid(), 5, 0.5)
        return original(domain, values)

    monkeypatch.setattr(stability, "validate_field", failing)
    with pytest.raises(DuplicateValueError) as caught:
        if suite == "stability":
            run_stability_suite(4, 12, 3, metrics=(MetricId.W,))
        else:
            run_finite_stability(4, 12, 3, 0.05, metrics=(MetricId.W,))
    err = caught.value
    assert err.vertex_a != os.getpid()
    assert (err.vertex_b, err.value) == (5, 0.5)
    assert pool._job is None


def test_failure_records_and_informational_counts(monkeypatch, one_cpu):
    """w is made to exceed every bound. Both suites' failure records hold
    the same four keys; each unclaimed cell of the minimal suite computes
    its distance and counts the trial; a finite precondition miss computes
    no distance and counts no trial, only as informational. The patch lives
    in this process, so the trials run here."""
    calls = []

    def far(metric, t1, t2, guards):
        calls.append(metric)
        return 1e9

    monkeypatch.setattr(stability, "tree_distance", far)
    trials = 30
    report = run_stability_suite(3, trials, 4, metrics=(MetricId.W,))
    assert calls == [MetricId.W] * trials
    assert sum(s.trials for s in report.cells.values()) == trials
    claimed = [s for (m, c), s in report.cells.items() if c in STABILITY_MATRIX[m]]
    unclaimed = [s for (m, c), s in report.cells.items() if c not in STABILITY_MATRIX[m]]
    assert claimed and all(s.trials == s.failed == len(s.failures) for s in claimed)
    assert unclaimed and all(s.trials == s.informational for s in unclaimed)
    records = [r for s in claimed for r in s.failures]
    calls.clear()
    finite = run_finite_stability(3, trials, 3, 0.05, metrics=(MetricId.W,))
    stats = finite.per_metric[MetricId.W]
    assert calls == [MetricId.W] * stats.trials
    assert stats.informational > 0 and stats.trials + stats.informational == trials
    assert stats.trials == stats.failed == len(stats.failures) > 0
    records += stats.failures
    assert all(set(r) == {"trial", "distance", "bound", "witness"} for r in records)
    assert all(r["distance"] == 1e9 and set(r["witness"]) == {"field_a", "field_b"}
               for r in records)


CLAIMED_W = next(c for c in ChangeClass if c in STABILITY_MATRIX[MetricId.W])
UNCLAIMED_W = next(c for c in ChangeClass if c not in STABILITY_MATRIX[MetricId.W])


@pytest.mark.parametrize("cls, outcomes, cell", [
    (CLAIMED_W, ["passed", "passed"], "2/2 pass"),
    (CLAIMED_W, ["passed", "skipped", {"trial": 2}], "1/2 pass (1 FAIL) (1 skip)"),
    (CLAIMED_W, ["skipped"] * 3, "0/0 pass (3 skip)"),
    (UNCLAIMED_W, ["informational"] * 3, "3 info"),
    (UNCLAIMED_W, ["informational", "skipped", "skipped"], "1 info (2 skip)"),
    (CLAIMED_W, [], "-"),
    (CLAIMED_W, ["passed", {"trial": 1}, "skipped"] * 1000,
     "1000/2000 pass (1000 FAIL) (1000 skip)"),
], ids=["pass", "fail", "skipped", "info", "info-skipped", "empty", "wide"])
def test_summary_table_cells(cls, outcomes, cell):
    """A claimed cell counts passes over the trials that ran and names its
    failures, an unclaimed one counts informational trials, either names
    its guard skips, an empty one is a dash; every other class of the row
    is a dash too. Columns are at least 26 wide and fit the widest cell."""
    stats = CellStats()
    for outcome in outcomes:
        stats.count(outcome)
    report = stability.SuiteReport(
        0, len(outcomes), 3, (MetricId.W,), {(MetricId.W, cls): stats}, CellStats()
    )
    head, row = report.summary_table().split("\n")
    width = max(26, len(cell) + 2)
    assert len(head) == len(row) == 8 + width * len(ChangeClass)
    cells = [row[8 + width * k: 8 + width * (k + 1)].strip() for k in range(len(ChangeClass))]
    assert row.startswith("w ") and head.startswith("metric")
    assert cells == [cell if c is cls else "-" for c in ChangeClass]


def test_suite_zero_trials_empty():
    rep = run_stability_suite(seed=1, trials=0, grid_size=3, metrics=(MetricId.E,))
    assert rep.cells == {} and rep.witness_checks.trials == 0


def test_suite_report_header_notes():
    rep = run_stability_suite(seed=1, trials=1, grid_size=3, metrics=(MetricId.E,))
    assert any("delta_L" in note for note in rep.to_dict()["notes"])


def test_finite_stability_uniform_shift_zero():
    from mtstab.distances import compute

    f = validate_field(build_domain(3, [(0, 1), (1, 2)]), [0, 1, 2])
    g = validate_field(f.domain, [v + 0.05 for v in f.values])
    assert compute(MetricId.E, f, g) == pytest.approx(0.0, abs=1e-12)


def test_finite_stability_small_run():
    rep = run_finite_stability(seed=3, trials=10, grid_size=3, eps=0.05)
    assert rep.all_pass()
    assert rep.per_metric[MetricId.E].trials == 10


def test_matrix_covers_every_metric():
    assert set(STABILITY_MATRIX) == set(MetricId)
    for m, classes in STABILITY_MATRIX.items():
        assert ChangeClass.SIMPLE_CHANGE in classes


def test_ordered_horizontal_swap_separates_w_from_x():
    """On ordered horizontal swaps the two unordered BDTs coincide, so the
    Wasserstein distance stays within its bound while the ordered variant
    pays for the flipped attachment order."""
    from mtstab.distances import delta_w, delta_x

    seen = 0
    for sc in scenario_suite():
        if sc.expected is not ChangeClass.ORDERED_HORIZONTAL_SWAP:
            continue
        seen += 1
        t1, t2 = merge_tree_of(sc.field), merge_tree_of(sc.perturbed)
        extent = check_minimal(sc.field, sc.perturbed).extent
        bound = stability_degree(t1) * extent
        assert delta_w(t1, t2) <= bound + 1e-9, sc.name
        assert delta_x(t1, t2) > delta_w(t1, t2) + 1e-9, sc.name
    assert seen >= 3


def test_saddle_merge_exceeds_stated_degree_bound():
    """Documented finding: a saddle absorbing a saddle (a horizontal swap)
    can exceed degree * extent for the deformation and general classic
    distances. The moved saddle's kept children, its parent edge, the
    vanished inner edge and the absorbed children all contribute, which adds
    up to more than the number of edges incident to any single node."""
    f = validate_field(
        build_domain(6, [(0, 1), (1, 2), (2, 3), (2, 4), (1, 3), (1, 4), (1, 5)]),
        [0, 1, 2, 5, 6, 7],
    )
    f2 = apply_value_change(f, 1, 2.2)
    assert classify_change(f, f2) is ChangeClass.UNORDERED_HORIZONTAL_SWAP
    deg = stability_degree(merge_tree_of(f))
    extent = 1.2
    for m in (MetricId.E, MetricId.G):
        rep = check_bound(f, f2, m)
        assert rep.distance == pytest.approx(3.8)
        assert rep.distance > deg * extent  # 3.8 > 3.6
        assert rep.passed is False
