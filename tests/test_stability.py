import json
import random

import pytest

from mtstab.distances import Guards, MetricId
from mtstab.errors import ValidationError
from mtstab.field import apply_value_change, build_domain, validate_field
from mtstab.mergetree import merge_tree_of
from mtstab.perturb import ChangeClass, apply_perturbation, classify_change
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


def test_growth_tables():
    rows = instability_growth(FAMS.HORIZONTAL_FIG8, MetricId.W, [10.0, 20.0], 0.1)
    assert linear_growth_ok(rows)
    control = instability_growth(FAMS.EDGE_SPLIT_FIG7, MetricId.E, [10.0, 20.0], 0.1)
    assert control[0][1] == pytest.approx(control[1][1], abs=1e-9)


def test_suite_deterministic():
    a = run_stability_suite(seed=5, trials=12, grid_size=3, metrics=(MetricId.E, MetricId.L))
    b = run_stability_suite(seed=5, trials=12, grid_size=3, metrics=(MetricId.E, MetricId.L))
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)


def test_suite_matches_per_metric_check_bound():
    """The suite prepares each trial once; its cells must equal those of a
    check_bound call per (trial, metric) on the same draws. The guards are
    tight enough that e, p and b skip some trials and pass others."""
    seed, trials, grid = 9, 10, 4
    guards = Guards(mapping_nodes=9, deform_edges=6, branch_edges=5)
    rep = run_stability_suite(
        seed, trials, grid, metrics=tuple(MetricId), guards=guards, check_witness=False
    )
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


def test_suite_zero_trials_empty():
    rep = run_stability_suite(seed=1, trials=0, grid_size=3, metrics=(MetricId.E,))
    assert rep.cells == {} and rep.witness_checks.trials == 0


def test_suite_report_header_notes():
    rep = run_stability_suite(seed=1, trials=1, grid_size=3, metrics=(MetricId.E,))
    assert any("delta_L" in note for note in rep.header_notes)


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
    from mtstab.perturb import check_minimal, scenario_suite

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
