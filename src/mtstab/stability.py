"""Empirical verification of the stability theorems and the instability
counterexample families.

Every (metric, change class) cell claimed stable is bounded by
deg(T_f) * extent on minimal perturbations; unclaimed cells are exercised
by counterexample families whose distance grows linearly in the scale
parameter x while the perturbation extent stays fixed.

deg(T_f) here is the maximum number of incident tree edges (children plus
parent edge). Counting children only would be violated by every plain
saddle value shift, whose witness sequence relabels all child edges and the
parent edge; the theorem arguments count exactly these incident edges.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, field as dc_field
from enum import Enum
from functools import partial

from .distances import DEFAULT_GUARDS, Guards, MetricId, tree_distance
from .editcore import deform_witness_search
from .errors import SizeGuardError, ValidationError
from .field import (
    TOLERANCE,
    ScalarField,
    apply_value_change,
    build_domain,
    build_grid_domain,
    field_to_dict,
    validate_field,
)
from .mergetree import (
    AbstractMergeTree,
    abstract_merge_tree,
    merge_tree_of,
)
from .perturb import (
    ChangeClass,
    apply_perturbation,
    classify_change_detailed,
    decompose_perturbation,
    enumerate_minimal_perturbations,
)
from .pool import map_in_order

#: Classes each metric is claimed stable on (the hierarchy matrix; the
#: Wasserstein distance additionally covers ordered horizontal swaps).
STABILITY_MATRIX = {
    MetricId.E: {
        ChangeClass.SIMPLE_CHANGE,
        ChangeClass.EDGE_SPLIT,
        ChangeClass.VERTICAL_SWAP,
        ChangeClass.ORDERED_HORIZONTAL_SWAP,
        ChangeClass.UNORDERED_HORIZONTAL_SWAP,
    },
    MetricId.P: {ChangeClass.SIMPLE_CHANGE, ChangeClass.EDGE_SPLIT, ChangeClass.VERTICAL_SWAP},
    MetricId.B: {ChangeClass.SIMPLE_CHANGE, ChangeClass.EDGE_SPLIT, ChangeClass.VERTICAL_SWAP},
    MetricId.W: {
        ChangeClass.SIMPLE_CHANGE,
        ChangeClass.EDGE_SPLIT,
        ChangeClass.ORDERED_HORIZONTAL_SWAP,
    },
    MetricId.X: {ChangeClass.SIMPLE_CHANGE, ChangeClass.EDGE_SPLIT},
    MetricId.S: {ChangeClass.SIMPLE_CHANGE, ChangeClass.EDGE_SPLIT},
    MetricId.L: {ChangeClass.SIMPLE_CHANGE, ChangeClass.VERTICAL_SWAP},
    MetricId.G: {
        ChangeClass.SIMPLE_CHANGE,
        ChangeClass.VERTICAL_SWAP,
        ChangeClass.ORDERED_HORIZONTAL_SWAP,
        ChangeClass.UNORDERED_HORIZONTAL_SWAP,
    },
}


def stability_degree(tree: AbstractMergeTree) -> int:
    """The multiplier in the stability bounds: max incident tree edges."""
    return max(tree.child_count(v) + (tree.parent[v] is not None) for v in tree.value)


@dataclass(frozen=True)
class BoundReport:
    metric: MetricId
    change_class: ChangeClass
    extent: float
    degree: int
    degree_g: int  # deg(T_g); the bound uses deg(T_f) only
    distance: float | None
    bound: float
    claimed: bool
    passed: bool | None  # None: informational (unclaimed) or guard-skipped
    skipped: bool = False
    witness: dict | None = None

    def to_dict(self):
        row = asdict(self)
        del row["metric"]
        return {"metric": self.metric.value, "class": row.pop("change_class").value, **row}


def check_bound(f: ScalarField, f2: ScalarField, metric: MetricId, guards=DEFAULT_GUARDS) -> BoundReport:
    """Stability bound report for one minimal perturbation and one metric."""
    info = classify_change_detailed(f, f2)
    t1, t2 = merge_tree_of(f), merge_tree_of(f2)
    cls, extent = info.change_class, info.perturbation.extent
    deg = stability_degree(t1)
    bound = deg * extent
    claimed = cls in STABILITY_MATRIX[metric]
    dist, outcome = _check(None, f, f2, t1, t2, metric, bound, claimed, guards)
    passed = None if outcome in ("skipped", "informational") else outcome == "passed"
    return BoundReport(
        metric, cls, extent, deg, stability_degree(t2), dist, bound, claimed, passed,
        skipped=outcome == "skipped",
        witness=outcome["witness"] if passed is False else None,
    )


def _check(i, f, f2, t1, t2, metric, bound, claimed, guards):
    """Check trial i's pair (f, f2), with merge trees t1 and t2, against a
    bound: (distance, outcome). The outcome is "skipped" when a size guard
    refuses the metric (distance None), "informational" when the bound is
    not claimed, "passed" within it, else the failure record."""
    try:
        dist = tree_distance(metric, t1, t2, guards)
    except SizeGuardError:
        return None, "skipped"
    if not claimed:
        return dist, "informational"
    if dist <= bound + TOLERANCE:
        return dist, "passed"
    witness = {"field_a": field_to_dict(f), "field_b": field_to_dict(f2)}
    return dist, {"trial": i, "distance": dist, "bound": bound, "witness": witness}


# ---------------------------------------------------------------------------
# Counterexample families (exact figure trees)
# ---------------------------------------------------------------------------

class CounterexampleFamily(Enum):
    EDGE_SPLIT_FIG7 = "fig7"
    HORIZONTAL_FIG8 = "fig8"
    VERTICAL_FIG10 = "fig10"


def _check_scale(x: float, eps: float) -> None:
    """The families need x > 2 * eps > 0, and every value the perturbation
    moves must stay a float distinct from its partner: x +- eps from x,
    2x +- eps / 2 (the fields' fig7 jitter, which also covers the trees'
    2x + eps) from 2x, and 4x +- eps from 4x. An eps that vanishes against
    x would give two identical trees or a field with a repeated value."""
    if not (
        x > 2 * eps > 0
        and all(s * x - d < s * x < s * x + d for s, d in ((1, eps), (2, eps / 2), (4, eps)))
    ):
        raise ValidationError(
            f"need x > 2*eps > 0 with x +- eps, 2x +- eps/2 and 4x +- eps distinct "
            f"floats from x, 2x and 4x, got x={x}, eps={eps}"
        )


def counterexample(family: CounterexampleFamily, x: float, eps: float):
    """The two abstract merge trees of the named instability family,
    instantiated at scale x and perturbation parameter eps."""
    _check_scale(x, eps)
    if family is CounterexampleFamily.EDGE_SPLIT_FIG7:
        t1 = abstract_merge_tree(
            {"A": None, "B": "A", "C": "B", "E": "B", "D": "E", "F": "E"},
            {"A": 0.0, "B": x, "C": 3 * x, "E": 2 * x, "D": 3 * x, "F": 2 * x + eps},
        )
        t2 = abstract_merge_tree(
            {"A": None, "B": "A", "C": "B", "D": "B"},
            {"A": 0.0, "B": x, "C": 3 * x, "D": 3 * x},
        )
        return t1, t2
    if family is CounterexampleFamily.HORIZONTAL_FIG8:
        t1 = abstract_merge_tree(
            {"a": None, "b": "a", "c": "b", "e": "b", "d": "e", "f": "e"},
            {"a": 0.0, "b": x - eps, "c": 4 * x, "e": x, "d": 3 * x, "f": 2 * x},
        )
        t2 = abstract_merge_tree(
            {"a": None, "e": "a", "d": "e", "b": "e", "c": "b", "f": "b"},
            {"a": 0.0, "e": x, "d": 3 * x, "b": x + eps, "c": 4 * x, "f": 2 * x},
        )
        return t1, t2
    if family is CounterexampleFamily.VERTICAL_FIG10:
        parent = {"a": None, "b": "a", "d": "b", "c": "b", "e": "c", "f": "c"}
        t1 = abstract_merge_tree(
            parent,
            {"a": 0.0, "b": x, "d": 4 * x + eps, "c": 2 * x, "e": 4 * x, "f": 3 * x},
        )
        t2 = abstract_merge_tree(
            parent,
            {"a": 0.0, "b": x, "d": 4 * x - eps, "c": 2 * x, "e": 4 * x, "f": 3 * x},
        )
        return t1, t2
    raise ValidationError(f"unknown family {family!r}")


def counterexample_fields(family: CounterexampleFamily, x: float, eps: float):
    """Scalar field realizations of the families, for the classifier and
    the CLI: the pair differs by a minimal vertex perturbation whose merge
    trees reproduce the family's shape (one leaf value is jittered where the
    figure reuses a value, which would break injectivity)."""
    _check_scale(x, eps)
    if family is CounterexampleFamily.EDGE_SPLIT_FIG7:
        # path a - c - b - d - e - f; moving f past e splits the edge (d, b)
        dom = build_domain(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
        f = validate_field(dom, [0.0, 3 * x, x, 2.5 * x, 2 * x, 2 * x - eps / 2])
        f2 = apply_value_change(f, 5, 2 * x + eps / 2)
        return f, f2
    if family is CounterexampleFamily.HORIZONTAL_FIG8:
        dom = build_domain(6, [(0, 1), (1, 2), (1, 4), (4, 3), (4, 5), (1, 5)])
        f = validate_field(dom, [0.0, x - eps, 4 * x, 3 * x, x, 2 * x])
        f2 = apply_value_change(f, 1, x + eps)
        return f, f2
    if family is CounterexampleFamily.VERTICAL_FIG10:
        dom = build_domain(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
        f = validate_field(dom, [0.0, 4 * x + eps, x, 4 * x, 2 * x, 3 * x])
        f2 = apply_value_change(f, 1, 4 * x - eps)
        return f, f2
    raise ValidationError(f"unknown family {family!r}")


def instability_growth(family, metric: MetricId, x_values, eps: float):
    """Distance of the family's tree pair at each scale x (eps fixed)."""
    rows = []
    for x in x_values:
        t1, t2 = counterexample(family, x, eps)
        rows.append((float(x), tree_distance(metric, t1, t2)))
    return rows


def linear_growth_ok(rows) -> bool:
    """Doubling x should double the distance, within 10%. Fewer than two
    rows, or a distance that is not positive, shows no growth."""
    if len(rows) < 2 or not all(d > 0 for _, d in rows):
        return False
    ok = True
    for (x1, d1), (x2, d2) in zip(rows, rows[1:]):
        expect = d1 * (x2 / x1)
        ok = ok and abs(d2 - expect) <= 0.10 * expect
    return ok


# ---------------------------------------------------------------------------
# Randomized minimal-perturbation suite
# ---------------------------------------------------------------------------

def random_grid_field(rng: random.Random, rows: int, cols: int) -> ScalarField:
    dom = build_grid_domain(rows, cols)
    while True:
        values = [rng.random() for _ in range(dom.vertex_count)]
        if len(set(values)) == len(values):
            return validate_field(dom, values)


def random_minimal_perturbation(rng: random.Random, f: ScalarField):
    vertex = rng.randrange(f.vertex_count)
    candidates = enumerate_minimal_perturbations(f, vertex)
    return rng.choice(candidates)


@dataclass
class CellStats:
    trials: int = 0
    passed: int = 0
    failed: int = 0
    skipped: int = 0
    informational: int = 0
    failures: list = dc_field(default_factory=list)

    def count(self, outcome):
        """Count one trial's outcome (see _check): "passed", "skipped",
        "informational" or a failure record. None, a check not run (a
        finite precondition miss), is informational but no trial."""
        if outcome is None:
            self.informational += 1
            return
        self.trials += 1
        if outcome == "passed":
            self.passed += 1
        elif outcome == "skipped":
            self.skipped += 1
        elif outcome == "informational":
            self.informational += 1
        else:
            self.failed += 1
            self.failures.append(outcome)

    def to_dict(self):
        return asdict(self)


@dataclass
class SuiteReport:
    seed: int
    trials: int
    grid: int
    metrics: tuple
    cells: dict  # (metric, class) -> CellStats
    witness_checks: CellStats

    def all_claimed_pass(self) -> bool:
        return all(s.failed == 0 for s in self.cells.values())

    def to_dict(self):
        return {
            "seed": self.seed,
            "trials": self.trials,
            "grid": self.grid,
            "metrics": [m.value for m in self.metrics],
            "notes": list(THEOREM_TEXT_NOTES),
            "cells": {
                f"{m.value}/{c.value}": s.to_dict()
                for (m, c), s in sorted(
                    self.cells.items(), key=lambda kv: (kv[0][0].value, kv[0][1].value)
                )
            },
            "witness_checks": self.witness_checks.to_dict(),
        }

    def summary_table(self) -> str:
        """One row per metric, one column per change class; a cell with
        trials names its guard skips, one without is a dash."""
        table = [["metric", *(c.value for c in ChangeClass)]]
        for m in self.metrics:
            row = [m.value]
            for c in ChangeClass:
                s = self.cells.get((m, c))
                if s is None or s.trials == 0:
                    row.append("-")
                    continue
                if c in STABILITY_MATRIX[m]:
                    cell = f"{s.passed}/{s.trials - s.skipped} pass"
                    if s.failed:
                        cell += f" ({s.failed} FAIL)"
                else:
                    cell = f"{s.informational} info"
                if s.skipped:
                    cell += f" ({s.skipped} skip)"
                row.append(cell)
            table.append(row)
        width = max(26, 2 + max(len(cell) for row in table for cell in row[1:]))
        return "\n".join(row[0].ljust(8) + "".join(c.rjust(width) for c in row[1:])
                         for row in table)


#: Discrepancy recorded verbatim in every suite report header: the theorem
#: statements for the constrained classic distance and the BDT-based family
#: both read "simple change or edge split", while the surrounding prose and
#: the hierarchy figure assign the constrained classic distance to simple
#: changes and vertical swaps (edge splits are its counterexample family).
#: The hierarchy matrix above follows the prose and the figure.
THEOREM_TEXT_NOTES = (
    "delta_L claimed cells follow the hierarchy figure (SC, VS); the theorem "
    "text names 'simple change or edge split' but the edge-split "
    "counterexample shows delta_L unstable there.",
    "stability degree = max incident tree edges (children + parent edge); "
    "counting children only fails already for saddle value shifts.",
)


def _distinct_metrics(metrics) -> tuple:
    """metrics as a tuple; a metric named twice would count each of its
    trials twice, so it raises ValidationError naming the metric."""
    metrics = tuple(metrics)
    for k, m in enumerate(metrics):
        if m in metrics[:k]:
            raise ValidationError(f"metric {m.value} is named more than once")
    return metrics


def run_stability_suite(
    seed: int,
    trials: int,
    grid_size: int,
    metrics=tuple(MetricId),
    guards: Guards = DEFAULT_GUARDS,
) -> SuiteReport:
    """Randomized verification of the minimal-perturbation bounds.

    Each trial draws a random grid field and a random minimal perturbation,
    classifies the pair and checks every requested metric against its bound
    when the (metric, class) cell is claimed stable. For the deformation
    distance, deform_witness_search also answers whether some edit sequence
    (not necessarily the cheapest) has op count <= degree and per-op cost
    <= extent. It returns True or False and builds no sequence; it admits
    only plans within both limits, so its verdict is the check
    (docs/decisions.md section 2). Horizontal swaps are expected among
    witness_checks.failures: they can need degree + 2 ops.

    Trial i draws from its own random.Random(seed * 1_000_003 + i), so the
    trials run on the package's fork pool, the calling process and one
    forked child per further usable CPU each taking the next trial, and
    are folded in trial order; the report is the same bytes as a serial
    run (docs/decisions.md section 4). A SizeGuardError skips its metric;
    any other exception reaches the caller with its type. A metric named
    twice raises ValidationError before the first trial.
    """
    if trials < 0:
        raise ValidationError(f"need trials >= 0, got {trials}")
    metrics = _distinct_metrics(metrics)
    cells = {}
    witness_stats = CellStats()
    trial = partial(_suite_trial, seed, grid_size, metrics, guards)
    for cls, outcomes, witness in map_in_order(trial, range(trials)):
        for m, outcome in zip(metrics, outcomes):
            cells.setdefault((m, cls), CellStats()).count(outcome)
        if witness is not None:
            witness_stats.count(witness)
    return SuiteReport(seed, trials, grid_size, metrics, cells, witness_stats)


def _suite_trial(seed, grid_size, metrics, guards, i):
    """Trial i of run_stability_suite: the pair's change class, each
    metric's outcome (see _check) and, when E is among the metrics, the
    witness search's outcome: "passed", "skipped" where E is skipped, or
    the failure record (None without E). Unclaimed cells are computed too,
    as information. Only this small record leaves the trial, never its
    fields or trees."""
    rng = random.Random(seed * 1_000_003 + i)
    f = random_grid_field(rng, grid_size, grid_size)
    p = random_minimal_perturbation(rng, f)
    f2 = apply_perturbation(f, p)
    info = classify_change_detailed(f, f2)
    cls = info.change_class
    t1, t2 = merge_tree_of(f), merge_tree_of(f2)
    deg = stability_degree(t1)
    bound = deg * info.perturbation.extent
    outcomes = tuple([  # from a list, not a generator: docs/decisions.md section 6
        _check(i, f, f2, t1, t2, m, bound, cls in STABILITY_MATRIX[m], guards)[1]
        for m in metrics
    ])
    if MetricId.E not in metrics:
        return cls, outcomes, None
    # E's guard compares the same edge count with the same limit
    if outcomes[metrics.index(MetricId.E)] == "skipped":
        return cls, outcomes, "skipped"
    if deform_witness_search(t1, t2, max_ops=deg, max_op_cost=p.extent):
        return cls, outcomes, "passed"
    return cls, outcomes, {
        "trial": i,
        "class": cls.value,
        "degree": deg,
        "extent": p.extent,
        # a failed search has no sequence; the key stays so recorded
        # reports keep their layout
        "ops": None,
        "witness": {"field_a": field_to_dict(f), "field_b": field_to_dict(f2)},
    }


# ---------------------------------------------------------------------------
# Finite / local stability
# ---------------------------------------------------------------------------

#: Step classes each metric's finite-stability bound is claimed on: a trial
#: is checked when the classes of all its minimal steps lie in the set.
#: The keys' order is the "supported metrics" order of the error message.
_FINITE_CLAIMS = {
    MetricId.E: set(ChangeClass),  # unconditional
    MetricId.P: {c for c in ChangeClass if not c.is_horizontal},
    MetricId.G: set(ChangeClass) - {ChangeClass.EDGE_SPLIT},
    MetricId.L: {ChangeClass.SIMPLE_CHANGE, ChangeClass.VERTICAL_SWAP},
    MetricId.W: {ChangeClass.SIMPLE_CHANGE, ChangeClass.EDGE_SPLIT},
    MetricId.X: {ChangeClass.SIMPLE_CHANGE, ChangeClass.EDGE_SPLIT},
}


@dataclass
class FiniteStabilityReport:
    seed: int
    trials: int
    grid: int
    eps: float
    per_metric: dict  # MetricId -> CellStats
    step_class_counts: dict

    def all_pass(self) -> bool:
        return all(s.failed == 0 for s in self.per_metric.values())

    def to_dict(self):
        return {
            "seed": self.seed,
            "trials": self.trials,
            "grid": self.grid,
            "eps": self.eps,
            "per_metric": {m.value: s.to_dict() for m, s in sorted(
                self.per_metric.items(), key=lambda kv: kv[0].value)},
            "step_class_counts": {
                c.value: n for c, n in sorted(
                    self.step_class_counts.items(), key=lambda kv: kv[0].value)
            },
        }


def run_finite_stability(
    seed: int,
    trials: int,
    grid_size: int,
    eps: float,
    metrics=(MetricId.E, MetricId.P, MetricId.G, MetricId.L, MetricId.W, MetricId.X),
    guards: Guards = DEFAULT_GUARDS,
) -> FiniteStabilityReport:
    """Randomized verification of the finite-stability bounds.

    Each trial perturbs every vertex independently within [-eps, eps],
    decomposes the perturbation into minimal steps, classifies each step,
    and checks the size-times-2eps bound for every metric whose step-class
    precondition holds. The deformation bound is unconditional. A metric
    without a finite-stability precondition raises ValidationError before
    the first trial, as do a negative trial count, an eps that is not
    positive or whose jitter range 2 * eps is not finite, or a metric
    named twice.

    Trial i draws from its own random.Random(seed * 7_368_787 + i) and runs
    on the fork pool, in the calling process or a forked child, as in
    run_stability_suite (docs/decisions.md section 4).
    """
    if trials < 0:
        raise ValidationError(f"need trials >= 0, got {trials}")
    if not 0 < 2 * eps < math.inf:
        raise ValidationError(f"need an eps > 0 with a finite 2 * eps, got {eps}")
    metrics = _distinct_metrics(metrics)
    unsupported = [m.value for m in metrics if m not in _FINITE_CLAIMS]
    if unsupported:
        supported = " ".join(m.value for m in _FINITE_CLAIMS)
        raise ValidationError(
            f"finite stability has no bound for {', '.join(unsupported)};"
            f" supported metrics: {supported}"
        )
    per_metric = {m: CellStats() for m in metrics}
    class_counts = {}
    trial = partial(_finite_trial, seed, grid_size, eps, metrics, guards)
    for step_classes, checks in map_in_order(trial, range(trials)):
        for cls in step_classes:
            class_counts[cls] = class_counts.get(cls, 0) + 1
        for m, check in zip(metrics, checks):
            per_metric[m].count(check)
    return FiniteStabilityReport(seed, trials, grid_size, eps, per_metric, class_counts)


def _finite_trial(seed, grid_size, eps, metrics, guards, i):
    """Trial i of run_finite_stability: the class of each minimal step, in
    order, and per metric None when its precondition fails, else its
    outcome (see _check). Only this small record leaves the trial, never
    its fields or trees."""
    rng = random.Random(seed * 7_368_787 + i)
    f = random_grid_field(rng, grid_size, grid_size)
    while True:
        values = [v + rng.uniform(-eps, eps) for v in f.values]
        if len(set(values)) == len(values):
            break
    f2 = validate_field(f.domain, values)
    seq = decompose_perturbation(f, f2)
    step_classes = tuple([  # from a list, not a generator: docs/decisions.md section 6
        classify_change_detailed(fa, fb).change_class
        for fa, fb in zip(seq.fields, seq.fields[1:])
    ])
    classes = set(step_classes)
    t1, t2 = merge_tree_of(f), merge_tree_of(f2)
    tree_bound = (t1.node_count() + t2.node_count()) * 2 * eps
    # a decomposition has one branch, so its BDT one node, per leaf
    bdt_bound = (len(t1.leaves()) + len(t2.leaves())) * 2 * eps
    checks = []
    for m in metrics:
        bound = bdt_bound if m in (MetricId.W, MetricId.X) else tree_bound
        claimed = classes <= _FINITE_CLAIMS[m]
        checks.append(_check(i, f, f2, t1, t2, m, bound, True, guards)[1] if claimed else None)
    return step_classes, tuple(checks)
