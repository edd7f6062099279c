"""The three benchmark workloads: inputs from a seed, one timed pass each,
and the check of a pass's outputs.

Each workload is a closed loop from one process: one caller, each call
into the public API starts after the previous one returns. An operation is
one (trial, metric) check in `suites`, one (metric, matrix) command in
`matrix` and one distance call in `deep`. An operation fails when it raises
anything but SizeGuardError, or when its output disagrees with the
reference; outputs that reproduce a recorded failure (the RecursionErrors
of `deep`) are correct but still count as failed operations.
"""

from __future__ import annotations

import json
import math
import os
import random

# The program is called through its modules' attributes, so the tracer's
# rebinding of those names reaches the calls made from here.
from mtstab import cli, distances, mergetree, stability
from mtstab.distances import MetricId
from mtstab.errors import SizeGuardError
from mtstab.field import TOLERANCE, build_domain, build_grid_domain, dump_field, validate_field

#: The seed whose outputs perfbench/reference.json records.
REFERENCE_SEED = 0

# suites: the acceptance-suite calls (fixed seeds, as the acceptance tests
# pin them), followed by a smaller suite pair drawn from the run's seed, so
# every seed also exercises trials no change was tuned on.
ACCEPTANCE = {"stability": (42, 200, 4), "finite": (7, 100, 3, 0.05)}
FRESH_TRIALS = {"stability": 20, "finite": 10}
FRESH_SEED_OFFSET = 1000

MATRIX_FIELDS, MATRIX_GRID = 6, 40
MATRIX_BASE_SEED, MATRIX_NOISE = 12345, 0.002
MATRIX_METRICS = ("w", "x", "l")

DEEP_SIZES = (400, 800, 1200)
DEEP_METRICS = (MetricId.W, MetricId.X, MetricId.L)


class Outcome:
    """Operation counts and the mismatches found by a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.mismatches = []

    def add(self, ops, failed, mismatch=None):
        self.attempted += ops
        if failed:
            self.failed += ops
        if mismatch:
            self.mismatches.append(mismatch)


def close(a, b):
    """Structural equality with numbers compared within field.TOLERANCE."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if math.isinf(a) or math.isinf(b):
            return a == b
        return abs(a - b) <= TOLERANCE
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(close(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(close(x, y) for x, y in zip(a, b))
    return a == b


def _plain(obj):
    """JSON round trip, so outputs compare like the recorded reference."""
    return json.loads(json.dumps(obj))


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def suites_inputs(seed, workdir):
    fresh = FRESH_SEED_OFFSET + seed
    s_seed, _, grid = ACCEPTANCE["stability"]
    f_seed, _, f_grid, eps = ACCEPTANCE["finite"]
    return [
        ("stability", (s_seed, ACCEPTANCE["stability"][1], grid)),
        ("finite", (f_seed, ACCEPTANCE["finite"][1], f_grid, eps)),
        ("fresh_stability", (fresh, FRESH_TRIALS["stability"], grid)),
        ("fresh_finite", (fresh, FRESH_TRIALS["finite"], f_grid, eps)),
    ]


def suites_pass(calls):
    out = {}
    for key, args in calls:
        try:
            if key.endswith("stability"):
                report = stability.run_stability_suite(*args, metrics=tuple(MetricId))
            else:
                report = stability.run_finite_stability(*args)
            out[key] = report.to_dict()
        except Exception as exc:  # recorded as failed operations
            out[key] = {"raised": type(exc).__name__}
    return out


def _suite_units(key, report):
    """(unit name, operations, payload) for each cell of a suite report."""
    if "raised" in report:
        return None
    if key.endswith("stability"):
        units = [(f"cell {k}", c["trials"], c) for k, c in report["cells"].items()]
        units.append(("witness_checks", report["witness_checks"]["trials"],
                      report["witness_checks"]))
    else:
        units = [(f"metric {m}", c["trials"] + c["informational"], c)
                 for m, c in report["per_metric"].items()]
    return units


def _nominal_ops(key, args):
    """Operations of a suite call that raised: every (trial, metric) check,
    plus the witness check of each trial; the finite suite runs its six
    default metrics."""
    trials = args[1]
    if key.endswith("stability"):
        return trials * len(MetricId) + trials
    return trials * 6


def _suite_invariants(key, report, args):
    """Cell counts that must add up whatever the seed; returns broken units."""
    trials = args[1]
    broken = []
    if key.endswith("stability"):
        per_metric = {}
        for name, c in report["cells"].items():
            per_metric[name.split("/")[0]] = per_metric.get(name.split("/")[0], 0) + c["trials"]
            if (c["passed"] + c["failed"] + c["skipped"] + c["informational"] != c["trials"]
                    or len(c["failures"]) != c["failed"]):
                broken.append(f"cell {name}")
        if sorted(per_metric) != sorted(m.value for m in MetricId) or any(
            n != trials for n in per_metric.values()
        ):
            broken.append("metric trial totals")
        w = report["witness_checks"]
        if w["passed"] + w["failed"] + w["skipped"] != w["trials"] or w["trials"] != trials:
            broken.append("witness_checks")
    else:
        for m, c in report["per_metric"].items():
            if (c["trials"] + c["informational"] != trials
                    or c["passed"] + c["failed"] + c["skipped"] != c["trials"]
                    or len(c["failures"]) != c["failed"]):
                broken.append(f"metric {m}")
    return broken


def suites_check(calls, out, reference, seed):
    result = Outcome()
    for key, args in calls:
        report = _plain(out[key])
        units = _suite_units(key, report)
        if units is None:
            result.add(_nominal_ops(key, args), True, f"{key} raised {report['raised']}")
            continue
        exact = not key.startswith("fresh") or seed == REFERENCE_SEED
        if exact:
            ref = reference[key]
            units_keys = ("cells", "per_metric", "witness_checks")
            head = {k: v for k, v in report.items() if k not in units_keys}
            ref_head = {k: v for k, v in ref.items() if k not in units_keys}
            if not close(head, ref_head):
                result.add(sum(n for _, n, _ in units), True, f"{key}: report header differs")
                continue
            ref_units = {name: payload for name, _, payload in _suite_units(key, ref)}
            seen = set()
            for name, ops, payload in units:
                seen.add(name)
                ok = name in ref_units and close(payload, ref_units[name])
                result.add(ops, not ok, None if ok else f"{key}: {name} differs")
            for name in set(ref_units) - seen:
                result.add(0, False, f"{key}: {name} missing")
        else:
            broken = set(_suite_invariants(key, report, args))
            for name, ops, _ in units:
                result.add(ops, name in broken)
            for name in broken:
                result.mismatches.append(f"{key}: invariant broken at {name}")
    return result


# ---------------------------------------------------------------------------
# matrix
# ---------------------------------------------------------------------------

def matrix_inputs(seed, workdir):
    """Write the ensemble: a white-noise base field fixed by the workload,
    and six members that add independent noise drawn from the seed.

    Members of an ensemble are small perturbations of one field, as in the
    paper's stability experiments. The base is fixed because the DP cost
    follows tree structure: over five seeds, six independent white-noise
    fields needed 176k to 222k assignment calls per pass, members of the
    shared base 210k to 235k. Member trees have roughly 450 nodes.
    """
    base_rng, rng = random.Random(MATRIX_BASE_SEED), random.Random(seed)
    domain = build_grid_domain(MATRIX_GRID, MATRIX_GRID)
    base = [base_rng.random() for _ in range(domain.vertex_count)]
    fields_dir = os.path.join(workdir, "fields")
    out_dir = os.path.join(workdir, "out")
    os.makedirs(fields_dir, exist_ok=True)
    os.makedirs(out_dir, exist_ok=True)
    for k in range(MATRIX_FIELDS):
        while True:
            values = [b + rng.uniform(-MATRIX_NOISE, MATRIX_NOISE) for b in base]
            if len(set(values)) == len(values):
                break
        dump_field(validate_field(domain, values), os.path.join(fields_dir, f"field{k}.json"))
    return fields_dir, out_dir


def _matrix_paths(out_dir, metric):
    return os.path.join(out_dir, f"{metric}.json"), os.path.join(out_dir, f"{metric}.csv")


def matrix_pass(inputs):
    fields_dir, out_dir = inputs
    codes = {}
    for metric in MATRIX_METRICS:
        json_path, csv_path = _matrix_paths(out_dir, metric)
        for path in (json_path, csv_path):
            if os.path.exists(path):
                os.remove(path)
        try:
            codes[metric] = cli.main(["matrix", fields_dir, "--metric", metric,
                                      "--out-json", json_path, "--out-csv", csv_path])
        except Exception as exc:  # recorded as a failed operation
            codes[metric] = type(exc).__name__
    return codes


def _read_matrix(out_dir, metric):
    json_path, csv_path = _matrix_paths(out_dir, metric)
    with open(json_path, encoding="utf-8") as fh:
        payload = json.load(fh)
    with open(csv_path, encoding="utf-8") as fh:
        names, values = cli.matrix_from_csv(fh.read())
    return payload, names, values


def _matrix_invariants(payload, names, csv_values, n):
    values = payload["values"]
    if payload["members"] != [f"field{k}.json" for k in range(n)] or names != payload["members"]:
        return "members"
    for i in range(n):
        if values[i][i] != 0.0:
            return "diagonal"
        for j in range(n):
            v = values[i][j]
            if payload["status"][i][j] != "ok" or v is None or not (0.0 <= v < math.inf):
                return f"cell ({i},{j})"
            if v != values[j][i]:
                return "symmetry"
            if abs(csv_values[i][j] - v) > 1e-8 * max(1.0, abs(v)):
                return "csv"
    return None


def matrix_check(inputs, codes, reference, seed):
    _, out_dir = inputs
    result = Outcome()
    payloads = {}
    for metric in MATRIX_METRICS:
        if codes[metric] != 0:
            result.add(1, True, f"matrix {metric}: exit {codes[metric]}")
            continue
        payload, names, csv_values = _read_matrix(out_dir, metric)
        payloads[metric] = payload
        problem = _matrix_invariants(payload, names, csv_values, MATRIX_FIELDS)
        if problem is None and seed == REFERENCE_SEED and not close(payload, reference[metric]):
            problem = "differs from reference"
        # the ordered (Saikia) distance restricts the unordered (Wasserstein) one
        if problem is None and metric == "x" and "w" in payloads and any(
            x < w - TOLERANCE
            for xs, ws in zip(payload["values"], payloads["w"]["values"])
            for x, w in zip(xs, ws)
        ):
            problem = "below w"
        result.add(1, problem is not None, problem and f"matrix {metric}: {problem}")
    return result


# ---------------------------------------------------------------------------
# deep
# ---------------------------------------------------------------------------

def caterpillar_field(rng, nodes):
    """Path field whose merge tree is a caterpillar with `nodes` nodes.

    The global minimum sits at one end; maxima and saddles alternate along
    the path, saddle values rise along it and every maximum lies above
    every saddle, so each saddle carries the rest of the chain plus one
    hanging maximum. The tree shape depends only on `nodes`; the seed moves
    the values.
    """
    k = (nodes - 2) // 2
    saddles = sorted(rng.uniform(1.0, 2.0) for _ in range(k))
    maxima = sorted(rng.uniform(3.0, 4.0) for _ in range(k + 1))
    values = [0.0, maxima[0]]
    for s, m in zip(saddles, maxima[1:]):
        values += [s, m]
    domain = build_domain(len(values), [(i, i + 1) for i in range(len(values) - 1)])
    return validate_field(domain, values)


def deep_inputs(seed, workdir):
    rng = random.Random(seed)
    pairs = []
    for nodes in DEEP_SIZES:
        a = mergetree.merge_tree_of(caterpillar_field(rng, nodes))
        b = mergetree.merge_tree_of(caterpillar_field(rng, nodes))
        pairs.append((nodes, a, b))
    return pairs


def deep_pass(pairs):
    out = []
    for nodes, a, b in pairs:
        for metric in DEEP_METRICS:
            try:
                value = distances.tree_distance(metric, a, b)
            except SizeGuardError:
                value = "SizeGuardError"
            except Exception as exc:  # recorded as a failed operation
                value = type(exc).__name__
            out.append({"nodes": nodes, "metric": metric.value, "value": value})
    return out


def deep_check(pairs, out, reference, seed):
    """Reference entries hold the value, or the exception raised at the
    reference commit plus `value_if_fixed`, the distance a depth-robust
    implementation must return."""
    result = Outcome()
    ref = {(r["nodes"], r["metric"]): r for r in reference}
    w_values = {}
    for row in out:
        key = (row["nodes"], row["metric"])
        got, expect = row["value"], ref[key]
        if got == "SizeGuardError":
            result.add(1, False)
            continue
        raised = isinstance(got, str)
        if raised:
            ok = got == expect.get("raised")
        elif seed == REFERENCE_SEED:
            ok = abs(got - expect.get("value", expect.get("value_if_fixed"))) <= TOLERANCE
        else:
            ok = 0.0 <= got < math.inf
        if not raised and row["metric"] == "w":
            w_values[row["nodes"]] = got
        if ok and not raised and row["metric"] == "x" and row["nodes"] in w_values:
            ok = got >= w_values[row["nodes"]] - TOLERANCE
        result.add(1, raised or not ok, None if ok else f"deep {key}: got {got}")
    return result


WORKLOADS = {
    "suites": (suites_inputs, suites_pass, suites_check),
    "matrix": (matrix_inputs, matrix_pass, matrix_check),
    "deep": (deep_inputs, deep_pass, deep_check),
}
