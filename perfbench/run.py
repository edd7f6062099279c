"""mtstab benchmark.

    python3 perfbench/run.py --workload {suites,matrix,deep} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout: the program is imported from the
checkout's src/ directory and nowhere else. Workloads are described in
BENCHMARK.json and perfbench/workloads.py.

With --trace 0 the benchmark times passes over the workload, one after the
other, until --seconds have gone by (at least one pass), and reports:

* wall_s: median wall time of one pass.
* setup_s: median, over several fresh interpreters, of the wall time to
  import mtstab.cli and build the workload's inputs.
* peak_rss_mb: peak resident memory of the benchmark process.

With --trace 1 it times one untraced pass, then one pass with the layers
of perfbench/tracer.py wrapped, and reports per-layer calls, times and
ratios, the tracing overhead, and a layer-share table.

Every pass's outputs are checked (perfbench/workloads.py). The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics; attempted and failed count operations, so failed /
attempted is the workload's fail_share.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 3


def import_program():
    """Import mtstab from the checkout; exit non-zero if it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        import mtstab.cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import mtstab from {SRC}: {exc}")
    if not Path(mtstab.cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: mtstab was imported from {mtstab.cli.__file__}, not {SRC}")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("suites", "matrix", "deep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def workdir(args):
    path = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def measure_setup(args):
    """Wall time of fresh interpreters that import and build the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=120)
        samples.append(time.perf_counter() - start)
    return samples


class Passes:
    """Times passes over one workload and checks each pass's outputs."""

    def __init__(self, run, check, inputs, reference, seed):
        self._run, self._check = run, check
        self.inputs, self.reference, self.seed = inputs, reference, seed
        self.attempted = self.failed = 0
        self.mismatches = []

    def one(self):
        start = time.perf_counter()
        outputs = self._run(self.inputs)
        elapsed = time.perf_counter() - start
        outcome = self._check(self.inputs, outputs, self.reference, self.seed)
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.mismatches.extend(outcome.mismatches)
        return elapsed


def metric(value, unit):
    return {"value": value, "unit": unit}


def per_layer_names():
    """(name, unit) of every per-layer metric, in BENCHMARK.json order."""
    import tracer

    names = []
    for mod, fn, _, fields, _ in tracer.LAYERS:
        names += [(f"{mod}.{fn}.{f}", _unit(f)) for f in fields]
    names += [(f"distances.{m}.{f}", _unit(f))
              for m in tracer.METRIC_EFFECTS for f in tracer.METRIC_FIELDS]
    names += [(f"{tracer.LSA[0]}.{f}", _unit(f)) for f in tracer.LSA[3]]
    names += [(name, "ratio") for name in RATIOS]
    names += [("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"), ("trace.overhead_s", "s")]
    return names


def _unit(field):
    return "s" if field in ("s", "self_s") else "count"


#: Waste ratios: work done per unit of useful work (lower is better).
RATIOS = {
    "mergetree.merge_tree_of.per_trial": ("mergetree.merge_tree_of", "trials"),
    "perturb.classify_change_detailed.per_trial": ("perturb.classify_change_detailed", "trials"),
    "editcore.contract.per_deform_call": ("editcore.contract", "deform calls"),
}


def layer_metrics(results, trials, traced_wall, untraced_wall):
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0, "guard_skips": 0, "errors": 0}
    deform_calls = sum(results.get(f"editcore.{fn}", zero)["calls"]
                       for fn in ("deform_brute_force", "deform_witness_search"))
    base = {"trials": trials, "deform calls": deform_calls}
    out = {}
    for name, unit in per_layer_names():
        if name in RATIOS:
            layer, per = RATIOS[name]
            value = results.get(layer, zero)["calls"] / base[per] if base[per] else 0.0
        elif name.startswith("trace."):
            value = {"trace.wall_s": traced_wall, "trace.untraced_wall_s": untraced_wall,
                     "trace.overhead_s": traced_wall - untraced_wall}[name]
        else:
            layer, field = name.rsplit(".", 1)
            value = results.get(layer, zero)[field]
        out[name] = metric(value, unit)
    return out


def share_table(workload, results, wall):
    """Self time of each layer and module as a share of the traced pass."""
    import tracer

    effects = {f"{mod}.{fn}": effect for mod, fn, _, _, effect in tracer.LAYERS}
    effects.update({f"distances.{m}": e for m, e in tracer.METRIC_EFFECTS.items()})
    effects[tracer.LSA[0]] = tracer.TO_DP
    modules = {}
    for name, row in results.items():
        modules[name.split(".")[0]] = modules.get(name.split(".")[0], 0.0) + row["self_s"]
    lines = [f"layer shares, workload {workload}: self time / traced wall_s {wall:.3f} s",
             "(pool threads overlap on matrix, so shares there can add up past 100%)"]
    for mod, self_s in sorted(modules.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {mod:<44} {self_s:9.3f} s {100 * self_s / wall:6.1f}%")
    lines.append(f"  {'(outside the layers; below 0 if threads overlap)':<44} "
                 f"{wall - sum(modules.values()):9.3f} s")
    lines.append(f"  {'layer':<44} {'calls':>9} {'self_s':>9} {'share':>6}  expected to move")
    for name, row in sorted(results.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"  {name:<44} {row['calls']:9d} {row['self_s']:9.3f} "
                     f"{100 * row['self_s'] / wall:5.1f}%  {effects.get(name, '')}")
    return "\n".join(lines)


def write_spans(args, spans):
    path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for span_id, name, start, end, parent, hot_child in spans:
            fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                 "parent": parent, "hot_child_s": hot_child}) + "\n")
    return path


def main(argv=None):
    args = parse_args(argv)
    import_program()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    build_inputs, run, check = WORKLOADS[args.workload]
    work = workdir(args)
    try:
        if args.setup_only:
            build_inputs(args.seed, str(work))
            return 0
        with open(HERE / "reference.json", encoding="utf-8") as fh:
            reference = json.load(fh)[args.workload]
        setup = None if args.trace else measure_setup(args)
        inputs = build_inputs(args.seed, str(work))
        return benchmark(args, setup, Passes(run, check, inputs, reference, args.seed))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def benchmark(args, setup, passes):
    if args.trace:
        import tracer

        untraced = passes.one()
        t = tracer.Tracer()
        t.install()
        try:
            traced = passes.one()
        finally:
            t.uninstall()
        results = t.results()
        trials = sum(a[1] for _, a in passes.inputs) if args.workload == "suites" else 0
        metrics = layer_metrics(results, trials, traced, untraced)
        print(share_table(args.workload, results, traced))
        print(f"tracing overhead: {traced - untraced:+.3f} s "
              f"(traced {traced:.3f} s, untraced {untraced:.3f} s)")
        print(f"spans written to {write_spans(args, t.spans())}")
    else:
        times = []
        deadline = time.perf_counter() + args.seconds
        while True:
            times.append(passes.one())
            if time.perf_counter() >= deadline:
                break
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "wall_s": metric(statistics.median(times), "s"),
            "setup_s": metric(statistics.median(setup), "s"),
            "peak_rss_mb": metric(rss_mb, "MB"),
        }
        print(f"workload {args.workload}, seed {args.seed}: closed loop, one caller")
        print(f"  wall_s      {metrics['wall_s']['value']:.4f} s   median of {len(times)} "
              f"passes: {', '.join(f'{x:.3f}' for x in times)}")
        print(f"  setup_s     {metrics['setup_s']['value']:.4f} s   median of {len(setup)} "
              f"fresh interpreters: {', '.join(f'{x:.3f}' for x in setup)}")
        print(f"  peak_rss_mb {rss_mb:.1f} MB")
    share = passes.failed / passes.attempted
    print(f"  operations  {passes.attempted} attempted, {passes.failed} failed, "
          f"fail_share {share:.4f}")
    for problem in passes.mismatches[:20]:
        print(f"  MISMATCH {problem}")
    print(json.dumps({
        "correct": not passes.mismatches,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
