"""Record perfbench/reference.json: the outputs of one pass of every
workload at workloads.REFERENCE_SEED.

    python3 perfbench/record_reference.py

Run it only at a commit whose outputs are known to be right; the benchmark
compares every later run against the file. For each `deep` call that
raises, the file also keeps the exception type and `value_if_fixed`: the
distance the same recursive code returns once the interpreter's recursion
limit and the thread's stack are large enough. That limit is raised here,
in a worker thread, and never in a benchmark run, so the benchmark keeps
reporting the RecursionError until the program itself is fixed.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import threading

import run


def _value_without_depth_limit(metric, a, b):
    from mtstab.distances import tree_distance

    result = {}
    old_limit, old_stack = sys.getrecursionlimit(), threading.stack_size()

    def target():
        result["value"] = tree_distance(metric, a, b)

    sys.setrecursionlimit(100_000)
    threading.stack_size(512 * 1024 * 1024)
    try:
        worker = threading.Thread(target=target)
        worker.start()
        worker.join()
    finally:
        threading.stack_size(old_stack)
        sys.setrecursionlimit(old_limit)
    return result["value"]


def main():
    run.import_program()
    import workloads
    from mtstab.distances import MetricId

    seed = workloads.REFERENCE_SEED
    reference = {}
    work = tempfile.mkdtemp(dir=run.ROOT)
    try:
        calls = workloads.suites_inputs(seed, work)
        reference["suites"] = workloads.suites_pass(calls)
        inputs = workloads.matrix_inputs(seed, work)
        codes = workloads.matrix_pass(inputs)
        assert all(code == 0 for code in codes.values()), codes
        reference["matrix"] = {m: workloads._read_matrix(inputs[1], m)[0] for m in codes}
        pairs = workloads.deep_inputs(seed, work)
        rows = workloads.deep_pass(pairs)
        trees = {nodes: (a, b) for nodes, a, b in pairs}
        for row in rows:
            if isinstance(row["value"], str):
                row["raised"] = row.pop("value")
                row["value_if_fixed"] = _value_without_depth_limit(
                    MetricId(row["metric"]), *trees[row["nodes"]]
                )
        reference["deep"] = rows
    finally:
        shutil.rmtree(work)
    with open(run.HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
