import concurrent.futures
import json
import os
import random
import threading

from mtstab import cli, pool
from mtstab.distances import MetricId
from mtstab.field import build_grid_domain, dump_field, validate_field
from mtstab.stability import run_finite_stability, run_stability_suite


def test_a_job_inside_a_pool_job_runs_in_its_worker(two_cpus):
    def outer(_):
        return os.getpid(), pool.map_in_order(lambda _: os.getpid(), range(2))

    results = pool.map_in_order(outer, range(2))
    assert all(pid != os.getpid() and inner == [pid, pid] for pid, inner in results)
    assert pool._job is None


def test_no_pool_starts_while_another_thread_runs(two_cpus, monkeypatch, tmp_path):
    """A forked worker could inherit a lock the other thread holds, so both
    suites and the matrix command compute in the calling process."""
    def refuse(*args, **kwargs):
        raise AssertionError("a process pool started beside another thread")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    fields = tmp_path / "fields"
    fields.mkdir()
    rng, domain = random.Random(3), build_grid_domain(4, 4)
    for k in range(3):
        values = rng.sample(range(1000), domain.vertex_count)
        dump_field(validate_field(domain, values), str(fields / f"m{k}.json"))
    out = tmp_path / "w.json"
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        suite = run_stability_suite(1, 4, 3, metrics=(MetricId.E, MetricId.W))
        finite = run_finite_stability(1, 4, 3, 0.05, metrics=(MetricId.W,))
        rc = cli.main(["matrix", str(fields), "--metric", "w", "--out-json", str(out),
                       "--out-csv", str(tmp_path / "w.csv")])
    finally:
        stop.set()
        other.join()
    assert suite.witness_checks.trials == 4
    assert finite.per_metric[MetricId.W].trials + finite.per_metric[MetricId.W].informational == 4
    assert rc == 0 and json.loads(out.read_text())["status"][0][1] == "ok"
