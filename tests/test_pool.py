import contextlib
import json
import os
import random
import signal
import threading
import time

import pytest

from mtstab import cli, pool
from mtstab.distances import MetricId
from mtstab.errors import PoolWorkerError
from mtstab.field import build_grid_domain, dump_field, validate_field
from mtstab.stability import run_finite_stability, run_stability_suite


@contextlib.contextmanager
def within_60_s():
    """Turns a pool that hangs into a TimeoutError."""
    def hang(signum, frame):
        raise TimeoutError("map_in_order did not return")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_a_job_inside_a_pool_job_runs_in_its_worker(in_child):
    """A child computes at least one outer item, and each item's inner
    call runs in that item's process."""
    def outer(_):
        in_child()
        return os.getpid(), pool.map_in_order(lambda _: os.getpid(), range(2))

    results = pool.map_in_order(outer, range(2))
    assert any(pid != os.getpid() for pid, _ in results)
    assert all(inner == [pid, pid] for pid, inner in results)
    assert pool._job is None


def test_results_come_in_item_order(in_child):
    """Items take a little time, so the caller and the child take turns
    at the counter; the results still come in item order."""
    def fn(item):
        in_child()
        time.sleep(0.002)
        return item

    assert pool.map_in_order(fn, range(20)) == list(range(20))


def test_more_processes_than_cores_compute_each_item_once(monkeypatch):
    """Eight processes on this host's cores race for the counter; an index
    handed out twice, or skipped, would show in the results."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    with within_60_s():
        results = pool.map_in_order(lambda item: (item, os.getpid()), range(5000))
    assert [item for item, _ in results] == list(range(5000))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_the_lowest_failing_item_raises(two_cpus):
    """Every item below a failing one was taken before it and finishes, so
    the error is the serial loop's whichever process fails first."""
    def fn(item):
        if item >= 3:
            raise ValueError(item)
        return item

    with pytest.raises(ValueError, match="^3$"):
        pool.map_in_order(fn, range(40))
    assert pool._job is None


@pytest.mark.parametrize("death", ["exit", "kill", "unpicklable"])
def test_a_child_without_a_result_raises_a_typed_error(in_child, capfd, death):
    """A child that exits early, is killed or returns what pickle refuses
    is reported with its pid and status, in bounded time, and waited for."""
    def fn(item):
        if not in_child():
            return item
        if death == "exit":
            os._exit(3)
        if death == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        return lambda: item

    with within_60_s(), pytest.raises(PoolWorkerError) as caught:
        pool.map_in_order(fn, range(8))
    err = caught.value
    status = {"exit": 3, "kill": -signal.SIGKILL, "unpicklable": 1}[death]
    assert err.pid != os.getpid() and err.status == status
    assert str(err).startswith(f"pool worker {err.pid} ended (")
    if death == "unpicklable":
        assert "Can't pickle" in capfd.readouterr().err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert pool._job is None


def test_no_pool_starts_while_another_thread_runs(two_cpus, monkeypatch, tmp_path):
    """A forked child could inherit a lock the other thread holds, so both
    suites and the matrix command compute in the calling process."""
    def refuse():
        raise AssertionError("a pool child was forked beside another thread")

    monkeypatch.setattr(os, "fork", refuse)
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
