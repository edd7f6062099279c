"""The one process pool: `matrix` pairs and suite trials map over it.

Private to the package; see docs/decisions.md section 4.
"""

from __future__ import annotations

import os
import sys
import threading

from .errors import PoolWorkerError

# The function of the running pool job. Forked children inherit it, and the
# caller holds it while it computes its share, so a process that finds it
# set is inside a job and does not start a pool of its own.
_job = None


def _flush_std_streams():
    """os._exit flushes nothing: flushed before the fork, the caller's
    buffered output is not written again by a child, and flushed in the
    child, fn's own output is not lost."""
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except Exception:  # None, closed or detached
            pass


def _work(fn, items, counter) -> list:
    """(index, ok, value or exception) for each item this process takes,
    the next index from the shared counter each time, until the counter
    passes the last item. A failure moves it there, so nothing more starts."""
    records = []
    while True:
        with counter.get_lock():
            i = counter.value
            counter.value = i + 1
        if i >= len(items):
            return records
        try:
            records.append((i, True, fn(items[i])))
        except BaseException as exc:  # raised again by map_in_order's fold
            with counter.get_lock():
                counter.value = len(items)
            records.append((i, False, exc))
            return records


def _child(fn, items, counter, write_end):
    """A forked child's life: its share of the items, its records pickled
    to its pipe once, then os._exit, never a return into the caller's
    stack."""
    import pickle
    import traceback

    code = 1
    try:
        with open(write_end, "wb") as out:
            out.write(pickle.dumps(_work(fn, items, counter)))
        code = 0
    except BaseException:  # the child ends here whatever went wrong
        traceback.print_exc()
    finally:
        _flush_std_streams()
        os._exit(code)


def map_in_order(fn, items) -> list:
    """[fn(item) for item in items], on the calling process and one forked
    child per further CPU this process may run on (at most one process per
    item); each process takes the next item from a shared counter.

    It computes in the calling process alone when that is one worker, when
    the platform cannot fork, when other threads run (a child could inherit
    a lock one of them holds) and inside a pool job. An exception raised by
    fn reaches the caller with its type, that of the lowest failing item,
    and no item starts after it. A child that ends without a readable result
    raises PoolWorkerError with its pid and exit status.
    """
    items = list(items)
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    workers = min(len(items), cpus)
    global _job
    if workers < 2 or _job is not None or threading.active_count() > 1 or not hasattr(os, "fork"):
        return list(map(fn, items))
    import multiprocessing
    import pickle

    counter = multiprocessing.get_context("fork").Value("q", 0)
    _job = fn
    _flush_std_streams()
    children = {}
    try:
        for _ in range(workers - 1):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                _child(fn, items, counter, write_end)
            os.close(write_end)
            children[pid] = read_end
        records = _work(fn, items, counter)
    finally:
        with counter.get_lock():
            counter.value = len(items)
        _job = None
        ended = []
        for pid, read_end in children.items():
            with open(read_end, "rb") as pipe:
                data = pipe.read()
            ended.append((pid, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]), data))
    for pid, status, data in ended:
        try:
            records += pickle.loads(data)
        except Exception as exc:
            raise PoolWorkerError(pid, status) from exc
        if status != 0:
            raise PoolWorkerError(pid, status)
    records.sort(key=lambda record: record[0])
    for _, ok, value in records:
        if not ok:
            raise value
    return [value for _, _, value in records]
