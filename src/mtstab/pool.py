"""The one process pool: `matrix` pairs and suite trials map over it.

Private to the package; see docs/decisions.md section 4.
"""

from __future__ import annotations

import os
import threading

# The function of the running pool job. Forked workers inherit it, so only
# items and results cross the process boundary; a worker that finds it set
# is inside a job and does not start a pool of its own.
_job = None


def _run_job(item):
    return _job(item)


def map_in_order(fn, items) -> list:
    """[fn(item) for item in items], on a pool of forked processes, one per
    CPU this process may run on (at most one per item).

    It computes in the calling process instead when that is one worker,
    when the platform cannot fork, when other threads run (a forked worker
    could inherit a lock one of them holds) and inside a pool job. An
    exception raised by fn reaches the caller with its type, and the items
    not yet started are cancelled.
    """
    items = list(items)
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    workers = min(len(items), cpus)
    global _job
    if workers > 1 and _job is None and threading.active_count() == 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor

            # imported once here, not once per worker on its first solve
            import scipy.optimize  # noqa: F401

            context = multiprocessing.get_context("fork")
            _job = fn
            try:
                with ProcessPoolExecutor(workers, mp_context=context) as pool:
                    return list(pool.map(_run_job, items))
            finally:
                _job = None
    return list(map(fn, items))
