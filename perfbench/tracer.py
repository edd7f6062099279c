"""Layer tracing from outside the program.

The tracer replaces public functions of the mtstab modules with timing
wrappers, by rebinding every module-level name (and every entry of the
metric dispatch table) that refers to the original function object, and
puts the originals back afterwards. No program file is changed.

Ordinary layers record one span per call (name, start, end, parent span,
time spent in hot children) and keep the spans in memory until the pass
ends. Hot layers, called hundreds of thousands of times per pass,
keep only a call counter and their total and self time.

A layer's self time is its span minus the part of that interval covered by
its child spans, minus the time of its hot children. A span opened on a
worker thread with nothing open on that thread gets the innermost span
open on the main thread as its parent, so the thread pool of the matrix
command is charged to `cli.cmd_matrix`.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
import time

from mtstab.errors import SizeGuardError

FULL = ("calls", "s", "self_s")
TO_SUITES = "suites wall_s"
TO_REBUILDS = "suites wall_s through rebuild counts; small on matrix"
TO_DEFORM = "suites wall_s (about 64% of it); flat on matrix and deep"
TO_DP = "matrix and deep wall_s, deep fail_share; under 2% of suites"
TO_SEARCH = "suites wall_s (exact searches); flat on matrix and deep"

# (module, function, hot, reported fields, the end-to-end metric the layer
# should move and on which workload). The expected effects are written down
# before any optimisation; later changes are judged against them.
LAYERS = (
    ("field", "load_field", False, ("calls", "s"), "matrix wall_s (JSON loading)"),
    ("mergetree", "merge_tree_of", False, FULL, TO_REBUILDS),
    ("mergetree", "persistence_branch_decomposition", False, FULL, TO_REBUILDS),
    ("mergetree", "build_bdt", False, FULL, TO_REBUILDS),
    ("mergetree", "build_obdt", False, FULL, TO_REBUILDS),
    ("mergetree", "label_for_scheme", False, FULL, TO_REBUILDS),
    ("mergetree", "tree_included_up_to_iso", False, FULL, TO_REBUILDS),
    ("mergetree", "bdt_included_up_to_iso", False, FULL, TO_REBUILDS),
    ("editcore", "deform_brute_force", False, FULL, TO_DEFORM),
    ("editcore", "deform_witness_search", False, FULL, TO_DEFORM),
    ("editcore", "contract", True, FULL, TO_DEFORM),
    ("editcore", "brute_force_distance", False, FULL, TO_DEFORM),
    ("editcore", "mapping_to_sequence", False, FULL, TO_DEFORM),
    ("distances", "one_degree_dp", False, FULL, TO_DP),
    ("distances", "ordered_one_degree_dp", False, FULL, TO_DP),
    ("perturb", "classify_change_detailed", False, FULL, TO_SUITES),
    ("perturb", "decompose_perturbation", False, FULL, TO_SUITES),
    ("perturb", "enumerate_minimal_perturbations", False, FULL, TO_SUITES),
    ("stability", "check_bound", False, ("self_s",), TO_SUITES),
    ("stability", "run_stability_suite", False, ("self_s",), TO_SUITES),
    ("stability", "run_finite_stability", False, ("self_s",), TO_SUITES),
    ("cli", "cmd_matrix", False, ("self_s",), "matrix wall_s (thread pool and I/O)"),
)

#: Each of the eight metrics, wrapped in the dispatch table behind
#: tree_distance and compute, reports as `distances.<metric id>`.
METRIC_FIELDS = FULL + ("guard_skips", "errors")
METRIC_EFFECTS = {m: TO_DP if m in "wxl" else TO_SEARCH for m in "wxslgpeb"}

#: scipy's assignment solver, rebound where the DPs and isomorphisms call it.
LSA = ("distances.lsa", "linear_sum_assignment", ("distances", "editcore"), ("calls", "s"))

_CALLS, _TOTAL, _SELF, _GUARD, _ERRORS = range(5)


class Tracer:
    """Collects spans and counters while installed; see the module docstring."""

    def __init__(self):
        self._local = threading.local()
        self._threads = []  # per-thread state dicts, merged in results()
        self._ids = itertools.count()
        self._patches = []
        self._main_stack = None
        self._hot = set()

    # -- recording ---------------------------------------------------------

    def _state(self):
        try:
            return self._local.state
        except AttributeError:
            state = {"stack": [], "depth": {}, "spans": [], "agg": {}}
            if threading.current_thread() is threading.main_thread():
                self._main_stack = state["stack"]
            self._local.state = state
            self._threads.append(state)
            return state

    def wrap(self, name, fn, hot):
        """Return fn wrapped so that each call is recorded under `name`."""
        if hot:
            self._hot.add(name)
        state_of = self._state
        ids = self._ids
        clock = time.perf_counter

        def traced(*args, **kwargs):
            state = state_of()
            stack = state["stack"]
            depth = state["depth"]
            outer = depth.get(name, 0) == 0
            depth[name] = depth.get(name, 0) + 1
            parent = stack[-1] if stack else None
            if parent is None and self._main_stack and self._main_stack is not stack:
                parent = self._main_stack[-1]
            # frame: [span id or None, start, child time, hot child time]
            frame = [None if hot else next(ids), 0.0, 0.0, 0.0]
            stack.append(frame)
            raised = None
            frame[1] = start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                raised = exc
                raise
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                dur = end - start
                agg = state["agg"].get(name)
                if agg is None:
                    agg = state["agg"][name] = [0, 0.0, 0.0, 0, 0]
                agg[_CALLS] += 1
                if outer:
                    agg[_TOTAL] += dur
                if raised is not None:
                    agg[_GUARD if isinstance(raised, SizeGuardError) else _ERRORS] += 1
                if stack and parent is stack[-1]:
                    parent[2] += dur
                    if hot:
                        parent[3] += dur
                if hot:
                    agg[_SELF] += dur - frame[2]
                else:
                    state["spans"].append(
                        (frame[0], name, start, end,
                         None if parent is None else parent[0], frame[3])
                    )

        traced.__wrapped__ = fn
        return traced

    # -- installing --------------------------------------------------------

    def _rebind(self, original, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "mtstab" and not mod_name.startswith("mtstab."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((vars(mod), attr, original))
                    vars(mod)[attr] = wrapper

    def install(self):
        """Wrap every layer of LAYERS, the eight metrics and the solver."""
        for mod_name, fn_name, hot, _, _ in LAYERS:
            mod = importlib.import_module(f"mtstab.{mod_name}")
            fn = getattr(mod, fn_name)
            self._rebind(fn, self.wrap(f"{mod_name}.{fn_name}", fn, hot))
        distances = importlib.import_module("mtstab.distances")
        table = distances._TREE_METRICS
        for metric, fn in list(table.items()):
            self._patches.append((table, metric, fn))
            table[metric] = self.wrap(f"distances.{metric.value}", fn, False)
        name, attr, modules, _ = LSA
        solver = getattr(distances, attr)
        wrapper = self.wrap(name, solver, True)
        for mod_name in modules:
            mod = vars(importlib.import_module(f"mtstab.{mod_name}"))
            self._patches.append((mod, attr, solver))
            mod[attr] = wrapper

    def uninstall(self):
        while self._patches:
            namespace, key, original = self._patches.pop()
            namespace[key] = original

    # -- results -----------------------------------------------------------

    def spans(self):
        """Every recorded span as (id, name, start, end, parent id, hot child s)."""
        return [span for state in self._threads for span in state["spans"]]

    def results(self):
        """{name: {"calls", "s", "self_s", "guard_skips", "errors"}}."""
        out = {}
        for state in self._threads:
            for name, (calls, total, self_s, guard, errors) in state["agg"].items():
                row = out.setdefault(
                    name, {"calls": 0, "s": 0.0, "self_s": 0.0, "guard_skips": 0, "errors": 0}
                )
                row["calls"] += calls
                row["s"] += total
                row["guard_skips"] += guard
                row["errors"] += errors
                if name in self._hot:
                    row["self_s"] += self_s
        spans = self.spans()
        children = {}
        for span in spans:
            if span[4] is not None:
                children.setdefault(span[4], []).append((span[2], span[3]))
        for span_id, name, start, end, _, hot_child in spans:
            covered = _union_length(children.get(span_id, ()), start, end)
            out[name]["self_s"] += end - start - covered - hot_child
        return out


def _union_length(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
