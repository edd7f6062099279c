"""perfbench/tracer.py wraps mtstab functions by name: each layer of its
LAYERS, each entry of the metric dispatch table and the assignment solver
where the DPs and isomorphisms call it. A traced benchmark run fails on a
name it cannot resolve; this test fails on it first, in the tier-1 suite.
The tracer module is loaded from its file, read and not changed."""

import importlib
import importlib.util
from pathlib import Path

from mtstab.distances import MetricId

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(mod_name, attr):
    return getattr(importlib.import_module(f"mtstab.{mod_name}"), attr, None)


def test_every_name_the_tracer_wraps_resolves_to_a_callable():
    tracer = _load_tracer()
    missing = [
        f"{mod_name}.{fn_name}"
        for mod_name, fn_name, *_ in tracer.LAYERS
        if not callable(_resolve(mod_name, fn_name))
    ]
    assert tracer.LAYERS and missing == []
    table = _resolve("distances", "_TREE_METRICS")
    assert set(table) == set(MetricId)
    assert {m.value for m in table} == set(tracer.METRIC_EFFECTS)
    assert all(callable(fn) for fn in table.values())
    _, attr, modules, _ = tracer.LSA
    assert set(modules) == {"distances", "editcore"}
    assert all(callable(_resolve(mod_name, attr)) for mod_name in modules)
