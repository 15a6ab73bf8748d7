"""The benchmark tracer's tables name attributes that exist in rbmlab, and
its traced mode runs.

``perfbench/spans.py`` wraps the module attributes listed in its ``SPANS``,
``CALLS`` and ``YIELDS`` tables by name when ``perfbench/run.py --trace 1``
runs, and records some calls' work from their arguments by name, so
deleting or renaming one of them, or one of those arguments, breaks the
traced benchmark.
"""
from __future__ import annotations

import importlib.util
import math
from pathlib import Path

from rbmlab import harness

_SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS_PY)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _tracer_tables():
    spans = _spans()
    return {name: getattr(spans, name) for name in ("SPANS", "CALLS", "YIELDS")}


def test_traced_attributes_exist():
    tables = _tracer_tables()
    assert all(tables.values())
    for table, rows in tables.items():
        for module, attr, *_ in rows:
            assert module.__name__.startswith("rbmlab."), (table, module)
            assert callable(getattr(module, attr, None)), f"{table}: {module.__name__}.{attr} is missing"


def test_traced_cap_sweeps_count_engine_and_transport_steps():
    # two blocks of 64 steps and a short one, on 3 paths and 2 values of a
    spans = _spans()
    cap = dict(model=f"cap:theta0={math.pi / 2}", horizon=0.5, steps=140, n_paths=3, x0=(math.pi / 2 - 0.15, 0.0))
    configs = [harness.ExperimentConfig(kind="norm-bound", a_grid=(0.05, 0.0125), **cap),
               harness.ExperimentConfig(kind="eps-cauchy", eps_grid=(0.1, 0.05), **cap)]
    tracer = spans.Tracer()
    with tracer.installed(0):
        for cfg in configs:
            assert harness.run_experiment(cfg)
    assert harness.run_experiment.__module__ == "rbmlab.harness"  # the originals are back
    metrics = spans.layer_metrics(tracer, [0], first_run=0)
    # norm-bound runs the engine and transport on its 2 x 3 rows, eps-cauchy on its 3 paths
    path_steps = (2 + 1) * 3 * 140
    assert metrics["damped.engine.path_steps"] == (path_steps, "count")
    assert metrics["transport.transport_batch.path_steps"] == (path_steps, "count")
    for kind in ("norm-bound", "eps-cauchy"):
        assert metrics[f"harness.run_experiment.{kind}.busy_s"][0] > 0.0
