"""The benchmark tracer's tables name attributes that exist in rbmlab.

``perfbench/spans.py`` wraps the module attributes listed in its ``SPANS``,
``CALLS`` and ``YIELDS`` tables by name when ``perfbench/run.py --trace 1``
runs, so deleting or renaming one of them breaks the traced benchmark.
"""
from __future__ import annotations

import importlib.util
from pathlib import Path

_SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _tracer_tables():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS_PY)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return {name: getattr(spans, name) for name in ("SPANS", "CALLS", "YIELDS")}


def test_traced_attributes_exist():
    tables = _tracer_tables()
    assert all(tables.values())
    for table, rows in tables.items():
        for module, attr, *_ in rows:
            assert module.__name__.startswith("rbmlab."), (table, module)
            assert callable(getattr(module, attr, None)), f"{table}: {module.__name__}.{attr} is missing"
