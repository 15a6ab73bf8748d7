"""Spans and counts recorded around calls into rbmlab's modules, from outside.

``Tracer.installed`` replaces the module attributes through which the
workloads reach each layer (``harness.transport_batch``,
``stepping.guard_stream``, ...) with wrappers, and puts the originals back on
exit.  A span records name, start, end, parent span and run id (the pass
index); spans stay in memory until the benchmark writes them out.  Counts
(Philox generators built, harness and estimator chunks) are kept per pass.
"""
from __future__ import annotations

import inspect
import time
from collections import Counter
from contextlib import contextmanager

from rbmlab import estimators, grids, harness, skorohod1d, stepping


def _steps(arg, nodes=False):
    """Steps N and path-steps P*N of a call from the shape of one array
    argument: (P, N, ...) arrays carry N steps, (P, N+1, ...) node arrays."""

    def work(args):
        paths, n = args[arg].shape[:2]
        steps = n - 1 if nodes else n
        return {"steps": int(steps), "path_steps": int(paths * steps)}

    return work


def _penalized_work(args):
    return {"a": float(args["a"]), **_steps("dB")(args)}


ESTIMATORS = ("neumann_heat_mc", "one_form_mc", "bismut_gradient_mc", "martingale_check", "weak_derivative_check")

# Sweep kinds with their own busy time: the sweeps workload issues them all,
# from the stiff half-line sweeps to the cap sweeps.
KINDS = ("local-time", "halfline-penalization", "sp-convergence", "norm-bound", "eps-cauchy")

# (module, attribute, span name, work recorder)
SPANS = [
    (harness, "run_experiment", "harness.run_experiment", lambda args: {"kind": args["config"].kind}),
    (harness, "driver_block", "grids.driver_block", None),
    (estimators, "driver_block", "grids.driver_block", None),
    (estimators, "bridge_uniform_block", "grids.bridge_uniform_block", None),
    (stepping, "integrate_penalized_batch", "stepping.penalized", _penalized_work),
    (stepping, "integrate_reflected_batch", "stepping.reflected", _steps("dB")),
    (skorohod1d, "penalized_paths_1d", "skorohod1d.penalized_paths_1d", _steps("dW")),
    (harness, "transport_batch", "transport.transport_batch", _steps("points", nodes=True)),
    (harness, "_damped_engine", "damped.engine", _steps("dL")),
    (harness, "close_events", "reflected.close_events", None),
] + [(estimators, fn, f"estimators.{fn}", None) for fn in ESTIMATORS]

# (module, attribute, count key): one count per call
CALLS = [
    (grids, "driver_stream", "grids.generators.driver"),
    (grids, "bridge_stream", "grids.generators.bridge"),
    (stepping, "guard_stream", "stepping.guard_streams"),
    (skorohod1d, "guard_stream", "skorohod1d.guard_streams"),
]

# (module, attribute, count key): one count per item the generator yields
YIELDS = [
    (estimators, "_flat_terminal_chunks", "estimators.exact_law_chunks"),
    (harness, "_chunks", "harness.chunks"),
]


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[int, Counter] = {}
        self._stack: list[int] = []
        self._run = None

    def _span(self, name, fn, work):
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "run": self._run, "name": name,
                    "parent": self._stack[-1] if self._stack else None}
            if work is not None:
                span.update(work(sig.bind(*args, **kwargs).arguments))
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()

        return traced

    def _count(self, key, fn):
        def counted(*args, **kwargs):
            self.counts[self._run][key] += 1
            return fn(*args, **kwargs)

        return counted

    def _count_yields(self, key, fn):
        def counted(*args, **kwargs):
            counts = self.counts[self._run]
            for item in fn(*args, **kwargs):
                counts[key] += 1
                if key == "harness.chunks":
                    counts["harness.chunk_width"] = max(counts["harness.chunk_width"], item[1])
                yield item

        return counted

    @contextmanager
    def installed(self, run):
        """Trace every call made inside the block as part of run ``run``."""
        self._run = run
        self.counts[run] = Counter()
        saved = []
        try:
            for table, wrap in ((SPANS, self._span), (CALLS, self._count), (YIELDS, self._count_yields)):
                for module, attr, name, *work in table:
                    fn = getattr(module, attr)
                    saved.append((module, attr, fn))
                    setattr(module, attr, wrap(name, fn, *work))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)
            self._run = None


def _duration(span):
    return span["end"] - span["start"]


def layer_metrics(tracer: Tracer, runs: list, first_run) -> dict:
    """Per-layer figures.  Times are per pass, averaged over ``runs``; counts
    and per-node ratios come from ``first_run`` alone, whose inputs are the
    same in every benchmark run, so they repeat exactly."""
    n = len(runs)
    spans = [s for s in tracer.spans if s["run"] in runs]
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    children: dict[int, float] = Counter()
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] += _duration(s)

    def busy(name):
        return sum(_duration(s) for s in by_name.get(name, ())) / n

    def ns_per_step(group):
        steps = sum(s["path_steps"] for s in group)
        return 1e9 * sum(_duration(s) for s in group) / steps if steps else 0.0

    def self_time(names):
        return sum(_duration(s) - children[s["id"]] for name in names for s in by_name.get(name, ())) / n

    def first(name):
        return [s for s in by_name.get(name, ()) if s["run"] == first_run]

    def steps_first(name):
        return sum(s["path_steps"] for s in first(name))

    def per_node(count_key, span_name):
        """Draws per grid node and value of a: every integrator call advances
        one a over its N nodes."""
        nodes = sum(s["steps"] for s in first(span_name))
        return counts[count_key] / nodes if nodes else 0.0

    counts = tracer.counts[first_run]
    pen = by_name.get("stepping.penalized", [])
    a_values = sorted({s["a"] for s in pen})
    est_names = [f"estimators.{fn}" for fn in ESTIMATORS]
    out = {
        "grids.driver_block.busy_s": (busy("grids.driver_block"), "s"),
        "grids.bridge_uniform_block.busy_s": (busy("grids.bridge_uniform_block"), "s"),
        "grids.generators.driver": (counts["grids.generators.driver"], "count"),
        "grids.generators.bridge": (counts["grids.generators.bridge"], "count"),
        "grids.generators.guard": (counts["stepping.guard_streams"] + counts["skorohod1d.guard_streams"], "count"),
        "stepping.penalized.busy_s": (busy("stepping.penalized"), "s"),
        "stepping.penalized.ns_per_path_step.a_max": (
            ns_per_step([s for s in pen if a_values and s["a"] == a_values[-1]]), "ns"),
        "stepping.penalized.ns_per_path_step.a_min": (
            ns_per_step([s for s in pen if a_values and s["a"] == a_values[0]]), "ns"),
        "stepping.penalized.path_steps": (steps_first("stepping.penalized"), "count"),
        "stepping.reflected.busy_s": (busy("stepping.reflected"), "s"),
        "stepping.reflected.ns_per_path_step": (ns_per_step(by_name.get("stepping.reflected", [])), "ns"),
        "stepping.reflected.path_steps": (steps_first("stepping.reflected"), "count"),
        "stepping.guard_draws_per_node": (per_node("stepping.guard_streams", "stepping.penalized"), "draws/node"),
        "skorohod1d.guard_draws_per_node": (
            per_node("skorohod1d.guard_streams", "skorohod1d.penalized_paths_1d"), "draws/node"),
    }
    for name in ("skorohod1d.penalized_paths_1d", "transport.transport_batch", "damped.engine"):
        out[f"{name}.busy_s"] = (busy(name), "s")
        out[f"{name}.ns_per_path_step"] = (ns_per_step(by_name.get(name, [])), "ns")
        out[f"{name}.path_steps"] = (steps_first(name), "count")
    out["reflected.close_events.busy_s"] = (busy("reflected.close_events"), "s")
    for name in est_names:
        out[f"{name}.busy_s"] = (busy(name), "s")
    out["estimators.self_s"] = (self_time(est_names), "s")
    out["estimators.exact_law_chunks"] = (counts["estimators.exact_law_chunks"], "count")
    out["harness.run_experiment.busy_s"] = (busy("harness.run_experiment"), "s")
    sweeps = by_name.get("harness.run_experiment", [])
    for kind in KINDS:
        out[f"harness.run_experiment.{kind}.busy_s"] = (
            sum(_duration(s) for s in sweeps if s["kind"] == kind) / n, "s")
    out["harness.self_s"] = (self_time(["harness.run_experiment"]), "s")
    out["harness.chunks"] = (counts["harness.chunks"], "count")
    out["harness.chunk_width"] = (counts["harness.chunk_width"], "count")
    return out
