"""rbmlab benchmark: one closed-loop client issuing library calls in turn.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweeps --seed 1 --seconds 50 --trace 0

The run builds the workload (set-up), repeats passes of the workload until
``--seconds`` are spent, times ``SETUP_SAMPLES`` fresh interpreters from
start to the first workload call, and checks the outputs of the passes.  With
``--trace 0`` the last line of standard output is a JSON object holding the
end-to-end metrics; with ``--trace 1`` each pass runs twice, untraced and then
traced, and the object holds the per-layer metrics.  The line before it is
the run record (pass times, verdicts, fingerprints, counts, versions), which
is also written with the spans to ``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

# BLAS and OpenMP pools pinned to one thread: the client is one process on a
# 2-core machine, and the library's arrays are too small to gain from more.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 60


def use_checkout_src() -> Path:
    """Pin thread pools and import rbmlab from this checkout's ``src``.

    Exits with status 2 when the checkout holds no rbmlab sources, so that the
    benchmark never measures some other installed copy.
    """
    os.environ.update(THREAD_ENV)
    src = ROOT / "src"
    if not (src / "rbmlab" / "__init__.py").is_file():
        print(f"perfbench: no rbmlab sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import rbmlab

    if Path(rbmlab.__file__).resolve().parent != (src / "rbmlab").resolve():
        print(f"perfbench: rbmlab was imported from {rbmlab.__file__}, not from {src}", file=sys.stderr)
        sys.exit(2)
    return src


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweeps", "exact-law"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _probe_setup(workload: str) -> float:
    """Seconds from spawning a fresh interpreter until it has built the
    workload and is ready to issue the first call."""
    cmd = [sys.executable, str(Path(__file__).with_name("probe.py")), workload]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        status = proc.wait(timeout=PROBE_TIMEOUT_S)
    if line.strip() != "ready" or status != 0:
        raise RuntimeError(f"set-up probe failed (status {status}, output {line!r})")
    return elapsed


def _run_pass(workload, seeds):
    """Issue every call once; returns (wall seconds, outputs, errors)."""
    from workloads import CALL_ERRORS

    outputs, errors = {}, {}
    start = time.perf_counter()
    for call in workload.calls:
        try:
            outputs[call.name] = call.issue(seeds[call.name])
        except CALL_ERRORS as exc:
            errors[call.name] = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, outputs, errors


def _measure(workload, seed, seconds, tracer):
    """Passes k = 0, 1, ... until the next one would overrun ``seconds``.

    Without a tracer each pass runs once; with one it runs untraced and
    traced on the same inputs, in alternating order so that neither side
    always runs first, and both runs are kept.
    """
    from workloads import MAX_PASSES

    passes = []
    start = time.perf_counter()
    for k in range(MAX_PASSES):
        seeds = workload.pass_seeds(seed, k)
        step = time.perf_counter()
        for traced in ((False,) if tracer is None else ((False, True), (True, False))[k % 2]):
            if traced:
                with tracer.installed(k):
                    wall, outputs, errors = _run_pass(workload, seeds)
            else:
                wall, outputs, errors = _run_pass(workload, seeds)
            passes.append({"k": k, "traced": traced, "seeds": seeds, "wall_s": wall,
                           "outputs": outputs, "errors": errors})
        cost = time.perf_counter() - step
        if time.perf_counter() - start + cost > seconds:
            break
    return passes


def _tail(walls):
    """Highest nearest-rank percentile with at least ten passes beyond it."""
    n = len(walls)
    if n < 11:
        return {"percentile": None, "value": None, "passes": n}
    ordered = sorted(walls)
    return {"percentile": 100.0 * (n - 10) / n, "value": ordered[n - 11], "passes": n}


def _environment():
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    use_checkout_src()
    import workloads
    from spans import Tracer, layer_metrics

    workload = workloads.build(args.workload)
    tracer = Tracer() if args.trace else None
    passes = _measure(workload, args.seed, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Probed after the passes: a pass that follows the probes ran up to a
    # tenth slower than the ones after it.
    setup = [_probe_setup(args.workload) for _ in range(SETUP_SAMPLES)]

    # A call fails when it raises or, on a reference pass, when its output
    # misses its verdict.  Only the latter makes the run incorrect: a call
    # that raised returned no output to check.
    raised = sum(len(p["errors"]) for p in passes)
    missed = 0
    verdicts = {}
    for p in passes:
        if workloads.is_reference(p["k"]):
            verdicts = workload.verdicts(p["outputs"])
            missed += sum(not all(ok for _, ok, _ in checks) for checks in verdicts.values())
    failed = raised + missed
    attempted = len(passes) * len(workload.calls)
    reference = passes[0]
    fingerprints = [
        {"k": p["k"], "traced": p["traced"], **{c: workloads.fingerprint(o) for c, o in p["outputs"].items()}}
        for p in passes
    ]
    # Same inputs, same bytes: every reference pass repeats the first one, and
    # tracing changes no result, so each traced pass repeats its twin.
    first_seen = {}
    consistent = True
    for fp in fingerprints:
        inputs = "reference" if workloads.is_reference(fp["k"]) else fp["k"]
        out = {c: f for c, f in fp.items() if c not in ("k", "traced")}
        consistent &= first_seen.setdefault(inputs, out) == out

    sup_gap = None
    if not reference["errors"]:
        value = workload.sup_gap(reference["outputs"])
        sup_gap = value if math.isfinite(value) else None
    correct = missed == 0 and consistent and sup_gap is not None

    untraced = [p["wall_s"] for p in passes if not p["traced"]]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "pass_seeds": {p["k"]: p["seeds"] for p in passes if not p["traced"]},
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": _environment(),
        "setup_s": setup,
        "pass_wall_s": untraced,
        "wall_s_tail": _tail(untraced),
        "verdicts": {c: [{"check": n, "ok": ok, "detail": d} for n, ok, d in checks] for c, checks in verdicts.items()},
        "errors": {f"{p['k']}{'t' if p['traced'] else ''}": p["errors"] for p in passes if p["errors"]},
        "reference_record": workload.record(reference["outputs"]),
        "fingerprints": fingerprints,
        "repeats_consistent": consistent,
    }

    if tracer is None:
        metrics = {
            "wall_s": (statistics.median(untraced), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ok_frac": (1.0 - failed / attempted, "1"),
            "sup_gap": (sup_gap, "1"),
        }
    else:
        traced_runs = [p["k"] for p in passes if p["traced"]]
        metrics = layer_metrics(tracer, traced_runs, first_run=0)
        traced = [p["wall_s"] for p in passes if p["traced"]]
        metrics["trace.overhead_s"] = (statistics.median(t - u for t, u in zip(traced, untraced)), "s")
        record["counts"] = {k: dict(c) for k, c in tracer.counts.items()}
    record["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}

    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_file, "w", encoding="utf-8") as fh:
        json.dump({"record": record, "spans": tracer.spans if tracer is not None else []}, fh)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
