"""Per-layer timings of the penalized collar step, the reflected curved
step, cap parallel transport, the damped engine and the flat exact-law
sampler.

Collar layer: ``stepping.integrate_penalized_grid`` and
``skorohod1d.penalized_paths_1d_grid`` on the inputs of the ``sweeps``
benchmark's penalized calls, in ns per path-step (a-grid rows x paths x
steps): the half-line sweeps (x0=0.5, T=1, dt=5e-4, 32 paths, a-grid
0.05/0.025/0.0125/0.00625, master seeds 44 for the collar and 42 for the
survival-drift flow) and the disk sweep (x0=(0.5, 0), T=0.1, dt=1e-4, one
250-path chunk, a-grid 0.1/0.05/0.025/0.0125, master seed 43).  Newton
rounds: for each of these three inputs, the rounds (rates evaluations) of
``stepping.implicit_step`` per node, mean and max over the nodes, and the
rates evaluations per row handed to it, counted in one untimed call by a
wrapper around the ``rates`` callable that each step is given.

Reflected curved step: ``stepping.integrate_reflected_batch`` in ns per
path-step (paths x steps), on the input of the ``eps-cauchy`` sweep below
(``stepping.reflected.cap``) and on the disk sweep's input above
(``stepping.reflected.disk``).

Transport and engine: ``transport.transport_batch`` and
``damped._damped_engine`` on the input of the ``eps-cauchy`` sweep of the
``sweeps`` benchmark: reflected paths on ``cap:theta0=pi/2``, T=4, dt=2e-3
(2000 steps), one 200-path chunk at master seed 46, and the engine at each of
the four excursion thresholds 0.2, 0.1, 0.05, 0.025.  The engine runs on the
sweeps' node blocks of ``harness._REDUCE_BLOCK`` (64) steps, each block
starting from the last products of the one before.

Flat exact-law sampler: the input of the ``exact-law`` benchmark
(half-space:d=1, 5000 paths, T=1, dt=1e-3, master seed 48, start 0.5), in ns
per path-step (paths x steps).  ``exact_law.record`` draws the path record
with its cache cleared before each call; ``exact_law.reduction`` reduces the
cached record for one start point, which is what each further estimator call
on the same draw costs.

Eps levels: the engine stage of one ``eps-cauchy`` chunk on the same input,
from the four levels' jump flags to the inter-level gaps, in ns per path-step
per level: on each node block, one engine call that runs every level in one
pass, and the sweep's reduction of its products to the running gaps
(``harness._level_gaps``).

Each layer is called once to warm up and then nine times; the record keeps
the median and the quartiles over the repeats, with numpy, scipy and Python
versions and ``nproc``.  BLAS and OpenMP pools are pinned to one thread.

Memory: the tracemalloc peak of one ``run_experiment`` call of each sweep of
the ``sweeps`` benchmark (and of ``projection`` on its disk input), in MB of
numpy buffers.  Acceptance runs: criterion 2 (``halfline-penalization``),
criterion 3 on the disk, criterion 4's sup gap and its finest variation
rung, criterion 7 (``f-normal``) and criterion 8's seven estimator calls on
one 100,000-path draw (tests/test_acceptance.py), each once in a fresh
interpreter, with its wall time and the peak RSS of that interpreter (Linux:
read from /proc).  Criterion 8's run also lists the scipy subpackages loaded
after its calls, and times the image-kernel oracle it checks against
(``image_kernel_oracle("neumann", 1.0, 0.5, gauss)``) in a fresh interpreter
of its own: the first call of the process (cold) and the median and quartiles
of the next 50 (warm).

Sweep peaks: the VmHWM of one fresh interpreter after each reference call
of the ``sweeps`` benchmark, in the benchmark's order, so that the call that
sets its ``peak_rss_mb`` shows.

Import: the wall time of ``import rbmlab`` in each of nine fresh
interpreters (median and quartiles), the VmHWM after the import (the sweep
peaks' first entry), and the scipy subpackages (``scipy.X`` names, private
ones included) loaded after the import and after each sweeps call of the
same interpreter.

Run from the root of a checkout, naming each tree to measure with
``--tree LABEL=PATH`` and giving a record count:

    python tools/bench_layers.py BENCH.json --tree change=.
    python tools/bench_layers.py BENCH.json --tree parent=../parent --tree change=. --records 3

Each record of each tree is measured in a fresh interpreter on that tree's
``src``, the trees alternating (forward order on even records, reverse on
odd).  The file keeps every record under ``LABEL.k`` and, under
``medians``, each tree's median over its records of every figure; records
already in the file under other labels are kept.  ``-`` as the file prints
one record of the rbmlab on the path.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time
import tracemalloc

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

THETA0 = 1.5707963267948966  # pi / 2
HORIZON, STEPS, PATHS, SEED = 4.0, 2000, 200, 46
EPS_GRID = (0.2, 0.1, 0.05, 0.025)
REPEATS = 9

# the sweeps benchmark's half-line and disk inputs, and their master seeds
HS_A, HS_HORIZON, HS_STEPS, HS_PATHS = (0.05, 0.025, 0.0125, 0.00625), 1.0, 2000, 32
HS_SEED, HS_SEED_1D = 44, 42
DISK_A, DISK_HORIZON, DISK_STEPS, DISK_PATHS, DISK_SEED = (0.1, 0.05, 0.025, 0.0125), 0.1, 1000, 250, 43
# the exact-law benchmark's input
EL_HORIZON, EL_DT, EL_STEPS, EL_PATHS, EL_SEED, EL_X = 1.0, 1e-3, 1000, 5000, 48, 0.5

# ExperimentConfig fields of the sweeps benchmark's reference calls
SWEEPS = {
    "local-time": dict(kind="local-time", model="half-line", horizon=1.0, steps=2000, a_grid=HS_A, n_paths=32,
                       x0=(0.5,), master_seed=44),
    "halfline-penalization": dict(kind="halfline-penalization", model="half-line", horizon=1.0, steps=2000,
                                  a_grid=HS_A, n_paths=32, x0=(0.5,), master_seed=42),
    "sp-convergence": dict(kind="sp-convergence", model="disk", horizon=DISK_HORIZON, steps=DISK_STEPS,
                           a_grid=DISK_A, n_paths=DISK_PATHS, p=2.0, x0=(0.5, 0.0), master_seed=DISK_SEED),
    "projection": dict(kind="projection", model="disk", horizon=DISK_HORIZON, steps=DISK_STEPS,
                       a_grid=DISK_A, n_paths=DISK_PATHS, x0=(0.5, 0.0), master_seed=DISK_SEED),
    "norm-bound": dict(kind="norm-bound", model=f"cap:theta0={math.pi / 3}", horizon=0.1, steps=200,
                       a_grid=(0.05, 0.0125), n_paths=200, x0=(math.pi / 3 - 0.15, 0.0), master_seed=45),
    "eps-cauchy": dict(kind="eps-cauchy", model=f"cap:theta0={THETA0}", horizon=HORIZON, steps=STEPS,
                       eps_grid=EPS_GRID, n_paths=PATHS, x0=(THETA0 - 0.15, 0.0), master_seed=SEED),
}
# the acceptance runs whose wall time and peak RSS ROADMAP item 2 gates
ACCEPTANCE = {
    "criterion_2_halfline_penalization": dict(kind="halfline-penalization", model="half-line", horizon=1.0,
                                              steps=10_000, a_grid=(0.1, 0.05, 0.025, 0.0125), n_paths=1000,
                                              master_seed=42, x0=(0.5,)),
    "criterion_3_disk": dict(kind="sp-convergence", model="disk", horizon=1.0, steps=10_000,
                             a_grid=(0.1, 0.05, 0.025, 0.0125), n_paths=1000, p=2.0, master_seed=43, x0=(0.5, 0.0)),
    "criterion_4_sup_gap": dict(kind="local-time", model="half-line", horizon=1.0, steps=10_000,
                                a_grid=(0.1, 0.05, 0.025, 0.0125), n_paths=1000, master_seed=44, x0=(0.5,)),
    "criterion_4_tv_finest": dict(kind="local-time", model="half-line", horizon=0.25, steps=160_000,
                                  a_grid=(0.025,), n_paths=50, master_seed=44, x0=(0.1,)),
    "criterion_7_f_normal": dict(kind="f-normal", model="half-space:d=1", horizon=1.0, steps=1000,
                                 a_grid=(0.1, 0.05, 0.025, 0.0125), n_paths=1000, master_seed=47, x0=(0.5,)),
}
# criterion 8's inputs: its seven estimator calls share one exact-law draw
CRITERION_8 = dict(model="half-space:d=1", horizon=1.0, dt=1e-3, n_paths=100_000, master_seed=48, x0=0.5, h=0.05)
# The sweeps benchmark's reference calls in the order one pass issues them
# (perfbench/workloads.py).
SWEEP_ORDER = ("local-time", "halfline-penalization", "sp-convergence", "norm-bound", "eps-cauchy")

# The peak RSS is the interpreter's VmHWM: Linux keeps ru_maxrss across
# fork and exec, so a child's ru_maxrss starts at this process's size.
_PEAK_RSS = """
import json, time
from rbmlab import harness
from rbmlab.harness import ExperimentConfig

def peak_rss_mb():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024
"""
_ACCEPTANCE_RUN = _PEAK_RSS + """
cfg = ExperimentConfig(**{fields!r})
base = peak_rss_mb()
t0 = time.perf_counter()
harness.run_experiment(cfg)
wall = time.perf_counter() - t0
print(json.dumps({{"wall_s": wall, "peak_rss_mb": peak_rss_mb(), "import_rss_mb": base}}))
"""
_CRITERION_8_RUN = _PEAK_RSS + """
import sys
import numpy as np
from rbmlab import estimators as est
from rbmlab import geometry as geo
from rbmlab.geometry import TangentVector

c = {fields!r}
model, T, dt, n, seed = geo.parse_model(c["model"]), c["horizon"], c["dt"], c["n_paths"], c["master_seed"]
x, h = np.array([c["x0"]]), c["h"]
v = TangentVector(base=x, components=np.array([1.0]))
f, phi = est.scalar_field("gauss"), est.one_form("gauss-grad")
base = peak_rss_mb()
t0 = time.perf_counter()
est.neumann_heat_mc(model, f, T, x, n, dt, seed=seed)
est.one_form_mc(model, phi, T, v, n, dt, seed=seed)
est.bismut_gradient_mc(model, f, T, v, n, dt, seed=seed)
est.neumann_heat_mc(model, f, T, x + h, n, dt, seed=seed)
est.neumann_heat_mc(model, f, T, x - h, n, dt, seed=seed)
est.martingale_check(model, est.NeumannHeatSolution(model, f, T), T, v, n, dt, seed=seed)
est.weak_derivative_check(model, f, lambda u: np.array([0.2 + u]), lambda u: np.array([1.0]), 0.0, 0.5, T, n, dt,
                          seed=seed)
wall = time.perf_counter() - t0
scipy_loaded = sorted({{m.split(".")[1] for m in sys.modules if m.startswith("scipy.")}})
print(json.dumps({{"wall_s": wall, "peak_rss_mb": peak_rss_mb(), "import_rss_mb": base,
                  "scipy_subpackages": scipy_loaded}}))
"""
_ORACLE_RUN = """
import json, statistics, time
from rbmlab import estimators as est

f = est.scalar_field("gauss")
t0 = time.perf_counter()
est.image_kernel_oracle("neumann", 1.0, 0.5, f)
cold = time.perf_counter() - t0
warm = []
for _ in range(50):
    t0 = time.perf_counter()
    est.image_kernel_oracle("neumann", 1.0, 0.5, f)
    warm.append(time.perf_counter() - t0)
q25, q50, q75 = statistics.quantiles(warm, n=4)
print(json.dumps({"cold_s": cold, "warm_s": {"median": q50, "q25": q25, "q75": q75, "samples": len(warm)}}))
"""
_SWEEP_PEAKS_RUN = _PEAK_RSS + """
import sys

def scipy_subpackages():
    return sorted({{m.split(".")[1] for m in sys.modules if m.startswith("scipy.")}})

peaks, scipy_loaded = [["import", peak_rss_mb()]], {{"import": scipy_subpackages()}}
for name, fields in {calls!r}:
    harness.run_experiment(ExperimentConfig(**fields))
    peaks.append([name, peak_rss_mb()])
    scipy_loaded[name] = scipy_subpackages()
print(json.dumps({{"peaks": peaks, "scipy_subpackages": scipy_loaded}}))
"""
_IMPORT_RUN = """
import json, time
t0 = time.perf_counter()
import rbmlab
print(json.dumps(time.perf_counter() - t0))
"""


def _quartiles(values):
    import numpy as np

    q25, q50, q75 = np.quantile(values, [0.25, 0.5, 0.75])
    return {"median": float(q50), "q25": float(q25), "q75": float(q75), "samples": len(values)}


def _time(fn):
    fn()
    out = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return out


def _newton_rounds(fn) -> dict:
    """Newton rounds of ``stepping.implicit_step`` in one call of fn: rates
    evaluations per node (mean and max over the nodes) and per row handed to
    the step, counted by wrapping the ``rates`` callable of every step."""
    import numpy as np

    from rbmlab import skorohod1d, stepping

    step = stepping.implicit_step
    per_node = {}
    evaluated, handed = [0], [0]

    def spy(R0, w, dt, a, rates, node=None, rows=None):
        def counted(a_, r):
            per_node[node] = per_node.get(node, 0) + 1
            evaluated[0] += r.size
            return rates(a_, r)

        handed[0] += np.size(R0)
        return step(R0, w, dt, a, counted, node, rows)

    stepping.implicit_step = skorohod1d.implicit_step = spy
    try:
        fn()
    finally:
        stepping.implicit_step = skorohod1d.implicit_step = step
    counts = list(per_node.values())
    return {"rounds_per_node_mean": sum(counts) / len(counts), "rounds_per_node_max": max(counts),
            "rates_per_row": evaluated[0] / handed[0]}


def _traced_peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _fresh(code: str):
    """The JSON that ``code`` prints last, run in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True)
    return json.loads(out.stdout.splitlines()[-1])


def _acceptance(fields) -> dict:
    """One acceptance run in a fresh interpreter (its own peak RSS)."""
    return _fresh(_ACCEPTANCE_RUN.format(fields=fields))


def _sweep_peaks() -> dict:
    """VmHWM in MB after import and after each sweeps call, and the scipy
    subpackages loaded by then, in one fresh interpreter."""
    return _fresh(_SWEEP_PEAKS_RUN.format(calls=[(name, SWEEPS[name]) for name in SWEEP_ORDER]))


def measure() -> dict:
    import numpy as np
    import scipy

    from rbmlab import estimators as est
    from rbmlab import geometry as geo
    from rbmlab import harness, stepping
    from rbmlab.damped import _damped_engine
    from rbmlab.grids import TimeGrid, driver_block
    from rbmlab.reflected import close_events, default_contact_threshold
    from rbmlab.skorohod1d import penalized_paths_1d_grid
    from rbmlab.transport import transport_batch

    cap = geo.spherical_cap(THETA0)
    grid = TimeGrid(HORIZON, STEPS)
    dB = driver_block(grid, cap.frame_count, SEED, 0, PATHS)
    ref = stepping.integrate_reflected_batch(cap, np.array([THETA0 - 0.15, 0.0]), dB, grid)
    points = ref["points"]
    frames = transport_batch(cap, points)
    closes, dur = close_events(ref["R"], grid.times, default_contact_threshold(grid))
    dL = np.diff(ref["L"], axis=1)
    path_steps = PATHS * STEPS

    def engine_blocks(flags):
        """The engine's products on each node block of the sweeps, each block
        starting from the last products of the one before."""
        W = None
        for i0 in range(0, STEPS, harness._REDUCE_BLOCK):
            i1 = min(i0 + harness._REDUCE_BLOCK, STEPS)
            s = slice(i0, i1 + 1)
            W, _ = _damped_engine(cap, points[:, s], frames[:, s], grid.dt, dL[:, i0:i1],
                                  jump_flags=[f[:, s] for f in flags], start=None if W is None else W[-1])
            yield W

    def engine_levels():
        for eps in EPS_GRID:
            for _ in engine_blocks([closes & (dur >= eps)]):
                pass

    def eps_levels():
        gaps = np.zeros((len(EPS_GRID) - 1, PATHS))
        for W in engine_blocks([closes & (dur >= eps) for eps in EPS_GRID]):
            harness._level_gaps(W, gaps)
        return gaps

    transport_s = _time(lambda: transport_batch(cap, points))
    engine_s = [t / len(EPS_GRID) for t in _time(engine_levels)]
    eps_levels_s = [t / len(EPS_GRID) for t in _time(eps_levels)]

    hs_grid = TimeGrid(HS_HORIZON, HS_STEPS)
    hs_dB = driver_block(hs_grid, 1, HS_SEED, 0, HS_PATHS)
    hs_dW = driver_block(hs_grid, 1, HS_SEED_1D, 0, HS_PATHS)[:, :, 0]
    disk = geo.flat_disk()
    disk_grid = TimeGrid(DISK_HORIZON, DISK_STEPS)
    disk_dB = driver_block(disk_grid, disk.frame_count, DISK_SEED, 0, DISK_PATHS)
    hs_steps = len(HS_A) * HS_PATHS * HS_STEPS
    disk_steps = len(DISK_A) * DISK_PATHS * DISK_STEPS
    collar = {
        "stepping.penalized.half-line": lambda: stepping.integrate_penalized_grid(
            geo.half_line(), HS_A, np.array([0.5]), hs_dB, hs_grid),
        "skorohod1d.penalized_paths_1d": lambda: penalized_paths_1d_grid(HS_A, 0.5, hs_dW, hs_grid.dt),
        "stepping.penalized.disk": lambda: stepping.integrate_penalized_grid(
            disk, DISK_A, np.array([0.5, 0.0]), disk_dB, disk_grid),
    }
    collar_steps = {"stepping.penalized.half-line": hs_steps, "skorohod1d.penalized_paths_1d": hs_steps,
                    "stepping.penalized.disk": disk_steps}
    collar_s = {name: _time(fn) for name, fn in collar.items()}
    rounds = {name: _newton_rounds(fn) for name, fn in collar.items()}
    reflected_s = {
        "stepping.reflected.cap": _time(lambda: stepping.integrate_reflected_batch(
            cap, np.array([THETA0 - 0.15, 0.0]), dB, grid)),
        "stepping.reflected.disk": _time(lambda: stepping.integrate_reflected_batch(
            disk, np.array([0.5, 0.0]), disk_dB, disk_grid)),
    }
    reflected_steps = {"stepping.reflected.cap": path_steps, "stepping.reflected.disk": DISK_PATHS * DISK_STEPS}

    flat = geo.half_space(1)
    el_start = np.array([[EL_X]])
    el_steps = EL_PATHS * EL_STEPS

    def one_start():
        est._exact_law(flat, el_start, EL_HORIZON, EL_PATHS, EL_DT, EL_SEED)

    def record():
        est._path_record.cache_clear()
        est._path_record(flat.frame_count, EL_HORIZON, EL_STEPS, EL_PATHS, EL_SEED)

    exact_law = {"exact_law.record": _time(record), "exact_law.reduction": _time(one_start)}
    est._path_record.cache_clear()
    traced = {name: _traced_peak_mb(lambda f=fields: harness.run_experiment(harness.ExperimentConfig(**f)))
              for name, fields in SWEEPS.items()}
    runs = {name: {**_acceptance(fields), "config": fields} for name, fields in ACCEPTANCE.items()}
    runs["criterion_8_estimators"] = {**_fresh(_CRITERION_8_RUN.format(fields=CRITERION_8)), "config": CRITERION_8,
                                      "oracle": _fresh(_ORACLE_RUN)}
    sweeps = _sweep_peaks()
    return {
        "newton_rounds": rounds,
        "traced_peak_mb": traced,
        "sweep_peak_rss_mb": sweeps["peaks"],
        "import": {
            "wall_s": _quartiles([_fresh(_IMPORT_RUN) for _ in range(REPEATS)]),
            "peak_rss_mb": sweeps["peaks"][0][1],
            "scipy_subpackages": sweeps["scipy_subpackages"],
        },
        "acceptance": runs,
        "input": {
            "model": "cap:theta0=pi/2", "horizon": HORIZON, "steps": STEPS, "paths": PATHS,
            "master_seed": SEED, "eps_grid": list(EPS_GRID), "min_theta": float(points[..., 0].min()),
            "collar": {
                "half-line": {"x0": 0.5, "horizon": HS_HORIZON, "steps": HS_STEPS, "paths": HS_PATHS,
                              "a_grid": list(HS_A), "master_seed": HS_SEED, "master_seed_1d": HS_SEED_1D},
                "disk": {"x0": [0.5, 0.0], "horizon": DISK_HORIZON, "steps": DISK_STEPS, "paths": DISK_PATHS,
                         "a_grid": list(DISK_A), "master_seed": DISK_SEED},
            },
            "exact_law": {"model": "half-space:d=1", "x0": EL_X, "horizon": EL_HORIZON, "steps": EL_STEPS,
                          "paths": EL_PATHS, "master_seed": EL_SEED},
        },
        "ns_per_path_step": {
            "transport.transport_batch": _quartiles([1e9 * t / path_steps for t in transport_s]),
            "damped.engine": _quartiles([1e9 * t / path_steps for t in engine_s]),
            "damped.eps_levels": _quartiles([1e9 * t / path_steps for t in eps_levels_s]),
            **{name: _quartiles([1e9 * t / collar_steps[name] for t in times]) for name, times in collar_s.items()},
            **{name: _quartiles([1e9 * t / reflected_steps[name] for t in times])
               for name, times in reflected_s.items()},
            **{name: _quartiles([1e9 * t / el_steps for t in times]) for name, times in exact_law.items()},
        },
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }


def _figures(record: dict, prefix=()):
    """Every number of a record, keyed by its path: the leaves a median is
    taken of (samples counts and inputs left out)."""
    for key, value in record.items():
        path = prefix + (key,)
        if key in ("input", "environment", "config", "samples", "q25", "q75"):
            continue
        if isinstance(value, dict):
            yield from _figures(value, path)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield ".".join(path), value
        elif isinstance(value, list) and all(isinstance(v, list) and len(v) == 2 for v in value):
            for name, v in value:  # the sweep peaks, one per call
                yield ".".join(path + (name,)), v


def _medians(records: list) -> dict:
    import numpy as np

    values = {}
    for record in records:
        for key, v in _figures(record):
            values.setdefault(key, []).append(v)
    return {key: float(np.median(v)) for key, v in sorted(values.items())}


def _measure_tree(root: str) -> dict:
    """One record of the tree at ``root``, measured in a fresh interpreter on
    its ``src``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(root), "src"))
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "-"], check=True, capture_output=True,
                         text=True, env=env, cwd=root)
    return json.loads(out.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="JSON file to write, or - to print one record of the rbmlab on the path; "
                                    "records under other labels are kept")
    parser.add_argument("--tree", action="append", default=[], metavar="LABEL=PATH",
                        help="a checkout to measure in fresh interpreters; give one per tree")
    parser.add_argument("--records", type=int, default=1, help="records per tree")
    args = parser.parse_args(argv)
    if args.out == "-":
        print(json.dumps(measure()))
        return 0
    if not args.tree:
        parser.error("give at least one --tree")
    if args.records < 1:
        parser.error("--records must be at least 1")
    trees = [t.split("=", 1) for t in args.tree]
    if any(len(t) != 2 for t in trees):
        parser.error("--tree takes LABEL=PATH")

    data = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            data = json.load(fh)
    records = data.setdefault("records", {})
    for k in range(args.records):
        for label, root in trees if k % 2 == 0 else trees[::-1]:
            records[f"{label}.{k + 1}"] = _measure_tree(root)
            print(f"{label}.{k + 1} done", file=sys.stderr)
    medians = data.setdefault("medians", {})
    for label, _ in trees:
        medians[label] = _medians([records[f"{label}.{k + 1}"] for k in range(args.records)])
    labels = [f"{label}.{k + 1}" for label, _ in trees for k in range(args.records)]
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    keys = ("ns_per_path_step", "newton_rounds", "traced_peak_mb", "sweep_peak_rss_mb", "import", "acceptance")
    print(json.dumps({label: {key: records[label][key] for key in keys} for label in labels}, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
