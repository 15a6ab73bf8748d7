"""The two benchmark workloads: the library calls one pass issues, and the
checks applied to their outputs.

``sweeps`` issues the coupled-path sweeps of three groups one after another:
the stiff half-line sweeps, the mostly non-stiff disk sweep, and the cap
sweeps that run transport and the damped engine.  ``exact-law`` issues
criterion 8's estimator calls and runs no stepper.

A pass issues every call of its workload once, one after another.  Even
passes are reference passes: each call runs at the seed its acceptance test
pins (tests/test_acceptance.py), so their outputs, verdicts and ``sup_gap``
are the same in every run of the same code.  Odd passes k run every call at
the master seed ``1000 * seed + k`` derived from the benchmark's ``--seed``.
Repeating the reference inputs keeps the median pass time steady where the
cost of the guarded walk varies by a fifth from one input to the next; the
odd passes bring new inputs into every run.

Import this module only after ``run.use_checkout_src`` has put the checkout's
``src`` directory on the path.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from rbmlab import estimators as est
from rbmlab import geometry as geo
from rbmlab import harness
from rbmlab.errors import IntegrationError, QuadratureError
from rbmlab.geometry import TangentVector
from rbmlab.harness import ExperimentConfig

# A call that raises one of these counts as failed; any other exception is a
# fault of the benchmark and stops the run.
CALL_ERRORS = (IntegrationError, QuadratureError, FloatingPointError)

# Pass seeds above this many passes would collide with the next --seed.
MAX_PASSES = 1000


@dataclass
class Call:
    """One library call of a pass: ``issue(master_seed)`` returns its output."""

    name: str
    reference_seed: int
    issue: Callable[[int], object]


@dataclass
class Workload:
    name: str
    calls: list[Call]
    # outputs by call name -> {call name: [(check, ok, detail)]}
    verdicts: Callable[[dict], dict]
    # outputs of the reference pass -> the workload's accuracy figure
    sup_gap: Callable[[dict], float]
    # outputs by call name -> figures recorded but not checked
    record: Callable[[dict], dict]

    def pass_seeds(self, seed: int, k: int) -> dict:
        if is_reference(k):
            return {c.name: c.reference_seed for c in self.calls}
        return {c.name: 1000 * seed + k for c in self.calls}


def is_reference(k: int) -> bool:
    return k % 2 == 0


def fingerprint(output) -> str:
    """sha256 of a call's output: the rendered CSV for a sweep, the exact
    float digits of (mean, stderr) for an estimator."""
    if isinstance(output, list):
        text = harness.render_csv(output)
    else:
        text = f"{float(output.mean)!r} {float(output.stderr)!r} {output.n_paths} {output.config_digest}"
    return hashlib.sha256(text.encode()).hexdigest()


def _sweep(cfg: ExperimentConfig) -> Callable[[int], object]:
    return lambda seed: harness.run_experiment(replace(cfg, master_seed=seed))


def _stat(rows, statistic, field, key, value):
    return next(getattr(r, field) for r in rows if r.statistic == statistic and r.params[key] == value)


def _series(rows, statistic, field, key, grid):
    return [_stat(rows, statistic, field, key, v) for v in grid]


def _strictly_decreasing(seq) -> bool:
    return all(x > y for x, y in zip(seq, seq[1:]))


def _fmt(seq) -> str:
    return "[" + ", ".join(f"{x:.4g}" for x in seq) + "]"


# -- halfline-stiff -----------------------------------------------------------
# Both copies of the guarded scalar collar walk (stepping's, through the
# local-time sweep, and skorohod1d's, through halfline-penalization) at a
# dt where a/sqrt(dt) runs from 2.2 down to 0.28, the regime where the walk
# sub-steps most.  T = 1 so that most paths touch the boundary and the median
# local-time gap is not zero.

HS_A = (0.05, 0.025, 0.0125, 0.00625)


def _halfline_stiff() -> Workload:
    base = ExperimentConfig(
        kind="local-time", model="half-line", horizon=1.0, steps=2000,
        a_grid=HS_A, n_paths=32, x0=(0.5,),
    )
    calls = [
        Call("local-time", 44, _sweep(base)),
        Call("halfline-penalization", 42, _sweep(replace(base, kind="halfline-penalization"))),
    ]

    def verdicts(out):
        checks = {}
        if "local-time" in out:
            med = _series(out["local-time"], "sup_local_time_gap", "q50", "a", HS_A)
            checks["local-time"] = [("sup_local_time_gap medians strictly decrease", _strictly_decreasing(med), _fmt(med))]
        if "halfline-penalization" in out:
            med = _series(out["halfline-penalization"], "sup_path_gap", "q50", "a", HS_A)
            checks["halfline-penalization"] = [("sup_path_gap medians strictly decrease", _strictly_decreasing(med), _fmt(med))]
        return checks

    def record(out):
        rec = {}
        if "local-time" in out:
            rows = out["local-time"]
            rec["tv_over_twice_terminal"] = _series(rows, "tv_over_twice_terminal", "value", "a", HS_A)
            rec["sup_local_time_gap_mean"] = _series(rows, "sup_local_time_gap", "value", "a", HS_A)
        if "halfline-penalization" in out:
            dflow = _series(out["halfline-penalization"], "derivative_flow_l1", "value", "a", HS_A)
            rec["derivative_flow_ratio"] = dflow[0] / dflow[-1]
        return rec

    return Workload(
        "halfline-stiff", calls, verdicts,
        sup_gap=lambda out: _stat(out["local-time"], "sup_local_time_gap", "value", "a", HS_A[-1]),
        record=record,
    )


# -- disk-sp ------------------------------------------------------------------
# Criterion 3's shape on the disk, one full 250-path harness chunk, mostly
# non-stiff (a/sqrt(dt) from 10 down to 1.25).  The verdict is criterion 3's:
# E sup rho^2 strictly decreasing along the a-grid and below 10 sqrt(dt) at
# the end.

DISK_A = (0.1, 0.05, 0.025, 0.0125)


def _disk_sp() -> Workload:
    cfg = ExperimentConfig(
        kind="sp-convergence", model="disk", horizon=0.1, steps=1000,
        a_grid=DISK_A, n_paths=250, p=2.0, x0=(0.5, 0.0),
    )
    calls = [Call("sp-convergence", 43, _sweep(cfg))]
    limit = 10.0 * math.sqrt(cfg.grid.dt)

    def verdicts(out):
        if "sp-convergence" not in out:
            return {}
        means = _series(out["sp-convergence"], "sup_distance_p", "value", "a", DISK_A)
        return {"sp-convergence": [
            ("E sup rho^2 strictly decreases", _strictly_decreasing(means), _fmt(means)),
            (f"final E sup rho^2 < {limit:.3g}", means[-1] < limit, f"{means[-1]:.4g}"),
        ]}

    def record(out):
        if "sp-convergence" not in out:
            return {}
        rows = out["sp-convergence"]
        return {
            "sup_rho2_mean": _series(rows, "sup_distance_p", "value", "a", DISK_A),
            "sup_rho2_median": _series(rows, "sup_distance_p", "q50", "a", DISK_A),
        }

    return Workload(
        "disk-sp", calls, verdicts,
        sup_gap=lambda out: _stat(out["sp-convergence"], "sup_distance_p", "value", "a", DISK_A[-1]),
        record=record,
    )


# -- cap-transport ------------------------------------------------------------
# The only workload where transport and the damped engine do real work, each
# sweep in one full 200-path chunk: criterion 5's norm bound (penalized curved
# stepper) and criterion 6's excursion-jump Cauchy ladder on the hemisphere
# (reflected curved stepper, close_events).

CAP_EPS = (0.2, 0.1, 0.05, 0.025)


def _cap_transport() -> Workload:
    theta_nb, theta_ec = np.pi / 3, np.pi / 2
    norm_bound = ExperimentConfig(
        kind="norm-bound", model=f"cap:theta0={theta_nb}", horizon=0.1, steps=200,
        a_grid=(0.05, 0.0125), n_paths=200, x0=(theta_nb - 0.15, 0.0),
    )
    eps_cauchy = ExperimentConfig(
        kind="eps-cauchy", model=f"cap:theta0={theta_ec}", horizon=4.0, steps=2000,
        eps_grid=CAP_EPS, n_paths=200, x0=(theta_ec - 0.15, 0.0),
    )
    calls = [Call("norm-bound", 45, _sweep(norm_bound)), Call("eps-cauchy", 46, _sweep(eps_cauchy))]

    def verdicts(out):
        checks = {}
        if "norm-bound" in out:
            worst = max(r.value for r in out["norm-bound"])
            checks["norm-bound"] = [("max node-wise violation <= 1e-6", worst <= 1e-6, f"{worst:.3g}")]
        if "eps-cauchy" in out:
            med = _series(out["eps-cauchy"], "sup_level_gap", "q50", "eps_coarse", CAP_EPS[:-1])
            ok = all(m0 >= m1 - 1e-12 for m0, m1 in zip(med, med[1:]))
            checks["eps-cauchy"] = [("sup_level_gap medians do not increase", ok, _fmt(med))]
        return checks

    def record(out):
        rec = {}
        if "norm-bound" in out:
            rec["max_bound_violation"] = [r.value for r in out["norm-bound"]]
        if "eps-cauchy" in out:
            rec["sup_level_gap_median"] = _series(out["eps-cauchy"], "sup_level_gap", "q50", "eps_coarse", CAP_EPS[:-1])
        return rec

    return Workload(
        "cap-transport", calls, verdicts,
        sup_gap=lambda out: _stat(out["eps-cauchy"], "sup_level_gap", "value", "eps_coarse", CAP_EPS[-2]),
        record=record,
    )


# -- exact-law ----------------------------------------------------------------
# Criterion 8's seven estimator calls on the flat half-line model, n one
# 5000-path estimator chunk.  No stepper runs, so this is the no-change
# control for stepper changes.

EL_T, EL_DT, EL_N, EL_X, EL_H = 1.0, 1e-3, 5000, 0.5, 0.05


def _exact_law() -> Workload:
    model = geo.half_space(1)
    x = np.array([EL_X])
    v = TangentVector(base=x, components=np.array([1.0]))
    f = est.scalar_field("gauss")
    phi = est.one_form("gauss-grad")
    caloric = est.NeumannHeatSolution(model, f, EL_T)
    T, n, dt = EL_T, EL_N, EL_DT
    calls = [
        Call("neumann", 48, lambda s: est.neumann_heat_mc(model, f, T, x, n, dt, seed=s)),
        Call("one-form", 48, lambda s: est.one_form_mc(model, phi, T, v, n, dt, seed=s)),
        Call("bismut", 48, lambda s: est.bismut_gradient_mc(model, f, T, v, n, dt, seed=s)),
        Call("neumann-up", 48, lambda s: est.neumann_heat_mc(model, f, T, [EL_X + EL_H], n, dt, seed=s)),
        Call("neumann-down", 48, lambda s: est.neumann_heat_mc(model, f, T, [EL_X - EL_H], n, dt, seed=s)),
        Call("martingale", 48, lambda s: est.martingale_check(model, caloric, T, v, n, dt, seed=s)),
        Call("weak-derivative", 48, lambda s: est.weak_derivative_check(
            model, f, lambda u: np.array([0.2 + u]), lambda u: np.array([1.0]), 0.0, 0.5, T, n, dt, seed=s)),
    ]

    def gaps(out):
        """(call, check, gap, tolerance) for criterion 8's five checks whose
        input calls all returned; gap is None when the oracle raised."""
        rows = []

        def oracle(fn):
            try:
                return fn("neumann", T, EL_X, f)
            except QuadratureError:
                return None

        for name, ref in (("neumann", est.image_kernel_oracle), ("one-form", est.image_kernel_gradient)):
            if name in out:
                e, o = out[name], oracle(ref)
                rows.append((name, f"|{name} - oracle| <= 3 stderr",
                             None if o is None else e.mean - o, 3 * e.stderr))
        if all(c in out for c in ("bismut", "neumann-up", "neumann-down")):
            e, up, dn = out["bismut"], out["neumann-up"], out["neumann-down"]
            fd = (up.mean - dn.mean) / (2 * EL_H)
            tol = 3 * math.sqrt(e.stderr**2 + up.stderr**2 + dn.stderr**2)
            rows.append(("bismut", "|bismut - finite difference| <= 3 stderr", e.mean - fd, tol))
        for name in ("martingale", "weak-derivative"):
            if name in out:
                rows.append((name, f"|{name}| <= 3 stderr", out[name].mean, 3 * out[name].stderr))
        return rows

    def verdicts(out):
        checks = {}
        for call, check, gap, tol in gaps(out):
            if gap is None:
                checks[call] = [(check, False, "the oracle raised QuadratureError")]
            else:
                checks[call] = [(check, abs(gap) <= tol, f"gap {gap:.3g}, tol {tol:.3g}")]
        return checks

    def sup_gap(out):
        found = [g for _, _, g, _ in gaps(out)]
        return math.nan if None in found else max(abs(g) for g in found)

    return Workload(
        "exact-law", calls, verdicts, sup_gap,
        record=lambda out: {check: [g, t] for _, check, g, t in gaps(out)},
    )


# -- sweeps -------------------------------------------------------------------
# The three sweep groups in one pass, so that one long run covers every
# stepper.  Verdicts and records are the groups' own; the accuracy figure is
# the half-line one, and the disk and cap figures stay in the record.


def _sweeps() -> Workload:
    groups = [_halfline_stiff(), _disk_sp(), _cap_transport()]

    def verdicts(out):
        return {call: checks for g in groups for call, checks in g.verdicts(out).items()}

    def record(out):
        rec = {g.name: g.record(out) for g in groups}
        for g in groups[1:]:
            try:
                rec[g.name]["sup_gap"] = g.sup_gap(out)
            except (KeyError, StopIteration):
                pass
        return rec

    return Workload(
        "sweeps", [c for g in groups for c in g.calls], verdicts,
        sup_gap=groups[0].sup_gap, record=record,
    )


_BUILDERS = {
    "sweeps": _sweeps,
    "exact-law": _exact_law,
}


def build(name: str) -> Workload:
    """Models, configurations and call closures of one workload (set-up)."""
    return _BUILDERS[name]()
