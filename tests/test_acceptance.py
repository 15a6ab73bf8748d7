"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every test here is marked ``slow``: `pytest -m "not slow"` leaves them out.
"""
from __future__ import annotations

import math
import time

import numpy as np
import pytest

from rbmlab import estimators as est
from rbmlab import geometry as geo
from rbmlab import harness
from rbmlab import skorohod1d as sk
from rbmlab.geometry import TangentVector
from rbmlab.grids import TimeGrid
from rbmlab.harness import ExperimentConfig
from rbmlab.skorohod1d import RealPath
from rbmlab.transport import parallel_transport

pytestmark = pytest.mark.slow

THETA0 = np.pi / 3


def _report(num, name, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok


def test_criterion_1_exact_skorohod_suite():
    t0 = time.time()
    rng = np.random.default_rng(1001)
    n_drivers, n_steps = 10_000, 64
    times = np.linspace(0.0, 1.0, n_steps + 1)
    x, y = 0.2, 0.5
    worst = 0.0
    coalesced = 0
    for _ in range(n_drivers):
        vals = np.concatenate([[0.0], np.cumsum(rng.uniform(-0.3, 0.3, n_steps))])
        f = RealPath(times, vals)
        sol_x = sk.skorohod_map(x, f)
        g, h = sol_x.reflected.values, sol_x.local_time.values
        # flow property at the middle node
        k = n_steps // 2
        sub = sk.skorohod_map(g[k], RealPath(times[k:], vals[k:] - vals[k]))
        worst = max(worst, np.max(np.abs(sub.reflected.values - g[k:])))
        worst = max(worst, np.max(np.abs(h[k] + sub.local_time.values - h[k:])))
        # lift identity at every node
        z = x + h
        lifted = z + vals + np.maximum(0.0, -np.minimum.accumulate(np.minimum(z + vals, z)))
        worst = max(worst, np.max(np.abs(lifted - g)))
        # derivative indicator
        tau_x = sk.first_hit_zero(sol_x)
        flow = sk.derivative_flow_exact(x, f).values
        worst = max(worst, np.max(np.abs(flow - (times < tau_x))))
        # coalescence at the first hit of the upper path
        sol_y = sk.skorohod_map(y, f)
        tau_y = sk.first_hit_zero(sol_y)
        if math.isfinite(tau_y):
            coalesced += 1
            T = sk.coalescence_time(x, y, f)
            worst = max(worst, abs(T - tau_y))
            worst = max(worst, abs(sk.local_time_at(sol_x, tau_y) - (y - x)))
    elapsed = time.time() - t0
    ok = worst <= 1e-12 and elapsed < 10.0 and coalesced > 1000
    assert _report(
        1, "exact Skorohod identities", ok,
        f"worst residual {worst:.2e} (tol 1e-12), {coalesced} coalescences, {elapsed:.1f}s (<10s)",
    )


def test_criterion_2_halfline_penalization():
    t0 = time.time()
    cfg = ExperimentConfig(
        kind="halfline-penalization",
        model="half-line",
        horizon=1.0,
        steps=10_000,
        a_grid=(0.1, 0.05, 0.025, 0.0125),
        n_paths=1000,
        master_seed=42,
        x0=(0.5,),
    )
    rows = harness.run_experiment(cfg)
    med = {r.params["a"]: r.q50 for r in rows if r.statistic == "sup_path_gap"}
    dflow = {r.params["a"]: r.value for r in rows if r.statistic == "derivative_flow_l1"}
    a_grid = cfg.a_grid
    med_seq = [med[a] for a in a_grid]
    strictly_dec = all(m0 > m1 for m0, m1 in zip(med_seq, med_seq[1:]))
    ratio = dflow[a_grid[0]] / dflow[a_grid[-1]]
    elapsed = time.time() - t0
    ok = strictly_dec and ratio >= 2.0 and elapsed < 120
    assert _report(
        2, "half-line penalization", ok,
        f"median sup gaps {[f'{m:.4f}' for m in med_seq]}, derivative-flow ratio {ratio:.1f}x (>=2), {elapsed:.0f}s (<120s)",
    )


@pytest.mark.parametrize("model,x0", [("half-space:d=2", (0.0, 0.5)), ("disk", (0.5, 0.0))])
def test_criterion_3_sp_convergence(model, x0):
    t0 = time.time()
    cfg = ExperimentConfig(
        kind="sp-convergence",
        model=model,
        horizon=1.0,
        steps=10_000,
        a_grid=(0.1, 0.05, 0.025, 0.0125),
        n_paths=1000,
        p=2.0,
        master_seed=43,
        x0=x0,
    )
    rows = harness.run_experiment(cfg)
    means = [next(r.value for r in rows if r.params["a"] == a) for a in cfg.a_grid]
    decreasing = all(m0 > m1 for m0, m1 in zip(means, means[1:]))
    final_ok = means[-1] < 10.0 * math.sqrt(cfg.grid.dt)
    elapsed = time.time() - t0
    ok = decreasing and final_ok and elapsed < 300
    assert _report(
        3, f"S_p convergence ({model})", ok,
        f"E sup rho^2 {[f'{m:.4f}' for m in means]}, final < {10 * math.sqrt(cfg.grid.dt):.3f}, {elapsed:.0f}s (<300s)",
    )


def test_criterion_4_local_time_sup_gap():
    t0 = time.time()
    cfg = ExperimentConfig(
        kind="local-time",
        model="half-line",
        horizon=1.0,
        steps=10_000,
        a_grid=(0.1, 0.05, 0.025, 0.0125),
        n_paths=1000,
        master_seed=44,
        x0=(0.5,),
    )
    rows = harness.run_experiment(cfg)
    elapsed = time.time() - t0
    med = {r.params["a"]: r.q50 for r in rows if r.statistic == "sup_local_time_gap"}
    med_seq = [med[a] for a in cfg.a_grid]
    decreasing = all(m0 > m1 for m0, m1 in zip(med_seq, med_seq[1:]))
    ok = decreasing and elapsed < 120
    assert _report(
        4, "local time (sup gap)", ok,
        f"median sup gaps {[f'{m:.4f}' for m in med_seq]} decreasing, {elapsed:.0f}s (<120s)",
    )


def test_criterion_4_local_time_total_variation():
    """TV(L - L^a) on [0, T] approaches 2 L_T: the increment measures are singular.

    dL^a = b_a(R^a) dt is absolutely continuous in time while dL lives on the
    Lebesgue-null zero set of the reflected path, so the variation of the
    difference is L_T + L^a_T -> 2 L_T.  The harness statistic sums
    |dL_k - dL^a_k| over grid steps; where both local times grow within one
    step their increments cancel, so it is a lower bound that reaches
    L_T + L^a_T only as dt -> 0 at fixed a.  The cancelled share is set by
    kappa = a / sqrt(dt) (about 0.40 at kappa = 1.25, 0.12 at kappa = 20), so
    the check fixes a and refines the step x4 twice (kappa = 5, 10, 20): the
    ratio must rise strictly along the ladder and lie within 15% of 1 at the
    finest rung.  The half-line law is invariant under
    (a, T, x0, dt) -> (a/c, T/c^2, x0/c, dt/c^2), so the ratio depends only on
    kappa, a/sqrt(T) and x0/sqrt(T); the short horizon keeps the finest rung
    within the time bound.  The a -> 0 side is covered by the sup-gap check.
    """
    t0 = time.time()
    a = 0.025
    kappas, ratios = [], []
    for steps in (10_000, 40_000, 160_000):
        cfg = ExperimentConfig(
            kind="local-time",
            model="half-line",
            horizon=0.25,
            steps=steps,
            a_grid=(a,),
            n_paths=50,
            master_seed=44,
            x0=(0.1,),
        )
        rows = harness.run_experiment(cfg)
        kappas.append(a / math.sqrt(cfg.grid.dt))
        ratios.append(next(r.value for r in rows if r.statistic == "tv_over_twice_terminal"))
    rising = all(r0 < r1 for r0, r1 in zip(ratios, ratios[1:]))
    final_ok = abs(ratios[-1] - 1.0) <= 0.15
    elapsed = time.time() - t0
    ok = rising and final_ok and elapsed < 120
    assert _report(
        4, "local time (variation vs 2 L_T)", ok,
        f"tv/(2 L_T) at a={a} by kappa=a/sqrt(dt): "
        + ", ".join(f"kappa={k:.0f}: {r:.3f}" for k, r in zip(kappas, ratios))
        + f"; rising, finest within 15% of 1, {elapsed:.0f}s (<120s)",
    )


def test_criterion_5_norm_bound():
    t0 = time.time()
    cfg = ExperimentConfig(
        kind="norm-bound",
        model=f"cap:theta0={THETA0}",
        horizon=1.0,
        steps=2000,
        a_grid=(0.05, 0.0125),
        n_paths=1000,
        master_seed=45,
        x0=(THETA0 - 0.15, 0.0),
    )
    rows = harness.run_experiment(cfg)
    worst = max(r.value for r in rows)
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and elapsed < 60
    assert _report(
        5, "damped-transport norm bound", ok,
        f"max node-wise violation {worst:.2e} (slack 1e-6), {elapsed:.0f}s (<60s)",
    )


# The cap runs on a hemisphere over a long horizon so that excursions larger
# than the coarsest level are routine and the level ladder sits in the
# asymptotic regime the convergence statement addresses; on smaller caps the
# ladder straddles the largest-excursion scale and level gaps are dominated
# by rare first-jump mismatches, which make the medians non-monotone in eps.
@pytest.mark.parametrize(
    "model,x0,horizon,steps",
    [
        ("half-line", (0.2,), 1.0, 2000),
        (f"cap:theta0={np.pi / 2}", (np.pi / 2 - 0.15, 0.0), 4.0, 4000),
    ],
)
def test_criterion_6_eps_cauchy(model, x0, horizon, steps):
    t0 = time.time()
    cfg = ExperimentConfig(
        kind="eps-cauchy",
        model=model,
        horizon=horizon,
        steps=steps,
        eps_grid=(0.2, 0.1, 0.05, 0.025),
        n_paths=500,
        master_seed=46,
        x0=x0,
    )
    rows = harness.run_experiment(cfg)
    meds = [
        next(r.q50 for r in rows if r.params["eps_coarse"] == e0)
        for e0 in cfg.eps_grid[:-1]
    ]
    nonincreasing = all(m0 >= m1 - 1e-12 for m0, m1 in zip(meds, meds[1:]))
    elapsed = time.time() - t0
    ok = nonincreasing and elapsed < 180
    assert _report(
        6, f"excursion-jump Cauchy ({model.split(':')[0]})", ok,
        f"median inter-level gaps {[f'{m:.4f}' for m in meds]}, {elapsed:.0f}s (<180s)",
    )


def test_criterion_7_normal_component_l2():
    t0 = time.time()
    cfg = ExperimentConfig(
        kind="f-normal",
        model="half-space:d=1",
        horizon=1.0,
        steps=1000,
        a_grid=(0.1, 0.05, 0.025, 0.0125),
        n_paths=1000,
        master_seed=47,
        x0=(0.5,),
    )
    rows = harness.run_experiment(cfg)
    vals = [next(r.value for r in rows if r.params["a"] == a) for a in cfg.a_grid]
    ratio = vals[0] / vals[-1]
    elapsed = time.time() - t0
    ok = ratio >= 2.0 and elapsed < 120
    assert _report(
        7, "normal component L2", ok,
        f"E int |f_a - f|^2 dt {[f'{v:.4f}' for v in vals]}, first/last {ratio:.1f}x (>=2), {elapsed:.0f}s",
    )


def test_criterion_8_representation_formulas():
    t0 = time.time()
    model = geo.half_space(1)
    T, dt, n, seed = 1.0, 1e-3, 100_000, 48
    x = np.array([0.5])
    v = TangentVector(base=x, components=np.array([1.0]))
    f = est.scalar_field("gauss")
    phi = est.one_form("gauss-grad")
    checks = []

    e = est.neumann_heat_mc(model, f, T, x, n, dt, seed=seed)
    oracle = est.image_kernel_oracle("neumann", T, 0.5, f)
    checks.append(("neumann", e.mean - oracle, 3 * e.stderr))

    d_oracle = est.image_kernel_gradient("neumann", T, 0.5, f)
    e = est.one_form_mc(model, phi, T, v, n, dt, seed=seed)
    checks.append(("one-form", e.mean - d_oracle, 3 * e.stderr))

    h = 0.05
    eb = est.bismut_gradient_mc(model, f, T, v, n, dt, seed=seed)
    up = est.neumann_heat_mc(model, f, T, [0.5 + h], n, dt, seed=seed)
    dn = est.neumann_heat_mc(model, f, T, [0.5 - h], n, dt, seed=seed)
    fd = (up.mean - dn.mean) / (2 * h)
    tol = 3 * math.sqrt(eb.stderr**2 + up.stderr**2 + dn.stderr**2)
    checks.append(("bismut-vs-fd", eb.mean - fd, tol))

    F = est.NeumannHeatSolution(model, f, T)
    e = est.martingale_check(model, F, T, v, n, dt, seed=seed)
    checks.append(("martingale", e.mean, 3 * e.stderr))

    e = est.weak_derivative_check(
        model, f, lambda u: np.array([0.2 + u]), lambda u: np.array([1.0]),
        0.0, 0.5, T, n, dt, seed=seed,
    )
    checks.append(("weak-derivative", e.mean, 3 * e.stderr))

    elapsed = time.time() - t0
    bad = [name for name, gap, tol in checks if abs(gap) > tol]
    detail = ", ".join(f"{name} |gap|={abs(g):.2e} tol={t:.2e}" for name, g, t in checks)
    ok = not bad and elapsed < 300
    assert _report(8, "representation formulas", ok, f"{detail}, {elapsed:.0f}s (<300s)")


def test_criterion_9_geometry_transport_suite():
    t0 = time.time()
    rng = np.random.default_rng(1009)
    worst_frame = 0.0
    for model in (geo.half_space(3), geo.flat_disk(), geo.spherical_cap(THETA0)):
        if model.id == geo.HALF_SPACE:
            pts = rng.standard_normal((1000, 3))
            pts[:, -1] = rng.uniform(1e-3, 0.3, 1000)
        elif model.id == geo.FLAT_DISK:
            r = rng.uniform(0.7, 0.999, 1000)
            ang = rng.uniform(0, 2 * np.pi, 1000)
            pts = np.stack([r * np.cos(ang), r * np.sin(ang)], axis=-1)
        else:
            pts = np.stack(
                [rng.uniform(THETA0 - 0.3, THETA0 - 1e-3, 1000), rng.uniform(0, 2 * np.pi, 1000)],
                axis=-1,
            )
        nu = geo.inward_normal(model, pts).components
        worst_frame = max(worst_frame, np.max(np.abs(np.linalg.norm(nu, axis=-1) - 1.0)))
        F = geo.frame_matrix(model, pts)
        worst_frame = max(worst_frame, np.max(np.abs(F[:, 0, :] - nu)))
        gram = np.einsum("nmd,nme->nde", F, F)
        worst_frame = max(worst_frame, np.max(np.abs(gram - np.eye(model.dim))))
        if F.shape[1] > 1:
            worst_frame = max(worst_frame, np.max(np.abs(np.einsum("nd,nmd->nm", nu, F[:, 1:, :]))))
    # isometry + holonomy on the cap
    cap = geo.spherical_cap(np.pi / 2)
    nloop = 10_000
    theta = np.pi / 3
    loop = np.stack([np.full(nloop + 1, theta), np.linspace(0, 2 * np.pi, nloop + 1)], axis=-1)
    frames = parallel_transport(cap, loop)
    M = frames.matrices[-1]
    hol_err = abs(abs(np.arctan2(M[1, 0], M[0, 0])) - 2 * np.pi * np.cos(theta))
    vset = rng.standard_normal((8, 2))
    iso_err = np.max(np.abs(np.linalg.norm(frames.matrices @ vset.T, axis=1) - np.linalg.norm(vset.T, axis=0)))
    elapsed = time.time() - t0
    ok = worst_frame <= 1e-12 and hol_err <= 1e-4 and iso_err <= 1e-8 and elapsed < 30
    assert _report(
        9, "geometry/transport unit suite", ok,
        f"frame residual {worst_frame:.1e} (1e-12), holonomy err {hol_err:.1e} (1e-4), "
        f"isometry err {iso_err:.1e} (1e-8), {elapsed:.0f}s (<30s)",
    )


def test_criterion_10_determinism(tmp_path):
    cfg = ExperimentConfig(
        kind="local-time",
        model="half-line",
        horizon=0.5,
        steps=1000,
        a_grid=(0.1, 0.05),
        n_paths=64,
        master_seed=50,
    )
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    harness.report(harness.run_experiment(cfg), "csv", str(out1))
    harness.report(harness.run_experiment(cfg), "csv", str(out2))
    same = out1.read_bytes() == out2.read_bytes()
    assert _report(10, "determinism", same, f"re-run CSV byte-identical: {same}")
