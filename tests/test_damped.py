"""Damped transport variants: smooth, excursion-jump, and the limit."""
from __future__ import annotations

import numpy as np
import pytest

from rbmlab import geometry as geo
from rbmlab import skorohod1d as sk
from rbmlab.damped import (
    VARIANT_LIMIT,
    damped_eps,
    damped_limit,
    damped_penalized,
    limit_state,
    normal_part_formula_check,
)
from rbmlab.grids import DriverPath, TimeGrid
from rbmlab.penalized import integrate_penalized
from rbmlab.reflected import excursions, integrate_reflected
from rbmlab.transport import parallel_transport


def _halfline_run(seed=5, steps=2000, a=0.05, x0=0.5):
    grid = TimeGrid(1.0, steps)
    hl = geo.half_line()
    driver = DriverPath.generate(grid, 1, seed=seed)
    pen = integrate_penalized(hl, a, [x0], driver, grid)
    ref = integrate_reflected(hl, [x0], driver, grid)
    return hl, grid, driver, pen, ref


def test_smooth_variant_identity_away_from_boundary():
    grid = TimeGrid(1.0, 500)
    hs = geo.half_space(2)
    driver = DriverPath.generate(grid, 2, seed=1)
    pen = integrate_penalized(hs, 0.01, [0.0, 5.0], driver, grid)
    state = damped_penalized(hs, 0.01, pen)
    assert np.max(np.abs(state.matrices - np.eye(2))) < 1e-8


def test_smooth_normal_component_solves_scalar_equation():
    """On the half line the normal row is exactly the exponential of the
    accumulated damping rate (no tangential coupling)."""
    hl, grid, driver, pen, ref = _halfline_run()
    state = damped_penalized(hl, 0.05, pen)
    f = state.normal[:, 0]
    assert np.max(np.abs(f - np.exp(-pen.damping_integral))) < 1e-12
    assert np.all(np.diff(f) <= 0)
    # far from the boundary (2R/a > 57 at every node) the rate is below
    # 1e-21, so the integral at the implicit points is the left-endpoint
    # quadrature of the stored nodal rate series
    hl2, grid2, driver2, pen2, _ = _halfline_run(seed=6, steps=500, a=0.05, x0=1.5)
    quadrature = np.concatenate([[0.0], np.cumsum(pen2.damping[:-1] * grid2.dt)])
    assert np.max(np.abs(pen2.damping_integral - quadrature)) < 1e-15


def test_smooth_variant_norm_bound_on_cap():
    cap = geo.spherical_cap(np.pi / 3)
    grid = TimeGrid(1.0, 2000)
    a = 0.05
    driver = DriverPath.generate(grid, 5, seed=2)
    pen = integrate_penalized(cap, a, [np.pi / 3 - 0.1, 0.0], driver, grid)
    frame = parallel_transport(cap, pen.points)
    state = damped_penalized(cap, a, pen, frame)
    w2 = np.sum(state.matrices**2, axis=(1, 2))
    kappa = 1.0 / np.tan(pen.points[:-1, 0])
    expo = -grid.dt - 2.0 * kappa * np.diff(pen.local_time)
    bound = 2.0 * np.exp(np.concatenate([[0.0], np.cumsum(expo)]))
    assert np.max(w2 - bound) <= 1e-6


def test_eps_variant_erases_normal_row_at_right_ends():
    hl, grid, driver, pen, ref = _halfline_run(seed=7, x0=0.2)
    eps = 0.05
    state = damped_eps(hl, ref, None, eps)
    exc = excursions(ref, eps)
    assert exc.right_ends.size > 0
    assert np.all(state.normal[exc.right_ends] == 0.0)
    # jumps are the only discontinuities on the flat model
    w = state.matrices[:, 0, 0]
    jumps = np.nonzero(np.diff(w) != 0)[0] + 1
    assert set(jumps) <= set(exc.right_ends.tolist())


def test_eps_variant_matches_exact_derivative_flow():
    hl, grid, driver, pen, ref = _halfline_run(seed=8)
    state = damped_eps(hl, ref, None, eps=0.01)
    w = state.matrices[:, 0, 0]
    f = sk.RealPath(grid.times, np.concatenate([[0.0], np.cumsum(driver.increments[:, 0])]))
    exact = sk.derivative_flow_exact(0.5, f).values
    # agreement off a vanishing neighborhood of the hit time
    assert np.mean(w != exact) < 0.005


def test_eps_larger_than_every_excursion_no_jumps():
    hl, grid, driver, pen, ref = _halfline_run(seed=9)
    state = damped_eps(hl, ref, None, eps=10.0)
    assert np.all(state.matrices == 1.0)


def test_flat_halfspace_structure():
    grid = TimeGrid(1.0, 1000)
    hs = geo.half_space(2)
    driver = DriverPath.generate(grid, 2, seed=10)
    ref = integrate_reflected(hs, [0.0, 0.3], driver, grid)
    state = damped_eps(hs, ref, None, eps=0.02)
    # tangential block stays the tangential identity forever
    assert np.all(state.tangential[:, 0, 0] == 1.0)
    assert np.all(state.tangential[:, 1, :] == 0.0)
    # normal scalar: one until the first long-excursion right end, then zero
    f = state.normal[:, 1]
    drop = np.nonzero(f == 0.0)[0]
    assert drop.size > 0
    k = drop[0]
    assert np.all(f[:k] == 1.0) and np.all(f[k:] == 0.0)


def test_limit_gaps_zero_without_contact():
    grid = TimeGrid(0.5, 500)
    hl = geo.half_line()
    driver = DriverPath(seed=0, path_index=0, increments=np.zeros((500, 1)))
    ref = integrate_reflected(hl, [1.0], driver, grid)
    state, report = damped_limit(hl, ref, None, eps0=0.2, levels=4)
    assert report.gaps == [0.0, 0.0, 0.0]
    assert report.nonincreasing
    with pytest.raises(ValueError):
        damped_limit(hl, ref, None, eps0=0.2, levels=1)


def test_cauchy_report_flags_rising_gaps(monkeypatch):
    """Gaps 0.1 then 0.15 rise, so the report is not non-increasing."""
    from rbmlab import damped

    hl = geo.half_line()
    grid = TimeGrid(0.5, 2)
    driver = DriverPath(seed=0, path_index=0, increments=np.zeros((2, 1)))
    ref = integrate_reflected(hl, [1.0], driver, grid)
    levels = {0.4: 0.0, 0.2: 0.1, 0.1: 0.25}  # normal entry of each level

    def fake_eps(model, path, frame, eps, eta=None):
        normal = np.full((3, 1), levels[eps])
        return damped.DampedState("eps-jump", eps, grid.times, np.zeros((3, 1, 1)), normal, np.ones((3, 1)))

    monkeypatch.setattr(damped, "damped_eps", fake_eps)
    _, report = damped_limit(hl, ref, None, eps0=0.4, levels=3)
    assert report.gaps == pytest.approx([0.1, 0.15])
    assert not report.nonincreasing
    levels[0.1] = 0.15  # gaps 0.1 then 0.05
    _, report = damped_limit(hl, ref, None, eps0=0.4, levels=3)
    assert report.nonincreasing


def test_limit_state_matches_finest_eps():
    hl, grid, driver, pen, ref = _halfline_run(seed=11, x0=0.15)
    lim = limit_state(hl, ref)
    assert lim.variant == VARIANT_LIMIT
    fine = damped_eps(hl, ref, None, eps=grid.dt * 0.5)
    assert np.array_equal(lim.matrices, fine.matrices)


def test_reconstruction_invariant():
    cap = geo.spherical_cap(np.pi / 3)
    grid = TimeGrid(0.5, 800)
    driver = DriverPath.generate(grid, 5, seed=12)
    ref = integrate_reflected(cap, [np.pi / 3 - 0.05, 0.0], driver, grid)
    frame = parallel_transport(cap, ref.points)
    state = damped_eps(cap, ref, frame, eps=0.05)
    recon = state.tangential + state.carrier[:, :, None] * state.normal[:, None, :]
    assert np.max(np.abs(recon - state.matrices)) <= 1e-10
    # tangential block is orthogonal to the carrier
    dots = np.einsum("ni,nij->nj", state.carrier, state.tangential)
    assert np.max(np.abs(dots)) <= 1e-10


def test_continuous_steps_are_small_between_jumps():
    """Between jump nodes, increments obey the coefficient bound."""
    cap = geo.spherical_cap(np.pi / 3)
    grid = TimeGrid(0.5, 800)
    driver = DriverPath.generate(grid, 5, seed=13)
    ref = integrate_reflected(cap, [np.pi / 3 - 0.05, 0.0], driver, grid)
    frame = parallel_transport(cap, ref.points)
    eps = 0.05
    state = damped_eps(cap, ref, frame, eps)
    exc = excursions(ref, eps)
    jump_nodes = set(exc.right_ends.tolist())
    w = state.matrices
    norms = np.sqrt(np.sum(w**2, axis=(1, 2)))
    kappa = 1.0 / np.tan(ref.points[:, 0])
    dL = np.diff(ref.local_time)
    for i in range(len(w) - 1):
        if (i + 1) in jump_nodes:
            continue
        bound = norms[i] * (0.5 * grid.dt + kappa[i] * dL[i]) + 1e-12
        assert np.linalg.norm(w[i + 1] - w[i]) <= bound


def test_normal_component_l2_convergence_smoke():
    """Smooth normal component approaches the limit one in L2(dt)."""
    grid = TimeGrid(1.0, 2000)
    hl = geo.half_line()
    gaps = {}
    for a in (0.1, 0.0125):
        acc = 0.0
        for k in range(20):
            driver = DriverPath.generate(grid, 1, seed=300, path_index=k)
            pen = integrate_penalized(hl, a, [0.3], driver, grid)
            ref = integrate_reflected(hl, [0.3], driver, grid)
            f_a = damped_penalized(hl, a, pen).normal[:, 0]
            f_lim = limit_state(hl, ref).normal[:, 0]
            acc += np.sum((f_a - f_lim)[:-1] ** 2) * grid.dt
        gaps[a] = acc / 20
    assert gaps[0.0125] < gaps[0.1]


def test_tangential_block_convergence_smoke():
    """Tangential blocks of smooth and limit variants approach each other."""
    cap = geo.spherical_cap(np.pi / 3)
    grid = TimeGrid(1.0, 1000)
    sups = {}
    for a in (0.2, 0.02):
        vals = []
        for k in range(12):
            driver = DriverPath.generate(grid, 5, seed=301, path_index=k)
            pen = integrate_penalized(cap, a, [np.pi / 3 - 0.1, 0.0], driver, grid)
            ref = integrate_reflected(cap, [np.pi / 3 - 0.1, 0.0], driver, grid)
            sm = damped_penalized(cap, a, pen, parallel_transport(cap, pen.points))
            lim = limit_state(cap, ref, parallel_transport(cap, ref.points))
            vals.append(np.sqrt(np.sum((sm.tangential - lim.tangential) ** 2, axis=(1, 2))).max())
        sups[a] = float(np.median(vals))
    assert sups[0.02] < sups[0.2]


def test_normal_part_formula_flat():
    hl, grid, driver, pen, ref = _halfline_run(seed=14)
    lim = limit_state(hl, ref)
    res = normal_part_formula_check(hl, ref, None, lim, driver)
    assert res <= 1e-10  # flat geometry: the representation is constant between contacts
    with pytest.raises(ValueError):
        normal_part_formula_check(hl, ref, None, damped_eps(hl, ref, None, 0.1), driver)


def test_normal_part_formula_cap_refines():
    """Median residual shrinks under grid refinement.

    Uses the exact-contact convention (projection pushes land at R = 0.0
    exactly), the discretization of the boundary set the representation
    vanishes on; a sqrt(dt)-wide contact band would dominate the residual.
    """
    cap = geo.spherical_cap(np.pi / 3)
    res = {}
    for steps in (500, 4000):
        grid = TimeGrid(0.25, steps)
        vals = []
        for k in range(24):
            driver = DriverPath.generate(grid, 5, seed=302, path_index=k)
            ref = integrate_reflected(cap, [np.pi / 3 - 0.05, 0.0], driver, grid, eta=1e-300)
            frame = parallel_transport(cap, ref.points)
            lim = limit_state(cap, ref, frame, eta=1e-300)
            vals.append(normal_part_formula_check(cap, ref, frame, lim, driver, eta=1e-300))
        res[steps] = float(np.median(vals))
    assert res[4000] < 0.8 * res[500]


def test_level_gap_tracks_small_excursion_time():
    """Inter-level gaps correlate with time spent in sub-threshold excursions."""
    from rbmlab.reflected import close_events

    cap = geo.spherical_cap(np.pi / 2)
    grid = TimeGrid(4.0, 2000)
    eps_hi, eps_lo = 0.1, 0.05
    gaps, budgets = [], []
    for k in range(60):
        driver = DriverPath.generate(grid, 5, seed=400, path_index=k)
        ref = integrate_reflected(cap, [np.pi / 2 - 0.15, 0.0], driver, grid)
        s_hi = damped_eps(cap, ref, None, eps_hi)
        s_lo = damped_eps(cap, ref, None, eps_lo)
        gaps.append(float(np.sqrt(np.sum((s_hi.matrices - s_lo.matrices) ** 2, axis=(1, 2))).max()))
        closes, dur = close_events(ref.boundary_dist[None], grid.times, ref.eta)
        # time spent in excursions the coarse level cannot see
        short = closes[0] & (dur[0] < eps_hi)
        budgets.append(float(np.sum(dur[0][short])))
    corr = np.corrcoef(gaps, budgets)[0, 1]
    assert corr > 0.1


# -- the step-matrix engine against the node-by-node engine it replaced -------


def _frozen_node_geometry(model, points, frames):
    from rbmlab.damped import _safe_unit

    nu = _safe_unit(geo._normal_components(model, points))
    kappa = geo._level_curvature(model, points)
    if points.shape[-1] == 1:
        q = np.zeros_like(nu)
    elif model.id == geo.SPHERICAL_CAP:
        q = np.zeros_like(nu)
        q[..., 1] = 1.0
    else:
        q = np.stack([-nu[..., 1], nu[..., 0]], axis=-1)
    if frames is not None:
        nu = np.einsum("pnij,pnj->pni", np.swapaxes(frames, -1, -2), nu)
        q = np.einsum("pnij,pnj->pni", np.swapaxes(frames, -1, -2), q)
    return nu, q, kappa


def _frozen_engine(model, points, frames, dt, dL, *, c_increments=None, jump_flags=None, collect="series"):
    """The engine as it was before step matrices: one update of every path
    per node, Ricci, then local time, then damping, then jumps."""
    P, n, d = points.shape
    N = n - 1
    rho = geo.ricci_factor(model)
    nu, q, kappa = _frozen_node_geometry(model, points, frames)
    w = np.broadcast_to(np.eye(d), (P, d, d)).copy()
    series = np.empty((P, n, d, d)) if collect == "series" else None
    normal_rows = np.empty((P, n, d)) if collect in ("series", "normal") else None
    if series is not None:
        series[:, 0] = w
    if normal_rows is not None:
        normal_rows[:, 0] = np.einsum("pi,pij->pj", nu[:, 0], w)
    for i in range(N):
        if rho != 0.0:
            w = w - 0.5 * rho * dt * w
        dl = dL[:, i]
        active = dl > 0
        if active.any():
            qi = q[:, i]
            qw = np.einsum("pi,pij->pj", qi, w)
            fac = np.where(active, kappa[:, i] * dl, 0.0)
            w = w - fac[:, None, None] * (qi[:, :, None] * qw[:, None, :])
        if c_increments is not None:
            shrink = -np.expm1(-c_increments[:, i])
            hit = shrink > 0
            if hit.any():
                ni = nu[:, i]
                fw = np.einsum("pi,pij->pj", ni, w)
                w = w - np.where(hit, shrink, 0.0)[:, None, None] * (ni[:, :, None] * fw[:, None, :])
        if jump_flags is not None:
            flagged = jump_flags[:, i + 1]
            if flagged.any():
                ni = nu[:, i + 1]
                fw = np.einsum("pi,pij->pj", ni, w)
                w = w - flagged[:, None, None] * (ni[:, :, None] * fw[:, None, :])
        if series is not None:
            series[:, i + 1] = w
        if normal_rows is not None:
            normal_rows[:, i + 1] = np.einsum("pi,pij->pj", nu[:, i + 1], w)
    out = {"carrier": nu}
    if series is not None:
        out["series"] = series
    if normal_rows is not None:
        out["normal"] = normal_rows
    return out


_ENGINE_MODELS = [
    (geo.spherical_cap(np.pi / 2), (np.pi / 2 - 0.15, 0.0), 2.0),
    (geo.spherical_cap(np.pi / 3), (np.pi / 3 - 0.1, 0.0), 0.5),
    (geo.flat_disk(), (0.9, 0.0), 0.5),
    (geo.half_line(), (0.1,), 0.5),
    (geo.half_space(2), (0.0, 0.1), 0.5),
]


@pytest.mark.parametrize("model, x0, horizon", _ENGINE_MODELS, ids=["hemisphere", "cap-pi3", "disk", "half-line", "half-space-d2"])
def test_engine_matches_node_by_node_engine(model, x0, horizon):
    from rbmlab import stepping
    from rbmlab.damped import _damped_engine
    from rbmlab.grids import driver_block
    from rbmlab.reflected import close_events
    from rbmlab.transport import transport_batch

    grid = TimeGrid(horizon, 400)
    dB = driver_block(grid, model.frame_count, 21, 0, 12)
    x0 = np.array(x0)
    ref = stepping.integrate_reflected_batch(model, x0, dB, grid)
    pen = stepping.integrate_penalized_batch(model, 0.05, x0, dB, grid)
    closes, dur = close_events(ref["R"], grid.times, 0.01)
    flags = closes & (dur >= 0.01)
    assert flags.any() and np.any(np.diff(ref["L"], axis=1) > 0)
    runs = [
        (ref, dict(jump_flags=flags)),
        (pen, dict(c_increments=np.diff(pen["C"], axis=1))),
        (ref, dict(jump_flags=flags, c_increments=np.diff(pen["C"], axis=1))),
    ]
    for run, extra in runs:
        frames = None if model.is_flat_chart else transport_batch(model, run["points"])
        args = (model, run["points"], frames, grid.dt, np.diff(run["L"], axis=1))
        for collect in ("series", "normal"):
            new = _damped_engine(*args, collect=collect, **extra)
            old = _frozen_engine(*args, collect=collect, **extra)
            if collect == "series":  # the normal rows a DampedState reads off the series
                new["normal"] = np.einsum("pni,pnij->pnj", new["carrier"], new["series"])
            assert sorted(new) == sorted(old)
            for key in old:
                assert new[key].shape == old[key].shape
                assert np.max(np.abs(new[key] - old[key])) <= 1e-12, (collect, key)


def test_engine_rejects_unknown_collect():
    from rbmlab.damped import _damped_engine

    model = geo.half_line()
    points = np.full((2, 4, 1), 0.5)
    with pytest.raises(ValueError, match="unknown collect 'norm'"):
        _damped_engine(model, points, None, 0.1, np.zeros((2, 3)), collect="norm")


@pytest.mark.parametrize("model, x0, horizon", _ENGINE_MODELS, ids=["hemisphere", "cap-pi3", "disk", "half-line", "half-space-d2"])
def test_engine_reductions_match_the_series_bit_for_bit(model, x0, horizon):
    """The reduced collect modes, one pass over every level, give the bits
    that the harness used to compute from each level's stored series."""
    from rbmlab import damped, stepping
    from rbmlab.damped import _damped_engine
    from rbmlab.grids import driver_block
    from rbmlab.reflected import close_events
    from rbmlab.transport import transport_batch

    grid = TimeGrid(horizon, 3 * damped._NODE_BLOCK + 5)  # blocks, and a short last one
    dB = driver_block(grid, model.frame_count, 23, 0, 10)
    x0 = np.array(x0)
    ref = stepping.integrate_reflected_batch(model, x0, dB, grid)
    closes, dur = close_events(ref["R"], grid.times, 0.01)
    levels = [closes & (dur >= eps) for eps in (0.05, 0.02, 0.01, 0.0)]
    assert levels[-1].any()
    frames = None if model.is_flat_chart else transport_batch(model, ref["points"])
    args = (model, ref["points"], frames, grid.dt, np.diff(ref["L"], axis=1))
    series = [_damped_engine(*args, jump_flags=flags, collect="series")["series"] for flags in levels]

    cauchy = _damped_engine(*args, jump_flags=levels, collect="cauchy")["cauchy"]
    for k in range(len(levels) - 1):
        diff = series[k] - series[k + 1]
        assert np.array_equal(cauchy[:, k], np.sqrt(np.sum(diff * diff, axis=(2, 3))).max(axis=1))

    pen = stepping.integrate_penalized_batch(model, 0.05, x0, dB, grid)
    frames = None if model.is_flat_chart else transport_batch(model, pen["points"])
    dL = np.diff(pen["L"], axis=1)
    args = (model, pen["points"], frames, grid.dt, dL)
    kw = dict(c_increments=np.diff(pen["C"], axis=1))
    series = _damped_engine(*args, collect="series", **kw)["series"]
    norm2 = np.sum(series * series, axis=(2, 3))
    log_bound = np.zeros_like(pen["L"])
    kappa = geo._level_curvature(model, pen["points"][:, :-1])
    np.cumsum(-1.0 * grid.dt - 2.0 * kappa * dL, axis=1, out=log_bound[:, 1:])
    bound = _damped_engine(*args, collect="bound", **kw)["bound"]
    # node 0, where |w|^2 = 2 exp(0) on the surfaces, does not count
    assert np.array_equal(bound, (norm2 - 2.0 * np.exp(log_bound))[:, 1:].max(axis=1))


@pytest.mark.parametrize("model, x0, horizon", _ENGINE_MODELS, ids=["hemisphere", "cap-pi3", "disk", "half-line", "half-space-d2"])
def test_engine_continued_over_node_blocks_is_one_call(model, x0, horizon):
    """Calls fed node blocks, each continuing from the state the one before
    left, give one whole-run call's bits: its reductions at the last call,
    and its series and normal rows block by block."""
    from rbmlab import damped, stepping
    from rbmlab.damped import _damped_engine
    from rbmlab.grids import driver_block
    from rbmlab.reflected import close_events
    from rbmlab.transport import transport_batch

    N = 3 * damped._NODE_BLOCK + 5
    grid = TimeGrid(horizon, N)
    dB = driver_block(grid, model.frame_count, 23, 0, 10)
    x0 = np.array(x0)
    ref = stepping.integrate_reflected_batch(model, x0, dB, grid)
    pen = stepping.integrate_penalized_batch(model, 0.05, x0, dB, grid)
    closes, dur = close_events(ref["R"], grid.times, 0.01)
    levels = [closes & (dur >= eps) for eps in (0.05, 0.02, 0.01, 0.0)]
    assert levels[-1].any()
    cases = [
        (ref, dict(jump_flags=levels), "cauchy"),
        (pen, dict(c_increments=np.diff(pen["C"], axis=1)), "bound"),
        (pen, dict(c_increments=np.diff(pen["C"], axis=1)), "series"),
        (ref, dict(jump_flags=levels[1]), "normal"),
    ]
    for run, extra, collect in cases:
        frames = None if model.is_flat_chart else transport_batch(model, run["points"])
        whole = _damped_engine(model, run["points"], frames, grid.dt, np.diff(run["L"], axis=1), collect=collect,
                               **extra)
        # edges off the multiples of _NODE_BLOCK, and a block of one step
        edges = (0, 7, 8, damped._NODE_BLOCK + 9, 2 * damped._NODE_BLOCK + 20, N)
        carry = {}
        for i0, i1 in zip(edges, edges[1:]):
            s = slice(i0, i1 + 1)
            kw = {key: [f[:, s] for f in v] if key == "jump_flags" and isinstance(v, list)
                  else v[:, s] if key == "jump_flags" else v[:, i0:i1] for key, v in extra.items()}
            part = _damped_engine(model, run["points"][:, s], None if frames is None else frames[:, s], grid.dt,
                                  np.diff(run["L"][:, s], axis=1), collect=collect, carry=carry, **kw)
            assert np.array_equal(part["carrier"], whole["carrier"][:, s])
            if collect in ("series", "normal"):
                assert np.array_equal(part[collect], whole[collect][:, s]), (collect, i0)
        if collect in ("cauchy", "bound"):
            assert np.array_equal(part[collect], whole[collect]), collect


def test_engine_rejects_a_level_count_its_collect_cannot_take():
    from rbmlab.damped import _damped_engine

    model = geo.half_line()
    points = np.full((2, 4, 1), 0.5)
    flags = np.zeros((2, 4), dtype=bool)
    with pytest.raises(ValueError, match="at least two levels"):
        _damped_engine(model, points, None, 0.1, np.zeros((2, 3)), jump_flags=[flags], collect="cauchy")
    with pytest.raises(ValueError, match="takes one level"):
        _damped_engine(model, points, None, 0.1, np.zeros((2, 3)), jump_flags=[flags, flags], collect="series")
