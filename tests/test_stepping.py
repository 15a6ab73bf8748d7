"""The drift-implicit collar step and the curved chart step.

``_frozen_penalized_curved`` and ``_frozen_reflected_curved`` are the two
curved-chart integrators, each with its own disk and cap region split, that
``stepping._chart_step`` replaced, pinned bit for bit; the penalized one
moves its collar rows by ``stepping.implicit_step`` and lands an off-collar
row that left the domain at that step's root from its start, as the
integrator does.  Both fold a cap step across the pole, theta < 0, to
(-theta, phi + pi).
"""
from __future__ import annotations

import warnings
from functools import partial

import numpy as np
import pytest

from rbmlab import geometry as geo
from rbmlab import skorohod1d as sk
from rbmlab import stepping
from rbmlab.errors import IntegrationError
from rbmlab.grids import TimeGrid, driver_block, driver_blocks

# -- frozen references --------------------------------------------------------


def _frozen_tanh_drift_magnitude(a, R):
    z = np.asarray(2.0 * np.asarray(R, dtype=float) / a)
    small = z <= 30.0
    zs = np.where(small, z, 1.0)
    direct = np.where(small, 2.0 / (a * np.sinh(zs)), 0.0)
    ez = np.exp(np.where(small, -np.inf, -z))
    tail = (4.0 / a) * ez / (1.0 - ez * ez)
    return np.where(small, direct, tail)


def _frozen_damping_rate(a, R):
    z = np.asarray(2.0 * np.asarray(R, dtype=float) / a)
    small = z <= 30.0
    zs = np.where(small, z, 1.0)
    direct = np.where(small, (4.0 / a**2) * np.cosh(zs) / np.sinh(zs) ** 2, 0.0)
    ez = np.exp(np.where(small, -np.inf, -z))
    tail = (8.0 / a**2) * (ez + ez**3) / (1.0 - ez * ez) ** 2
    return np.where(small, direct, tail)


def _frozen_disk_noise(x, dB, beta_sqrt, comp_sqrt):
    r = np.linalg.norm(x, axis=-1, keepdims=True)
    e_r = np.where(r > 0, x / np.maximum(r, 1e-300), 0.0)
    e_t = np.stack([-e_r[..., 1], e_r[..., 0]], axis=-1)
    collar_part = -e_r * dB[:, 0:1] + e_t * dB[:, 1:2]
    return beta_sqrt[:, None] * collar_part + comp_sqrt[:, None] * dB[:, 2:4]


def _frozen_cap_chart_noise(x, dB, beta_sqrt, comp_sqrt):
    grad = geo.cap_basis(x)  # line for line the removed geometry._cap_gradient_frame
    interior = np.einsum("pkc,pk->pc", grad, dB[:, 2:5])
    collar_part = np.stack([-dB[:, 0], dB[:, 1]], axis=-1)
    return beta_sqrt[:, None] * collar_part + comp_sqrt[:, None] * interior


def _frozen_cap_pole_fold(new):
    over = new[:, 0] < 0
    new[over] = np.column_stack([-new[over, 0], new[over, 1] + np.pi])


def _frozen_step_curved_penalized(model, a, x, dB_i, dt, node, rows, landings):
    R = geo.raw_boundary_distance(model, x)
    delta0 = model.tubular_radius
    collar = R < delta0
    beta = geo.blend(model, R)
    bs, ci = np.sqrt(beta), np.sqrt(1.0 - beta)
    rates = partial(stepping._collar_rates, model)
    new = np.empty_like(x)
    dL = np.zeros(x.shape[0])
    dC = np.zeros(x.shape[0])

    if model.id == geo.FLAT_DISK:
        if collar.any():
            idx = collar
            r = 1.0 - R[idx]
            ang = np.arctan2(x[idx, 1], x[idx, 0]) + dB_i[idx, 1] / r
            R_new, (dl, dc) = stepping.implicit_step(R[idx], dB_i[idx, 0], dt, a, rates, node, rows[idx])
            new[idx, 0] = (1.0 - R_new) * np.cos(ang)
            new[idx, 1] = (1.0 - R_new) * np.sin(ang)
            dL[idx] = dl
            dC[idx] = dc
        out = ~collar
        if out.any():
            mag, damp = stepping._tanh_rates(a, R[out])
            noise = _frozen_disk_noise(x[out], dB_i[out], bs[out], ci[out])
            r = np.linalg.norm(x[out], axis=-1, keepdims=True)
            e_r = np.where(r > 0, x[out] / np.maximum(r, 1e-300), 0.0)
            new[out] = x[out] + noise - (mag * dt)[:, None] * e_r
            dL[out] = mag * dt
            dC[out] = damp * dt
    else:
        theta = x[:, 0]
        near = theta >= model.theta0 - 2.0 * delta0
        both = collar & near
        if both.any():
            idx = both
            R_new, (dl, dc) = stepping.implicit_step(R[idx], dB_i[idx, 0], dt, a, rates, node, rows[idx])
            new[idx, 0] = model.theta0 - R_new
            new[idx, 1] = x[idx, 1] + dB_i[idx, 1] / np.sin(theta[idx])
            dL[idx] = dl
            dC[idx] = dc
        mid = near & ~collar
        if mid.any():
            mag, damp = stepping._tanh_rates(a, R[mid])
            noise = _frozen_cap_chart_noise(x[mid], dB_i[mid], bs[mid], ci[mid])
            cot = 1.0 / np.tan(theta[mid])
            new[mid, 0] = theta[mid] + noise[:, 0] + 0.5 * cot * dt - mag * dt
            new[mid, 1] = x[mid, 1] + noise[:, 1] / np.sin(theta[mid])
            dL[mid] = mag * dt
            dC[mid] = damp * dt
        far = ~near
        if far.any():
            p = geo.cap_to_ambient(x[far])
            dBv = dB_i[far, 2:5]
            noise = dBv - p * np.sum(p * dBv, axis=-1, keepdims=True)
            mag, damp = stepping._tanh_rates(a, R[far])
            e_theta = geo.cap_basis(x[far])[..., 0]
            prop = p + noise - p * dt - (mag * dt)[:, None] * e_theta
            prop /= np.linalg.norm(prop, axis=-1, keepdims=True)
            new[far] = geo.cap_from_ambient(prop)
            dL[far] = mag * dt
            dC[far] = damp * dt
        _frozen_cap_pole_fold(new)

    R_land = geo.raw_boundary_distance(model, new)
    out = R_land <= 0
    if out.any():
        landings.append(int(out.sum()))
        r, (dl, dc) = stepping.implicit_step(R[out], R_land[out] - R[out], dt, a, rates, node, rows[out])
        if model.id == geo.FLAT_DISK:
            ray = new[out] / np.linalg.norm(new[out], axis=-1, keepdims=True)
            new[out] = (1.0 - r)[:, None] * ray
        else:
            new[out, 0] = model.theta0 - r
        dL[out] = dl
        dC[out] = dc
    return new, dL, dC


def _frozen_penalized_curved(model, a, x0, dB, grid, landings):
    P, N, _ = dB.shape
    x = np.tile(np.asarray(x0, dtype=float), (P, 1))
    out = {key: np.zeros((P, N + 1)) for key in ("R", "L", "C")}
    out["points"] = np.empty((P, N + 1, 2))
    out["points"][:, 0] = x
    out["R"][:, 0] = geo.boundary_distance(model, x[0])
    rows = np.arange(P)
    for i in range(N):
        x, dL, dC = _frozen_step_curved_penalized(model, a, x, dB[:, i], grid.dt, i, rows, landings)
        out["points"][:, i + 1] = x
        out["R"][:, i + 1] = geo.raw_boundary_distance(model, x)
        out["L"][:, i + 1] = out["L"][:, i] + dL
        out["C"][:, i + 1] = out["C"][:, i] + dC
    return out


def _frozen_reflected_curved(model, x0, dB, grid):
    P, N, _ = dB.shape
    dt, delta0 = grid.dt, model.tubular_radius
    x = np.tile(np.asarray(x0, dtype=float), (P, 1))
    res = {"points": np.empty((P, N + 1, 2)), "R": np.empty((P, N + 1)), "L": np.zeros((P, N + 1))}
    res["points"][:, 0] = x
    res["R"][:, 0] = geo.boundary_distance(model, x[0])
    for i in range(N):
        R = geo.raw_boundary_distance(model, x)
        collar = R < delta0
        beta = geo.blend(model, R)
        bs, ci = np.sqrt(beta), np.sqrt(1.0 - beta)
        new = np.empty_like(x)
        if model.id == geo.FLAT_DISK:
            if collar.any():
                idx = collar
                r = 1.0 - R[idx]
                ang = np.arctan2(x[idx, 1], x[idx, 0]) + dB[idx, i, 1] / r
                R_prop = R[idx] + dB[idx, i, 0] + 0.5 * geo.laplacian_R_of_R(model, R[idx]) * dt
                new[idx, 0] = (1.0 - R_prop) * np.cos(ang)
                new[idx, 1] = (1.0 - R_prop) * np.sin(ang)
            out = ~collar
            if out.any():
                new[out] = x[out] + _frozen_disk_noise(x[out], dB[out, i], bs[out], ci[out])
        else:
            theta = x[:, 0]
            near = theta >= model.theta0 - 2.0 * delta0
            both = collar & near
            if both.any():
                idx = both
                R_prop = R[idx] + dB[idx, i, 0] + 0.5 * geo.laplacian_R_of_R(model, R[idx]) * dt
                new[idx, 0] = model.theta0 - R_prop
                new[idx, 1] = x[idx, 1] + dB[idx, i, 1] / np.sin(theta[idx])
            mid = near & ~collar
            if mid.any():
                noise = _frozen_cap_chart_noise(x[mid], dB[mid, i], bs[mid], ci[mid])
                cot = 1.0 / np.tan(theta[mid])
                new[mid, 0] = theta[mid] + noise[:, 0] + 0.5 * cot * dt
                new[mid, 1] = x[mid, 1] + noise[:, 1] / np.sin(theta[mid])
            far = ~near
            if far.any():
                p = geo.cap_to_ambient(x[far])
                dBv = dB[far, i, 2:5]
                noise = dBv - p * np.sum(p * dBv, axis=-1, keepdims=True)
                prop = p + noise - p * dt
                prop /= np.linalg.norm(prop, axis=-1, keepdims=True)
                new[far] = geo.cap_from_ambient(prop)
            _frozen_cap_pole_fold(new)
        R_new = geo.raw_boundary_distance(model, new)
        new, R_new, push = stepping._project_to_domain(model, new, R_new)
        x = new
        res["points"][:, i + 1] = x
        res["R"][:, i + 1] = R_new
        res["L"][:, i + 1] = res["L"][:, i] + push
    return res


def _assert_same(new, old):
    for x, y in zip(new, old):
        assert np.array_equal(x, y)


# -- the drift-implicit step --------------------------------------------------


def _random_steps(R_max, n, seed):
    """States from deep in the boundary layer to R_max, increments up to
    several sqrt(dt) either way, and a from well below sqrt(dt) to above it."""
    rng = np.random.default_rng(seed)
    dt = 1e-3
    R0 = R_max * (1e-9 + rng.uniform(0.0, 1.0, n) ** 3)
    w = np.sqrt(dt) * rng.standard_normal(n) * rng.uniform(0.0, 3.0, n)
    a = 10.0 ** rng.uniform(-3.5, -0.5, n)
    return R0, w, dt, a


def _chart_end(model):
    """Boundary distance of the disk's centre or the cap's pole."""
    return 1.0 if model.id == geo.FLAT_DISK else model.theta0


def _landing_steps(model, n, seed, dt):
    """Off-collar states from the collar's edge to just short of the centre
    or the pole, landings y = R0 + w <= 0 up to several sqrt(dt) outside the
    domain, and a as in _random_steps."""
    rng = np.random.default_rng(seed)
    d0 = model.tubular_radius
    R0 = d0 + (_chart_end(model) - d0) * (1.0 - 1e-9) * rng.uniform(0.0, 1.0, n)
    y = -np.sqrt(dt) * np.abs(rng.standard_normal(n)) * rng.uniform(0.0, 3.0, n)
    a = 10.0 ** rng.uniform(-3.5, -0.5, n)
    return R0, y - R0, dt, a


_CAP = geo.spherical_cap(np.pi / 3)


@pytest.mark.parametrize(
    "model,landing",
    [(geo.half_line(), False), (geo.flat_disk(), False), (_CAP, False), (None, False),
     (geo.flat_disk(), True), (_CAP, True)],
    ids=["half-line", "disk", "cap", "survival", "disk-landing", "cap-landing"],
)
def test_implicit_root_residual(model, landing):
    # the root r > 0 of r - dt b(r) = R0 + w: for the collar up to a few
    # roundings of that sum, with its increments the rates at the root to
    # the solver's tolerance; for the survival drift (no increments) and for
    # the landing of an off-collar curved step that left the domain (y <= 0,
    # on fine to coarse grids) within 1e-11 r
    if model is None:
        rates = sk._survival_rates
        cases = [_random_steps(1.0, 20_000, 4)]
    elif landing:
        rates = partial(stepping._collar_rates, model)
        cases = [_landing_steps(model, 20_000, 4, dt) for dt in (1e-3, 0.025, 0.4)]
    else:
        rates = partial(stepping._collar_rates, model)
        cases = [_random_steps(model.tubular_radius, 20_000, 4)]
    for R0, w, dt, a in cases:
        R, incs = stepping.implicit_step(R0, w, dt, a, rates)
        assert np.all(R > 0)
        y = R0 + w
        drift, slope, *vals = rates(a, R)
        residual = R - dt * drift - y
        if model is None or landing:
            assert np.all(np.abs(residual / (1.0 - dt * slope)) <= 1e-11 * R)
        else:
            assert np.all(np.abs(residual) <= 8 * np.finfo(float).eps * (np.abs(R) + np.abs(y) + dt * np.abs(drift)))
        if landing:
            # below the zero of the drift, so inside the chart
            assert np.all(drift > 0) and np.all(R < _chart_end(model))
        assert len(incs) == len(vals)
        for inc, v in zip(incs, vals):
            assert np.allclose(inc, v * dt, rtol=1e-7, atol=0)
        # the same rows one by one: no row depends on its batch-mates
        for j in range(0, R.size, 997):
            alone, alone_incs = stepping.implicit_step(R0[j : j + 1], w[j : j + 1], dt, a[j : j + 1], rates)
            assert alone[0] == R[j]
            assert [v[0] for v in alone_incs] == [v[j] for v in incs]


def _rounds(R0, w, dt, a, rates):
    """The Newton rounds of one implicit_step call: its rates evaluations."""
    calls = []
    stepping.implicit_step(R0, w, dt, a, lambda a, r: calls.append(r.size) or rates(a, r))
    return len(calls)


def test_rows_step_as_their_one_row_calls_with_a_float():
    # a batch whose rows carry their a as per-row constants (an a-grid run)
    # gives each row the bits of its one-row call with a float a, also where
    # some rows leave the iteration in round 1 and others need 5 or more;
    # and rows that all hold one value of a step as that float does
    rates, dt = partial(stepping._collar_rates, geo.half_line()), 5e-4
    rng = np.random.default_rng(7)
    R0 = np.concatenate([[2.0, 0.3], 10.0 ** rng.uniform(-6, -1, 200)])
    w = np.sqrt(dt) * rng.standard_normal(R0.size)
    a = 10.0 ** rng.uniform(-2.5, -1.5, R0.size)
    rounds = np.array([_rounds(R0[j : j + 1], w[j : j + 1], dt, float(a[j]), rates) for j in range(R0.size)])
    assert (rounds == 1).any() and (rounds >= 5).any()
    R, incs = stepping.implicit_step(R0, w, dt, stepping._tanh_constants(a), rates)
    for j in range(R0.size):
        alone, alone_incs = stepping.implicit_step(R0[j : j + 1], w[j : j + 1], dt, float(a[j]), rates)
        assert alone[0] == R[j]
        assert [v[0] for v in alone_incs] == [v[j] for v in incs]
    R, incs = stepping.implicit_step(R0, w, dt, 0.00625, rates)
    a_rows = np.full(R0.size, 0.00625)
    for a_batch in (a_rows, stepping._tanh_constants(a_rows)):
        R_rows, incs_rows = stepping.implicit_step(R0, w, dt, a_batch, rates)
        assert np.array_equal(R_rows, R)
        assert all(np.array_equal(x, y) for x, y in zip(incs_rows, incs))


def _landed_rows(monkeypatch, model):
    """Spy on stepping.implicit_step: the batch rows it is handed off the
    collar, which only the landing of a curved step that left the domain
    does."""
    landed = set()
    step = stepping.implicit_step

    def spy(R0, w, dt, a, rates, node=None, rows=None):
        landed.update(np.asarray(rows)[np.asarray(R0) >= model.tubular_radius].tolist())
        return step(R0, w, dt, a, rates, node, rows)

    monkeypatch.setattr(stepping, "implicit_step", spy)
    return landed


@pytest.mark.parametrize(
    "model,grid,x0,a_grid,paths,coarse",
    [
        (geo.flat_disk(), TimeGrid(0.1, 200), (0.5, 0.0), (0.1, 0.0125), 60, False),
        (_CAP, TimeGrid(0.1, 200), (np.pi / 3 - 0.15, 0.0), (0.05, 0.0125), 60, False),
        (geo.flat_disk(), TimeGrid(1.0, 40), (0.2, 0.1), (0.2, 0.05), 60, True),
        (_CAP, TimeGrid(1.0, 40), (0.3, 0.0), (0.2, 0.05), 60, True),
        (geo.flat_disk(), TimeGrid(4.0, 10), (0.0, 0.0), (0.3, 0.01), 2000, True),
        (_CAP, TimeGrid(4.0, 10), (0.0, 0.0), (0.3, 0.01), 2000, True),
    ],
    ids=["disk", "cap", "disk-coarse", "cap-coarse", "disk-centre", "cap-pole"],
)
def test_curved_integrators_match_frozen_region_splits(model, grid, x0, a_grid, paths, coarse):
    # the coarse grids push off-collar steps out of the domain, so the
    # penalized step lands them at the implicit root, and on the cap they
    # reach the far region; from the disk's centre or the cap's pole a row
    # lands where 1 / (1 - R) or 1 / sin(theta) has no value at its start
    dB = driver_block(grid, model.frame_count, seed=6, first_path=0, n_paths=paths)
    new = stepping.integrate_reflected_batch(model, x0, dB, grid)
    old = _frozen_reflected_curved(model, x0, dB, grid)
    assert new.keys() == old.keys()
    _assert_same([new[k] for k in old], [old[k] for k in old])
    assert old["L"][:, -1].max() > 0
    assert np.all((old["R"] >= 0) & (old["R"] <= _chart_end(model)))
    landings = []
    for a in a_grid:
        new = stepping.integrate_penalized_batch(model, a, x0, dB, grid)
        old = _frozen_penalized_curved(model, a, x0, dB, grid, landings)
        assert new.keys() == old.keys()
        _assert_same([new[k] for k in old], [old[k] for k in old])
        assert np.all((old["R"] > 0) & (old["R"] <= _chart_end(model)))
        if model.id == geo.SPHERICAL_CAP:
            pts = old["points"][:, :-1].reshape(-1, 2)
            edge, mid, far = stepping._regions(model, pts, geo.raw_boundary_distance(model, pts))
            assert edge.size and mid.size
            assert far.size or not coarse
    assert (len(landings) > 0) == coarse


def test_cap_steps_across_the_pole_stay_in_the_chart():
    # sqrt(dt) = 0.1: a mid-region step can cross the pole to theta < 0, the
    # point (-theta, phi + pi), whose boundary distance is at most theta0
    grid = TimeGrid(1.0, 100)
    dB = driver_block(grid, _CAP.frame_count, seed=6, first_path=0, n_paths=2000)
    for x0 in ((0.0, 0.0), (np.pi / 3 - 0.15, 0.0)):
        runs = (stepping.integrate_penalized_batch(_CAP, 0.1, x0, dB, grid),
                stepping.integrate_reflected_batch(_CAP, x0, dB, grid))
        for run in runs:
            assert run["R"].max() <= _CAP.theta0
            assert np.array_equal(run["R"], geo.raw_boundary_distance(_CAP, run["points"]))


@pytest.mark.parametrize(
    "model,x0", [(geo.flat_disk(), (0.5, 0.0)), (_CAP, (np.pi / 3 - 0.15, 0.0))], ids=["disk", "cap"]
)
def test_reflected_curved_paths_do_not_depend_on_their_chunk(model, x0):
    grid, m = TimeGrid(0.5, 250), model.frame_count
    batch = stepping.integrate_reflected_batch(model, x0, driver_block(grid, m, 12, 0, 60), grid)
    assert (batch["L"][:, -1] > 0).any()
    for row in (0, 17, 59):
        alone = stepping.integrate_reflected_batch(model, x0, driver_block(grid, m, 12, row, 1), grid)
        for key in batch:
            assert np.array_equal(alone[key][0], batch[key][row])


_STIFF, _COARSE = (TimeGrid(0.5, 250), 0.01, 12, (0, 17, 59)), (TimeGrid(1.0, 40), 0.05, 6)


@pytest.mark.parametrize(
    "model,x0,grid,a,seed,rows",
    [
        (geo.half_line(), (0.02,), *_STIFF),
        (geo.flat_disk(), (0.98, 0.0), *_STIFF),
        (_CAP, (np.pi / 3 - 0.02, 0.0), *_STIFF),
        (geo.flat_disk(), (0.2, 0.1), *_COARSE, (6, 36, 49, 55)),
        (_CAP, (0.3, 0.0), *_COARSE, (59,)),
    ],
    ids=["half-line", "disk", "cap", "disk-coarse", "cap-coarse"],
)
def test_penalized_paths_do_not_depend_on_their_chunk(monkeypatch, model, x0, grid, a, seed, rows):
    # stiff: a/sqrt(dt) = 0.22, a stiff boundary layer; coarse: each checked
    # row takes an off-collar step out of the domain and lands at the
    # implicit root
    m, coarse = model.frame_count, grid.steps == 40
    landed = _landed_rows(monkeypatch, model) if coarse else set()
    batch = stepping.integrate_penalized_batch(model, a, x0, driver_block(grid, m, seed, 0, 60), grid)
    if coarse:
        assert landed.issuperset(rows)
    else:
        assert (batch["L"][:, -1] > 1.0).any()
    for row in rows:
        alone = stepping.integrate_penalized_batch(model, a, x0, driver_block(grid, m, seed, row, 1), grid)
        for key in batch:
            assert np.array_equal(alone[key][0], batch[key][row])


def test_survival_paths_do_not_depend_on_their_chunk():
    grid, a = TimeGrid(0.5, 250), 0.01
    batch = sk.penalized_paths_1d(a, 0.02, driver_block(grid, 1, 12, 0, 60)[:, :, 0], grid.dt)
    for row in (0, 17, 59):
        alone = sk.penalized_paths_1d(a, 0.02, driver_block(grid, 1, 12, row, 1)[:, :, 0], grid.dt)
        assert np.array_equal(alone[0], batch[row])


@pytest.mark.parametrize(
    "model,x0,a,dt",
    [
        (geo.half_line(), (0.01,), 0.003125, 1e-3),
        (geo.half_line(), (0.01,), 0.0016, 1e-4),
        (geo.flat_disk(), (0.99, 0.0), 0.003, 1e-3),
        (_CAP, (np.pi / 3 - 0.01, 0.0), 0.003, 1e-3),
    ],
    ids=["half-line", "half-line-fine", "disk", "cap"],
)
def test_small_a_runs_with_positive_R(model, x0, a, dt):
    # a about sqrt(dt) / 10, where the guarded sub-step walk ran out of its budget
    grid = TimeGrid(1000 * dt, 1000)
    dB = driver_block(grid, model.frame_count, seed=8, first_path=0, n_paths=100)
    out = stepping.integrate_penalized_batch(model, a, x0, dB, grid)
    assert np.all(out["R"] > 0)
    assert np.all(np.isfinite(out["L"])) and out["L"][:, -1].min() > 0
    if model.id == geo.HALF_LINE:
        X = sk.penalized_paths_1d(a, x0[0], dB[:, :, 0], dt)
        assert np.all(X > 0)


# -- rates, warnings, empty batches and errors --------------------------------


def test_stiff_halfline_step_emits_no_warning():
    # far from the boundary both drifts are subnormal (2R/a = 736 for the
    # tanh drift, x^2/2a = 720 for the survival drift); near it the step
    # solves for a root a few a from the boundary
    a, dt = 0.00625, 5e-4
    R = np.array([2.3, 0.5, 0.01, 1e-4])
    w = np.array([0.02, -0.01, -0.02, 0.01])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        R_new, (dL, dC) = stepping.implicit_step(R, w, dt, a, partial(stepping._collar_rates, geo.half_line()))
        X = sk.penalized_paths_1d(a, 3.0, w[None, :], dt)
    assert np.all(R_new > 0) and np.all(dL >= 0) and np.all(dC >= 0)
    assert np.all(X > 0)


def test_tanh_rates_of_mixed_rows_are_their_one_row_calls():
    # rows on both sides of z = 2R/a = 30, where the rates switch from one
    # sinh to one exp(-z)
    R = np.tile([1e-3, 0.1, 15 * 0.0125, 15 * 0.0125 * (1 + 1e-12), 0.5, 1.5, 3.0], 2)
    a_rows = np.repeat([0.0125, 0.1], 7)
    z = 2.0 * R / a_rows
    assert (z <= 30).any() and (z > 30).any() and (z[:7] > 30).any()
    cases = [(0.0125, [0.0125] * R.size), (stepping._tanh_constants(a_rows), a_rows), (a_rows, a_rows)]
    for a_batch, a_one in cases:
        mag, damp = stepping._tanh_rates(a_batch, R)
        for j in range(R.size):
            for R_j in (R[j : j + 1], R[j]):
                one = stepping._tanh_rates(float(a_one[j]), R_j)
                assert np.reshape(one[0], -1)[0] == mag[j] and np.reshape(one[1], -1)[0] == damp[j], (j, a_batch)


def test_tanh_rates_share_one_evaluation_with_the_public_functions():
    a = 0.0125
    R = np.array([1e-300, 1e-6, 0.01, 15 * a, 15 * a * (1 + 1e-12), 0.5, 3.0])
    with np.errstate(divide="ignore"):  # sinh^2 underflows at R = 1e-300
        mag, damp = stepping._tanh_rates(a, R)
        assert np.array_equal(mag, _frozen_tanh_drift_magnitude(a, R))
        assert np.array_equal(damp, _frozen_damping_rate(a, R))
    R = R[1:]
    mag, damp = stepping._tanh_rates(a, R)
    assert np.array_equal(stepping.tanh_drift_magnitude(a, R), mag)
    assert np.array_equal(stepping.damping_rate(a, R), damp)
    assert stepping.damping_rate(a, 0.01) == damp[1]


def test_squares_of_a_grid_match_python_squares():
    # a grid call squares a per row, a one-a call a Python float (libm pow,
    # which the array square a*a misses in the last bit for a few floats)
    a = np.concatenate([np.random.default_rng(5).uniform(1e-4, 1.0, 20_000), [0.05, 0.0125, 0.00625]])
    assert np.array_equal(stepping._squares(a), [v**2 for v in a.tolist()])
    assert stepping._squares(0.0125) == 0.0125**2


def test_empty_batch():
    grid = TimeGrid(1.0, 10)
    for model, x0 in ((geo.half_line(), [0.5]), (geo.flat_disk(), [0.5, 0.0])):
        out = stepping.integrate_penalized_batch(model, 0.1, x0, np.zeros((0, 10, model.frame_count)), grid)
        assert out["R"].shape == out["L"].shape == out["C"].shape == (0, 11)
    assert sk.penalized_paths_1d(0.1, 0.5, np.zeros((0, 10)), 0.1).shape == (0, 11)


def test_integrate_penalized_batch_error_names_path_and_state():
    # a non-finite increment has no implicit root: the step raises, naming
    # the node, a, the row and the row's state at the start of the step
    grid, a, node = TimeGrid(1.0, 1000), 0.0015, 400
    for model, x0 in ((geo.half_line(), [0.01]), (geo.flat_disk(), [0.99, 0.0])):
        dB = driver_block(grid, model.frame_count, seed=8, first_path=0, n_paths=6)
        clean = stepping.integrate_penalized_batch(model, a, x0, dB, grid)
        path = int(np.argmin(clean["R"][:, node]))
        assert clean["R"][path, node] < model.tubular_radius
        dB[path, node, 0] = np.nan
        with pytest.raises(IntegrationError) as exc:
            stepping.integrate_penalized_batch(model, a, x0, dB, grid)
        err = exc.value
        assert (err.node_index, err.a, err.path_index) == (node, a, path)
        for field in ("node=", "a=", "path=", "R="):
            assert field in str(err)
        assert err.boundary_distance == clean["R"][path, node]


@pytest.mark.parametrize(
    "model,theta", [(geo.flat_disk(), None), (geo.spherical_cap(np.pi / 3), 0.2)], ids=["disk", "cap"]
)
def test_curved_error_maps_collar_subset_to_batch_row(model, theta):
    # rows 0 and 1 lie off the collar, so the failing path is entry 0 of the
    # collar subset but row 2 of the batch
    if theta is None:
        x = np.array([[0.0, 0.0], [0.0, 0.0], [0.999, 0.0]])
    else:
        x = np.array([[theta, 0.0], [theta, 0.0], [model.theta0 - 0.001, 0.0]])
    dB = np.zeros((3, model.frame_count))
    dB[:, 0] = -0.03
    dB[2, 0] = np.nan
    R, consts = geo.raw_boundary_distance(model, x), stepping._tanh_constants(np.full(3, 0.0005))
    with pytest.raises(IntegrationError, match="non-finite increment") as exc:
        stepping._step_curved_penalized(model, consts, x, R, dB, 1e-3, 0, np.arange(3))
    assert exc.value.path_index == 2 and exc.value.a == 0.0005
    assert exc.value.boundary_distance == R[2]
    dB[2, 0] = -0.03  # a << sqrt(dt) and a step far across the boundary: the root is inside
    new, R_new, dL, dC = stepping._step_curved_penalized(model, consts, x, R, dB, 1e-3, 0, np.arange(3))
    assert np.array_equal(R_new, geo.raw_boundary_distance(model, new))
    assert R_new[2] > 0 and dL[2] > 0.02


# -- the a-grid stepped as one batch ------------------------------------------


def _assert_grid_matches_one_a(model, a_grid, x0, dB, grid):
    stacked = stepping.integrate_penalized_grid(model, a_grid, x0, dB, grid)
    for k, a in enumerate(a_grid):
        alone = stepping.integrate_penalized_batch(model, a, x0, dB, grid)
        assert stacked.keys() == alone.keys()
        for key in alone:
            assert stacked[key].shape == (len(a_grid), *alone[key].shape)
            assert np.array_equal(stacked[key][k], alone[key])
    return stacked


def test_halfline_grid_matches_one_a_runs():
    # a/sqrt(dt) from 2.2 down to 0.28: every a solves near the boundary,
    # each with its own number of Newton iterates
    a_grid, grid = (0.05, 0.025, 0.0125, 0.00625), TimeGrid(0.1, 200)
    dB = driver_block(grid, 1, seed=44, first_path=0, n_paths=16)
    stacked = _assert_grid_matches_one_a(geo.half_line(), a_grid, [0.02], dB, grid)
    assert stacked["L"][-1, :, -1].max() > 0.01  # the paths did work the boundary layer


@pytest.mark.parametrize(
    "model,grid,x0,a_grid,coarse",
    [
        (geo.flat_disk(), TimeGrid(0.1, 200), (0.98, 0.0), (0.1, 0.05, 0.025, 0.0125), False),
        (_CAP, TimeGrid(0.1, 200), (np.pi / 3 - 0.02, 0.0), (0.1, 0.05, 0.025, 0.0125), False),
        (geo.flat_disk(), TimeGrid(1.0, 40), (0.2, 0.1), (0.2, 0.1, 0.05), True),
        (_CAP, TimeGrid(1.0, 40), (0.3, 0.0), (0.2, 0.1, 0.05), True),
    ],
    ids=["disk", "cap", "disk-coarse", "cap-coarse"],
)
def test_curved_grid_matches_one_a_runs(monkeypatch, model, grid, x0, a_grid, coarse):
    dB = driver_block(grid, model.frame_count, seed=6, first_path=0, n_paths=60)
    landed = _landed_rows(monkeypatch, model)
    stacked = _assert_grid_matches_one_a(model, a_grid, x0, dB, grid)
    pts = stacked["points"][:, :, :-1].reshape(-1, 2)
    edge, mid, far = stepping._regions(model, pts, geo.raw_boundary_distance(model, pts))
    assert edge.size and mid.size
    assert bool(landed) == coarse
    if coarse:  # the cap reaches its far region
        assert far.size or model.id == geo.FLAT_DISK


def test_grid_error_names_the_rows_own_a_and_path(monkeypatch):
    # with at most 9 Newton iterates a step, only the smallest a runs out
    # (a << sqrt(dt)), in the middle of the grid, so the failing row is
    # neither the first row nor of the first a
    monkeypatch.setattr(stepping, "_MAX_NEWTON", 9)
    grid = TimeGrid(1.0, 1000)
    for model, x0 in ((geo.half_line(), [0.01]), (geo.flat_disk(), [0.99, 0.0])):
        dB = driver_block(grid, model.frame_count, seed=8, first_path=0, n_paths=6)
        with pytest.raises(IntegrationError) as alone:
            stepping.integrate_penalized_batch(model, 0.0015, x0, dB, grid)
        with pytest.raises(IntegrationError) as stacked:
            stepping.integrate_penalized_grid(model, (0.1, 0.0015, 0.05), x0, dB, grid)
        assert stacked.value.a == 0.0015
        assert str(stacked.value) == str(alone.value)
        assert 0 <= stacked.value.path_index < 6
        stepping.integrate_penalized_grid(model, (0.1, 0.05), x0, dB, grid)


def test_grid_rejects_bad_a():
    grid, dB = TimeGrid(1.0, 10), np.zeros((2, 10, 1))
    for a_grid in ((), (0.1, 0.0)):
        with pytest.raises(ValueError):
            stepping.integrate_penalized_grid(geo.half_line(), a_grid, [0.5], dB, grid)
    with pytest.raises(ValueError):
        sk.penalized_paths_1d_grid((0.1, -0.1), 0.5, dB[..., 0], 0.1)


# -- node blocks --------------------------------------------------------------


@pytest.mark.parametrize(
    "model,x0,steps",
    [
        (geo.half_line(), (0.05,), 600),
        (geo.half_space(3), (0.3, -0.2, 0.05), 300),
        (geo.flat_disk(), (0.9, 0.0), 200),
        (_CAP, (np.pi / 3 - 0.05, 0.0), 200),
        (geo.flat_disk(), (0.2, 0.1), 40),  # a coarse grid: rows land at the implicit root
    ],
    ids=["half-line", "half-space-d3", "disk", "cap", "disk-coarse"],
)
def test_node_blocks_are_the_stored_runs(model, x0, steps):
    grid = TimeGrid(0.2 if steps > 40 else 1.0, steps)
    a_grid = (0.1, 0.025, 0.0125)
    dB = driver_block(grid, model.frame_count, seed=31, first_path=0, n_paths=9)
    stored = (stepping.integrate_penalized_grid(model, a_grid, x0, dB, grid),
              stepping.integrate_reflected_batch(model, x0, dB, grid))
    block = 64
    # blocks of 64, 10, 64, 10, ... steps: a block shorter than the one before
    # is followed by a longer one
    edges = np.cumsum([0] + [64, 10] * steps)
    edges = np.append(edges[edges < steps], steps)

    def drivers(uneven):
        if uneven:
            return [(int(i0), dB[:, i0:i1]) for i0, i1 in zip(edges[:-1], edges[1:])]
        return driver_blocks(grid, model.frame_count, 31, 0, 9, block)

    for uneven in (False, True):
        for runs, blocks in zip(stored, (stepping._penalized_blocks(model, a_grid, x0, drivers(uneven), grid),
                                         stepping._reflected_blocks(model, x0, drivers(uneven), grid))):
            i0 = 0
            for start, run in blocks:
                # each block starts at the last node of the one before
                assert start == i0 and run.keys() == runs.keys()
                n = run["L"].shape[-1] - 1
                assert 0 < n <= block
                for key, v in runs.items():
                    want = v[..., i0 : i0 + n + 1, :] if key == "points" else v[..., i0 : i0 + n + 1]
                    assert np.array_equal(run[key], want), (uneven, i0, key)
                i0 += n
            assert i0 == steps


def test_node_blocks_no_longer_than_the_first():
    model = geo.flat_disk()
    grid = TimeGrid(1.0, 30)
    dB = driver_block(grid, model.frame_count, seed=31, first_path=0, n_paths=3)
    blocks = [(0, dB[:, :10]), (10, dB[:, 10:30])]
    with pytest.raises(ValueError, match="do not join"):
        list(stepping._reflected_blocks(model, (0.2, 0.1), blocks, grid))
    with pytest.raises(ValueError, match="do not join"):
        list(stepping._penalized_blocks(model, (0.1,), (0.2, 0.1), blocks, grid))


@pytest.mark.parametrize("model,x0", [(geo.half_line(), (0.05,)), (geo.half_space(3), (0.3, -0.2, 0.05))],
                         ids=["half-line", "half-space-d3"])
def test_flat_reflected_paths_are_the_skorohod_map_of_their_driver(model, x0):
    grid = TimeGrid(0.2, 600)
    dB = driver_block(grid, model.frame_count, seed=33, first_path=0, n_paths=5)
    ref = stepping.integrate_reflected_batch(model, x0, dB, grid)
    assert ref["L"][:, -1].max() > 0
    for p in range(5):
        driven = sk.RealPath(grid.times, np.concatenate([[0.0], np.cumsum(dB[p, :, 0])]))
        sol = sk.skorohod_map(x0[-1], driven)
        assert np.array_equal(ref["R"][p], sol.reflected.values)
        assert np.array_equal(ref["points"][p, :, -1], sol.reflected.values)
        assert np.array_equal(ref["L"][p], sol.local_time.values)
        assert np.array_equal(ref["points"][p, 0, :-1], x0[:-1])
        assert np.array_equal(ref["points"][p, 1:, :-1], x0[:-1] + np.cumsum(dB[p, :, 1:], axis=0))
