"""The guarded collar walk and the curved chart step, pinned bit for bit
against the code they replaced.

``_frozen_collar_walk`` and ``_frozen_survival_walk`` are the full-array
walks that ``stepping`` and ``skorohod1d`` each carried before they were
merged into ``stepping.guarded_walk``, kept verbatim (fresh ``guard_stream``
generator per attempt, every path stepped until the slowest finishes) as the
reference the merged walk must reproduce.  ``_frozen_penalized_curved`` and
``_frozen_reflected_curved`` are the two curved-chart integrators, each with
its own disk and cap region split, that ``stepping._chart_step`` replaced.
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
from rbmlab.grids import SeedStreams, TimeGrid, driver_block, guard_stream
from rbmlab.skorohod1d import EulerScheme

# -- frozen reference walks ---------------------------------------------------


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


def _frozen_collar_walk(model, a, R0, w_total, h_total, seed, node, max_substeps=200, max_bisect=20):
    R = np.asarray(R0, dtype=float).copy()
    rem = np.full_like(R, h_total)
    w = np.asarray(w_total, dtype=float).copy()
    L_inc = np.zeros_like(R)
    C_inc = np.zeros_like(R)
    attempt = 0
    for _ in range(max_substeps):
        active = rem > 0
        if not active.any():
            return R, L_inc, C_inc
        mag = _frozen_tanh_drift_magnitude(a, np.maximum(R, 1e-300))
        drift = mag + 0.5 * geo.laplacian_R_of_R(model, np.maximum(R, 0.0))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            h_cap = np.where(np.abs(drift) > 0, 0.5 * R / np.abs(drift), np.inf)
        h = np.minimum(rem, h_cap)
        h = np.maximum(h, rem * 2.0**-max_bisect)
        safe_rem = np.where(rem > 0, rem, 1.0)
        theta = np.where(active, h / safe_rem, 0.0)
        z = guard_stream(seed, node, attempt).standard_normal(R.size)
        attempt += 1
        bridge = theta * w + np.sqrt(np.maximum(theta * (1.0 - theta), 0.0) * rem) * z
        delta = np.where(theta >= 1.0, w, bridge)
        prop = R + drift * h + delta
        bad = (prop <= 0) & active
        level = 0
        while bad.any():
            if level >= max_bisect:
                raise IntegrationError("positivity guard exhausted", node_index=node)
            h = np.where(bad, 0.5 * h, h)
            theta = np.where(active, h / safe_rem, 0.0)
            z = guard_stream(seed, node, attempt).standard_normal(R.size)
            attempt += 1
            bridge = theta * w + np.sqrt(np.maximum(theta * (1.0 - theta), 0.0) * rem) * z
            delta = np.where(bad, np.where(theta >= 1.0, w, bridge), delta)
            prop = np.where(bad, R + drift * h + delta, prop)
            bad = (prop <= 0) & active
            level += 1
        L_inc = np.where(active, L_inc + mag * h, L_inc)
        C_inc = np.where(active, C_inc + _frozen_damping_rate(a, np.maximum(R, 1e-300)) * h, C_inc)
        R = np.where(active, prop, R)
        w = np.where(active, w - delta, w)
        rem = np.where(active, np.maximum(rem - h, 0.0), rem)
    raise IntegrationError("substep budget exhausted", node_index=node)


def _frozen_survival_walk(state, w_total, h_total, a, scheme, node):
    r = state.copy()
    rem = np.full_like(r, h_total)
    w = w_total.copy()
    attempt = 0
    for _ in range(scheme.max_substeps):
        active = rem > 0
        if not active.any():
            return r
        drift = np.zeros_like(r)
        drift[active] = sk.penalized_drift_1d(a, r[active])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            h_cap = np.where(drift > 0, 0.5 * r / drift, np.inf)
        h = np.minimum(rem, h_cap)
        h = np.maximum(h, rem * 2.0**-scheme.max_bisections)
        theta = np.where(active, h / np.where(rem > 0, rem, 1.0), 0.0)
        z = guard_stream(scheme.aux_seed, node, attempt).standard_normal(r.size)
        attempt += 1
        full = theta >= 1.0
        th = np.minimum(theta, 1.0)
        delta = np.where(full, w, th * w + np.sqrt(th * (1.0 - th) * rem) * z)
        prop = r + drift * h + delta
        bad = (prop <= 0) & active
        level = 0
        while bad.any():
            if level >= scheme.max_bisections:
                raise IntegrationError("positivity guard exhausted", node_index=node)
            h = np.where(bad, 0.5 * h, h)
            theta = np.where(active, h / np.where(rem > 0, rem, 1.0), 0.0)
            z = guard_stream(scheme.aux_seed, node, attempt).standard_normal(r.size)
            attempt += 1
            full = theta >= 1.0
            th = np.minimum(theta, 1.0)
            delta_new = np.where(full, w, th * w + np.sqrt(th * (1.0 - th) * rem) * z)
            delta = np.where(bad, delta_new, delta)
            prop = np.where(bad, r + drift * h + delta, prop)
            bad = (prop <= 0) & active
            level += 1
        r = np.where(active, prop, r)
        w = np.where(active, w - delta, w)
        rem = np.where(active, np.maximum(rem - h, 0.0), rem)
    raise IntegrationError("substep budget exhausted", node_index=node)


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


def _frozen_step_curved_penalized(model, a, x, dB_i, dt, streams, node, rows, depth=0, calls=None):
    if calls is not None and depth > 0:
        calls.append(depth)
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
            R_new, (dl, dc) = stepping.guarded_walk(R[idx], dB_i[idx, 0], dt, a, rates, streams, node, rows[idx])
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
            R_new, (dl, dc) = stepping.guarded_walk(R[idx], dB_i[idx, 0], dt, a, rates, streams, node, rows[idx])
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

    bad = geo.raw_boundary_distance(model, new) <= 0
    if bad.any():
        idx = np.nonzero(bad)[0]
        if depth >= 20:
            raise IntegrationError("positivity guard exhausted", node_index=node, a=a,
                                   path_index=int(rows[idx[0]]), boundary_distance=float(R[idx[0]]))
        z = streams.guard(node, 4096 + depth).standard_normal(dB_i.shape)[idx]
        half1 = 0.5 * dB_i[idx] + 0.5 * np.sqrt(dt) * z
        half2 = dB_i[idx] - half1
        x1, dl1, dc1 = _frozen_step_curved_penalized(
            model, a, x[idx], half1, dt / 2, streams, node, rows[idx], depth + 1, calls)
        x2, dl2, dc2 = _frozen_step_curved_penalized(
            model, a, x1, half2, dt / 2, streams, node, rows[idx], depth + 1, calls)
        new[idx] = x2
        dL[idx] = dl1 + dl2
        dC[idx] = dc1 + dc2
    return new, dL, dC


def _frozen_penalized_curved(model, a, x0, dB, grid, aux_seed, calls):
    P, N, _ = dB.shape
    x = np.tile(np.asarray(x0, dtype=float), (P, 1))
    out = {key: np.zeros((P, N + 1)) for key in ("R", "L", "C")}
    out["points"] = np.empty((P, N + 1, 2))
    out["points"][:, 0] = x
    out["R"][:, 0] = geo.boundary_distance(model, x[0])
    streams, rows = SeedStreams(aux_seed), np.arange(P)
    for i in range(N):
        x, dL, dC = _frozen_step_curved_penalized(model, a, x, dB[:, i], grid.dt, streams, i, rows, calls=calls)
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
        R_new = geo.raw_boundary_distance(model, new)
        new, R_new, push = stepping._project_to_domain(model, new, R_new)
        x = new
        res["points"][:, i + 1] = x
        res["R"][:, i + 1] = R_new
        res["L"][:, i + 1] = res["L"][:, i] + push
    return res


def _collar_walk(model, a, R0, w, dt, seed, node, **budgets):
    rates = partial(stepping._collar_rates, model)
    R, (dL, dC) = stepping.guarded_walk(R0, w, dt, a, rates, SeedStreams(seed), node, **budgets)
    return R, dL, dC


def _assert_same(new, old):
    for x, y in zip(new, old):
        assert np.array_equal(x, y)


# -- the merged walk against the frozen ones ----------------------------------


def test_halfline_walk_matches_frozen_along_paths():
    # the stiff point of the benchmark's half-line sweeps: a/sqrt(dt) = 0.28
    a, grid, seed = 0.00625, TimeGrid(0.1, 200), 45
    dB = driver_block(grid, 1, seed=44, first_path=0, n_paths=32)
    out = stepping.integrate_penalized_batch(geo.half_line(), a, [0.02], dB, grid, aux_seed=seed)
    R, L, C = np.full(32, 0.02), np.zeros(32), np.zeros(32)
    for i in range(grid.steps):
        R, dL, dC = _frozen_collar_walk(geo.half_line(), a, R, dB[:, i, 0], grid.dt, seed, i)
        L, C = L + dL, C + dC
        assert np.array_equal(out["R"][:, i + 1], R)
        assert np.array_equal(out["L"][:, i + 1], L)
        assert np.array_equal(out["C"][:, i + 1], C)
    assert L.max() > 0.01  # the paths did work the boundary layer


@pytest.mark.parametrize("model", [geo.flat_disk(), geo.spherical_cap(np.pi / 3)], ids=["disk", "cap"])
def test_collar_subset_matches_frozen(model):
    rng = np.random.default_rng(3)
    a, dt = 0.0125, 1e-4
    R = rng.uniform(0.0, 1.5 * model.tubular_radius, size=250) ** 2 / model.tubular_radius
    w = rng.normal(0.0, np.sqrt(dt), size=250)
    collar = np.flatnonzero(R < model.tubular_radius)
    assert 0 < collar.size < R.size
    for node in (0, 7):
        new = _collar_walk(model, a, R[collar], w[collar], dt, 11, node)
        _assert_same(new, _frozen_collar_walk(model, a, R[collar], w[collar], dt, 11, node))


def test_forced_bisection_matches_frozen():
    model, a, dt = geo.half_line(), 0.05, 5e-4
    R = np.array([0.5, 0.004, 0.3, 0.002])
    w = np.array([0.01, -0.02, -0.35, -0.015])
    # path 2's drift is too weak to stop a full step crossing zero, so the
    # walk must bisect
    with pytest.raises(IntegrationError, match="positivity guard exhausted"):
        _collar_walk(model, a, R, w, dt, 5, 3, max_bisect=0)
    _assert_same(_collar_walk(model, a, R, w, dt, 5, 3), _frozen_collar_walk(model, a, R, w, dt, 5, 3))


@pytest.mark.parametrize("aux_seed", [0, 2**64 + 5])
def test_survival_drift_paths_match_frozen(aux_seed):
    dt = 5e-4
    dW = driver_block(TimeGrid(0.1, 200), 1, seed=42, first_path=0, n_paths=16)[:, :, 0]
    scheme = EulerScheme(aux_seed=aux_seed)
    for a in (0.05, 0.00625):
        X = sk.penalized_paths_1d(a, 0.05, dW, dt, scheme)
        state = np.full(16, 0.05)
        for i in range(dW.shape[1]):
            state = _frozen_survival_walk(state, dW[:, i], dt, a, scheme, i)
            assert np.array_equal(X[:, i + 1], state)


def test_budget_raise_matches_frozen():
    # the old loop raises when its last budgeted sub-step finishes the last
    # path, as it tests for unfinished paths only at the top of a sub-step
    model, a, dt = geo.half_line(), 0.00625, 5e-4
    R, w = np.array([0.3, 0.001]), np.array([0.01, 0.002])
    calls = []

    def counting(a, R):
        calls.append(R.size)
        return stepping._collar_rates(model, a, R)

    stepping.guarded_walk(R, w, dt, a, counting, SeedStreams(1), 0)
    used = len(calls)
    assert used > 2
    for budget in (used - 1, used):
        with pytest.raises(IntegrationError, match="substep budget exhausted"):
            _frozen_collar_walk(model, a, R, w, dt, 1, 0, max_substeps=budget)
        with pytest.raises(IntegrationError, match="substep budget exhausted") as exc:
            _collar_walk(model, a, R, w, dt, 1, 0, max_substeps=budget)
        assert (exc.value.node_index, exc.value.a, exc.value.path_index) == (0, a, 1)
        assert exc.value.boundary_distance == 0.001
    _assert_same(
        _collar_walk(model, a, R, w, dt, 1, 0, max_substeps=used + 1),
        _frozen_collar_walk(model, a, R, w, dt, 1, 0, max_substeps=used + 1),
    )


_CAP = geo.spherical_cap(np.pi / 3)


@pytest.mark.parametrize(
    "model,grid,x0,a_grid,coarse",
    [
        (geo.flat_disk(), TimeGrid(0.1, 200), (0.5, 0.0), (0.1, 0.0125), False),
        (_CAP, TimeGrid(0.1, 200), (np.pi / 3 - 0.15, 0.0), (0.05, 0.0125), False),
        (geo.flat_disk(), TimeGrid(1.0, 40), (0.2, 0.1), (0.2, 0.05), True),
        (_CAP, TimeGrid(1.0, 40), (0.3, 0.0), (0.2, 0.05), True),
    ],
    ids=["disk", "cap", "disk-coarse", "cap-coarse"],
)
def test_curved_integrators_match_frozen_region_splits(model, grid, x0, a_grid, coarse):
    # the coarse grids push off-collar steps out of the domain, so the
    # penalized step bisects, and on the cap they reach the far region
    dB = driver_block(grid, model.frame_count, seed=6, first_path=0, n_paths=60)
    new = stepping.integrate_reflected_batch(model, x0, dB, grid)
    old = _frozen_reflected_curved(model, x0, dB, grid)
    assert new.keys() == old.keys()
    _assert_same([new[k] for k in old], [old[k] for k in old])
    assert old["L"][:, -1].max() > 0
    calls = []
    for a in a_grid:
        new = stepping.integrate_penalized_batch(model, a, x0, dB, grid, aux_seed=8)
        old = _frozen_penalized_curved(model, a, x0, dB, grid, 8, calls)
        assert new.keys() == old.keys()
        _assert_same([new[k] for k in old], [old[k] for k in old])
        if model.id == geo.SPHERICAL_CAP:
            pts = old["points"][:, :-1].reshape(-1, 2)
            edge, mid, far = stepping._regions(model, pts, geo.raw_boundary_distance(model, pts))
            assert edge.any() and mid.any()
            assert far.any() or not coarse
    assert (len(calls) > 0) == coarse


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


# -- behaviour the frozen walks did not have ----------------------------------


def test_stiff_halfline_step_emits_no_warning():
    # far from the boundary both drifts are subnormal (2R/a = 736 for the
    # tanh drift, x^2/2a = 720 for the survival drift), where the step cap
    # 0.5 R / |drift| overflows to inf; near it the walk sub-steps
    a, dt = 0.00625, 5e-4
    R = np.array([2.3, 0.5, 0.01, 1e-4])
    w = np.array([0.02, -0.01, -0.02, 0.01])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        R_new, dL, dC = _collar_walk(geo.half_line(), a, R, w, dt, 2, 0)
        X = sk.penalized_paths_1d(a, 3.0, w[None, :], dt)
    assert np.all(R_new > 0) and np.all(dL >= 0) and np.all(dC >= 0)
    assert np.all(X > 0)


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


def test_empty_batch():
    grid = TimeGrid(1.0, 10)
    for model, x0 in ((geo.half_line(), [0.5]), (geo.flat_disk(), [0.5, 0.0])):
        out = stepping.integrate_penalized_batch(model, 0.1, x0, np.zeros((0, 10, model.frame_count)), grid)
        assert out["R"].shape == out["L"].shape == out["C"].shape == (0, 11)
    assert sk.penalized_paths_1d(0.1, 0.5, np.zeros((0, 10)), 0.1).shape == (0, 11)


def test_integrate_penalized_batch_error_names_path_and_state():
    # a << sqrt(dt): the walk runs out of sub-steps near the boundary
    grid, a = TimeGrid(1.0, 1000), 0.0015
    for model, x0 in ((geo.half_line(), [0.01]), (geo.flat_disk(), [0.99, 0.0])):
        dB = driver_block(grid, model.frame_count, seed=8, first_path=0, n_paths=6)
        with pytest.raises(IntegrationError) as exc:
            stepping.integrate_penalized_batch(model, a, x0, dB, grid, aux_seed=9)
        err = exc.value
        assert err.a == a and 0 <= err.path_index < 6
        for field in ("node=", "a=", "path=", "R="):
            assert field in str(err)
        # the run up to the failing node reaches the reported state in that row
        head = TimeGrid(grid.dt * err.node_index, err.node_index)
        ok = stepping.integrate_penalized_batch(model, a, x0, dB[:, : err.node_index], head, aux_seed=9)
        assert ok["R"][err.path_index, -1] == err.boundary_distance


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
    with pytest.raises(IntegrationError, match="substep budget exhausted") as exc:
        stepping._step_curved_penalized(model, 0.0005, x, dB, 1e-3, SeedStreams(9), 0, np.arange(3))
    assert exc.value.path_index == 2
    assert exc.value.boundary_distance == geo.raw_boundary_distance(model, x)[2]
