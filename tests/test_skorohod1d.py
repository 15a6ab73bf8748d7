"""Exact half-line reflection machinery and its smooth approximation."""
from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import quad

from rbmlab import skorohod1d as sk
from rbmlab.errors import IntegrationError
from rbmlab.grids import TimeGrid, driver_block
from rbmlab.skorohod1d import EulerScheme, RealPath


def brownian_driver(n_steps, dt, rng):
    vals = np.concatenate([[0.0], np.cumsum(rng.normal(0, math.sqrt(dt), n_steps))])
    return RealPath(np.arange(n_steps + 1) * dt, vals)


def piecewise_linear_drivers(n_drivers, n_steps, rng, scale=0.3):
    """Random piecewise-linear node values as one (P, N+1) array."""
    incr = rng.uniform(-scale, scale, size=(n_drivers, n_steps))
    return np.concatenate([np.zeros((n_drivers, 1)), np.cumsum(incr, axis=1)], axis=1)


def test_skorohod_map_no_contact():
    f = RealPath([0.0, 0.5, 1.0], [0.0, 0.0, 0.0])
    sol = sk.skorohod_map(1.0, f)
    assert np.all(sol.reflected.values == 1.0)
    assert np.all(sol.local_time.values == 0.0)
    assert sk.first_hit_zero(sol) == math.inf


def test_skorohod_map_pure_pushing():
    f = RealPath([0.0, 0.5, 1.0], [0.0, -0.5, -1.0])
    sol = sk.skorohod_map(0.0, f)
    assert np.allclose(sol.reflected.values, 0.0)
    assert np.allclose(sol.local_time.values, [0.0, 0.5, 1.0])


def test_skorohod_map_hand_example():
    # down to -2 at t=1 then back up to -1 at t=2, start x=1
    f = RealPath([0.0, 1.0, 2.0], [0.0, -2.0, -1.0])
    sol = sk.skorohod_map(1.0, f)
    assert np.allclose(sol.local_time.values, [0.0, 1.0, 1.0])
    assert np.allclose(sol.reflected.values, [1.0, 0.0, 1.0])


def test_skorohod_map_rejects_negative_start():
    with pytest.raises(ValueError):
        sk.skorohod_map(-0.1, RealPath([0, 1], [0, 0]))


def test_first_hit_interpolates():
    f = RealPath([0.0, 1.0], [0.0, -1.0])
    assert sk.first_hit_zero(sk.skorohod_map(1.0, f)) == pytest.approx(1.0)
    f = RealPath([0.0, 1.0, 2.0], [0.0, -2.0, -1.0])
    assert sk.first_hit_zero(sk.skorohod_map(1.0, f)) == pytest.approx(0.5)


def test_first_hit_zero_start_conventions():
    down = RealPath([0.0, 1.0], [0.0, -1.0])
    up = RealPath([0.0, 1.0], [0.0, 1.0])
    assert sk.first_hit_zero(sk.skorohod_map(0.0, down)) == 0.0
    assert sk.first_hit_zero(sk.skorohod_map(0.0, up)) == math.inf


def test_first_hit_matches_node_scan():
    rng = np.random.default_rng(3)
    f = brownian_driver(400, 1 / 400, rng)
    sol = sk.skorohod_map(0.2, f)
    tau = sk.first_hit_zero(sol)
    g = sol.reflected.values
    below = np.nonzero(0.2 + f.values <= 0)[0]
    assert below.size > 0
    k = below[0]
    assert f.times[k - 1] <= tau <= f.times[k]
    assert np.all(g[: k - 1] > 0)


def test_derivative_flow_exact_indicator():
    f = RealPath([0.0, 1.0, 2.0], [0.0, -2.0, -1.0])
    flow = sk.derivative_flow_exact(1.0, f)  # tau = 0.5
    assert np.allclose(flow.values, [1.0, 0.0, 0.0])
    down = RealPath([0.0, 1.0], [0.0, -1.0])
    assert np.all(sk.derivative_flow_exact(0.0, down).values == 0.0)


def test_coalescence_linear_example():
    f = RealPath([0.0, 0.5, 1.0, 1.5], [0.0, -0.5, -1.0, -1.5])
    T = sk.coalescence_time(0.0, 1.0, f)
    assert T == pytest.approx(1.0, abs=1e-12)
    sol_x = sk.skorohod_map(0.0, f)
    assert sk.local_time_at(sol_x, T) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        sk.coalescence_time(0.5, 0.5, f)


def test_coalescence_matches_first_hit_on_brownian_drivers():
    rng = np.random.default_rng(7)
    dt = 1 / 500
    hits = 0
    for _ in range(20):
        f = brownian_driver(500, dt, rng)
        tau_y = sk.first_hit_zero(sk.skorohod_map(0.5, f))
        T = sk.coalescence_time(0.2, 0.5, f)
        if math.isinf(tau_y):
            assert math.isinf(T)
            continue
        hits += 1
        assert abs(T - tau_y) <= dt
    assert hits > 5


def test_exact_identities_on_random_drivers():
    """Flow property, lift identity, coalescence, derivative indicator."""
    rng = np.random.default_rng(11)
    P, N = 500, 64
    times = np.linspace(0.0, 1.0, N + 1)
    F = piecewise_linear_drivers(P, N, rng)
    x = 0.4
    for p in range(P):
        f = RealPath(times, F[p])
        sol = sk.skorohod_map(x, f)
        g, h = sol.reflected.values, sol.local_time.values
        # flow property at an interior node
        k = N // 2
        shifted = RealPath(times[k:], F[p, k:] - F[p, k])
        sol2 = sk.skorohod_map(g[k], shifted)
        assert np.max(np.abs(sol2.reflected.values - g[k:])) <= 1e-12
        assert np.max(np.abs(h[k] + sol2.local_time.values - h[k:])) <= 1e-12
        # lift identity at every node
        z = x + h
        m = np.minimum.accumulate(np.minimum(x + F[p], x))
        lifted = z + F[p] + np.maximum(0.0, -(z + np.minimum.accumulate(np.minimum(F[p] + z, z)) - z))
        X_z = z + F[p] + np.maximum(0.0, -np.minimum.accumulate(np.minimum(z + F[p], z)))
        assert np.max(np.abs(X_z - g)) <= 1e-12
        # derivative indicator
        tau = sk.first_hit_zero(sol)
        flow = sk.derivative_flow_exact(x, f).values
        assert np.all(flow == (times < tau))


def test_monotonicity_in_start_point():
    rng = np.random.default_rng(13)
    F = piecewise_linear_drivers(200, 80, rng)
    times = np.linspace(0, 1, 81)
    for p in range(0, 200, 10):
        f = RealPath(times, F[p])
        gx = sk.skorohod_map(0.1, f).reflected.values
        gy = sk.skorohod_map(0.6, f).reflected.values
        assert np.all(gx <= gy + 1e-15)


def test_tanaka_reflection_values():
    f = RealPath([0.0, 0.5, 1.0], [0.0, -0.5, -1.0])
    assert np.allclose(sk.tanaka_reflection(0.0, f).values, [0.0, 0.5, 1.0])
    f0 = RealPath([0.0, 1.0], [0.0, 0.0])
    assert np.allclose(sk.tanaka_reflection(1.0, f0).values, 1.0)


def test_tanaka_equal_in_law_to_skorohod():
    """Two-sample Kolmogorov-Smirnov on terminal values."""
    rng = np.random.default_rng(17)
    n, N, dt = 10_000, 4096, 1.0 / 4096
    incr = rng.normal(0, math.sqrt(dt), size=(n, N))
    W = np.concatenate([np.zeros((n, 1)), np.cumsum(incr, axis=1)], axis=1)
    x = 0.3
    g_T = x + W[:, -1] + np.maximum(0.0, -np.minimum.accumulate(np.minimum(x + W, x), axis=1))[:, -1]
    incr2 = rng.normal(0, math.sqrt(dt), size=(n, N))
    tanaka_T = np.abs(x + np.cumsum(incr2, axis=1)[:, -1])
    a = np.sort(g_T)
    b = np.sort(tanaka_T)
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / n
    cdf_b = np.searchsorted(b, grid, side="right") / n
    ks = np.max(np.abs(cdf_a - cdf_b))
    crit = 1.36 * math.sqrt(2.0 / n)  # 5% two-sample critical value
    assert ks < crit


def test_penalized_drift_value_against_quadrature():
    phi1, _ = quad(lambda s: math.exp(-s * s / 2), 0.0, 1.0, epsabs=1e-14)
    expected = math.exp(-0.5) / phi1  # a=1, x=1
    assert sk.penalized_drift_1d(1.0, 1.0) == pytest.approx(expected, rel=1e-10)
    # decreasing in x, positive, vanishing far out
    assert sk.penalized_drift_1d(1.0, 0.5) > sk.penalized_drift_1d(1.0, 1.5) > 0
    assert sk.penalized_drift_1d(1.0, 50.0) < 1e-300
    with pytest.raises(ValueError):
        sk.penalized_drift_1d(1.0, -1.0)
    with pytest.raises(ValueError):
        sk.penalized_drift_1d(0.0, 1.0)


def test_penalized_drift_log_branch_continuous():
    a = 0.7
    lo = sk.penalized_drift_1d(a, (6.0 - 1e-9) * math.sqrt(a))
    hi = sk.penalized_drift_1d(a, (6.0 + 1e-9) * math.sqrt(a))
    assert abs(lo - hi) / lo < 1e-7


def test_third_log_derivative_positive():
    """Central second differences of the drift stay positive."""
    h = 1e-4
    for a in np.geomspace(0.01, 1.0, 7):
        for x in np.geomspace(0.02, 3.0, 25):
            d2 = (
                sk.penalized_drift_1d(a, x + h)
                - 2 * sk.penalized_drift_1d(a, x)
                + sk.penalized_drift_1d(a, x - h)
            ) / h**2
            assert d2 > -1e-9


def test_penalized_path_far_from_boundary_is_driver():
    rng = np.random.default_rng(19)
    f = brownian_driver(200, 1e-4, rng)
    path = sk.penalized_path_1d(0.01, 5.0, f)
    assert np.max(np.abs(path.values - (5.0 + f.values))) < 1e-10


def test_penalized_paths_monotone_in_a():
    rng = np.random.default_rng(23)
    dt = 1e-3
    dW = rng.normal(0, math.sqrt(dt), size=(50, 1000))
    xa = sk.penalized_paths_1d(0.05, 0.5, dW, dt)
    xb = sk.penalized_paths_1d(0.1, 0.5, dW, dt)
    assert np.all(xa <= xb + 10 * math.sqrt(dt))


def test_penalized_paths_positive_and_deterministic():
    rng = np.random.default_rng(29)
    dt = 1e-3
    dW = rng.normal(0, math.sqrt(dt), size=(20, 2000))
    x1 = sk.penalized_paths_1d(0.02, 0.3, dW, dt)
    x2 = sk.penalized_paths_1d(0.02, 0.3, dW, dt)
    assert np.all(x1 > 0)
    assert np.array_equal(x1, x2)


def test_penalized_path_approaches_reflection():
    rng = np.random.default_rng(31)
    dt = 1e-3
    dW = rng.normal(0, math.sqrt(dt), size=(100, 1000))
    W = np.concatenate([np.zeros((100, 1)), np.cumsum(dW, axis=1)], axis=1)
    x = 0.5
    g = x + W + np.maximum.accumulate(np.maximum(0.0, -(x + W)), axis=1)
    sups = []
    for a in (0.1, 0.05, 0.025):
        X = sk.penalized_paths_1d(a, x, dW, dt)
        sups.append(np.abs(X - g).max(axis=1).mean())
    assert sups[0] > sups[1] > sups[2]


def test_derivative_flow_penalized_basic():
    times = np.linspace(0, 1, 101)
    path = RealPath(times, np.full(101, 4.0))
    V = sk.derivative_flow_penalized(0.01, path)
    assert V.values[0] == 1.0
    assert np.all(np.diff(V.values) <= 0)
    assert np.all(V.values > 1.0 - 1e-12)  # far from the boundary
    wiggly = RealPath(times, 0.2 + 0.1 * np.sin(7 * times))
    Vw = sk.derivative_flow_penalized(0.05, wiggly)
    assert np.all((Vw.values > 0) & (Vw.values <= 1.0))
    assert np.all(np.diff(Vw.values) <= 1e-15)


def test_derivative_flow_monotone_in_start():
    rng = np.random.default_rng(37)
    dt = 1e-3
    dW = rng.normal(0, math.sqrt(dt), size=(1, 1000))
    times = np.arange(1001) * dt
    a = 0.05
    Xa = sk.penalized_paths_1d(a, 0.3, dW, dt)[0]
    Xb = sk.penalized_paths_1d(a, 0.6, dW, dt)[0]
    Va = sk.derivative_flow_penalized(a, RealPath(times, Xa)).values
    Vb = sk.derivative_flow_penalized(a, RealPath(times, Xb)).values
    assert np.all(Va <= Vb + 1e-12)


def test_derivative_flow_l1_convergence_smoke():
    rng = np.random.default_rng(41)
    dt = 1e-3
    n, N = 200, 1000
    dW = rng.normal(0, math.sqrt(dt), size=(n, N))
    W = np.concatenate([np.zeros((n, 1)), np.cumsum(dW, axis=1)], axis=1)
    x = 0.5
    alive = np.minimum.accumulate(x + W, axis=1) > 0
    gaps = []
    for a in (0.1, 0.05, 0.025):
        X = sk.penalized_paths_1d(a, x, dW, dt)
        d2 = sk.penalized_drift_second_log(a, X[:, :-1])
        V = np.exp(np.concatenate([np.zeros((n, 1)), np.cumsum(d2 * dt, axis=1)], axis=1))
        gaps.append(np.abs(V[:, :-1] - alive[:, :-1]).sum(axis=1).mean() * dt)
    assert gaps[0] > gaps[1] > gaps[2]


def test_guard_exhaustion_raises():
    # a forced crossing: enormous negative increment in one step
    dW = np.array([[-50.0]])
    with pytest.raises(IntegrationError) as exc:
        sk.penalized_paths_1d(0.01, 0.1, dW, 1e-4, EulerScheme(max_bisections=3, max_substeps=5))
    err = exc.value
    assert (err.node_index, err.a, err.path_index, err.boundary_distance) == (0, 0.01, 0, 0.1)
    # the failing row of a batch, and its state at the failing node
    dW = np.array([[0.0, 0.0], [0.0, -50.0], [0.0, -50.0]])
    with pytest.raises(IntegrationError) as exc:
        sk.penalized_paths_1d(0.01, 0.1, dW, 1e-4, EulerScheme(max_bisections=3, max_substeps=5))
    err = exc.value
    assert (err.node_index, err.a, err.path_index) == (1, 0.01, 1)
    assert err.boundary_distance == sk.penalized_paths_1d(0.01, 0.1, dW[1:2, :1], 1e-4)[0, 1]
    assert "node=1, a=0.01, path=1, R=" in str(err)


@pytest.mark.parametrize("aux_seed", [0, 2**64 + 5])
def test_penalized_grid_matches_one_a_runs(aux_seed):
    # a/sqrt(dt) from 2.2 down to 0.28: each a sub-steps and bisects on its own nodes
    dt, a_grid = 5e-4, (0.05, 0.025, 0.0125, 0.00625)
    dW = driver_block(TimeGrid(0.1, 200), 1, seed=42, first_path=0, n_paths=16)[:, :, 0]
    scheme = EulerScheme(aux_seed=aux_seed)
    stacked = sk.penalized_paths_1d_grid(a_grid, 0.05, dW, dt, scheme)
    assert stacked.shape == (4, 16, 201)
    for k, a in enumerate(a_grid):
        assert np.array_equal(stacked[k], sk.penalized_paths_1d(a, 0.05, dW, dt, scheme))
    assert sk.penalized_paths_1d_grid(a_grid, 0.5, np.zeros((0, 10)), 0.1).shape == (4, 0, 11)


def test_penalized_grid_error_names_the_rows_own_a_and_path():
    # with 16 sub-steps a step, a = 0.01 runs out at node 74 while 0.1 and
    # 0.003 finish: the error is the one-a run's
    dW = driver_block(TimeGrid(0.2, 200), 1, seed=8, first_path=0, n_paths=6)[:, :, 0]
    scheme = EulerScheme(max_substeps=16)
    with pytest.raises(IntegrationError) as alone:
        sk.penalized_paths_1d(0.01, 0.3, dW, 1e-3, scheme)
    with pytest.raises(IntegrationError) as stacked:
        sk.penalized_paths_1d_grid((0.1, 0.01, 0.003), 0.3, dW, 1e-3, scheme)
    err = stacked.value
    assert (err.node_index, err.a, err.path_index) == (74, 0.01, 3)
    assert str(err) == str(alone.value)
    sk.penalized_paths_1d_grid((0.1, 0.003), 0.3, dW, 1e-3, scheme)
