"""Manifold penalized SDE: drift field, integrator, damping series."""
from __future__ import annotations

import math

import numpy as np
import pytest

from rbmlab import geometry as geo
from rbmlab import skorohod1d as sk
from rbmlab.grids import DriverPath, TimeGrid
from rbmlab.penalized import drift_field, integrate_penalized
from rbmlab.stepping import damping_rate, tanh_drift_magnitude


def test_drift_field_magnitude_at_R_equal_a():
    # oracle: direct evaluation of 2 / (a sinh 2)
    a = 0.2
    expected = 2.0 / (a * math.sinh(2.0))
    vec = drift_field(geo.half_line(), a, [a])
    assert np.linalg.norm(vec.components) == pytest.approx(expected, rel=1e-12)


def test_drift_field_direction_and_decay():
    hs = geo.half_space(3)
    vec = drift_field(hs, 0.1, [1.0, -2.0, 0.05])
    assert vec.components[0] == 0.0 and vec.components[1] == 0.0
    assert vec.components[2] > 0  # points inward, along e_d
    far = drift_field(hs, 0.001, [0.0, 0.0, 1.5])
    assert np.linalg.norm(far.components) == 0.0  # underflows to an exact zero
    with pytest.raises(ValueError):
        drift_field(geo.half_line(), 0.1, [0.0])
    with pytest.raises(ValueError):
        drift_field(geo.half_line(), -0.1, [0.5])


def test_drift_magnitude_log_branch_seamless():
    a = 0.03
    z_edge = 15.0 * a  # 2R/a = 30
    lo = tanh_drift_magnitude(a, z_edge * (1 - 1e-10))
    hi = tanh_drift_magnitude(a, z_edge * (1 + 1e-10))
    assert abs(lo - hi) / lo < 1e-7


def test_damping_rate_value_at_R_equal_a():
    a = 0.4
    expected = (4.0 / a**2) * math.cosh(2.0) / math.sinh(2.0) ** 2
    assert damping_rate(a, a) == pytest.approx(expected, rel=1e-12)
    # deep interior: exponentially negligible
    assert damping_rate(0.01, 1.0) < 1e-60
    # blow-up at fixed ratio R/a as a halves
    assert damping_rate(0.05, 0.05) == pytest.approx(4 * damping_rate(0.1, 0.1), rel=1e-12)


def test_zero_noise_deep_interior_is_stationary():
    model = geo.flat_disk()
    grid = TimeGrid(1.0, 100)
    driver = DriverPath(seed=0, path_index=0, increments=np.zeros((100, 4)))
    path = integrate_penalized(model, 0.05, [0.1, 0.1], driver, grid)
    assert np.max(np.abs(path.points - np.array([0.1, 0.1]))) < 1e-12
    assert path.local_time[-1] < 1e-12


def test_positivity_and_monotone_local_time():
    model = geo.half_line()
    grid = TimeGrid(1.0, 10_000)
    driver = DriverPath.generate(grid, 1, seed=21)
    path = integrate_penalized(model, 0.1, [0.3], driver, grid)
    assert np.all(path.boundary_dist > 0)
    dL = np.diff(path.local_time)
    assert np.all(dL >= 0)
    # increments are exponentially negligible well inside the domain
    assert np.all(dL[path.boundary_dist[:-1] > 10 * 0.1] < 1e-12)


def test_tangential_components_independent_of_a():
    """The boundary drift has no tangential part: shared driver components
    give bit-identical tangential coordinates across a."""
    model = geo.half_space(2)
    grid = TimeGrid(0.5, 500)
    driver = DriverPath.generate(grid, 2, seed=2)
    p1 = integrate_penalized(model, 0.1, [0.0, 0.4], driver, grid)
    p2 = integrate_penalized(model, 0.01, [0.0, 0.4], driver, grid)
    assert np.array_equal(p1.points[:, 0], p2.points[:, 0])
    # and the tangential coordinate is the free driver component 2
    free = 0.0 + np.concatenate([[0.0], np.cumsum(driver.increments[:, 1])])
    assert np.array_equal(p1.points[:, 0], free)


def test_halfline_agrees_with_1d_penalized_family():
    """The two drift families select the same limit on a shared driver.

    Their ranges differ (square-root-of-a versus a/2), so at fixed a the
    paths disagree by the integrated far-field drift; the gap must shrink
    along the a-grid and meet the sqrt(dt) scale once a is small enough.
    """
    grid = TimeGrid(1.0, 10_000)
    driver = DriverPath.generate(grid, 1, seed=4)
    f = sk.RealPath(grid.times, np.concatenate([[0.0], np.cumsum(driver.increments[:, 0])]))
    gaps = []
    for a in (0.05, 0.025, 0.0125, 0.00625):
        manifold = integrate_penalized(geo.half_line(), a, [0.5], driver, grid)
        line = sk.penalized_path_1d(a, 0.5, f)
        gaps.append(np.max(np.abs(manifold.boundary_dist - line.values)))
    assert gaps[0] > gaps[1] > gaps[2] > gaps[3]
    assert gaps[-1] <= 5.0 * math.sqrt(grid.dt)


def test_coupled_gap_decreases_with_a():
    model = geo.half_line()
    grid = TimeGrid(1.0, 2000)
    from rbmlab.grids import driver_block
    from rbmlab.stepping import integrate_penalized_batch, integrate_reflected_batch

    dB = driver_block(grid, 1, seed=5, first_path=0, n_paths=200)
    ref = integrate_reflected_batch(model, np.array([0.5]), dB, grid)
    sups = []
    for a in (0.1, 0.05, 0.025):
        pen = integrate_penalized_batch(model, a, np.array([0.5]), dB, grid)
        sups.append(np.median(np.abs(pen["R"] - ref["R"]).max(axis=1)))
    assert sups[0] > sups[1] > sups[2]


def test_damping_series_matches_stored():
    model = geo.half_line()
    grid = TimeGrid(0.5, 500)
    driver = DriverPath.generate(grid, 1, seed=6)
    path = integrate_penalized(model, 0.05, [0.2], driver, grid)
    assert np.all(path.damping >= 0)
    assert np.array_equal(path.damping, damping_rate(0.05, path.boundary_dist))


def test_integrator_validates_inputs():
    model = geo.half_line()
    grid = TimeGrid(1.0, 10)
    driver = DriverPath.generate(grid, 1, seed=0)
    with pytest.raises(ValueError):
        integrate_penalized(model, -1.0, [0.5], driver, grid)
    with pytest.raises(ValueError):
        integrate_penalized(model, 0.1, [0.0], driver, grid)  # boundary start
    bad = DriverPath(seed=0, path_index=0, increments=np.zeros((10, 3)))
    with pytest.raises(ValueError):
        integrate_penalized(model, 0.1, [0.5], bad, grid)


def test_disk_and_cap_positivity():
    grid = TimeGrid(0.5, 2000)
    disk = geo.flat_disk()
    driver = DriverPath.generate(grid, 4, seed=7)
    p = integrate_penalized(disk, 0.02, [0.8, 0.0], driver, grid)
    assert np.all(p.boundary_dist > 0)
    cap = geo.spherical_cap(np.pi / 3)
    driver = DriverPath.generate(grid, 5, seed=8)
    p = integrate_penalized(cap, 0.02, [np.pi / 3 - 0.05, 0.0], driver, grid)
    assert np.all(p.boundary_dist > 0)
    assert np.all(np.isfinite(p.points))


def test_collar_brownian_part_bit_identical():
    """The radial increment minus its drift part, read at the implicit point
    (the step's end), is exactly driver component 1, the coupling device
    shared with the reflected run."""
    model = geo.half_line()
    grid = TimeGrid(0.25, 250)
    driver = DriverPath.generate(grid, 1, seed=33)
    a = 0.05
    path = integrate_penalized(model, a, [1.5], driver, grid)
    R = path.boundary_dist
    if np.min(R) < 0.5:  # keep the probe where the drift part is far below the state
        pytest.skip("driver reached the stiff zone for this seed")
    drift = tanh_drift_magnitude(a, R[1:])
    recovered = np.diff(R) - drift * grid.dt
    # the shared increments are recovered up to one rounding of the state sum
    assert np.max(np.abs(recovered - driver.increments[:, 0])) <= 1e-15
