"""Reflected reference paths, excursion decomposition, contact scans."""
from __future__ import annotations

import math

import numpy as np
import pytest

from rbmlab import geometry as geo
from rbmlab import skorohod1d as sk
from rbmlab.grids import DriverPath, TimeGrid, driver_block
from rbmlab.reflected import (
    ReflectedPath,
    close_events,
    excursion_flags,
    excursions,
    integrate_reflected,
    last_contact,
)
from rbmlab.stepping import integrate_penalized_batch, integrate_reflected_batch


def test_constant_when_no_noise():
    grid = TimeGrid(1.0, 50)
    hl = geo.half_line()
    driver = DriverPath(seed=0, path_index=0, increments=np.zeros((50, 1)))
    path = integrate_reflected(hl, [1.0], driver, grid)
    assert np.all(path.points[:, 0] == 1.0)
    assert np.all(path.local_time == 0.0)
    disk = geo.flat_disk()
    driver = DriverPath(seed=0, path_index=0, increments=np.zeros((50, 4)))
    path = integrate_reflected(disk, [0.0, 0.0], driver, grid)
    assert np.all(path.points == 0.0)
    assert np.all(path.local_time == 0.0)


def test_halfline_bit_exact_with_skorohod_map():
    grid = TimeGrid(1.0, 1000)
    hl = geo.half_line()
    driver = DriverPath.generate(grid, 1, seed=9)
    path = integrate_reflected(hl, [0.5], driver, grid)
    f = sk.RealPath(grid.times, np.concatenate([[0.0], np.cumsum(driver.increments[:, 0])]))
    sol = sk.skorohod_map(0.5, f)
    assert np.array_equal(path.points[:, 0], sol.reflected.values)
    assert np.array_equal(path.local_time, sol.local_time.values)


def test_local_time_increases_only_into_flagged_nodes():
    grid = TimeGrid(1.0, 4000)
    hl = geo.half_line()
    driver = DriverPath.generate(grid, 1, seed=10)
    path = integrate_reflected(hl, [0.2], driver, grid)
    dL = np.diff(path.local_time)
    assert path.local_time[-1] > 0
    # complementarity: increments vanish off the contact set (right-node flags)
    assert np.sum(dL * (path.boundary_dist[1:] >= path.eta)) == 0.0


@pytest.mark.parametrize("eta", [0.0, -1.0, math.nan])
def test_integrate_reflected_rejects_non_positive_eta(eta):
    # eta <= 0 flags no node as a contact: an all-zero contact column
    grid = TimeGrid(1.0, 50)
    driver = DriverPath.generate(grid, 1, seed=10)
    with pytest.raises(ValueError, match="eta must be positive"):
        integrate_reflected(geo.half_line(), [0.2], driver, grid, eta=eta)


def test_disk_projection_lands_on_boundary():
    grid = TimeGrid(1.0, 4000)
    disk = geo.flat_disk()
    driver = DriverPath.generate(grid, 4, seed=11)
    path = integrate_reflected(disk, [0.9, 0.0], driver, grid)
    dL = np.diff(path.local_time)
    assert np.all(dL >= 0)
    pushed = np.nonzero(dL > 0)[0] + 1
    assert pushed.size > 0
    radii = np.linalg.norm(path.points[pushed], axis=1)
    assert np.max(np.abs(radii - 1.0)) < 1e-12
    assert np.all(path.boundary_dist >= 0)


def test_cap_projection_lands_on_boundary():
    grid = TimeGrid(1.0, 4000)
    cap = geo.spherical_cap(np.pi / 3)
    driver = DriverPath.generate(grid, 5, seed=12)
    path = integrate_reflected(cap, [np.pi / 3 - 0.05, 0.0], driver, grid)
    dL = np.diff(path.local_time)
    pushed = np.nonzero(dL > 0)[0] + 1
    assert pushed.size > 0
    assert np.max(np.abs(path.points[pushed, 0] - np.pi / 3)) < 1e-12


def _synthetic_path(times, R, eta=0.01):
    n = len(times)
    grid = TimeGrid(times[-1], n - 1)
    return ReflectedPath(
        grid=grid,
        eta=eta,
        points=R[:, None].copy(),
        boundary_dist=R,
        local_time=np.zeros(n),
        boundary_flags=R < eta,
    )


def test_excursions_sine_example():
    times = np.linspace(0.0, 1.0, 2001)
    R = np.abs(np.sin(2 * np.pi * times))
    path = _synthetic_path(times, R, eta=0.01)
    exc = excursions(path, eps=0.3, eta=0.01)
    ends = times[exc.right_ends]
    assert len(ends) == 2
    assert abs(ends[0] - 0.5) < 0.01
    assert abs(ends[1] - 1.0) < 0.01


def test_excursions_no_contact_and_all_contact():
    times = np.linspace(0, 1, 101)
    path = _synthetic_path(times, np.full(101, 0.5), eta=0.01)
    exc = excursions(path, eps=0.1)
    assert exc.right_ends.size == 0  # horizon cut, no boundary return
    assert exc.intervals == [(0, 100)]
    path = _synthetic_path(times, np.zeros(101), eta=0.01)
    exc = excursions(path, eps=0.1)
    assert exc.right_ends.size == 0 and exc.intervals == []


def test_excursions_filters_short_ones():
    times = np.linspace(0, 1, 101)
    R = np.zeros(101)
    R[10:20] = 0.5  # 0.1-long excursion (nodes 9..20 in time units 0.11)
    R[50:90] = 0.5  # 0.4-long
    path = _synthetic_path(times, R, eta=0.01)
    exc = excursions(path, eps=0.3)
    assert list(exc.right_ends) == [90]
    exc2 = excursions(path, eps=0.05)
    assert list(exc2.right_ends) == [20, 90]
    # durations measured from the last contact node of the preceding run
    assert exc2.intervals[0] == (9, 20)


def _excursions_loop(R, times, eps, eta):
    """The node-by-node excursion scan that ``excursions`` replaced: the
    reference its intervals and right ends must equal."""
    contact = R < eta
    intervals, right_ends = [], []
    n = R.size
    i = 0
    if contact[0]:
        while i < n and contact[i]:
            i += 1
        l = i - 1
    else:
        l = 0
    while i < n:
        while i < n and not contact[i]:
            i += 1
        if i >= n:
            if n - 1 > l and times[n - 1] - times[l] >= eps:
                intervals.append((l, n - 1))
            break
        r = i
        if times[r] - times[l] >= eps:
            intervals.append((l, r))
            right_ends.append(r)
        while i < n and contact[i]:
            i += 1
        l = i - 1
    return intervals, np.asarray(right_ends, dtype=int)


def test_excursions_equal_the_node_by_node_scan():
    rng = np.random.default_rng(16)
    times = np.linspace(0, 1, 301)
    cases = [np.abs(np.cumsum(rng.normal(0, 0.05, 301))) for _ in range(12)]
    for R in cases[:4]:
        R[0] = 0.0  # in contact at node 0
    for R in cases[4:8]:
        R[-1] = 1.0  # the run ends off the boundary
    cases += [np.zeros(301), np.full(301, 0.5)]  # all contact, no contact
    cases += [np.where(rng.random(301) < p, 0.0, 0.5) for p in (0.05, 0.5, 0.95)]
    checked = 0
    for R in cases:
        for eta in (0.02, 0.05, 0.2):
            path = _synthetic_path(times, R, eta=eta)
            for eps in (0.0, 1e-3, 0.01, 0.07, 0.5, 2.0):
                exc = excursions(path, eps)
                intervals, right_ends = _excursions_loop(R, path.grid.times, eps, eta)
                assert exc.intervals == intervals, (checked, eta, eps)
                assert all(type(i) is int for lr in exc.intervals for i in lr)
                assert exc.right_ends.dtype == right_ends.dtype
                assert np.array_equal(exc.right_ends, right_ends), (checked, eta, eps)
                checked += bool(intervals)
    assert checked > 100


def test_excursion_flags_match_scan():
    rng = np.random.default_rng(14)
    times = np.linspace(0, 1, 501)
    R = np.abs(np.cumsum(rng.normal(0, 0.05, 501)))
    path = _synthetic_path(times, R, eta=0.05)
    exc = excursions(path, eps=0.07, eta=0.05)
    flags, _ = excursion_flags(R[None], times, eps=0.07, eta=0.05)
    assert np.array_equal(np.nonzero(flags[0])[0], exc.right_ends)


def test_close_events_carry_the_last_contact_across_node_blocks():
    rng = np.random.default_rng(15)
    times = np.linspace(0, 1, 201)
    eta = 0.05
    R = np.abs(np.cumsum(rng.normal(0, 0.05, (3, 201)), axis=1)) + eta
    R[0, 60:71] = 0.0  # a contact run across the block edge at node 64
    R[1, :3] = R[1, 100:102] = 0.0  # in contact from node 0, and again later
    R[2] += 10.0  # never in contact
    closes, dur = close_events(R, times, eta)
    assert closes[0, 60] and not closes[0, 61:71].any() and closes.any(axis=1)[:2].all()
    for edges in ((0, 64, 128, 192, 200), (0, 1, 2, 64, 65, 200), (0, 200)):
        last = np.full(3, -1)
        for i0, i1 in zip(edges, edges[1:]):
            part = close_events(R[:, i0 : i1 + 1], times[: i1 + 1], eta, last)
            assert np.array_equal(part[0], closes[:, i0 : i1 + 1]), (edges, i0)
            assert np.array_equal(part[1], dur[:, i0 : i1 + 1]), (edges, i0)
            # the last contact before the block's last node, where the next starts
            before = np.where(R[:, :i1] < eta, np.arange(i1), -1).max(axis=1)
            assert np.array_equal(last, before)


def test_last_contact_scan():
    times = np.linspace(0, 1, 101)
    R = np.ones(101)
    R[[30, 31, 60]] = 0.0
    path = _synthetic_path(times, R, eta=0.01)
    assert last_contact(path, 0.25) is None
    assert last_contact(path, 0.30) == pytest.approx(0.30)
    assert last_contact(path, 0.45) == pytest.approx(0.31)
    assert last_contact(path, 1.0) == pytest.approx(0.60)
    # contact exactly at the query time
    assert last_contact(path, 0.60) == pytest.approx(0.60)


def test_coupled_local_time_convergence_smoke():
    grid = TimeGrid(1.0, 2000)
    hl = geo.half_line()
    dB = driver_block(grid, 1, seed=15, first_path=0, n_paths=100)
    ref = integrate_reflected_batch(hl, np.array([0.3]), dB, grid)
    sups = []
    for a in (0.1, 0.025):
        pen = integrate_penalized_batch(hl, a, np.array([0.3]), dB, grid)
        sups.append(np.median(np.abs(pen["L"] - ref["L"]).max(axis=1)))
    assert sups[1] < sups[0]


def test_default_contact_threshold():
    grid = TimeGrid(1.0, 400)
    hl = geo.half_line()
    driver = DriverPath.generate(grid, 1, seed=16)
    path = integrate_reflected(hl, [0.5], driver, grid)
    assert path.eta == pytest.approx(math.sqrt(grid.dt))
