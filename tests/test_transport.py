"""Parallel transport frames: isometry, composition, holonomy."""
from __future__ import annotations

import numpy as np

from rbmlab import geometry as geo
from rbmlab.grids import DriverPath, TimeGrid
from rbmlab.penalized import integrate_penalized
from rbmlab.reflected import integrate_reflected
from rbmlab.transport import parallel_transport, transport_convergence_check


def test_flat_models_transport_is_identity():
    grid = TimeGrid(0.5, 200)
    for model in (geo.half_space(2), geo.flat_disk()):
        driver = DriverPath.generate(grid, model.frame_count, seed=1)
        path = integrate_reflected(model, [0.0, 0.5] if model.id != "disk" else [0.5, 0.0], driver, grid)
        fr = parallel_transport(model, path)
        assert np.array_equal(fr.matrices, np.broadcast_to(np.eye(2), fr.matrices.shape))


def test_constant_path_transport_identity():
    cap = geo.spherical_cap(np.pi / 3)
    pts = np.tile(np.array([0.6, 0.3]), (100, 1))
    fr = parallel_transport(cap, pts)
    assert np.max(np.abs(fr.matrices - np.eye(2))) < 1e-14


def test_latitude_loop_holonomy():
    """Closed latitude loop at polar angle theta: rotation by 2 pi cos(theta)."""
    cap = geo.spherical_cap(np.pi / 2)
    n = 10_000
    theta = np.pi / 3
    pts = np.stack([np.full(n + 1, theta), np.linspace(0, 2 * np.pi, n + 1)], axis=-1)
    M = parallel_transport(cap, pts).matrices[-1]
    angle = abs(np.arctan2(M[1, 0], M[0, 0]))
    assert abs(angle - 2 * np.pi * np.cos(theta)) < 1e-4


def test_isometry_along_rough_path():
    cap = geo.spherical_cap(np.pi / 3)
    rng = np.random.default_rng(2)
    pts = np.array([0.7, 0.0]) + np.cumsum(rng.normal(0, 0.02, (500, 2)), axis=0)
    pts[:, 0] = np.clip(pts[:, 0], 0.05, np.pi / 3 - 1e-3)
    fr = parallel_transport(cap, pts)
    v = np.array([0.6, -0.8])
    norms = np.linalg.norm(fr.matrices @ v, axis=-1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-8


def test_composition_property():
    cap = geo.spherical_cap(np.pi / 3)
    rng = np.random.default_rng(3)
    pts = np.array([0.8, 0.0]) + np.cumsum(rng.normal(0, 0.01, (300, 2)), axis=0)
    pts[:, 0] = np.clip(pts[:, 0], 0.05, np.pi / 3 - 1e-3)
    full = parallel_transport(cap, pts).matrices[-1]
    k = 150
    first = parallel_transport(cap, pts[: k + 1]).matrices[-1]
    second = parallel_transport(cap, pts[k:]).matrices[-1]
    assert np.max(np.abs(second @ first - full)) <= 1e-10


def test_transport_convergence_flat_gaps_zero():
    model = geo.half_space(2)
    grid = TimeGrid(0.25, 100)
    driver = DriverPath.generate(grid, 2, seed=4)
    rows = transport_convergence_check(model, [0.1, 0.05], driver, grid, np.array([1.0, 0.0]))
    assert all(r["sup_gap"] == 0.0 for r in rows)


def test_transport_convergence_single_node():
    cap = geo.spherical_cap(np.pi / 3)
    pts = np.array([[0.8, 0.1]])
    fr = parallel_transport(cap, pts)
    assert fr.matrices.shape == (1, 2, 2)
    assert np.allclose(fr.matrices[0], np.eye(2))


def test_transport_gap_decreases_on_cap_smoke():
    """Coupled transports converge as the smoothing parameter shrinks."""
    cap = geo.spherical_cap(np.pi / 3)
    grid = TimeGrid(1.0, 1500)
    gaps = {0.2: [], 0.02: []}
    v = np.array([0.0, 1.0])
    for k in range(12):
        driver = DriverPath.generate(grid, 5, seed=60, path_index=k)
        rows = transport_convergence_check(cap, list(gaps), driver, grid, v)
        for r in rows:
            gaps[r["a"]].append(r["sup_gap"])
    assert np.median(gaps[0.02]) < np.median(gaps[0.2])


def test_frames_along_penalized_path_orthonormal():
    cap = geo.spherical_cap(np.pi / 3)
    grid = TimeGrid(0.5, 1000)
    driver = DriverPath.generate(grid, 5, seed=5)
    path = integrate_penalized(cap, 0.05, [np.pi / 3 - 0.1, 0.0], driver, grid)
    fr = parallel_transport(cap, path)
    gram = np.einsum("nij,nik->njk", fr.matrices, fr.matrices)
    assert np.max(np.abs(gram - np.eye(2))) < 1e-10


# -- the cumulative angle against the Rodrigues loop it replaced --------------


def _frozen_rotate_frame(u, v, f):
    axis = np.cross(u, v)
    s = np.linalg.norm(axis, axis=-1, keepdims=True)
    c = np.sum(u * v, axis=-1, keepdims=True)
    tiny = s < 1e-14
    k = axis / np.where(tiny, 1.0, s)
    out = np.empty_like(f)
    for j in range(f.shape[-1]):
        col = f[..., j]
        kxc = np.cross(k, col)
        kdc = np.sum(k * col, axis=-1, keepdims=True)
        rot = c * col + s * kxc + (1.0 - c) * kdc * k
        out[..., j] = np.where(tiny, col, rot)
    return out


def _frozen_reorthonormalize(base_point, f):
    out = f.copy()
    for j in range(f.shape[-1]):
        col = out[..., j]
        col = col - base_point * np.sum(base_point * col, axis=-1, keepdims=True)
        for k in range(j):
            prev = out[..., k]
            col = col - prev * np.sum(prev * col, axis=-1, keepdims=True)
        out[..., j] = col / np.linalg.norm(col, axis=-1, keepdims=True)
    return out


def _frozen_cap_transport(points):
    """Cap transport as a node loop: rotate the ambient start basis onto each
    next node (Rodrigues), re-orthonormalize every 64 steps, read it in the
    chart basis."""
    P, n, _ = points.shape
    amb = geo.cap_to_ambient(points)
    frames = np.empty((P, n, 2, 2))
    frames[:, 0] = np.eye(2)
    f = geo.cap_basis(points[:, 0]).copy()
    for i in range(n - 1):
        f = _frozen_rotate_frame(amb[:, i], amb[:, i + 1], f)
        if (i + 1) % 64 == 0:
            f = _frozen_reorthonormalize(amb[:, i + 1], f)
        frames[:, i + 1] = np.einsum("pkc,pkj->pcj", geo.cap_basis(points[:, i + 1]), f)
    return frames


def _around_the_pole(n=2000, seed=1):
    """A walk near the pole of the hemisphere whose chart angle phi wraps
    across +-pi, as cap_from_ambient reports it."""
    rng = np.random.default_rng(seed)
    xy = np.array([-0.01, 0.0]) + np.cumsum(rng.normal(0.0, 0.0015, (n, 2)), axis=0)
    amb = np.concatenate([xy, np.ones((n, 1))], axis=1)
    return geo.cap_from_ambient(amb / np.linalg.norm(amb, axis=1, keepdims=True))


def _reflected_cap_points(theta0, steps, horizon, seed=46, paths=16):
    from rbmlab import stepping
    from rbmlab.grids import driver_block

    cap = geo.spherical_cap(theta0)
    grid = TimeGrid(horizon, steps)
    dB = driver_block(grid, cap.frame_count, seed, 0, paths)
    return stepping.integrate_reflected_batch(cap, np.array([theta0 - 0.15, 0.0]), dB, grid)["points"]


def test_cumulative_angle_matches_rodrigues_loop():
    from rbmlab.transport import transport_batch

    pole = _around_the_pole()
    assert np.any(np.abs(np.diff(pole[:, 1])) > np.pi)  # phi wraps
    assert pole[:, 0].min() < 0.01  # deep in the far region
    cases = [
        (np.pi / 2, _reflected_cap_points(np.pi / 2, 2000, 4.0)),
        (np.pi / 3, _reflected_cap_points(np.pi / 3, 200, 0.1)),
        (np.pi / 2, pole[None]),
        (np.pi / 3, np.array([[[0.8, 0.1]]])),  # a single node
        (np.pi / 3, np.tile(np.array([0.6, 0.3]), (1, 100, 1))),  # a constant path
    ]
    for theta0, pts in cases:
        new = transport_batch(geo.spherical_cap(theta0), pts)
        assert new.shape == pts.shape[:2] + (2, 2)
        assert np.max(np.abs(new - _frozen_cap_transport(pts))) <= 1e-12
        gram = np.einsum("pnij,pnik->pnjk", new, new)
        assert np.max(np.abs(gram - np.eye(2))) <= 1e-15


def test_transport_blocks_carry_the_cumulative_angle():
    from rbmlab.transport import transport_batch

    pole = _around_the_pole()
    assert np.any(np.abs(np.diff(pole[:, 1])) > np.pi)  # phi wraps
    cases = ((np.pi / 2, np.stack([pole, pole[::-1]])), (np.pi / 3, _reflected_cap_points(np.pi / 3, 200, 0.1)))
    for theta0, pts in cases:
        cap = geo.spherical_cap(theta0)
        whole = transport_batch(cap, pts)
        n = pts.shape[1] - 1
        for edges in ((0, 64, 128, n), (0, 1, 2, 97, n), (0, n)):
            angle = np.zeros(pts.shape[0])
            for i0, i1 in zip(edges, edges[1:]):
                part = transport_batch(cap, pts[:, i0 : i1 + 1], angle)
                assert np.array_equal(part, whole[:, i0 : i1 + 1]), (edges, i0)
            assert np.array_equal(np.cos(angle), whole[:, -1, 0, 0])
            assert np.array_equal(np.sin(angle), whole[:, -1, 1, 0])


def test_convergence_check_rows_equal_one_call_per_a():
    """One grid call gives the rows the per-a loop gave, bit for bit."""
    from rbmlab import stepping
    from rbmlab.transport import default_start, transport_batch

    cap = geo.spherical_cap(np.pi / 3)
    grid = TimeGrid(0.5, 400)
    a_list = [0.2, 0.05, 0.0125]
    v = np.array([0.0, 1.0])
    for k in range(3):
        driver = DriverPath.generate(grid, 5, seed=61, path_index=k)
        dB = driver.increments[None]
        x0 = default_start(cap)
        ref_v = transport_batch(cap, stepping.integrate_reflected_batch(cap, x0, dB, grid)["points"])[0] @ v
        loop = []
        for a in a_list:
            pen = stepping.integrate_penalized_batch(cap, a, x0, dB, grid)
            pen_v = transport_batch(cap, pen["points"])[0] @ v
            loop.append({"a": float(a), "sup_gap": float(np.linalg.norm(pen_v - ref_v, axis=-1).max())})
        assert transport_convergence_check(cap, a_list, driver, grid, v) == loop
