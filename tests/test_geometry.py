"""Geometry models: closed forms, frame identities, curvature operators."""
from __future__ import annotations

import math

import numpy as np
import pytest

from rbmlab import geometry as geo
from rbmlab.errors import DomainError, TubularZoneError

MODELS = {
    "half-line": geo.half_line(),
    "half-space3": geo.half_space(3),
    "disk": geo.flat_disk(),
    "cap": geo.spherical_cap(np.pi / 3),
}


def random_interior(model, n, rng, collar_only=False):
    """Interior sample points, optionally restricted to the collar."""
    if model.id in (geo.HALF_LINE, geo.HALF_SPACE):
        pts = rng.standard_normal((n, model.dim))
        hi = model.tubular_radius if collar_only else 2.0
        pts[:, -1] = rng.uniform(1e-3, hi * 0.999, n)
        return pts
    if model.id == geo.FLAT_DISK:
        lo = 1.0 - model.tubular_radius if collar_only else 0.0
        r = rng.uniform(lo + 1e-3, 0.999, n)
        ang = rng.uniform(0, 2 * np.pi, n)
        return np.stack([r * np.cos(ang), r * np.sin(ang)], axis=-1)
    lo = model.theta0 - model.tubular_radius if collar_only else 1e-2
    theta = rng.uniform(lo + 1e-3, model.theta0 - 1e-3, n)
    phi = rng.uniform(0, 2 * np.pi, n)
    return np.stack([theta, phi], axis=-1)


def test_boundary_distance_closed_forms():
    assert geo.boundary_distance(geo.half_space(2), [3.0, 0.7]) == 0.7
    assert geo.boundary_distance(geo.flat_disk(), [0.0, 0.0]) == 1.0
    cap = geo.spherical_cap(np.pi / 2)
    assert geo.boundary_distance(cap, [np.pi / 4, 1.3]) == pytest.approx(np.pi / 4, abs=1e-15)


def test_boundary_distance_domain_error():
    with pytest.raises(DomainError):
        geo.boundary_distance(geo.half_line(), [-0.1])
    with pytest.raises(DomainError):
        geo.boundary_distance(geo.flat_disk(), [1.2, 0.0])


def test_inward_normal_examples():
    nu = geo.inward_normal(geo.half_space(3), [0.3, -1.0, 0.2]).components
    assert np.allclose(nu, [0, 0, 1])
    nu = geo.inward_normal(geo.flat_disk(), [0.9, 0.0]).components
    assert np.allclose(nu, [-1.0, 0.0])
    cap = geo.spherical_cap(np.pi / 3)
    nu = geo.inward_normal(cap, [np.pi / 4, 0.0]).components
    assert np.allclose(nu, [-1.0, 0.0])  # decreasing polar angle moves inward


def test_inward_normal_outside_collar_raises():
    with pytest.raises(TubularZoneError):
        geo.inward_normal(geo.flat_disk(), [0.1, 0.0])


def test_normal_moves_inward():
    # small exponential step along the normal increases boundary distance
    rng = np.random.default_rng(0)
    for model in MODELS.values():
        pts = random_interior(model, 50, rng, collar_only=True)
        for x in pts[:10]:
            nu = geo.inward_normal(model, x).components
            if model.id == geo.SPHERICAL_CAP:
                step = x + 1e-4 * np.array([nu[0], 0.0])  # phi-hat component is zero
            else:
                step = x + 1e-4 * nu
            assert geo.boundary_distance(model, step) > geo.boundary_distance(model, x)


def test_shape_operator_closed_forms():
    # half space: flat boundary
    w = np.array([0.3, -0.2, 0.9])
    s = geo.shape_operator(geo.half_space(3), [0.0, 0.0, 0.5], w).components
    assert np.allclose(s, 0.0)
    # disk at radius r: tangential eigenvalue 1/r (differentiate nu = -x/|x|)
    r = 0.8
    x = np.array([r, 0.0])
    w_tan = np.array([0.0, 1.0])
    s = geo.shape_operator(geo.flat_disk(), x, w_tan).components
    assert np.allclose(s, w_tan / r, atol=1e-14)
    # cap boundary latitude: geodesic curvature cot(theta0)
    cap = geo.spherical_cap(np.pi / 3)
    x = np.array([np.pi / 3 - 1e-9, 0.4])
    s = geo.shape_operator(cap, x, np.array([0.0, 1.0])).components
    assert np.allclose(s, [0.0, 1.0 / np.tan(np.pi / 3)], atol=1e-6)


def test_shape_operator_orthogonal_to_normal():
    rng = np.random.default_rng(1)
    for model in MODELS.values():
        pts = random_interior(model, 200, rng, collar_only=True)
        w = rng.standard_normal((200, model.dim))
        s = geo.shape_operator(model, pts, w).components
        nu = geo.inward_normal(model, pts).components
        assert np.max(np.abs(np.sum(s * nu, axis=-1))) <= 1e-12


def _ambient_normal_field(cap, x):
    # inward normal as an ambient 3-vector field
    return -geo.cap_basis(x)[..., 0]


def test_shape_operator_matches_normal_field_derivative():
    """Central differences of the normal field reproduce the shape operator."""
    h = 1e-5
    rng = np.random.default_rng(2)
    # flat-chart models: components are Cartesian, differentiate directly
    disk = geo.flat_disk()
    pts = random_interior(disk, 40, rng, collar_only=True)
    w = rng.standard_normal((40, 2))
    num = -(
        geo.inward_normal(disk, pts + h * w).components
        - geo.inward_normal(disk, pts - h * w).components
    ) / (2 * h)
    nu = geo.inward_normal(disk, pts).components
    num_tan = num - nu * np.sum(nu * num, axis=-1, keepdims=True)
    assert np.max(np.abs(num_tan - geo.shape_operator(disk, pts, w).components)) < 1e-8
    # cap: differentiate the ambient field along a chart direction
    cap = MODELS["cap"]
    pts = random_interior(cap, 40, rng, collar_only=True)
    w = rng.standard_normal((40, 2))
    basis = geo.cap_basis(pts)  # (n, 3, 2)
    dx_chart = np.stack([w[:, 0], w[:, 1] / np.sin(pts[:, 0])], axis=-1)
    num = -(
        _ambient_normal_field(cap, pts + h * dx_chart)
        - _ambient_normal_field(cap, pts - h * dx_chart)
    ) / (2 * h)
    num_comp = np.einsum("nkc,nk->nc", basis, num)  # orthonormal components
    nu_comp = geo.inward_normal(cap, pts).components
    num_tan = num_comp - nu_comp * np.sum(nu_comp * num_comp, axis=-1, keepdims=True)
    assert np.max(np.abs(num_tan - geo.shape_operator(cap, pts, w).components)) < 1e-8


def test_ricci_examples():
    w = np.array([0.4, -1.1])
    assert np.allclose(geo.ricci(geo.flat_disk(), [0.2, 0.1], w).components, 0.0)
    assert np.allclose(geo.ricci(geo.half_space(2), [0.0, 0.4], w).components, 0.0)
    # unit-sphere cap: constant curvature gives the identity on a surface
    cap = MODELS["cap"]
    assert np.allclose(geo.ricci(cap, [0.5, 0.0], w).components, w)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_frame_invariants(name):
    model = MODELS[name]
    rng = np.random.default_rng(hash(name) % 2**32)
    pts = random_interior(model, 1000, rng)
    F = geo.frame_matrix(model, pts)  # (n, m, d)
    gram = np.einsum("nmd,nme->nde", F, F)
    assert np.max(np.abs(gram - np.eye(model.dim))) <= 1e-12
    # in the collar: first field is the unit normal, others orthogonal to it
    collar = random_interior(model, 1000, rng, collar_only=True)
    Fc = geo.frame_matrix(model, collar)
    nu = geo.inward_normal(model, collar).components
    assert np.max(np.abs(np.linalg.norm(nu, axis=-1) - 1.0)) <= 1e-12
    assert np.max(np.abs(Fc[:, 0, :] - nu)) <= 1e-12
    if Fc.shape[1] > 1:
        dots = np.einsum("nd,nmd->nm", nu, Fc[:, 1:, :])
        assert np.max(np.abs(dots)) <= 1e-12


def test_half_space_frame_is_cartesian():
    sigmas, sigma0 = geo.frame(geo.half_space(3), [0.1, 0.2, 0.5])
    mats = np.stack([s.components for s in sigmas])
    # first field drives the normal coordinate
    assert np.allclose(mats[0], [0, 0, 1])
    assert np.allclose(sorted(map(tuple, mats)), sorted(map(tuple, np.eye(3))))
    assert np.allclose(sigma0.components, 0.0)


def test_disk_frame_near_boundary_and_center():
    disk = geo.flat_disk()
    x = np.array([0.9, 0.0])
    sigmas, sigma0 = geo.frame(disk, x)
    assert np.allclose(sigmas[0].components, [-1.0, 0.0])  # -e_r
    assert np.allclose(sigmas[1].components, [0.0, 1.0])  # e_theta
    assert np.allclose(sigmas[2].components, 0.0)
    # sigma0 = e_r / (2r): covariant derivative of the angular field
    assert np.allclose(sigma0.components, [1.0 / (2 * 0.9), 0.0])
    # interior patch: pure Cartesian frame
    sigmas, sigma0 = geo.frame(disk, [0.05, -0.02])
    assert np.allclose(sigmas[0].components, 0.0)
    assert np.allclose(sigmas[1].components, 0.0)
    assert np.allclose(sigmas[2].components, [1.0, 0.0])
    assert np.allclose(sigmas[3].components, [0.0, 1.0])
    assert np.allclose(sigma0.components, 0.0)


def _chart_components(model, comps, pts):
    """Orthonormal -> coordinate components (cap divides the angular slot)."""
    if model.id != geo.SPHERICAL_CAP:
        return comps
    out = comps.copy()
    out[..., 1] = out[..., 1] / np.sin(pts[..., 0])
    return out


def _coordinate_laplacian(model, pts):
    """1/2 Laplacian applied to the chart coordinate functions."""
    if model.id == geo.SPHERICAL_CAP:
        out = np.zeros_like(pts)
        out[..., 0] = 0.5 / np.tan(pts[..., 0])
        return out
    return np.zeros_like(pts)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_frame_drift_identity(name):
    """sigma_0 + half the frame self-advection equals the generator drift."""
    model = MODELS[name]
    rng = np.random.default_rng(11)
    pts = random_interior(model, 60, rng)
    if model.id == geo.SPHERICAL_CAP:
        # away from the coordinate pole, where central differences of the
        # angular components lose accuracy
        pts[:, 0] = rng.uniform(0.3, model.theta0 - 1e-3, len(pts))
    h = 1e-5
    F = geo.frame_matrix(model, pts)
    m = F.shape[1]
    total = np.zeros_like(pts)
    for k in range(m):
        disp = _chart_components(model, F[:, k, :], pts)
        Fp = geo.frame_matrix(model, pts + h * disp)
        Fm = geo.frame_matrix(model, pts - h * disp)
        dsig = (
            _chart_components(model, Fp[:, k, :], pts + h * disp)
            - _chart_components(model, Fm[:, k, :], pts - h * disp)
        ) / (2 * h)
        total += 0.5 * dsig
    _, sigma0 = geo.frame(model, pts)
    total += _chart_components(model, sigma0.components, pts)
    assert np.max(np.abs(total - _coordinate_laplacian(model, pts))) < 1e-6


def test_blend_is_cutoff_with_smooth_roots():
    disk = geo.flat_disk()
    d0 = disk.tubular_radius
    R = np.linspace(0, 1.0, 400)
    b = geo.blend(disk, R)
    assert np.all(b[R <= d0] == 1.0)
    assert np.all(b[R >= 2 * d0] == 0.0)
    assert np.all(np.diff(b) <= 1e-12)
    # sqrt(beta) has vanishing slope at both ends of the blending zone
    h = 1e-5
    for edge in (d0, 2 * d0):
        slope = (np.sqrt(geo.blend(disk, edge + h)) - np.sqrt(geo.blend(disk, edge - h))) / (2 * h)
        assert abs(slope) < 1e-3


def _near_points(model, rng, n):
    """Chart points at random, near the disk's centre or the cap's pole, and
    near the boundary: n of each."""
    if model.id == geo.FLAT_DISK:
        r = np.concatenate([rng.uniform(0.0, 1.0, n), 10.0 ** rng.uniform(-300, -1, n),
                            1.0 - 10.0 ** rng.uniform(-16, -2, n)])
        ang = rng.uniform(-np.pi, np.pi, 3 * n)
        return np.stack([r * np.cos(ang), r * np.sin(ang)], axis=-1)
    theta = np.concatenate([rng.uniform(0.0, np.pi, n), 10.0 ** rng.uniform(-300, -1, n),
                            model.theta0 - 10.0 ** rng.uniform(-16, -2, n)])
    phi = np.concatenate([rng.uniform(-np.pi, np.pi, 2 * n), np.pi * rng.choice([-1.0, 0.0, 1.0], n)])
    return np.stack([theta, phi], axis=-1)


@pytest.mark.parametrize("n", [1, 7, 64, 65, 4097])
def test_norms_match_linalg_norm_bit_for_bit(n):
    # geo.norm sums two or three squares in the order np.linalg.norm adds
    # them; the disk's boundary distance is 1 minus that norm
    rng = np.random.default_rng(n)
    disk = MODELS["disk"]
    pts = _near_points(disk, rng, n)
    assert np.array_equal(geo.raw_boundary_distance(disk, pts), 1.0 - np.linalg.norm(pts, axis=-1))
    assert np.array_equal(geo.boundary_distance(disk, pts), 1.0 - np.linalg.norm(pts, axis=-1))
    for m in (2, 3):
        v = rng.standard_normal((n, m)) * 10.0 ** rng.uniform(-150, 150, (n, 1))
        assert np.array_equal(geo.norm(v), np.linalg.norm(v, axis=-1))
        assert np.array_equal(geo.norm(v[None]), np.linalg.norm(v[None], axis=-1))


def _frozen_cap_basis(x):
    ct, st = np.cos(x[..., 0]), np.sin(x[..., 0])
    cp, sp = np.cos(x[..., 1]), np.sin(x[..., 1])
    e_theta = np.stack([ct * cp, ct * sp, -st], axis=-1)
    e_phi = np.stack([-sp, cp, np.zeros_like(sp)], axis=-1)
    return np.stack([e_theta, e_phi], axis=-1)


@pytest.mark.parametrize("n", [1, 7, 64, 65, 4097])
def test_cap_helpers_match_stacked_forms_bit_for_bit(n):
    # the chart step's trig-once helpers against the stacked basis and the
    # einsum of its tangent components
    rng = np.random.default_rng(n)
    cap = MODELS["cap"]
    pts = _near_points(cap, rng, n)
    basis = _frozen_cap_basis(pts)
    assert np.array_equal(geo.cap_basis(pts), basis)
    st, ct = np.sin(pts[:, 0]), np.cos(pts[:, 0])
    assert np.array_equal(geo.cap_to_ambient(pts), np.stack([st * np.cos(pts[:, 1]), st * np.sin(pts[:, 1]), ct], axis=-1))
    trig = geo._cap_trig(pts)
    assert np.array_equal(geo._cap_e_theta(trig), basis[..., 0])
    v = rng.standard_normal((3 * n, 3))
    tangent = np.einsum("pkc,pk->pc", basis, v)
    assert np.array_equal(np.stack(geo._cap_tangent(trig, v), axis=-1), tangent)
    p = geo.cap_to_ambient(pts) + 1e-3 * v
    assert np.array_equal(geo.cap_from_ambient(p), np.stack([np.arccos(np.clip(p[:, 2], -1.0, 1.0)),
                                                             np.arctan2(p[:, 1], p[:, 0])], axis=-1))


def _frozen_blend(model, R):
    d0 = model.tubular_radius
    u = (R - d0) / d0
    uc = np.clip(u, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(uc > 0.0, np.exp(-1.0 / np.maximum(uc, 1e-300)), 0.0)
        b = np.where(uc < 1.0, np.exp(-1.0 / np.maximum(1.0 - uc, 1e-300)), 0.0)
    val = np.cos(0.5 * np.pi * (a / (a + b))) ** 2
    return np.where(u <= 0.0, 1.0, np.where(u >= 1.0, 0.0, val))


@pytest.mark.parametrize("name", ["disk", "cap"])
def test_blend_matches_its_frozen_form_bit_for_bit(name):
    model = MODELS[name]
    d0 = model.tubular_radius
    ends = [0.0, d0, 2 * d0, *np.nextafter([d0, d0, 2 * d0, 2 * d0], [0.0, 1.0, 0.0, 1.0])]
    for n in (1, 7, 65, 4097):
        R = np.concatenate([np.random.default_rng(n).uniform(0.0, 3 * d0, n), ends])
        assert np.array_equal(geo.blend(model, R), _frozen_blend(model, R))


def test_parse_model_strings():
    assert geo.parse_model("half-line").id == geo.HALF_LINE
    m = geo.parse_model("half-space:d=3")
    assert m.id == geo.HALF_SPACE and m.dim == 3
    assert geo.parse_model("disk").id == geo.FLAT_DISK
    m = geo.parse_model("cap:theta0=1.0472")
    assert m.id == geo.SPHERICAL_CAP and m.theta0 == pytest.approx(1.0472)
    with pytest.raises(ValueError):
        geo.parse_model("torus")
    with pytest.raises(ValueError):
        geo.parse_model("cap:theta0")
    assert geo.parse_model("cap:theta0=pi/3").theta0 == math.pi / 3
    assert geo.parse_model("cap:theta0=pi/2.5").theta0 == math.pi / 2.5
    for bad in ("pi/0", "pi/x", "pi/", "2pi/3"):
        with pytest.raises(ValueError):
            geo.parse_model(f"cap:theta0={bad}")


def test_normal_hessian_consistency():
    """trace of the normal Hessian is -|grad nu|^2 times the normal."""
    rng = np.random.default_rng(5)
    for model in MODELS.values():
        pts = random_interior(model, 100, rng, collar_only=True)
        tr = geo.normal_hessian_trace(model, pts)
        nu = geo.inward_normal(model, pts).components
        g2 = geo.normal_gradient_sq(model, pts)
        assert np.max(np.abs(tr + g2[..., None] * nu)) <= 1e-12
