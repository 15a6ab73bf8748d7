"""Representation-formula estimators and the quadrature oracle."""
from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from rbmlab import estimators as est
from rbmlab import geometry as geo
from rbmlab.errors import QuadratureError
from rbmlab.geometry import TangentVector

HL = geo.half_line()
GAUSS = est.scalar_field("gauss")
CONST = est.scalar_field("const")
PHI = est.one_form("gauss-grad")


def _v(x, comps):
    return TangentVector(base=np.atleast_1d(np.asarray(x, float)), components=np.atleast_1d(np.asarray(comps, float)))


def test_conservation_exact():
    e = est.neumann_heat_mc(HL, CONST, 1.0, [0.5], 500, 1e-2, seed=0)
    assert e.mean == 1.0
    assert e.stderr == 0.0


def test_short_time_recovers_initial_condition():
    e = est.neumann_heat_mc(HL, GAUSS, 1e-4, [0.5], 4000, 1e-5, seed=1)
    f_x = float(GAUSS.value(np.array([0.5])))
    assert abs(e.mean - f_x) <= max(3 * e.stderr, 1e-3)


def test_neumann_matches_image_kernel():
    e = est.neumann_heat_mc(HL, GAUSS, 1.0, [0.5], 40_000, 1e-3, seed=2)
    oracle = est.image_kernel_oracle("neumann", 1.0, 0.5, GAUSS)
    assert abs(e.mean - oracle) <= 3 * e.stderr


def test_neumann_respects_maximum_principle():
    e = est.neumann_heat_mc(HL, GAUSS, 0.7, [0.3], 2000, 1e-2, seed=3)
    assert 0.0 <= e.mean <= 1.0


def test_neumann_deterministic_rerun():
    a = est.neumann_heat_mc(HL, GAUSS, 0.5, [0.5], 5000, 1e-2, seed=4)
    b = est.neumann_heat_mc(HL, GAUSS, 0.5, [0.5], 5000, 1e-2, seed=4)
    assert a.mean == b.mean and a.stderr == b.stderr and a.config_digest == b.config_digest
    c = est.neumann_heat_mc(HL, GAUSS, 0.5, [0.5], 5000, 1e-2, seed=5)
    assert c.config_digest != a.config_digest


def test_disk_estimator_internal_consistency():
    disk = geo.flat_disk()
    e = est.neumann_heat_mc(disk, CONST, 0.5, [0.3, 0.0], 400, 1e-2, seed=5)
    assert e.mean == 1.0
    e = est.neumann_heat_mc(disk, GAUSS, 1e-3, [0.3, 0.0], 2000, 1e-4, seed=6)
    f_x = float(GAUSS.value(np.array([0.3, 0.0])))
    assert abs(e.mean - f_x) <= max(3 * e.stderr, 2e-3)


def test_one_form_zero_cases():
    zero = est.one_form("zero")
    e = est.one_form_mc(HL, zero, 0.5, _v(0.5, 1.0), 200, 1e-2, seed=7)
    assert e.mean == 0.0
    e = est.one_form_mc(HL, PHI, 0.5, _v(0.5, 0.0), 200, 1e-2, seed=8)
    assert e.mean == 0.0


def test_one_form_matches_gradient_oracle():
    e = est.one_form_mc(HL, PHI, 1.0, _v(0.5, 1.0), 40_000, 1e-3, seed=9)
    oracle = est.image_kernel_gradient("neumann", 1.0, 0.5, GAUSS)
    assert abs(e.mean - oracle) <= 3 * e.stderr


def test_one_form_rejects_incompatible_boundary():
    bad = est.OneForm("bad", components=lambda x: np.ones_like(np.asarray(x, dtype=float)))
    with pytest.raises(ValueError):
        est.one_form_mc(HL, bad, 0.5, _v(0.5, 1.0), 100, 1e-2)


def test_one_form_linearity_and_antisymmetry_exact():
    hs = geo.half_space(2)
    x = [0.0, 0.5]
    whole = est.one_form_mc(hs, PHI, 0.5, _v(x, [0.3, -0.7]), 1500, 2e-3, seed=10)
    part1 = est.one_form_mc(hs, PHI, 0.5, _v(x, [0.3, 0.0]), 1500, 2e-3, seed=10)
    part2 = est.one_form_mc(hs, PHI, 0.5, _v(x, [0.0, -0.7]), 1500, 2e-3, seed=10)
    assert whole.mean == part1.mean + part2.mean
    flipped = est.one_form_mc(hs, PHI, 0.5, _v(x, [-0.3, 0.7]), 1500, 2e-3, seed=10)
    assert flipped.mean == -whole.mean


def test_bismut_constant_field_is_zero_mean():
    e = est.bismut_gradient_mc(HL, CONST, 1.0, _v(0.5, 1.0), 20_000, 1e-3, seed=11)
    assert abs(e.mean) <= 3 * e.stderr


def test_bismut_matches_coupled_finite_difference():
    h, T, n, dt = 0.05, 1.0, 30_000, 1e-3
    e = est.bismut_gradient_mc(HL, GAUSS, T, _v(0.5, 1.0), n, dt, seed=12)
    up = est.neumann_heat_mc(HL, GAUSS, T, [0.5 + h], n, dt, seed=12)
    dn = est.neumann_heat_mc(HL, GAUSS, T, [0.5 - h], n, dt, seed=12)
    fd = (up.mean - dn.mean) / (2 * h)
    tol = 3 * math.sqrt(e.stderr**2 + up.stderr**2 + dn.stderr**2)
    assert abs(e.mean - fd) <= tol


def test_bismut_antisymmetry_exact():
    a = est.bismut_gradient_mc(HL, GAUSS, 0.5, _v(0.4, 1.0), 2000, 2e-3, seed=13)
    b = est.bismut_gradient_mc(HL, GAUSS, 0.5, _v(0.4, -1.0), 2000, 2e-3, seed=13)
    assert a.mean == -b.mean


def test_martingale_check_constant_field():
    F = est.NeumannHeatSolution(HL, CONST, 1.0)
    e = est.martingale_check(HL, F, 1.0, _v(0.5, 1.0), 500, 1e-2, seed=14)
    assert e.mean == 0.0


def test_martingale_check_caloric_profile():
    F = est.NeumannHeatSolution(HL, GAUSS, 0.5)
    e = est.martingale_check(HL, F, 0.5, _v(0.5, 1.0), 40_000, 1e-3, seed=15)
    assert abs(e.mean) <= 3 * e.stderr


def test_martingale_check_v_zero():
    F = est.NeumannHeatSolution(HL, GAUSS, 0.5)
    e = est.martingale_check(HL, F, 0.5, _v(0.5, 0.0), 400, 1e-2, seed=16)
    assert e.mean == 0.0


def test_heat_solution_rejects_tangential_profiles():
    hs = geo.half_space(2)
    with pytest.raises(ValueError):
        est.NeumannHeatSolution(hs, GAUSS, 1.0)  # exp(-|x|^2) varies tangentially
    est.NeumannHeatSolution(hs, est.scalar_field("cos-neumann"), 1.0)


def test_weak_derivative_trivial_cases():
    e = est.weak_derivative_check(HL, GAUSS, lambda u: np.array([0.2 + u]), lambda u: np.array([1.0]), 0.3, 0.3, 1.0, 100, 1e-2)
    assert e.mean == 0.0 and e.stderr == 0.0
    # far from the boundary, short horizon: transport is the identity and the
    # residual is pure quadrature error
    e = est.weak_derivative_check(
        HL, GAUSS, lambda u: np.array([5.0 + u]), lambda u: np.array([1.0]), 0.0, 0.2, 0.01, 500, 1e-3, seed=17
    )
    assert abs(e.mean) < 1e-6


def test_weak_derivative_identity():
    e = est.weak_derivative_check(
        HL, GAUSS, lambda u: np.array([0.2 + u]), lambda u: np.array([1.0]), 0.0, 0.5, 1.0, 20_000, 1e-3, seed=18
    )
    assert abs(e.mean) <= 3 * e.stderr


def test_weak_derivative_rejects_curved_model():
    cap = geo.spherical_cap(np.pi / 3)
    with pytest.raises(ValueError):
        est.weak_derivative_check(cap, GAUSS, lambda u: np.array([0.5 + u, 0.0]), lambda u: np.array([1.0, 0.0]), 0.0, 0.1, 0.5, 100, 1e-2)


def test_image_kernel_examples():
    assert est.image_kernel_oracle("neumann", 0.8, 0.4, CONST) == pytest.approx(1.0, abs=1e-9)
    # survival probability of the absorbed walk
    got = est.image_kernel_oracle("dirichlet", 0.7, 0.4, CONST)
    assert got == pytest.approx(math.erf(0.4 / math.sqrt(2 * 0.7)), rel=1e-9)
    # short-time limit recovers the profile
    got = est.image_kernel_oracle("neumann", 1e-6, 0.5, GAUSS)
    assert got == pytest.approx(float(GAUSS.value(np.array([0.5]))), rel=1e-5)
    with pytest.raises(ValueError):
        est.image_kernel_oracle("robin", 1.0, 0.5, GAUSS)
    with pytest.raises(ValueError):
        est.image_kernel_oracle("neumann", -1.0, 0.5, GAUSS)


def test_image_kernel_gradient_consistent_with_values():
    h = 1e-6
    up = est.image_kernel_oracle("neumann", 0.9, 0.5 + h, GAUSS)
    dn = est.image_kernel_oracle("neumann", 0.9, 0.5 - h, GAUSS)
    grad = est.image_kernel_gradient("neumann", 0.9, 0.5, GAUSS)
    assert grad == pytest.approx((up - dn) / (2 * h), abs=1e-6)


def test_registry_contents_and_compat():
    assert GAUSS.neumann_compatible(HL)
    assert est.scalar_field("cos-neumann").neumann_compatible(geo.half_space(3))
    assert PHI.boundary_compatible(geo.half_space(2))
    with pytest.raises(ValueError):
        est.scalar_field("unknown")
    with pytest.raises(ValueError):
        est.one_form("unknown")


def _flat_estimator_calls(d):
    """Every flat-model estimator on half-space:d=d at 40 paths, one call each."""
    hs = geo.half_space(d)
    T, n, dt, seed = 0.5, 40, 1e-2, 21
    if d == 1:
        x, vc, profile = [0.25], [1.0], GAUSS
        curve, tangent = (lambda u: np.array([0.2 + u])), (lambda u: np.array([1.0]))
    else:
        x, vc, profile = [0.3, 0.25], [0.6, -0.8], est.scalar_field("cos-neumann")
        curve, tangent = (lambda u: np.array([0.3 - u, 0.1 + u])), (lambda u: np.array([-1.0, 1.0]))
    v = _v(x, vc)
    F = est.NeumannHeatSolution(hs, profile, T)
    return {
        "neumann": lambda: est.neumann_heat_mc(hs, GAUSS, T, x, n, dt, seed=seed),
        "one-form": lambda: est.one_form_mc(hs, PHI, T, v, n, dt, seed=seed),
        "bismut": lambda: est.bismut_gradient_mc(hs, GAUSS, T, v, n, dt, seed=seed),
        "martingale": lambda: est.martingale_check(hs, F, T, v, n, dt, seed=seed),
        "weak-derivative": lambda: est.weak_derivative_check(hs, GAUSS, curve, tangent, 0.0, 0.5, T, n, dt, seed=seed),
    }


def _estimate_sha(e):
    return hashlib.sha256(f"{e.mean!r} {e.stderr!r} {e.config_digest}".encode()).hexdigest()


# sha256 of repr(mean), repr(stderr) and the digest of each flat estimator,
# recorded while every estimator still ran its own loop over the 5000-path
# chunks.
_ESTIMATOR_PINS = {
    "neumann:d=1": "6d1b4776a7c752d52a939cf88c8af730293dba81a10407a6b4d1a5136634712a",
    "one-form:d=1": "0036f442227ca07567b0e8f2ad30feb4e913fc9a520794bb4d3721230ac2b647",
    "bismut:d=1": "28601b515a35949825ce1faf80beeb06e1b7ebf3fc70601ac705c094249ea1ca",
    "martingale:d=1": "34ebb86c3910679c591304a0b1bc9965a831ecefaaea062680637ddbb80479bf",
    "weak-derivative:d=1": "65d8c690e8df31b4e501af51d07fb3d39091302f6f58685947dfbcf1d4549cfd",
    "neumann:d=2": "0ab36958ffc474eb5a39422be4b7940f7887f54f280a76706a8e98871a1d92ec",
    "one-form:d=2": "5e8b927f7dd77f48daa6f0bb5efed57bb56511291c39d88c6d93b622626add42",
    "bismut:d=2": "0e73664a3453950321cdf3699d43784ca168a23bc763004c3e2ec276b70080d6",
    "martingale:d=2": "0a57381fd956b5f46236cc075e83847a631b60afc81d835a82180da1c59b334a",
    "weak-derivative:d=2": "10541fcad13f700f6e5dac1e0f8fef4be076543885b6918be7a7498cf60f6917",
}


@pytest.mark.parametrize("case", sorted(_ESTIMATOR_PINS))
def test_flat_estimator_bits_do_not_depend_on_the_chunk_width(case, monkeypatch):
    name, d = case.rsplit(":d=", 1)
    call = _flat_estimator_calls(int(d))[name]
    passes = []
    real = est._flat_terminal_chunks

    def spy(*args, **kwargs):
        passes.append(0)
        for chunk in real(*args, **kwargs):
            passes[-1] += 1
            yield chunk

    monkeypatch.setattr(est, "_flat_terminal_chunks", spy)
    for width in (5000, 7, 5):
        monkeypatch.setattr(est, "_CHUNK", width)
        passes.clear()
        assert _estimate_sha(call()) == _ESTIMATOR_PINS[case], width
        # one pass over the paths per call, the weak derivative's ten starts included
        assert passes == [-(-40 // width)], width
