"""Representation-formula estimators and the quadrature oracle."""
from __future__ import annotations

import hashlib
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

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


def _closed_form(profile, kind, T, x, derivative):
    """The image-kernel solution of each profile in closed form: the Neumann
    solutions of gauss, cos-neumann and const, and the Dirichlet one of const."""
    if profile == "gauss":
        u = math.exp(-x * x / (1 + 2 * T)) / math.sqrt(1 + 2 * T)
        return -2 * x / (1 + 2 * T) * u if derivative else u
    if profile == "cos-neumann":
        return -math.exp(-T / 2) * math.sin(x) if derivative else math.exp(-T / 2) * math.cos(x)
    if kind == "neumann":
        return 0.0 if derivative else 1.0
    if derivative:
        return math.sqrt(2 / (math.pi * T)) * math.exp(-x * x / (2 * T))
    return math.erf(x / math.sqrt(2 * T))


def _quad_reference(kind, T, x, f, derivative):
    """The image-kernel integral by scipy.integrate.quad, with breakpoints at
    x - 13 sqrt(T) and x: the oracle's implementation before the
    Gauss-Legendre rule."""
    sgn = 1.0 if kind == "neumann" else -1.0
    s = math.sqrt(T)
    norm = 1.0 / math.sqrt(2 * math.pi * T)

    def kernel(y):
        a, b = (y - x) / s, (y + x) / s
        ga, gb = math.exp(-0.5 * a * a), math.exp(-0.5 * b * b)
        fy = float(f.value(np.array([y])))
        return norm * fy * ((ga * a / s - sgn * gb * b / s) if derivative else (ga + sgn * gb))

    hi = x + 13.0 * s
    pts = [p for p in (max(0.0, x - 13.0 * s), x) if 0.0 < p < hi]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        return quad(kernel, 0.0, hi, points=pts or None, limit=200, epsabs=1e-14, epsrel=1e-10)[0]


# 4 solutions x 5 horizons x 4 starts x (value, gradient): 160 cases
_ORACLE_CASES = [("gauss", "neumann"), ("cos-neumann", "neumann"), ("const", "neumann"), ("const", "dirichlet")]
_ORACLE_GRID = [(T, x, der) for T in (1e-6, 0.01, 0.5, 1.0, 4.0) for x in (0.0, 0.05, 0.5, 2.0) for der in (False, True)]


def _oracle(kind, T, x, f, derivative):
    return (est.image_kernel_gradient if derivative else est.image_kernel_oracle)(kind, T, x, f)


@pytest.mark.parametrize("profile,kind", _ORACLE_CASES)
def test_image_kernel_oracle_matches_the_closed_forms(profile, kind):
    f = est.scalar_field(profile)
    for T, x, der in _ORACLE_GRID:
        want = _closed_form(profile, kind, T, x, der)
        assert abs(_oracle(kind, T, x, f, der) - want) <= 1e-9 * max(1.0, abs(want)), (T, x, der)


@pytest.mark.parametrize("profile,kind", _ORACLE_CASES)
def test_image_kernel_oracle_matches_scipy_quad(profile, kind):
    f = est.scalar_field(profile)
    for T, x, der in _ORACLE_GRID:
        want = _quad_reference(kind, T, x, f, der)
        assert abs(_oracle(kind, T, x, f, der) - want) <= 1e-9 * max(1.0, abs(want)), (T, x, der)


@pytest.mark.parametrize("profile", [lambda y: np.where(y[..., 0] < 0.61, 1.0, 0.0),
                                     lambda y: np.full(y.shape[:-1], np.nan)], ids=["jump", "nan"])
def test_image_kernel_oracle_raises_on_a_rough_profile(profile):
    with pytest.raises(QuadratureError):
        est.image_kernel_oracle("neumann", 1.0, 0.5, profile)
    with pytest.raises(QuadratureError):
        est.image_kernel_gradient("neumann", 1.0, 0.5, profile)


def test_registry_contents_and_compat():
    assert GAUSS.neumann_compatible(HL)
    assert est.scalar_field("cos-neumann").neumann_compatible(geo.half_space(3))
    assert PHI.boundary_compatible(geo.half_space(2))
    with pytest.raises(ValueError):
        est.scalar_field("unknown")
    with pytest.raises(ValueError):
        est.one_form("unknown")


def _flat_estimator_calls(d, n=40, dt=1e-2, below=False):
    """Criterion 8's seven calls, in its order, on half-space:d=d at 40 paths:
    every flat-model estimator, and the Neumann mean also at x +- 0.05 for the
    finite difference.  ``below`` moves the start point and the curve of
    starts out of the domain."""
    hs = geo.half_space(d)
    T, seed = 0.5, 21
    if d == 1:
        x, vc, profile = [0.25], [1.0], GAUSS
        curve, tangent = (lambda u: np.array([0.2 + u])), (lambda u: np.array([1.0]))
    else:
        x, vc, profile = [0.3, 0.25], [0.6, -0.8], est.scalar_field("cos-neumann")
        curve, tangent = (lambda u: np.array([0.3 - u, 0.1 + u])), (lambda u: np.array([-1.0, 1.0]))
    if below:
        x, inside = [*x[:-1], -0.5], curve
        curve = lambda u: inside(u) - 1.0  # noqa: E731
    v = _v(x, vc)
    up, down = [*x[:-1], x[-1] + 0.05], [*x[:-1], x[-1] - 0.05]
    F = est.NeumannHeatSolution(hs, profile, T)
    return {
        "neumann": lambda: est.neumann_heat_mc(hs, GAUSS, T, x, n, dt, seed=seed),
        "one-form": lambda: est.one_form_mc(hs, PHI, T, v, n, dt, seed=seed),
        "bismut": lambda: est.bismut_gradient_mc(hs, GAUSS, T, v, n, dt, seed=seed),
        "neumann-up": lambda: est.neumann_heat_mc(hs, GAUSS, T, up, n, dt, seed=seed),
        "neumann-down": lambda: est.neumann_heat_mc(hs, GAUSS, T, down, n, dt, seed=seed),
        "martingale": lambda: est.martingale_check(hs, F, T, v, n, dt, seed=seed),
        "weak-derivative": lambda: est.weak_derivative_check(hs, GAUSS, curve, tangent, 0.0, 0.5, T, n, dt, seed=seed),
    }


def _estimate_sha(e):
    return hashlib.sha256(f"{e.mean!r} {e.stderr!r} {e.config_digest}".encode()).hexdigest()


# sha256 of repr(mean), repr(stderr) and the digest of each flat estimator,
# recorded while every estimator still ran its own loop over the 5000-path
# chunks.  The martingale pins were recorded again when the image-kernel
# oracle moved from scipy.integrate.quad to the composite Gauss-Legendre
# rule: the caloric gradient dF(0, x)(v) that they subtract moved in its last
# bit, closer to the closed form (gauss -0.17133784816239842 ->
# -0.17133784816239847, cos-neumann -0.19267839720238839 -> -0.1926783972023884).
_ESTIMATOR_PINS = {
    "neumann:d=1": "6d1b4776a7c752d52a939cf88c8af730293dba81a10407a6b4d1a5136634712a",
    "one-form:d=1": "0036f442227ca07567b0e8f2ad30feb4e913fc9a520794bb4d3721230ac2b647",
    "bismut:d=1": "28601b515a35949825ce1faf80beeb06e1b7ebf3fc70601ac705c094249ea1ca",
    "martingale:d=1": "6645ee8a85b44a8d7140779e6dde1726fd616a6c54769051c0aa15b513bf8744",
    "weak-derivative:d=1": "65d8c690e8df31b4e501af51d07fb3d39091302f6f58685947dfbcf1d4549cfd",
    "neumann:d=2": "0ab36958ffc474eb5a39422be4b7940f7887f54f280a76706a8e98871a1d92ec",
    "one-form:d=2": "5e8b927f7dd77f48daa6f0bb5efed57bb56511291c39d88c6d93b622626add42",
    "bismut:d=2": "0e73664a3453950321cdf3699d43784ca168a23bc763004c3e2ec276b70080d6",
    "martingale:d=2": "c1542add548be4ebc0a21ad10b0f2d386e8856c2e848c786868c0ad4c733ad9a",
    "weak-derivative:d=2": "10541fcad13f700f6e5dac1e0f8fef4be076543885b6918be7a7498cf60f6917",
}


# sha256 of repr(mean), repr(stderr), n and the digest of the curved
# neumann_heat_mc, recorded while each 2000-path chunk held its whole driver
# and its stored reflected run: two chunks of 100 steps each.
_CURVED_PINS = {
    "disk": ([0.6, 0.5], "3d66f1577cbe70dd1a3b8949d07d3c54c9256d50fda8942e800bd0ca10ddacf3"),
    "cap": ([np.pi / 3 - 0.15, 0.7], "7bb57ea336c665ab56f475b97665b9e8841fb2c6587b4920bf1f508a30532ed1"),
}


@pytest.mark.parametrize("name", sorted(_CURVED_PINS))
def test_curved_neumann_estimates_do_not_depend_on_the_blocks(name, monkeypatch):
    model = geo.flat_disk() if name == "disk" else geo.spherical_cap(np.pi / 3)
    x, pin = _CURVED_PINS[name]
    for paths, steps in ((est._CURVED_CHUNK, est._CURVED_BLOCK), (999, 30)):
        monkeypatch.setattr(est, "_CURVED_CHUNK", paths)
        monkeypatch.setattr(est, "_CURVED_BLOCK", steps)
        e = est.neumann_heat_mc(model, GAUSS, 0.5, x, 2500, 5e-3, seed=31)
        text = f"{e.mean!r} {e.stderr!r} {e.n_paths} {e.config_digest}"
        assert hashlib.sha256(text.encode()).hexdigest() == pin, (paths, steps)


def _count_passes(monkeypatch):
    """Chunks drawn per pass of ``_flat_terminal_chunks``, one list entry per pass."""
    passes = []
    real = est._flat_terminal_chunks

    def spy(*args, **kwargs):
        passes.append(0)
        for chunk in real(*args, **kwargs):
            passes[-1] += 1
            yield chunk

    monkeypatch.setattr(est, "_flat_terminal_chunks", spy)
    return passes


@pytest.mark.parametrize("case", sorted(_ESTIMATOR_PINS))
def test_flat_estimator_bits_do_not_depend_on_the_chunk_width(case, monkeypatch):
    name, d = case.rsplit(":d=", 1)
    call = _flat_estimator_calls(int(d))[name]
    passes = _count_passes(monkeypatch)
    for width in (5000, 7, 5):
        monkeypatch.setattr(est, "_CHUNK", width)
        est._path_record.cache_clear()  # draw at this width, not from the record of the last one
        passes.clear()
        assert _estimate_sha(call()) == _ESTIMATOR_PINS[case], width
        # one pass over the paths per call, the weak derivative's ten starts included
        assert passes == [-(-40 // width)], width


@pytest.mark.parametrize("d", [1, 2])
def test_criterion_8_calls_share_one_draw(d, monkeypatch):
    calls = _flat_estimator_calls(d)
    passes = _count_passes(monkeypatch)
    est._path_record.cache_clear()
    got = {name: call() for name, call in calls.items()}
    assert len(got) == 7 and passes == [1]
    for name, e in got.items():
        case = f"{name}:d={d}"
        if case in _ESTIMATOR_PINS:
            assert _estimate_sha(e) == _ESTIMATOR_PINS[case], case
        else:  # x +- h: the shared record gives what a draw of its own gives
            est._path_record.cache_clear()
            assert _estimate_sha(calls[name]()) == _estimate_sha(e), case


def test_path_record_is_drawn_again_when_the_draw_changes(monkeypatch):
    passes = _count_passes(monkeypatch)
    est._path_record.cache_clear()

    def neumann(model=geo.half_space(1), T=0.5, n=40, dt=1e-2, seed=21):
        x = [0.0] * (model.dim - 1) + [0.25]
        return est.neumann_heat_mc(model, GAUSS, T, x, n, dt, seed=seed)

    base = neumann()
    assert neumann() == base and len(passes) == 1
    changes = dict(seed=22, n=41, T=0.4, dt=5e-3, model=geo.half_space(2))
    for key, value in changes.items():
        neumann()
        drawn = len(passes)
        neumann(**{key: value})
        assert len(passes) == drawn + 1, key


def test_path_record_arrays_are_read_only():
    est._path_record.cache_clear()
    record = est._path_record(2, 0.5, 50, 40, 21)
    for name, array in record._asdict().items():
        with pytest.raises(ValueError):
            array[...] = 0
        assert array.size, name
    est._path_record.cache_clear()


def _direct_reduction(starts, w, step_min):
    """The per-start reduction of the whole (n, N) bridge minima, as it read
    before the ladder: an argmax over every step of every path."""
    c, N = step_min.shape
    rows = np.arange(c)
    low = step_min.min(axis=1)
    alive, b_kill, normal = [], [], []
    for x in starts:
        alive.append(x + low > 0.0)
        killed_by = x + step_min <= 0.0
        kill_step = np.argmax(killed_by, axis=1)
        stop = np.where(killed_by[rows, kill_step], kill_step + 1, N)
        b_kill.append(w[rows, stop])
        normal.append(x + w[:, -1] + np.maximum(0.0, -x - low))
    return np.array(alive), np.array(b_kill), np.array(normal)


@pytest.mark.parametrize("seed", range(6))
def test_ladder_reduction_matches_the_direct_first_hit(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    n, N = 13, 24
    w = np.zeros((n, N + 1))
    w[:, 1:] = np.cumsum(rng.normal(0.0, 0.3, (n, N)), axis=1)
    # half the minima on a coarse lattice, so that steps tie and starts sit on them
    lattice = 0.25 * rng.integers(-8, 4, (n, N))
    step_min = np.where(rng.random((n, N)) < 0.5, lattice, rng.uniform(-2.0, 1.5, (n, N)))
    picks = -step_min[rng.integers(0, n, 12), rng.integers(0, N, 12)]
    starts = np.concatenate([[0.0], picks[picks >= 0.0], rng.uniform(0.0, 4.0, 6)])
    assert np.any(starts[:, None, None] + step_min == 0.0)  # ties on <= are exercised

    def chunks(frame_count, T, steps, paths, draw_seed):
        for first in (0, 6):
            rows = slice(first, 6 if first == 0 else n)
            yield first, w[rows], step_min[rows], np.zeros((len(w[rows]), frame_count - 1))

    monkeypatch.setattr(est, "_flat_terminal_chunks", chunks)
    est._path_record.cache_clear()
    try:
        law = est._exact_law(geo.half_line(), starts[:, None], 1.0, n, 1.0 / N, seed)
    finally:
        est._path_record.cache_clear()
    alive, b_kill, normal = _direct_reduction(starts, w, step_min)
    assert np.array_equal(law.alive, alive)
    assert np.array_equal(law.b_kill, b_kill)
    assert np.array_equal(law.points[..., -1], normal)
    assert alive.any() and not alive.all()


# inputs that ran silently before: a start outside the domain, a dt that does
# not divide T (3 steps of 1/3 ran for dt = 0.3), and no paths
_BAD_INPUTS = {"start below the boundary": dict(below=True), "dt not dividing T": dict(dt=0.3), "no paths": dict(n=0)}


@pytest.mark.parametrize("bad", sorted(_BAD_INPUTS))
@pytest.mark.parametrize("name", ["neumann", "one-form", "bismut", "martingale", "weak-derivative"])
def test_flat_estimators_reject_bad_inputs_before_drawing(name, bad, monkeypatch):
    call = _flat_estimator_calls(1, **_BAD_INPUTS[bad])[name]
    passes = _count_passes(monkeypatch)
    est._path_record.cache_clear()
    with pytest.raises(ValueError):
        call()
    assert passes == []


def test_neumann_rejects_starts_outside_every_model():
    with pytest.raises(ValueError):
        est.neumann_heat_mc(HL, GAUSS, 1.0, [-0.5], 10, 1e-2)
    with pytest.raises(ValueError):
        est.neumann_heat_mc(HL, GAUSS, 1.0, [0.5], 10, 0.3)
    with pytest.raises(ValueError):
        est.neumann_heat_mc(geo.flat_disk(), GAUSS, 0.5, [1.5, 0.0], 10, 1e-2)
