"""Monte Carlo estimators for the heat-semigroup representation formulas.

On the flat-boundary models every estimator reduces one exact-law record,
sampled in a single pass over the paths: for each start point, the reflected
terminal point, the survival indicator of the first boundary hit and the
left-endpoint Ito sum of the normal increments up to that hit, with the
terminal tangential increments that all starts share.  The reflected terminal
value and the first hit are drawn from their exact joint law through the
within-step minimum of each Brownian bridge; this removes the order-1/2
monitoring bias that nodal reflection schemes carry, so the estimates can be
compared against PDE oracles at Monte Carlo accuracy.  Curved models fall
back to the nodal projection integrator.

Estimators are deterministic functions of (configuration, master seed): each
path draws from its own counter-based substream, and accumulation order is
fixed, so re-running a configuration reproduces means bit-exactly.  On the
flat models the chunk width moves no bit either.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.integrate import quad

from . import geometry as geo
from . import stepping
from .errors import QuadratureError
from .geometry import ManifoldModel, TangentVector
from .grids import TimeGrid, bridge_uniform_block, driver_block
from .hashing import canonical_digest

_CHUNK = 5000


@dataclass
class MCEstimate:
    """Monte Carlo estimate with its standard error and config digest."""

    mean: float | np.ndarray
    stderr: float | np.ndarray
    n_paths: int
    config_digest: str


@dataclass
class ScalarField:
    """Bounded scalar observable with an analytic gradient."""

    name: str
    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]

    def neumann_compatible(self, model: ManifoldModel, n_samples: int = 64, tol: float = 1e-8) -> bool:
        """Check <grad f, normal> = 0 at sampled boundary points."""
        pts = _boundary_samples(model, n_samples)
        nu = geo._normal_components(model, pts)
        viol = np.abs(np.sum(self.gradient(pts) * nu, axis=-1))
        return bool(np.max(viol) <= tol)


@dataclass
class OneForm:
    """Differential 1-form given by its chart orthonormal components."""

    name: str
    components: Callable[[np.ndarray], np.ndarray]
    closed: bool = False  # exterior derivative vanishes identically

    def boundary_compatible(self, model: ManifoldModel, n_samples: int = 64, tol: float = 1e-8) -> bool:
        """Absolute boundary conditions: phi(nu) = 0 and d phi(nu, .) = 0."""
        pts = _boundary_samples(model, n_samples)
        nu = geo._normal_components(model, pts)
        if np.max(np.abs(np.sum(self.components(pts) * nu, axis=-1))) > tol:
            return False
        if self.closed or model.dim == 1:
            return True
        h = 1e-6
        inner = pts + h * nu  # probe just inside, central differences are safe there
        for j in range(model.dim):
            e = np.zeros(model.dim)
            e[j] = 1.0
            d_nu_phi_j = (
                np.sum(self.components(inner + h * nu) * e, axis=-1)
                - np.sum(self.components(inner - h * nu) * e, axis=-1)
            ) / (2 * h)
            d_j_phi_nu = (
                np.sum(self.components(inner + h * e) * nu, axis=-1)
                - np.sum(self.components(inner - h * e) * nu, axis=-1)
            ) / (2 * h)
            if np.max(np.abs(d_nu_phi_j - d_j_phi_nu)) > max(tol, 1e-5):
                return False
        return True


def _boundary_samples(model: ManifoldModel, n: int) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(key=2024))
    if model.id in (geo.HALF_LINE, geo.HALF_SPACE):
        pts = rng.standard_normal((n, model.dim))
        pts[:, -1] = 0.0
        return pts
    if model.id == geo.FLAT_DISK:
        ang = rng.uniform(0, 2 * math.pi, n)
        return np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    phi = rng.uniform(0, 2 * math.pi, n)
    return np.stack([np.full(n, model.theta0), phi], axis=-1)


def scalar_field(name: str) -> ScalarField:
    """Built-in scalar fields selectable by name."""
    if name == "const":
        return ScalarField(
            "const",
            value=lambda x: np.ones(np.asarray(x).shape[:-1]),
            gradient=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        )
    if name == "gauss":
        return ScalarField(
            "gauss",
            value=lambda x: np.exp(-np.sum(np.asarray(x, dtype=float) ** 2, axis=-1)),
            gradient=lambda x: -2.0
            * np.asarray(x, dtype=float)
            * np.exp(-np.sum(np.asarray(x, dtype=float) ** 2, axis=-1))[..., None],
        )
    if name == "cos-neumann":

        def val(x):
            x = np.asarray(x, dtype=float)
            return np.cos(x[..., -1])

        def grad(x):
            x = np.asarray(x, dtype=float)
            g = np.zeros_like(x)
            g[..., -1] = -np.sin(x[..., -1])
            return g

        return ScalarField("cos-neumann", value=val, gradient=grad)
    raise ValueError(f"unknown scalar field {name!r}")


def one_form(name: str) -> OneForm:
    """Built-in 1-forms selectable by name."""
    if name == "zero":
        return OneForm("zero", components=lambda x: np.zeros_like(np.asarray(x, dtype=float)), closed=True)
    if name == "gauss-grad":
        f = scalar_field("gauss")
        return OneForm("gauss-grad", components=f.gradient, closed=True)
    raise ValueError(f"unknown one-form {name!r}")


# -- exact-law sampling on flat-boundary models ------------------------------


def _flat_terminal_chunks(model, T, n, dt, seed):
    """Iterate the exact-law draws of n flat-model paths, _CHUNK paths at a time.

    Yields (first, w, step_min, b_tang) per chunk of c paths: the index of its
    first path, the normal driver at the nodes ``w`` (c, N+1), the minimum of
    the Brownian bridge within each step ``step_min`` (c, N), and the terminal
    tangential increments ``b_tang`` (c, d-1).
    """
    grid = TimeGrid(T, int(round(T / dt)))
    for first in range(0, n, _CHUNK):
        c = min(_CHUNK, n - first)
        dB = driver_block(grid, model.frame_count, seed, first, c)
        U = bridge_uniform_block(grid, seed, first, c)
        w = np.zeros((c, grid.steps + 1))
        np.cumsum(dB[:, :, 0], axis=1, out=w[:, 1:])
        gap2 = (w[:, 1:] - w[:, :-1]) ** 2 - 2.0 * grid.dt * np.log(U)
        step_min = 0.5 * (w[:, :-1] + w[:, 1:] - np.sqrt(gap2))
        yield first, w, step_min, dB[:, :, 1:].sum(axis=1)


class _ExactLaw(NamedTuple):
    """Per-path record of one exact-law pass, one row per start point."""

    points: np.ndarray  # (S, n, d) reflected terminal points
    alive: np.ndarray  # (S, n) no boundary hit up to T
    b_kill: np.ndarray  # (S, n) left-endpoint Ito sum of normal increments up to the hit
    b_tang: np.ndarray  # (n, d-1) terminal tangential increments


def _exact_law(model, starts, T, n, dt, seed) -> _ExactLaw:
    """Sample n paths once for every start point (rows of ``starts``); the
    starts share each path's driver, so the rows are the coupled flow."""
    starts = np.asarray(starts, dtype=float)
    S, d = starts.shape
    points = np.empty((S, n, d))
    alive = np.empty((S, n), dtype=bool)
    b_kill = np.empty((S, n))
    b_tang = np.empty((n, d - 1))
    for first, w, step_min, tang in _flat_terminal_chunks(model, T, n, dt, seed):
        c, N = step_min.shape
        paths, rows = slice(first, first + c), np.arange(c)
        low = step_min.min(axis=1)  # bridge minimum over [0, T]
        b_tang[paths] = tang
        points[:, paths, :-1] = starts[:, None, :-1] + tang
        for k, x in enumerate(starts[:, -1]):
            points[k, paths, -1] = x + w[:, -1] + np.maximum(0.0, -x - low)
            alive[k, paths] = x + low > 0.0
            killed_by = x + step_min <= 0.0
            kill_step = np.argmax(killed_by, axis=1)
            stop = np.where(killed_by[rows, kill_step], kill_step + 1, N)
            b_kill[k, paths] = w[rows, stop]
    return _ExactLaw(points, alive, b_kill, b_tang)


def _damped(alive, v):
    """W_T v per path on a flat model: v with its normal part erased on the
    paths that hit the boundary."""
    wv = np.tile(v, (alive.shape[0], 1))
    wv[:, -1] = alive * v[-1]
    return wv


def _mean_stderr(values: np.ndarray):
    n = values.shape[0]
    mean = values.mean(axis=0)
    if n < 2:
        return mean, np.zeros_like(mean)
    sd = values.std(axis=0, ddof=1)
    return mean, sd / math.sqrt(n)


def neumann_heat_mc(
    model: ManifoldModel,
    f: ScalarField,
    T: float,
    x,
    n: int,
    dt: float,
    seed: int = 0,
) -> MCEstimate:
    """Sample mean of f at the reflected endpoint started from x."""
    digest = canonical_digest(
        dict(op="neumann", model=model.name, f=f.name, T=T, x=tuple(np.atleast_1d(x)), n=n, dt=dt, seed=seed)
    )
    if model.is_flat_chart and model.id != geo.FLAT_DISK:
        start = np.asarray(x, dtype=float).reshape(1, model.dim)
        vals = f.value(_exact_law(model, start, T, n, dt, seed).points[0])
    else:
        vals = np.empty(n)
        grid = TimeGrid(T, int(round(T / dt)))
        done = 0
        while done < n:
            c = min(2000, n - done)
            dB = driver_block(grid, model.frame_count, seed, done, c)
            out = stepping.integrate_reflected_batch(model, np.asarray(x, dtype=float), dB, grid)
            vals[done : done + c] = f.value(out["points"][:, -1])
            done += c
    mean, err = _mean_stderr(vals)
    return MCEstimate(float(mean), float(err), n, digest)


def _require_flat(model, op):
    if not (model.is_flat_chart and model.id != geo.FLAT_DISK):
        raise ValueError(f"{op} supports half-line/half-space models only")


def one_form_mc(
    model: ManifoldModel,
    phi0: OneForm,
    T: float,
    v: TangentVector,
    n: int,
    dt: float,
    seed: int = 0,
) -> MCEstimate:
    """Mean of phi0 at the reflected endpoint applied to the transported,
    damped start vector v (limit variant: normal part erased at the first
    boundary hit on flat models)."""
    _require_flat(model, "one_form_mc")
    if not phi0.boundary_compatible(model):
        raise ValueError("one-form violates the absolute boundary conditions")
    x = np.asarray(v.base, dtype=float).reshape(model.dim)
    vc = np.asarray(v.components, dtype=float).reshape(model.dim)
    digest = canonical_digest(
        dict(op="one-form", model=model.name, phi=phi0.name, T=T, x=tuple(x), v=tuple(vc), n=n, dt=dt, seed=seed)
    )
    law = _exact_law(model, x[None], T, n, dt, seed)
    # per-path covector: phi0(Y_T) applied to the columns of W_T
    cov = phi0.components(law.points[0]) * _damped(law.alive[0], np.ones(model.dim))
    mean = float(np.sum(cov.mean(axis=0) * vc))  # linear in v, ulp-exact per slot
    _, err = _mean_stderr(cov @ vc)
    return MCEstimate(mean, float(err), n, digest)


def bismut_gradient_mc(
    model: ManifoldModel,
    f: ScalarField,
    T: float,
    v: TangentVector,
    n: int,
    dt: float,
    seed: int = 0,
) -> MCEstimate:
    """Semigroup gradient via the stochastic-integral weight:
    mean of f(Y_T) * <transport-damped v, dB-sum> / T."""
    _require_flat(model, "bismut_gradient_mc")
    if not f.neumann_compatible(model):
        raise ValueError("scalar field violates the Neumann boundary condition")
    x = np.asarray(v.base, dtype=float).reshape(model.dim)
    vc = np.asarray(v.components, dtype=float).reshape(model.dim)
    digest = canonical_digest(
        dict(op="bismut", model=model.name, f=f.name, T=T, x=tuple(x), v=tuple(vc), n=n, dt=dt, seed=seed)
    )
    law = _exact_law(model, x[None], T, n, dt, seed)
    fv = f.value(law.points[0]) / T
    cov = fv[:, None] * np.column_stack([law.b_tang, law.b_kill[0]])
    mean = float(np.sum(cov.mean(axis=0) * vc))
    _, err = _mean_stderr(cov @ vc)
    return MCEstimate(mean, float(err), n, digest)


@dataclass
class NeumannHeatSolution:
    """Space-time caloric function built from the image-kernel solution.

    value(t, .) is the reflected-semigroup evolution of the terminal profile
    over the remaining time, so (d/dt + Laplacian/2) value = 0 and the normal
    derivative vanishes on the boundary.
    """

    model: ManifoldModel
    terminal: ScalarField
    horizon: float

    def __post_init__(self):
        if self.model.dim > 1 and not _depends_on_normal_only(self.terminal, self.model.dim):
            raise ValueError(
                "closed-form caloric gradients need a profile of the normal coordinate"
            )
        probe = np.linspace(0.0, 3.0, 17)[:, None] * np.ones(self.model.dim)
        self._constant = bool(np.max(np.abs(self.terminal.gradient(probe))) == 0.0)

    def gradient(self, t: float, x) -> np.ndarray:
        s = self.horizon - t
        x = np.asarray(x, dtype=float)
        if self._constant:
            return np.zeros_like(np.atleast_1d(x), dtype=float).reshape(np.shape(x))
        if s <= 0:
            return self.terminal.gradient(x)
        pts = np.atleast_2d(x)
        out = np.zeros_like(pts)
        prof = _normal_profile(self.terminal, pts.shape[-1])
        for i, p in enumerate(pts):
            out[i, -1] = image_kernel_gradient("neumann", s, float(p[-1]), prof)
        return out.reshape(np.shape(x))


def _depends_on_normal_only(f: ScalarField, d: int, tol: float = 1e-10) -> bool:
    rng = np.random.Generator(np.random.Philox(key=99))
    pts = rng.standard_normal((32, d))
    pts[:, -1] = np.abs(pts[:, -1])
    moved = pts.copy()
    moved[:, : d - 1] += rng.standard_normal((32, d - 1))
    return bool(np.max(np.abs(f.value(pts) - f.value(moved))) <= tol)


def _normal_profile(f: ScalarField, d: int):
    """Restrict a field to the normal coordinate (tangential parts average
    out separately for product profiles; built-ins depend on |x| or x_d)."""

    def val(y):
        y = np.asarray(y, dtype=float)
        pts = np.zeros(y.shape + (d,))
        pts[..., -1] = y
        return f.value(pts)

    return val


def martingale_check(
    model: ManifoldModel,
    F: NeumannHeatSolution,
    T: float,
    v: TangentVector,
    n: int,
    dt: float,
    seed: int = 0,
) -> MCEstimate:
    """Drift of the transported differential of a caloric function:
    mean of dF(T, Y_T)(W_T v) - dF(0, x)(v), zero for a true martingale."""
    _require_flat(model, "martingale_check")
    x = np.asarray(v.base, dtype=float).reshape(model.dim)
    vc = np.asarray(v.components, dtype=float).reshape(model.dim)
    digest = canonical_digest(
        dict(op="martingale", model=model.name, f=F.terminal.name, T=T, x=tuple(x), v=tuple(vc), n=n, dt=dt, seed=seed)
    )
    base = float(F.gradient(0.0, x) @ vc)
    law = _exact_law(model, x[None], T, n, dt, seed)
    vals = np.sum(F.terminal.gradient(law.points[0]) * _damped(law.alive[0], vc), axis=1) - base
    mean, err = _mean_stderr(vals)
    return MCEstimate(float(mean), float(err), n, digest)


_GL8_NODES = np.polynomial.legendre.leggauss(8)


def weak_derivative_check(
    model: ManifoldModel,
    f: ScalarField,
    gamma: Callable[[float], np.ndarray],
    gamma_dot: Callable[[float], np.ndarray],
    u1: float,
    u2: float,
    t: float,
    n: int,
    dt: float,
    seed: int = 0,
) -> MCEstimate:
    """Residual of the weak-derivative identity along a curve of starts.

    All starts share one driver (the coupled flow is exact on flat models);
    the curve integral uses 8-point Gauss-Legendre quadrature.
    """
    _require_flat(model, "weak_derivative_check")
    if not f.neumann_compatible(model):
        raise ValueError("scalar field violates the Neumann boundary condition")
    if u1 == u2:
        digest = canonical_digest(dict(op="weak-derivative", model=model.name, f=f.name, u1=u1, u2=u2))
        return MCEstimate(0.0, 0.0, n, digest)
    digest = canonical_digest(
        dict(op="weak-derivative", model=model.name, f=f.name, T=t, u1=u1, u2=u2, n=n, dt=dt, seed=seed)
    )
    nodes, weights = _GL8_NODES
    mid, half = 0.5 * (u1 + u2), 0.5 * (u2 - u1)
    us = mid + half * nodes
    ws = half * weights
    d = model.dim
    starts = np.array([np.asarray(gamma(u), dtype=float).reshape(d) for u in (*us, u1, u2)])
    dots = [np.asarray(gamma_dot(u), dtype=float).reshape(d) for u in us]
    base = starts[-2, -1]  # normal coordinate of the u1 start
    # base + (s - base) can differ from s in the last bit; the pinned means use it
    starts[:, -1] = base + (starts[:, -1] - base)
    law = _exact_law(model, starts, t, n, dt, seed)
    vals = np.zeros(n)
    for k, wq in enumerate(ws):
        vals -= wq * np.sum(f.gradient(law.points[k]) * _damped(law.alive[k], dots[k]), axis=1)
    vals += f.value(law.points[-1]) - f.value(law.points[-2])
    mean, err = _mean_stderr(vals)
    return MCEstimate(float(mean), float(err), n, digest)


# -- quadrature oracle --------------------------------------------------------


def image_kernel_oracle(kind: str, T: float, x: float, f) -> float:
    """Half-line heat-kernel quadrature with an image charge at -x.

    kind "neumann" adds the image contribution, "dirichlet" subtracts it.
    Relative accuracy 1e-8; raises QuadratureError if the integrator reports
    trouble.
    """
    return _image_quad(kind, T, x, f, derivative=False)


def image_kernel_gradient(kind: str, T: float, x: float, f) -> float:
    """d/dx of the image-kernel solution, same accuracy contract."""
    return _image_quad(kind, T, x, f, derivative=True)


def _image_quad(kind, T, x, f, derivative):
    if kind not in ("neumann", "dirichlet"):
        raise ValueError("kind must be 'neumann' or 'dirichlet'")
    if T <= 0:
        raise ValueError("T must be positive")
    value = f.value if isinstance(f, ScalarField) else f
    fn = _as_profile(value)
    sgn = 1.0 if kind == "neumann" else -1.0
    s = math.sqrt(T)
    norm = 1.0 / math.sqrt(2 * math.pi * T)

    def kernel(y):
        a = (y - x) / s
        b = (y + x) / s
        ga = np.exp(-0.5 * a * a)
        gb = np.exp(-0.5 * b * b)
        if derivative:
            return norm * fn(y) * (ga * a / s + sgn * gb * (-b / s))
        return norm * fn(y) * (ga + sgn * gb)

    hi = x + 13.0 * s
    pts = [p for p in (max(0.0, x - 13.0 * s), x) if 0.0 < p < hi]
    val, abserr = quad(kernel, 0.0, hi, points=pts or None, limit=200, epsabs=1e-14, epsrel=1e-10)
    if not math.isfinite(val) or abserr > 1e-8 * max(1.0, abs(val)):
        raise QuadratureError(f"image-kernel quadrature error estimate {abserr:g}")
    return float(val)


def _as_profile(value):
    def fn(y):
        out = np.asarray(value(np.asarray(y, dtype=float)[..., None]), dtype=float)
        return float(out.reshape(-1)[0]) if out.size == 1 else out

    return fn
