"""Monte Carlo estimators for the heat-semigroup representation formulas.

On the flat-boundary models every estimator reduces one path record, drawn
in a single pass over the paths: per path the terminal normal driver, the
bridge minimum over [0, T], the terminal tangential increments and the
ladder of strict running-minimum records of the within-step bridge minima.
From it each start point gets its reflected terminal point, the survival
indicator of the first boundary hit and the left-endpoint Ito sum of the
normal increments up to that hit, at O(ladder) cost per path.  The reflected
terminal value and the first hit are drawn from their exact joint law through
the within-step minimum of each Brownian bridge; this removes the order-1/2
monitoring bias that nodal reflection schemes carry, so the estimates can be
compared against PDE oracles at Monte Carlo accuracy.  Curved models fall
back to the nodal projection integrator.

The paths are drawn and reduced in blocks of _CHUNK paths, so a pass holds
one block's (paths, steps) arrays at a time beside the record it builds, and
the curved models step their paths in node blocks and keep the last node.

The record depends only on (frame count, T, steps, n, seed), and the last one
drawn is kept in one cache slot, read-only: calls on the same draw (the seven
of criterion 8) share it, and any other draw replaces it.  Inputs are checked
before the lookup.

Estimators are deterministic functions of (configuration, master seed): each
path draws from its own counter-based substream, and accumulation order is
fixed, so re-running a configuration reproduces means bit-exactly.  On the
flat models the chunk width moves no bit either.

The image-kernel oracle behind image_kernel_oracle, image_kernel_gradient
and NeumannHeatSolution.gradient is a fixed composite Gauss-Legendre rule in
numpy, so this module, the oracle included, loads no scipy module.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import geometry as geo
from . import stepping
from .errors import QuadratureError
from .geometry import ManifoldModel, TangentVector
from .grids import TimeGrid, bridge_uniform_block, driver_block, driver_blocks
from .hashing import canonical_digest

# Paths per block of the exact-law draws: at 1000 steps each (paths, steps)
# array of a block is 2 MB.
_CHUNK = 256
# Paths per chunk, and steps per node block, of the curved models' reflected
# runs: enough rows per node to spread the node loop's per-call cost.
_CURVED_CHUNK = 2000
_CURVED_BLOCK = 64


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


def _flat_terminal_chunks(frame_count, T, steps, n, seed):
    """Iterate the exact-law draws of n flat-model paths, _CHUNK paths at a time.

    Yields (first, w, step_min, b_tang) per block of c paths: the index of its
    first path, the normal driver at the nodes ``w`` (c, N+1), the minimum of
    the Brownian bridge within each step ``step_min`` (c, N), and the terminal
    tangential increments ``b_tang`` (c, d-1).
    """
    grid = TimeGrid(T, steps)
    for first in range(0, n, _CHUNK):
        c = min(_CHUNK, n - first)
        dB = driver_block(grid, frame_count, seed, first, c)
        w = np.zeros((c, steps + 1))
        np.cumsum(dB[:, :, 0], axis=1, out=w[:, 1:])
        tang = dB[:, :, 1:].sum(axis=1)
        del dB
        # gap2 = diff**2 - 2 dt log U in U's buffer, then step_min in diff's;
        # A + (-B) is A - B exactly, so the bits are those of the plain formula
        gap = bridge_uniform_block(grid, seed, first, c)
        np.log(gap, out=gap)
        gap *= -2.0 * grid.dt
        step_min = w[:, 1:] - w[:, :-1]
        gap += np.square(step_min, out=step_min)
        np.sqrt(gap, out=gap)
        np.add(w[:, :-1], w[:, 1:], out=step_min)
        step_min -= gap
        step_min *= 0.5
        del gap
        yield first, w, step_min, tang


class _PathRecord(NamedTuple):
    """The exact-law draws of n flat-model paths, reduced to what any start
    point needs: O(1) per path plus a ladder of O(sqrt(steps)) entries (40.5
    per path on average at 1000 steps).

    The ladder of a path lists the strict running-minimum records of its
    within-step bridge minima, in step order.  The first step whose minimum
    reaches the boundary from a start x is always such a record, so the
    ladder alone decides the hit.
    """

    w_T: np.ndarray  # (n,) terminal normal driver
    low: np.ndarray  # (n,) bridge minimum over [0, T]
    b_tang: np.ndarray  # (n, d-1) terminal tangential increments
    ladder_min: np.ndarray  # (M,) record values step_min[k], path after path
    ladder_w: np.ndarray  # (M,) normal driver w[k+1] at the end of each record step
    ladder_first: np.ndarray  # (n,) index of each path's first ladder entry
    ladder_len: np.ndarray  # (n,) ladder entries per path, at least one


@functools.lru_cache(maxsize=1)
def _path_record(frame_count, T, steps, n, seed) -> _PathRecord:
    """Draw n paths once; the one cached record serves every estimator call
    on the same draw (criterion 8 makes seven).  Its arrays are read-only.
    Each block of paths is reduced to its ladder before the next is drawn."""
    w_T, low, b_tang = np.empty(n), np.empty(n), np.empty((n, frame_count - 1))
    ladder_len = np.empty(n, dtype=np.intp)
    # the ladders grow in place, by a quarter at a time, so that no joined
    # copy of them is ever held beside their blocks
    ladder_min, ladder_w = np.empty(0), np.empty(0)
    used = 0
    for first, w, step_min, tang in _flat_terminal_chunks(frame_count, T, steps, n, seed):
        paths = slice(first, first + len(w))
        run_min = np.minimum.accumulate(step_min, axis=1)
        w_T[paths], low[paths], b_tang[paths] = w[:, -1], run_min[:, -1], tang
        is_record = np.empty(step_min.shape, dtype=bool)
        is_record[:, 0] = True
        np.less(step_min[:, 1:], run_min[:, :-1], out=is_record[:, 1:])
        del run_min
        rows, cols = np.nonzero(is_record)
        end = used + rows.size
        if end > ladder_min.size:
            size = max(end, ladder_min.size * 5 // 4)
            for ladder in (ladder_min, ladder_w):
                ladder.resize(size, refcheck=False)  # no view of them exists
        ladder_min[used:end] = step_min[rows, cols]
        ladder_w[used:end] = w[rows, cols + 1]
        ladder_len[paths] = is_record.sum(axis=1)
        used = end
    for ladder in (ladder_min, ladder_w):
        ladder.resize(used, refcheck=False)
    ladder_first = np.zeros(n, dtype=ladder_len.dtype)
    np.cumsum(ladder_len[:-1], out=ladder_first[1:])
    record = _PathRecord(w_T, low, b_tang, ladder_min, ladder_w, ladder_first, ladder_len)
    for a in record:
        a.setflags(write=False)
    return record


def _checked_steps(model, starts, T, n, dt) -> int:
    """Steps of the grid T/dt, after rejecting inputs that would run with a
    silently different meaning: a start outside the closed domain, a dt that
    does not divide T, or no paths."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if not (math.isfinite(T) and T > 0 and math.isfinite(dt) and dt > 0):
        raise ValueError(f"T and dt must be positive and finite, got T={T!r}, dt={dt!r}")
    steps = round(T / dt)
    if steps < 1 or not math.isclose(steps * dt, T, rel_tol=1e-9):
        raise ValueError(f"dt={dt!r} does not divide T={T!r} into whole steps")
    starts = np.asarray(starts, dtype=float)
    if not (np.all(np.isfinite(starts)) and np.all(geo.contains(model, starts))):
        raise ValueError(f"start point outside the domain of {model.name}: {starts.tolist()}")
    return steps


class _ExactLaw(NamedTuple):
    """Per-path record of one exact-law pass, one row per start point."""

    points: np.ndarray  # (S, n, d) reflected terminal points
    alive: np.ndarray  # (S, n) no boundary hit up to T
    b_kill: np.ndarray  # (S, n) left-endpoint Ito sum of normal increments up to the hit
    b_tang: np.ndarray  # (n, d-1) terminal tangential increments


def _exact_law(model, starts, T, n, dt, seed) -> _ExactLaw:
    """Reduce the path record of n paths for every start point (rows of
    ``starts``); the starts share each path's driver, so the rows are the
    coupled flow.  Each start reads the ladders _CHUNK paths at a time."""
    starts = np.asarray(starts, dtype=float)
    steps = _checked_steps(model, starts, T, n, dt)
    rec = _path_record(model.frame_count, T, steps, n, seed)
    S, d = starts.shape
    points = np.empty((S, n, d))
    alive = np.empty((S, n), dtype=bool)
    b_kill = np.empty((S, n))
    clear = np.empty(n, dtype=np.intp)
    points[:, :, :-1] = starts[:, None, :-1] + rec.b_tang
    for k, x in enumerate(starts[:, -1]):
        points[k, :, -1] = x + rec.w_T + np.maximum(0.0, -x - rec.low)
        alive[k] = x + rec.low > 0.0
        # the ladder falls strictly and x + m is monotone in m, so the
        # entries clear of the boundary are a prefix; the hit comes next
        for p0 in range(0, n, _CHUNK):
            paths = slice(p0, p0 + _CHUNK)
            first, lens = rec.ladder_first[paths], rec.ladder_len[paths]
            entries = rec.ladder_min[first[0] : first[-1] + lens[-1]]
            clear[paths] = np.add.reduceat(x + entries > 0.0, first - first[0], dtype=np.intp)
        hit = clear < rec.ladder_len
        b_kill[k] = rec.w_T
        b_kill[k, hit] = rec.ladder_w[rec.ladder_first[hit] + clear[hit]]
    return _ExactLaw(points, alive, b_kill, rec.b_tang)


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
    start = np.asarray(x, dtype=float).reshape(1, model.dim)
    if model.is_flat_chart and model.id != geo.FLAT_DISK:
        vals = f.value(_exact_law(model, start, T, n, dt, seed).points[0])
    else:
        vals = np.empty(n)
        grid = TimeGrid(T, _checked_steps(model, start, T, n, dt))
        for first in range(0, n, _CURVED_CHUNK):
            c = min(_CURVED_CHUNK, n - first)
            blocks = driver_blocks(grid, model.frame_count, seed, first, c, _CURVED_BLOCK)
            for _, run in stepping._reflected_blocks(model, start[0], blocks, grid, first):
                pass  # the last block ends at node N
            vals[first : first + c] = f.value(run["points"][:, -1])
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
    out separately for product profiles; built-ins depend on |x| or x_d):
    the value map of points (..., 1) of the half-line."""

    def val(y):
        y = np.asarray(y, dtype=float)
        pts = np.zeros(y.shape[:-1] + (d,))
        pts[..., -1] = y[..., 0]
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
    law = _exact_law(model, x[None], T, n, dt, seed)
    base = float(F.gradient(0.0, x) @ vc)
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

_GL20 = np.polynomial.legendre.leggauss(20)
_GL10 = np.polynomial.legendre.leggauss(10)


def image_kernel_oracle(kind: str, T: float, x: float, f) -> float:
    """Half-line heat-kernel quadrature with an image charge at -x.

    kind "neumann" adds the image contribution, "dirichlet" subtracts it.  f
    is a ScalarField or a value map of points (..., 1) of the half-line.

    The integral over [max(0, x - 13 sqrt(T)), x + 13 sqrt(T)] is taken by
    the composite 20-point Gauss-Legendre rule on equal panels of width at
    most sqrt(T)/2, in one vectorized call of f on all the nodes; the
    10-point rule on the same panels estimates its error.  The profile must
    be smooth on the scale of sqrt(T): a jump or kink inside the window is
    not resolved.  Raises QuadratureError when the value is not finite or
    the estimate exceeds 1e-8 max(1, |value|).
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
    sgn = 1.0 if kind == "neumann" else -1.0
    s = math.sqrt(T)
    norm = 1.0 / math.sqrt(2 * math.pi * T)
    # equal panels of width at most s/2 over the window; below x - 13 s both
    # kernel terms are under exp(-84.5)
    lo, hi = max(0.0, x - 13.0 * s), x + 13.0 * s
    edges = np.linspace(lo, hi, math.ceil((hi - lo) / (0.5 * s)) + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    k = len(half)
    # one kernel call on both rules' nodes, the 20-point ones first
    y = np.concatenate([(mid[:, None] + half[:, None] * nodes).ravel() for nodes in (_GL20[0], _GL10[0])])
    a = (y - x) / s
    b = (y + x) / s
    ga = np.exp(-0.5 * a * a)
    gb = np.exp(-0.5 * b * b)
    # the profile at the nodes, in the shape of y: a (y.size, 1) answer would
    # broadcast against the kernel to a (y.size, y.size) array
    fy = np.broadcast_to(np.asarray(value(y[:, None]), dtype=float), y.shape)
    if derivative:
        vals = norm * fy * (ga * a / s + sgn * gb * (-b / s))
    else:
        vals = norm * fy * (ga + sgn * gb)
    p20 = vals[: 20 * k].reshape(k, 20) @ _GL20[1]
    p10 = vals[20 * k :].reshape(k, 10) @ _GL10[1]
    val = float(np.sum(p20 * half))
    # the 10-point rule on each panel estimates the 20-point rule's error there
    abserr = float(np.sum(np.abs(p20 - p10) * half))
    if not (math.isfinite(val) and abserr <= 1e-8 * max(1.0, abs(val))):
        raise QuadratureError(f"image-kernel quadrature error estimate {abserr:g}")
    return val
