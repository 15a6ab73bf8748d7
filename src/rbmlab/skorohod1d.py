"""Exact half-line machinery: Skorohod map, local time, derivative flows.

Drivers are piecewise-linear paths, for which the running-infimum solution of
the reflection problem is exact at the nodes and the interior of every segment
is fully determined.  The smooth counterpart is the log-concave drift family
built from the first-passage survival function; its realized paths and
derivative flows approximate the reflected path and its exact derivative
indicator as the softening parameter shrinks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .grids import SeedStreams
from .grids import guard_stream  # noqa: F401  (bound for perfbench/spans.py, which wraps it by name)
from .stepping import _grid_rows, guarded_walk

SQRT_HALF_PI = math.sqrt(math.pi / 2.0)


@dataclass
class RealPath:
    """Piecewise-linear real path on a strictly increasing time grid."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.shape != self.values.shape or self.times.ndim != 1:
            raise ValueError("times and values must be matching 1-d arrays")
        if self.times.size < 2 or not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing with >= 2 nodes")

    def __len__(self) -> int:
        return self.times.size


@dataclass
class SkorohodSolution:
    """Reflected path g >= 0 and its nondecreasing pushing term h."""

    reflected: RealPath
    local_time: RealPath

    @property
    def times(self) -> np.ndarray:
        return self.reflected.times


def skorohod_map(x: float, f: RealPath) -> SkorohodSolution:
    """Solve the reflection problem for start x >= 0 and driver f.

    The pushing term is the running infimum h(t) = -min_{s<=t} min(0, x+f(s)),
    exact at the nodes of a piecewise-linear driver, and g = x + f + h.
    """
    if x < 0:
        raise ValueError("start point must be nonnegative")
    if f.values[0] != 0.0:
        raise ValueError("driver must start at 0")
    h = np.maximum.accumulate(np.maximum(0.0, -(x + f.values)))
    g = x + f.values + h
    return SkorohodSolution(
        reflected=RealPath(f.times, g), local_time=RealPath(f.times, h)
    )


def _first_crossing(times: np.ndarray, d: np.ndarray, level: float = 0.0) -> float:
    """First time the piecewise-linear path d reaches `level` from above.

    A start exactly at the level counts only when the path immediately
    decreases (the reflected path is pushed from time zero in that case).
    """
    below = d <= level
    if below[0]:
        if d.size > 1 and d[1] < d[0]:
            return float(times[0])
        below = below.copy()
        below[0] = False
    idx = np.nonzero(below)[0]
    if idx.size == 0:
        return math.inf
    i = int(idx[0])
    d0, d1 = d[i - 1], d[i]
    if d1 == level:
        return float(times[i])
    frac = (d0 - level) / (d0 - d1)
    return float(times[i - 1] + frac * (times[i] - times[i - 1]))


def first_hit_zero(solution: SkorohodSolution) -> float:
    """First time the reflected path reaches zero; +inf if it never does."""
    g = solution.reflected.values
    h = solution.local_time.values
    d = g - h  # the driven path x + f
    return _first_crossing(solution.times, d, 0.0)


def local_time_at(solution: SkorohodSolution, t: float) -> float:
    """Local time at an arbitrary time, interpolating the running infimum."""
    times = solution.times
    if t <= times[0]:
        return 0.0
    d = solution.reflected.values - solution.local_time.values
    i = int(np.searchsorted(times, t, side="right") - 1)
    i = min(i, times.size - 2)
    frac = (t - times[i]) / (times[i + 1] - times[i])
    if t >= times[-1]:
        i, frac = times.size - 2, 1.0
    d_t = d[i] + frac * (d[i + 1] - d[i])
    running = min(np.min(d[: i + 1]), d_t)
    return max(0.0, -running)


def derivative_flow_exact(x: float, f: RealPath) -> RealPath:
    """Derivative of the reflected flow in its start point: 1 before the
    first zero hit, 0 after (0 at the hit itself, by right continuity)."""
    sol = skorohod_map(x, f)
    tau = first_hit_zero(sol)
    vals = np.where(f.times < tau, 1.0, 0.0)
    return RealPath(f.times, vals)


def coalescence_time(x: float, y: float, f: RealPath) -> float:
    """First time the reflected paths from x < y (same driver) meet.

    Within the meeting step the gap is flat while the lower path sits on its
    old running minimum and closes linearly once the driver makes new minima,
    so the exact meet time is the in-step crossing of the upper driven path
    through zero.
    """
    if not 0 <= x < y:
        raise ValueError("need 0 <= x < y")
    gx = skorohod_map(x, f).reflected.values
    gy = skorohod_map(y, f).reflected.values
    gap = gy - gx
    tol = 1e-12 * max(1.0, y)
    idx = np.nonzero(gap <= tol)[0]
    if idx.size == 0:
        return math.inf
    i = int(idx[0])
    if i == 0:
        return float(f.times[0])
    d_prev, d_here = y + f.values[i - 1], y + f.values[i]
    if d_here >= d_prev:  # met exactly at the node
        return float(f.times[i])
    frac = max(0.0, d_prev) / (d_prev - d_here)
    return float(f.times[i - 1] + min(frac, 1.0) * (f.times[i] - f.times[i - 1]))


def tanaka_reflection(x: float, f: RealPath) -> RealPath:
    """Node-wise |x + f|: equal in law to the reflected path, but not a flow."""
    return RealPath(f.times, np.abs(x + f.values))


# -- penalized family ---------------------------------------------------------


def _phi(y):
    """phi(y) = integral_0^y exp(-s^2/2) ds, via the error function."""
    return SQRT_HALF_PI * erf(np.asarray(y) / math.sqrt(2.0))


def penalized_drift_1d(a, x):
    """Drift of the softened half-line SDE: positive, decreasing in x.

    Value (1/sqrt(a)) exp(-x^2/2a) / phi(x/sqrt(a)); for large x/sqrt(a) the
    denominator is evaluated by its constant limit to avoid 0/0 underflow.
    ``a`` is one value or one per entry of x.
    """
    if np.any(np.asarray(a) <= 0):
        raise ValueError("a must be positive")
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr <= 0):
        raise ValueError("drift is defined for x > 0 only")
    root = np.sqrt(a)
    y = x_arr / root
    num = np.exp(-0.5 * y * y)
    den = np.where(y > 6.0, SQRT_HALF_PI, _phi(np.minimum(y, 6.0)))
    out = num / den / root
    return float(out) if out.ndim == 0 else out


def penalized_drift_second_log(a: float, x):
    """Second x-derivative of the log survival factor (always negative)."""
    g = penalized_drift_1d(a, x)
    x_arr = np.asarray(x, dtype=float)
    out = -x_arr * g / a - g * g
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class EulerScheme:
    """Stepping configuration for the softened SDE."""

    max_bisections: int = 20
    max_substeps: int = 200
    aux_seed: int = 0


def penalized_paths_1d_grid(
    a_grid,
    x: float,
    dW: np.ndarray,
    dt: float,
    scheme: EulerScheme | None = None,
) -> np.ndarray:
    """Batched Euler integration of the softened half-line SDE for every a of
    ``a_grid`` on one shared driver.

    dW has shape (P, N).  Returns node values (G, P, N+1), G = len(a_grid),
    all strictly positive.  Each step is one :func:`stepping.guarded_walk`
    over all G * P rows with this drift: a step that would cross zero is
    bisected (up to ``max_bisections`` times) with Brownian-bridge
    interpolation of its increment, and stiff drift steps are shortened so
    drift * h <= x/2.  The rows of one a form one group of the walk, so entry
    k equals the one-a run at ``a_grid[k]`` bit for bit.
    """
    if x <= 0:
        raise ValueError("start point must be strictly positive")
    scheme = scheme or EulerScheme()
    dW = np.atleast_2d(np.asarray(dW, dtype=float))
    n_paths, n_steps = dW.shape
    a_rows, group, paths = _grid_rows(a_grid, n_paths)
    G = np.size(a_grid)
    out = np.empty((G * n_paths, n_steps + 1))
    out[:, 0] = x
    state = np.full(G * n_paths, float(x))
    streams = SeedStreams(scheme.aux_seed)
    for i in range(n_steps):
        state, _ = guarded_walk(
            state, dW[paths, i], dt, a_rows, lambda a, r: (penalized_drift_1d(a, r),), streams, i,
            paths, group, max_substeps=scheme.max_substeps, max_bisect=scheme.max_bisections,
        )
        out[:, i + 1] = state
    return out.reshape(G, n_paths, n_steps + 1)


def penalized_paths_1d(
    a: float,
    x: float,
    dW: np.ndarray,
    dt: float,
    scheme: EulerScheme | None = None,
) -> np.ndarray:
    """Batched Euler integration of the softened half-line SDE.

    dW has shape (P, N).  Returns node values (P, N+1), all strictly
    positive: the one-a case of :func:`penalized_paths_1d_grid`.
    """
    return penalized_paths_1d_grid((a,), x, dW, dt, scheme)[0]


def penalized_path_1d(
    a: float, x: float, driver: RealPath, scheme: EulerScheme | None = None
) -> RealPath:
    """Single-path version of :func:`penalized_paths_1d` on a uniform driver."""
    dts = np.diff(driver.times)
    dt = float(dts[0])
    if not np.allclose(dts, dt, rtol=0, atol=1e-9 * dt):
        raise ValueError("driver grid must be uniform")
    dW = np.diff(driver.values)[None, :]
    vals = penalized_paths_1d(a, x, dW, dt, scheme)[0]
    return RealPath(driver.times, vals)


def derivative_flow_penalized(a: float, path: RealPath) -> RealPath:
    """Derivative flow along a realized softened path.

    exp of the left-endpoint quadrature of the (negative) second log
    derivative of the survival factor; values in (0, 1], nonincreasing.
    """
    x = path.values
    if np.any(x <= 0):
        raise ValueError("path must be strictly positive")
    dts = np.diff(path.times)
    incr = penalized_drift_second_log(a, x[:-1]) * dts
    expo = np.concatenate([[0.0], np.cumsum(incr)])
    return RealPath(path.times, np.exp(expo))
