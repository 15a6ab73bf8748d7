"""Exact half-line machinery: Skorohod map, local time, derivative flows.

Drivers are piecewise-linear paths, for which the running-infimum solution of
the reflection problem is exact at the nodes and the interior of every segment
is fully determined.  The smooth counterpart is the log-concave drift family
built from the first-passage survival function; its realized paths (one
drift-implicit Euler step per node, which keeps every node positive) and
derivative flows approximate the reflected path and its exact derivative
indicator as the softening parameter shrinks.

The survival function phi imports erf from scipy.special on its first call,
so importing this module loads numpy alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import guard_stream  # noqa: F401  (bound for perfbench/spans.py, which wraps it by name)
from .stepping import _grid_rows, _joined_blocks, implicit_step

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
    from scipy.special import erf

    return SQRT_HALF_PI * erf(np.asarray(y) / math.sqrt(2.0))


def _checked_drift_args(a, x):
    """x as a float array, after checking that a and x are positive."""
    if np.any(np.asarray(a) <= 0):
        raise ValueError("a must be positive")
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr <= 0):
        raise ValueError("drift is defined for x > 0 only")
    return x_arr


def _survival_constants(a):
    """a and sqrt(a), the factors of :func:`_survival_rates` that depend on a
    alone: a tuple for one value of a, and for an array of values one array
    with a new leading axis, so that a step compacts its rows' constants with
    one index and computes them once per run."""
    consts = (a, np.sqrt(a))
    return consts if isinstance(a, float) else np.stack(consts)


def _survival_rates(a, x):
    """The drift at x > 0 and its x-derivative (the second log derivative of
    the survival factor), from one evaluation and without argument checks.
    ``a`` is one value, one per entry of x, or their
    :func:`_survival_constants` (one more axis than x)."""
    a, root = a if np.ndim(a) > np.ndim(x) else _survival_constants(a)
    y = x / root
    num = np.exp(-0.5 * y * y)
    den = np.where(y > 6.0, SQRT_HALF_PI, _phi(np.minimum(y, 6.0)))
    g = num / den / root
    return g, -x * g / a - g * g


def penalized_drift_1d(a, x):
    """Drift of the softened half-line SDE: positive, decreasing in x.

    Value (1/sqrt(a)) exp(-x^2/2a) / phi(x/sqrt(a)); for large x/sqrt(a) the
    denominator is evaluated by its constant limit to avoid 0/0 underflow.
    ``a`` is one value or one per entry of x.
    """
    out = _survival_rates(a, _checked_drift_args(a, x))[0]
    return float(out) if out.ndim == 0 else out


def penalized_drift_second_log(a: float, x):
    """Second x-derivative of the log survival factor (always negative)."""
    out = _survival_rates(a, _checked_drift_args(a, x))[1]
    return float(out) if np.ndim(out) == 0 else out


def _flow_blocks(a_grid, x: float, blocks, dt: float, first_path: int = 0):
    """The runs of :func:`penalized_paths_1d_grid`, stepped on driver blocks.

    ``blocks`` yields driver blocks (i0, dW), dW (P, n) the increments of
    steps i0..i0+n-1, which must join (:func:`stepping._joined_blocks`).
    Yields (i0, X) per block: X (G, P, n+1) holds nodes i0..i0+n of the
    stored run, bit for bit, and is reused for the next block.  The paths
    are paths first_path.. of a sweep, and an ``IntegrationError`` names that
    index.
    """
    if x <= 0:
        raise ValueError("start point must be strictly positive")
    G = np.size(a_grid)
    out = None
    for i0, dW in _joined_blocks(blocks):
        n_paths, n = dW.shape
        if out is None:
            a_rows, paths = _grid_rows(a_grid, n_paths, first_path)
            consts = _survival_constants(a_rows)
            out = np.empty((G * n_paths, n + 1))
            state = np.full(G * n_paths, float(x))
            # one node's driver, row by row: the paths' increments once per value of a
            node_dW = np.empty((G, n_paths))
            w = node_dW.reshape(G * n_paths)
        # node 0 of a block is the last node of the one before
        out[:, 0] = state
        for k in range(n):
            np.copyto(node_dW, dW[:, k])
            state, _ = implicit_step(state, w, dt, consts, _survival_rates, i0 + k, paths)
            out[:, k + 1] = state
        yield i0, out[:, : n + 1].reshape(G, n_paths, n + 1)


def penalized_paths_1d_grid(a_grid, x: float, dW: np.ndarray, dt: float, first_path: int = 0) -> np.ndarray:
    """Batched drift-implicit Euler integration of the softened half-line SDE
    for every a of ``a_grid`` on one shared driver.

    dW has shape (P, N).  Returns node values (G, P, N+1), G = len(a_grid),
    all strictly positive.  Each step is one :func:`stepping.implicit_step`
    over all G * P rows with this drift, whose slope is
    :func:`penalized_drift_second_log`.  Rows are stepped on their own, so
    entry k equals the one-a run at ``a_grid[k]`` bit for bit and a path does
    not depend on the other paths of the batch.  The paths are paths
    first_path.. of a sweep, and an ``IntegrationError`` names that index.
    """
    # one block: the generator runs to its end
    [(_, X)] = _flow_blocks(a_grid, x, [(0, dW)], dt, first_path)
    return X


def penalized_paths_1d(a: float, x: float, dW: np.ndarray, dt: float) -> np.ndarray:
    """Batched drift-implicit Euler integration of the softened half-line SDE.

    dW has shape (P, N).  Returns node values (P, N+1), all strictly
    positive: the one-a case of :func:`penalized_paths_1d_grid`.
    """
    return penalized_paths_1d_grid((a,), x, dW, dt)[0]


def penalized_path_1d(a: float, x: float, driver: RealPath) -> RealPath:
    """Single-path version of :func:`penalized_paths_1d` on a uniform driver."""
    dts = np.diff(driver.times)
    dt = float(dts[0])
    if not np.allclose(dts, dt, rtol=0, atol=1e-9 * dt):
        raise ValueError("driver grid must be uniform")
    dW = np.diff(driver.values)[None, :]
    vals = penalized_paths_1d(a, x, dW, dt)[0]
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
