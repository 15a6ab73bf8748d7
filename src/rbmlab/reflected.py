"""Reference reflected Brownian motion and excursion bookkeeping."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import stepping
from .geometry import ManifoldModel
from .grids import DriverPath, TimeGrid


def default_contact_threshold(grid: TimeGrid) -> float:
    """Contact threshold eta: the boundary occupation scale sqrt(dt)."""
    return math.sqrt(grid.dt)


@dataclass
class ReflectedPath:
    """Discrete reflected trajectory with exact-complementarity local time.

    boundary_flags marks nodes with R < eta; the local time increases only
    into flagged nodes.
    """

    grid: TimeGrid
    eta: float
    points: np.ndarray = field(repr=False)
    boundary_dist: np.ndarray = field(repr=False)
    local_time: np.ndarray = field(repr=False)
    boundary_flags: np.ndarray = field(repr=False)


@dataclass
class ExcursionSet:
    """Interior excursions of the boundary-distance process.

    intervals holds (l, r) node-index pairs of maximal off-boundary stretches
    of duration >= epsilon, l and r at flagged nodes (l = 0 for an initial
    stretch that has never touched).  right_ends lists the r indices of
    intervals closed by an actual boundary return, ordered increasingly.
    """

    epsilon: float
    eta: float
    intervals: list[tuple[int, int]]
    right_ends: np.ndarray


def integrate_reflected(
    model: ManifoldModel,
    x0,
    driver: DriverPath,
    grid: TimeGrid,
    eta: float | None = None,
) -> ReflectedPath:
    """Reflected path on one driver: exact running-infimum solution of the
    normal coordinate on flat-boundary models, Euler step plus projection on
    the curved ones (push distance = local-time increment)."""
    eta = default_contact_threshold(grid) if eta is None else eta
    if not eta > 0:
        raise ValueError("eta must be positive")
    out = stepping.integrate_reflected_batch(model, x0, driver.increments[None], grid)
    R = out["R"][0]
    return ReflectedPath(
        grid=grid,
        eta=eta,
        points=out["points"][0],
        boundary_dist=R,
        local_time=out["L"][0],
        boundary_flags=R < eta,
    )


def close_events(R: np.ndarray, times: np.ndarray, eta: float, last=None):
    """Vectorized excursion scan over (..., n) boundary-distance arrays.

    Returns (closes, durations): closes[..., i] is True when node i is the
    first contact after an off-boundary stretch; durations[..., i] measures
    that stretch from the last prior contact node (from t=0 for the initial
    stretch).

    ``times`` runs from the grid's node 0 to R's last node, so R holds the
    run's last n nodes: the whole run for one call, a node block of it when
    the scan goes block by block.  ``last`` (...) then carries each path's
    last contact node (-1 for none) from block to block: it holds the last
    contact before R's first node on the call (none where ``last`` is None)
    and is overwritten with the last contact before R's last node, at which
    the next block starts.  The blocks' events are the whole run's, bit for
    bit.
    """
    contact = R < eta
    n = R.shape[-1]
    idx = np.arange(len(times) - n, len(times))
    prev = np.empty(R.shape, dtype=int)
    prev[..., 0] = -1 if last is None else last
    prev[..., 1:] = np.where(contact[..., :-1], idx[:-1], -1)
    prev = np.maximum.accumulate(prev, axis=-1)
    if last is not None:
        last[...] = prev[..., -1]
    start_time = np.where(prev >= 0, times[np.maximum(prev, 0)], times[0])
    duration = times[idx] - start_time
    closes = contact & (prev < idx - 1)
    return closes, duration


def excursion_flags(R: np.ndarray, times: np.ndarray, eps: float, eta: float):
    """Right-end flags of excursions with duration >= eps, vectorized."""
    closes, duration = close_events(R, times, eta)
    return closes & (duration >= eps), duration


def excursions(path: ReflectedPath, eps: float, eta: float | None = None) -> ExcursionSet:
    """Maximal off-boundary intervals of duration >= eps.

    Contact runs close at their last node, so each interval runs from the last
    node of one contact run (or node 0) to the first node of the next.
    """
    if eta is None:
        eta = path.eta
    if not eta > 0:
        raise ValueError("contact threshold must be positive")
    times = path.grid.times
    R = path.boundary_dist
    contact = R < eta
    last = np.array(-1)
    closes, duration = close_events(R, times, eta, last)
    right = np.flatnonzero(closes & (duration >= eps))
    # each close's l: the contact node just before it in the list of contacts
    hits = np.flatnonzero(contact)
    before = np.searchsorted(hits, right) - 1
    left = np.where(before >= 0, hits[before], 0)
    intervals = list(zip(left.tolist(), right.tolist()))
    # a stretch still open at the horizon runs from the last contact, which
    # the scan carries out in ``last``, to the last node: no right end
    if not contact[-1] and duration[-1] >= eps:
        intervals.append((max(int(last), 0), R.size - 1))
    return ExcursionSet(epsilon=eps, eta=eta, intervals=intervals, right_ends=right)


def last_contact(path: ReflectedPath, t: float, eta: float | None = None) -> float | None:
    """Latest flagged node time <= t, or None if the path has not touched yet."""
    if eta is None:
        eta = path.eta
    times = path.grid.times
    k = int(np.searchsorted(times, t * (1 + 1e-12), side="right")) - 1
    if k < 0:
        return None
    flags = path.boundary_dist[: k + 1] < eta
    hits = np.nonzero(flags)[0]
    if hits.size == 0:
        return None
    return float(times[hits[-1]])
