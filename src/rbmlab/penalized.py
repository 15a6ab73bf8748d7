"""Smooth interior approximation of reflected Brownian motion.

The boundary-repelling drift is the gradient of log tanh(R/a); its magnitude
integrated along the path approximates the boundary local time, and the
associated normal damping rate feeds the damped transport.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import geometry as geo
from . import stepping
from .geometry import ManifoldModel, TangentVector
from .grids import DriverPath, TimeGrid


@dataclass
class PenalizedPath:
    """Discrete trajectory of the penalized SDE.

    Attributes
    ----------
    points : (N+1, d) chart coordinates per node
    boundary_dist : (N+1,) distance to the boundary, positive at every node
    local_time : (N+1,) nondecreasing smoothed local time, 0 at t=0
    damping : (N+1,) normal damping rate at the nodes
    damping_integral : (N+1,) running integral of the damping rate, taken
        at the same points as the local time
    """

    grid: TimeGrid
    a: float
    points: np.ndarray = field(repr=False)
    boundary_dist: np.ndarray = field(repr=False)
    local_time: np.ndarray = field(repr=False)
    damping: np.ndarray = field(repr=False)
    damping_integral: np.ndarray = field(repr=False)


def drift_field(model: ManifoldModel, a: float, x) -> TangentVector:
    """Boundary-repelling drift: colinear with grad R, magnitude
    2 / (a sinh(2R/a)), evaluated in log space deep in the interior."""
    if a <= 0:
        raise ValueError("a must be positive")
    x = np.asarray(x, dtype=float)
    R = geo.boundary_distance(model, x)
    if np.any(np.asarray(R) <= 0):
        raise ValueError("drift_field requires R(x) > 0")
    mag = stepping.tanh_drift_magnitude(a, R)
    mag_arr = np.asarray(mag)
    if np.all(mag_arr == 0.0):
        comps = np.zeros_like(np.atleast_1d(x))
    else:
        comps = np.asarray(mag)[..., None] * geo._normal_components(model, np.atleast_1d(x))
    return TangentVector(base=x, components=comps.reshape(np.shape(x)))


def integrate_penalized(
    model: ManifoldModel,
    a: float,
    x0,
    driver: DriverPath,
    grid: TimeGrid,
) -> PenalizedPath:
    """Integrate the penalized SDE along one driver.

    Inside the collar the boundary-distance coordinate is driven by increment
    component 1 only, so runs sharing a driver couple exactly with the
    reflected reference.  The smoothed local time accumulates the drift
    magnitude with a left-endpoint rule.
    """
    out = stepping.integrate_penalized_batch(model, a, x0, driver.increments[None], grid)
    R = out["R"][0]
    return PenalizedPath(
        grid=grid,
        a=a,
        points=out["points"][0],
        boundary_dist=R,
        local_time=out["L"][0],
        damping=stepping.damping_rate(a, R),
        damping_integral=out["C"][0],
    )
