"""Discrete parallel transport frames along simulated paths.

Flat-chart models carry the trivial connection, so transport is the identity.
On the cap each step is exact transport along the geodesic joining
consecutive nodes, written in the orthonormal chart frames (e_theta, e_phi)
of its endpoints.  On a surface that matrix is a rotation in SO(2), and
rotations of the plane commute, so the frame at node i is the rotation by the
cumulative angle sum_{k<i} alpha_k.  Gauss-Bonnet on the geodesic triangle
(pole, x_k, x_{k+1}) of curvature one gives

    alpha_k = E_k - dphi_k,
    E_k = 2 atan2(t t' sin dphi_k, 1 + t t' cos dphi_k),

with t = tan(theta_k / 2), t' = tan(theta_{k+1} / 2); E_k is the triangle's
signed area and -dphi_k takes out the turn of the chart frame between the
meridians of the two nodes.  A 2 pi wrap of phi changes alpha_k by 2 pi and
so no frame.  The frames are orthonormal by construction.  The cumulative
angle is all the state a path carries, so the frames can be taken in node
blocks, the angle carried from one block to the next.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import geometry as geo
from .geometry import ManifoldModel
from .grids import DriverPath, TimeGrid

@dataclass
class TransportFrame:
    """Per-node orthonormal matrices mapping T_{Y_0} to T_{Y_{t_i}}."""

    matrices: np.ndarray = field(repr=False)  # (N+1, d, d)

    def __len__(self) -> int:
        return self.matrices.shape[0]


def _path_points(path_or_points) -> np.ndarray:
    pts = getattr(path_or_points, "points", path_or_points)
    return np.asarray(pts, dtype=float)


def transport_batch(model: ManifoldModel, points: np.ndarray, angle=None) -> np.ndarray:
    """Transport matrices along batched paths, shape (P, N+1, d, d).

    On the cap the frames may be taken in node blocks.  ``angle`` (P,) then
    carries the cumulative angle from block to block: it holds the angle at
    the block's first node on the call (zero where ``angle`` is None) and is
    overwritten with the angle at its last node, from which the next block,
    starting at that node, goes on.  The cumulative sum runs node after node,
    so the blocks' frames are the whole run's bit for bit.  Flat-chart
    models ignore it.
    """
    points = np.asarray(points, dtype=float)
    P, n, d = points.shape
    out = np.zeros((P, n, d, d))
    if model.is_flat_chart:
        out[..., range(d), range(d)] = 1.0
        return out

    t = np.tan(0.5 * points[..., 0])
    tt = t[:, :-1] * t[:, 1:]
    dphi = np.diff(points[..., 1], axis=1)
    cum = np.empty((P, n))
    cum[:, 0] = 0.0 if angle is None else angle
    cum[:, 1:] = 2.0 * np.arctan2(tt * np.sin(dphi), 1.0 + tt * np.cos(dphi)) - dphi
    np.cumsum(cum, axis=1, out=cum)
    if angle is not None:
        angle[...] = cum[:, -1]
    cos, sin = np.cos(cum), np.sin(cum)
    out[..., 0, 0] = cos
    out[..., 0, 1] = -sin
    out[..., 1, 0] = sin
    out[..., 1, 1] = cos
    return out


def parallel_transport(model: ManifoldModel, path_or_points) -> TransportFrame:
    """Transport frame along one nodal path."""
    pts = _path_points(path_or_points)
    return TransportFrame(matrices=transport_batch(model, pts[None])[0])


def transport_convergence_check(
    model: ManifoldModel,
    a_list,
    driver: DriverPath,
    grid: TimeGrid,
    v,
    x0=None,
):
    """Sup-norm gap between transported vectors along coupled penalized and
    reflected paths, one row per smoothing level a."""
    from . import stepping  # local import to avoid a cycle at module load

    v = np.asarray(getattr(v, "components", v), dtype=float)
    if x0 is None:
        x0 = default_start(model)
    dB = driver.increments[None]
    ref = stepping.integrate_reflected_batch(model, x0, dB, grid)
    ref_frames = transport_batch(model, ref["points"])
    ref_v = ref_frames[0] @ v
    pen = stepping.integrate_penalized_grid(model, a_list, x0, dB, grid)
    pen_v = transport_batch(model, pen["points"][:, 0]) @ v
    gaps = np.linalg.norm(pen_v - ref_v, axis=-1).max(axis=-1)
    return [{"a": float(a), "sup_gap": float(gap)} for a, gap in zip(a_list, gaps)]


def default_start(model: ManifoldModel) -> np.ndarray:
    """A generic interior start point used by convergence studies."""
    if model.id == geo.HALF_LINE:
        return np.array([0.5])
    if model.id == geo.HALF_SPACE:
        x = np.zeros(model.dim)
        x[-1] = 0.5
        return x
    if model.id == geo.FLAT_DISK:
        return np.array([0.5, 0.0])
    return np.array([model.theta0 - 0.15, 0.0])
