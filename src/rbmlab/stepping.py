"""Batched time stepping for the built-in models (internal).

State layout: chart points, paths along the first axis.  On a shared driver
the penalized and reflected flows differ only in how the boundary-distance
coordinate R moves.  Flat-boundary models move R by a guarded scalar walk
(penalized) or as the running infimum of the driver (reflected), and the
tangential coordinates by the driver itself.  The curved
charts share one region-split step, ``_chart_step``.  Its edge rows, the
collar R < delta_0 (on the cap only where the polar chart is near the
boundary), move to the boundary distance the flow computed from increment
component 1 only -- the guarded walk, or an Euler step followed by projection
onto the domain -- so coupled runs see bit-identical Brownian input in the
normal direction.  The other rows take plain Euler steps with the blended
frame (disk, cap mid region) or an ambient step on the embedded sphere (cap
far region, where the polar chart degenerates), moved inward by the drift
displacement in the penalized flow.
"""
from __future__ import annotations

from functools import partial

import numpy as np

from . import geometry as geo
from .errors import IntegrationError
from .grids import SeedStreams, TimeGrid
from .grids import guard_stream  # noqa: F401  (bound for perfbench/spans.py, which wraps it by name)

_MAX_SUBSTEPS = 200
_MAX_BISECT = 20


def _tanh_rates(a: float, R):
    """Drift magnitude 2 / (a sinh z) and damping rate (4/a^2) cosh z / sinh^2 z
    at z = 2R/a, from one sinh (z <= 30) or exp(-z) (beyond) evaluation."""
    z = np.asarray(2.0 * np.asarray(R, dtype=float) / a)
    small = z <= 30.0
    if small.all():
        s = np.sinh(z)
        return 2.0 / (a * s), (4.0 / a**2) * np.cosh(z) / s**2
    zs = np.where(small, z, 1.0)
    s = np.sinh(zs)
    ez = np.exp(np.where(small, -np.inf, -z))
    gap = 1.0 - ez * ez
    mag = np.where(small, 2.0 / (a * s), (4.0 / a) * ez / gap)
    damp = np.where(small, (4.0 / a**2) * np.cosh(zs) / s**2, (8.0 / a**2) * (ez + ez**3) / gap**2)
    return mag, damp


def tanh_drift_magnitude(a: float, R):
    """Magnitude 2 / (a sinh(2R/a)) of the boundary-repelling drift."""
    out = _tanh_rates(a, R)[0]
    return float(out) if np.ndim(out) == 0 else out


def damping_rate(a: float, R):
    """Normal damping rate (4/a^2) cosh/sinh^2 (2R/a), evaluated stably."""
    out = _tanh_rates(a, R)[1]
    return float(out) if np.ndim(out) == 0 else out


def guarded_walk(R0, w_total, h_total, a, rates, streams, node, rows=None,
                 max_substeps=_MAX_SUBSTEPS, max_bisect=_MAX_BISECT):
    """Advance positive scalar states R0 by dR = drift(R) dt + dW over one step.

    ``rates(a, R)`` returns ``(drift, *integrands)`` at states R; the walk
    returns the new states and the integral of each integrand over the
    sub-steps.  A sub-step is shortened so that |drift| * h <= R/2, and one
    whose proposal leaves (0, inf) is bisected (up to ``max_bisect`` times)
    with a Brownian-bridge split of the remaining increment.  Only paths whose
    step is unfinished are stepped.  Each sub-step and bisection is one attempt
    of the batch, whose normals ``streams.guard(node, attempt)`` gives (entry j
    to path j), drawn only when some path needs a bridge split.  An
    ``IntegrationError`` names the batch row (``rows[j]``, or j) of the first
    failing path j and its state at the start of the step.
    """
    start = np.asarray(R0, dtype=float)
    n = start.size
    out = np.empty(n)
    if n == 0:
        return out, [out.copy() for _ in rates(a, start)[1:]]
    pos = np.arange(n)
    r = start
    rem = np.full(n, float(h_total))
    w = np.asarray(w_total, dtype=float)
    incs = None
    attempt = 0

    def error(message, j):
        row = int(j if rows is None else rows[j])
        return IntegrationError(message, node_index=node, a=a, path_index=row, boundary_distance=float(start[j]))

    def split(h):
        theta = h / rem
        if (theta >= 1.0).all():
            return w
        z = streams.guard(node, attempt).standard_normal(n)[pos]
        return np.where(theta >= 1.0, w, theta * w + np.sqrt(theta * (1.0 - theta) * rem) * z)

    for _ in range(max_substeps):
        if pos.size == 0:
            return out, incs
        first = pos[0]
        drift, *vals = rates(a, r)
        if incs is None:
            incs = [np.zeros(n) for _ in vals]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            h_cap = np.where(np.abs(drift) > 0, 0.5 * r / np.abs(drift), np.inf)
        h = np.maximum(np.minimum(rem, h_cap), rem * 2.0**-max_bisect)
        delta = split(h)
        attempt += 1
        prop = r + drift * h + delta
        bad = prop <= 0
        level = 0
        while bad.any():
            if level == max_bisect:
                raise error("positivity guard exhausted", pos[bad][0])
            h = np.where(bad, 0.5 * h, h)
            delta = np.where(bad, split(h), delta)
            attempt += 1
            prop = np.where(bad, r + drift * h + delta, prop)
            bad = prop <= 0
            level += 1
        for total, v in zip(incs, vals):
            total[pos] += v * h
        out[pos] = r = prop
        w = w - delta
        rem = np.maximum(rem - h, 0.0)
        live = rem > 0
        if not live.all():
            pos, r, w, rem = pos[live], r[live], w[live], rem[live]
    raise error("substep budget exhausted", first)


def _collar_rates(model, a, R):
    """Drift of the collar radial coordinate, then the drift magnitude and the
    damping rate, whose walk integrals are the local-time and damping
    increments."""
    mag, damp = _tanh_rates(a, np.maximum(R, 1e-300))
    return mag + 0.5 * geo.laplacian_R_of_R(model, np.maximum(R, 0.0)), mag, damp


def _disk_noise(e_r, dB, beta_sqrt, comp_sqrt):
    """Blended-frame noise displacement for the disk, Cartesian components,
    at points with radial unit vectors e_r."""
    e_t = np.stack([-e_r[..., 1], e_r[..., 0]], axis=-1)
    collar_part = -e_r * dB[:, 0:1] + e_t * dB[:, 1:2]
    return beta_sqrt[:, None] * collar_part + comp_sqrt[:, None] * dB[:, 2:4]


def _cap_chart_noise(x, dB, beta_sqrt, comp_sqrt):
    """Blended-frame noise in (theta, phi-hat) orthonormal components."""
    grad = geo.cap_basis(x)  # (..., 3, 2)
    interior = np.einsum("pkc,pk->pc", grad, dB[:, 2:5])
    collar_part = np.stack([-dB[:, 0], dB[:, 1]], axis=-1)
    return beta_sqrt[:, None] * collar_part + comp_sqrt[:, None] * interior


def _regions(model, x, R):
    """Row masks (edge, mid, far) of a curved chart step: the collar rows whose
    boundary distance the flow's radial update sets, the rows stepped in the
    blended frame, and the rows stepped on the embedded sphere (cap only,
    where the polar chart degenerates)."""
    collar = R < model.tubular_radius
    if model.id == geo.FLAT_DISK:
        return collar, ~collar, np.zeros_like(collar)
    near = x[:, 0] >= model.theta0 - 2.0 * model.tubular_radius
    return collar & near, near & ~collar, ~near


def _chart_step(model, x, R, dB, dt, regions, R_edge, inward=None):
    """New chart points after one step of a curved-chart model.

    Edge rows move to boundary distance ``R_edge`` and along the boundary by
    dB[:, 1]; mid rows take an Euler step in the blended frame, far rows one
    on the embedded sphere.  ``inward`` (one entry per row, read off the edge
    only) moves mid and far rows that much further along grad R.
    """
    edge, mid, far = regions
    new = np.empty_like(x)
    if edge.any():
        if model.id == geo.FLAT_DISK:
            ang = np.arctan2(x[edge, 1], x[edge, 0]) + dB[edge, 1] / (1.0 - R[edge])
            new[edge, 0] = (1.0 - R_edge) * np.cos(ang)
            new[edge, 1] = (1.0 - R_edge) * np.sin(ang)
        else:
            new[edge, 0] = model.theta0 - R_edge
            new[edge, 1] = x[edge, 1] + dB[edge, 1] / np.sin(x[edge, 0])
    if mid.any():
        xm, beta = x[mid], geo.blend(model, R[mid])
        bs, ci = np.sqrt(beta), np.sqrt(1.0 - beta)
        if model.id == geo.FLAT_DISK:
            r = np.linalg.norm(xm, axis=-1, keepdims=True)
            e_r = np.where(r > 0, xm / np.maximum(r, 1e-300), 0.0)
            step = xm + _disk_noise(e_r, dB[mid], bs, ci)
            new[mid] = step if inward is None else step - inward[mid][:, None] * e_r
        else:
            theta = xm[:, 0]
            noise = _cap_chart_noise(xm, dB[mid], bs, ci)
            cot = 1.0 / np.tan(theta)
            step = theta + noise[:, 0] + 0.5 * cot * dt
            new[mid, 0] = step if inward is None else step - inward[mid]
            new[mid, 1] = xm[:, 1] + noise[:, 1] / np.sin(theta)
    if far.any():
        p = geo.cap_to_ambient(x[far])
        dBv = dB[far, 2:5]
        prop = p + (dBv - p * np.sum(p * dBv, axis=-1, keepdims=True)) - p * dt
        if inward is not None:
            prop = prop - inward[far][:, None] * geo.cap_basis(x[far])[..., 0]
        prop /= np.linalg.norm(prop, axis=-1, keepdims=True)
        new[far] = geo.cap_from_ambient(prop)
    return new


def _step_flat_penalized(model, a, x, dB_i, dt, streams, node, rows):
    """One penalized step for a flat-boundary model; returns (x_new, dL, dC).
    The last coordinate is the boundary distance, the others move with the
    driver."""
    rates = partial(_collar_rates, model)
    R, (dL, dC) = guarded_walk(x[:, -1], dB_i[:, 0], dt, a, rates, streams, node, rows)
    return np.column_stack([x[:, :-1] + dB_i[:, 1:], R]), dL, dC


def _step_curved_penalized(model, a, x, dB_i, dt, streams, node, rows, depth=0):
    """One penalized step for a curved-chart model; returns (x_new, dL, dC).
    ``rows`` are the paths' batch rows, which an ``IntegrationError`` names."""
    R = geo.raw_boundary_distance(model, x)
    regions = _regions(model, x, R)
    edge = regions[0]
    rest = ~edge
    dL = np.empty(x.shape[0])
    dC = np.empty(x.shape[0])
    rates = partial(_collar_rates, model)
    R_edge, (dL[edge], dC[edge]) = guarded_walk(R[edge], dB_i[edge, 0], dt, a, rates, streams, node, rows[edge])
    mag, damp = _tanh_rates(a, R[rest])
    dL[rest] = mag * dt
    dC[rest] = damp * dt
    new = _chart_step(model, x, R, dB_i, dt, regions, R_edge, inward=dL)

    bad = geo.raw_boundary_distance(model, new) <= 0
    if bad.any():
        idx = np.nonzero(bad)[0]
        if depth >= _MAX_BISECT:
            raise IntegrationError("positivity guard exhausted", node_index=node, a=a,
                                   path_index=int(rows[idx[0]]), boundary_distance=float(R[idx[0]]))
        # redo escaped steps (possible only on coarse grids, off the collar)
        # in two bridge halves
        z = streams.guard(node, 4096 + depth).standard_normal(dB_i.shape)[idx]
        half1 = 0.5 * dB_i[idx] + 0.5 * np.sqrt(dt) * z
        half2 = dB_i[idx] - half1
        x1, dl1, dc1 = _step_curved_penalized(model, a, x[idx], half1, dt / 2, streams, node, rows[idx], depth + 1)
        x2, dl2, dc2 = _step_curved_penalized(model, a, x1, half2, dt / 2, streams, node, rows[idx], depth + 1)
        new[idx] = x2
        dL[idx] = dl1 + dl2
        dC[idx] = dc1 + dc2
    return new, dL, dC


def _checked_inputs(model, x0, dB, grid):
    """The driver as a float array (P, N, m), the start point and its boundary
    distance, checked against the model and the grid."""
    dB = np.asarray(dB, dtype=float)
    _, N, m = dB.shape
    if m != model.frame_count:
        raise ValueError("driver component count does not match model frame count")
    if N != grid.steps:
        raise ValueError("driver length does not match grid")
    x0 = np.asarray(x0, dtype=float).reshape(model.dim)
    return dB, x0, float(geo.boundary_distance(model, x0))


def integrate_penalized_batch(
    model: geo.ManifoldModel,
    a: float,
    x0: np.ndarray,
    dB: np.ndarray,
    grid: TimeGrid,
    aux_seed: int = 0,
):
    """Euler-Maruyama with boundary-repelling drift; returns dict of arrays.

    dB has shape (P, N, m).  Output: points (P, N+1, d), R (P, N+1),
    L (P, N+1) (left-endpoint accumulation of the drift magnitude) and
    C (P, N+1) (the same for the damping rate).
    """
    if a <= 0:
        raise ValueError("a must be positive")
    dB, x0, R0 = _checked_inputs(model, x0, dB, grid)
    if not R0 > 0:
        raise ValueError("start point must lie in the interior")
    P, N, _ = dB.shape
    dt = grid.dt
    d = model.dim

    points = np.empty((P, N + 1, d))
    R_out = np.empty((P, N + 1))
    L_out = np.empty((P, N + 1))
    C_out = np.empty((P, N + 1))
    points[:, 0] = x0
    R_out[:, 0] = R0
    L_out[:, 0] = 0.0
    C_out[:, 0] = 0.0

    streams = SeedStreams(aux_seed)
    flat = model.id in (geo.HALF_LINE, geo.HALF_SPACE)
    step = _step_flat_penalized if flat else _step_curved_penalized
    x = np.tile(x0, (P, 1))
    L = np.zeros(P)
    C = np.zeros(P)
    rows = np.arange(P)
    for i in range(N):
        x, dL, dC = step(model, a, x, dB[:, i], dt, streams, i, rows)
        L += dL
        C += dC
        points[:, i + 1] = x
        R_out[:, i + 1] = geo.raw_boundary_distance(model, x)
        L_out[:, i + 1] = L
        C_out[:, i + 1] = C
    return {"points": points, "R": R_out, "L": L_out, "C": C_out}


def _project_to_domain(model, pts, R):
    """Push points with negative boundary distance back onto the boundary."""
    neg = R < 0
    if not np.any(neg):
        return pts, R, np.zeros_like(R)
    push = np.where(neg, -R, 0.0)
    out = pts.copy()
    if model.id == geo.FLAT_DISK:
        nrm = np.linalg.norm(out, axis=-1, keepdims=True)
        out = np.where(neg[:, None], out / np.maximum(nrm, 1e-300), out)
    elif model.id == geo.SPHERICAL_CAP:
        out[:, 0] = np.where(neg, model.theta0, out[:, 0])
    else:
        out[:, -1] = np.where(neg, 0.0, out[:, -1])
    return out, np.where(neg, 0.0, R), push


def integrate_reflected_batch(
    model: geo.ManifoldModel,
    x0: np.ndarray,
    dB: np.ndarray,
    grid: TimeGrid,
):
    """Reference reflected paths on a shared driver; returns dict of arrays.

    Flat-boundary models solve the normal coordinate exactly as the running
    infimum of the discretized driver; curved models take an Euler step and
    project back into the domain, the push distance feeding the local time.
    """
    dB, x0, R0 = _checked_inputs(model, x0, dB, grid)
    P, N, _ = dB.shape
    dt = grid.dt
    d = model.dim

    if model.id in (geo.HALF_LINE, geo.HALF_SPACE):
        # identical arithmetic to skorohod1d.skorohod_map on each path
        f = np.concatenate([np.zeros((P, 1)), np.cumsum(dB[:, :, 0], axis=1)], axis=1)
        h = np.maximum.accumulate(np.maximum(0.0, -(R0 + f)), axis=1)
        g = R0 + f + h
        points = np.empty((P, N + 1, d))
        points[..., d - 1] = g
        if d > 1:
            points[:, 0, : d - 1] = x0[: d - 1]
            points[:, 1:, : d - 1] = x0[: d - 1] + np.cumsum(dB[:, :, 1:], axis=1)
        return {"points": points, "R": g, "L": h}

    x = np.tile(x0, (P, 1))
    L = np.zeros(P)
    points = np.empty((P, N + 1, d))
    R_out = np.empty((P, N + 1))
    L_out = np.empty((P, N + 1))
    points[:, 0] = x0
    R_out[:, 0] = R0
    L_out[:, 0] = 0.0

    for i in range(N):
        R = geo.raw_boundary_distance(model, x)
        regions = _regions(model, x, R)
        edge = regions[0]
        R_edge = R[edge] + dB[edge, i, 0] + 0.5 * geo.laplacian_R_of_R(model, R[edge]) * dt
        x = _chart_step(model, x, R, dB[:, i], dt, regions, R_edge)
        x, R_new, push = _project_to_domain(model, x, geo.raw_boundary_distance(model, x))
        L += push
        points[:, i + 1] = x
        R_out[:, i + 1] = R_new
        L_out[:, i + 1] = L
    return {"points": points, "R": R_out, "L": L_out}
