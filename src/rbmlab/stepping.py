"""Batched time stepping for the built-in models (internal).

State layout: chart points, paths along the first axis.  Inside the collar
(R < delta_0) the boundary-distance coordinate is advanced by a guarded scalar
walk driven by increment component 1 only, so coupled runs on a shared driver
see bit-identical Brownian input in the normal direction.  The remaining
regions use plain Euler steps with the blended frame (flat charts) or an
ambient step on the embedded sphere (cap interior, where the polar chart
degenerates).
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


def _disk_noise(x, dB, beta_sqrt, comp_sqrt):
    """Blended-frame noise displacement for the disk, Cartesian components."""
    r = np.linalg.norm(x, axis=-1, keepdims=True)
    e_r = np.where(r > 0, x / np.maximum(r, 1e-300), 0.0)
    e_t = np.stack([-e_r[..., 1], e_r[..., 0]], axis=-1)
    collar_part = -e_r * dB[:, 0:1] + e_t * dB[:, 1:2]
    return beta_sqrt[:, None] * collar_part + comp_sqrt[:, None] * dB[:, 2:4]


def _cap_chart_noise(x, dB, beta_sqrt, comp_sqrt):
    """Blended-frame noise in (theta, phi-hat) orthonormal components."""
    grad = geo._cap_gradient_frame(x)  # (..., 3, 2)
    interior = np.einsum("pkc,pk->pc", grad, dB[:, 2:5])
    collar_part = np.stack([-dB[:, 0], dB[:, 1]], axis=-1)
    return beta_sqrt[:, None] * collar_part + comp_sqrt[:, None] * interior


def _step_curved_penalized(model, a, x, dB_i, dt, streams, node, rows, depth=0):
    """One penalized step for a curved-chart model; returns (x_new, dL, dC).
    ``rows`` are the paths' batch rows, which an ``IntegrationError`` names."""
    R = geo.raw_boundary_distance(model, x)
    delta0 = model.tubular_radius
    collar = R < delta0
    beta = geo.blend(model, R)
    bs, ci = np.sqrt(beta), np.sqrt(1.0 - beta)
    rates = partial(_collar_rates, model)
    new = np.empty_like(x)
    dL = np.zeros(x.shape[0])
    dC = np.zeros(x.shape[0])

    if model.id == geo.FLAT_DISK:
        if collar.any():
            idx = collar
            r = 1.0 - R[idx]
            ang = np.arctan2(x[idx, 1], x[idx, 0]) + dB_i[idx, 1] / r
            R_new, (dl, dc) = guarded_walk(R[idx], dB_i[idx, 0], dt, a, rates, streams, node, rows[idx])
            new[idx, 0] = (1.0 - R_new) * np.cos(ang)
            new[idx, 1] = (1.0 - R_new) * np.sin(ang)
            dL[idx] = dl
            dC[idx] = dc
        out = ~collar
        if out.any():
            mag, damp = _tanh_rates(a, R[out])
            noise = _disk_noise(x[out], dB_i[out], bs[out], ci[out])
            r = np.linalg.norm(x[out], axis=-1, keepdims=True)
            e_r = np.where(r > 0, x[out] / np.maximum(r, 1e-300), 0.0)
            new[out] = x[out] + noise - (mag * dt)[:, None] * e_r
            dL[out] = mag * dt
            dC[out] = damp * dt
    else:  # spherical cap
        theta = x[:, 0]
        near = theta >= model.theta0 - 2.0 * delta0
        both = collar & near
        if both.any():
            idx = both
            R_new, (dl, dc) = guarded_walk(R[idx], dB_i[idx, 0], dt, a, rates, streams, node, rows[idx])
            new[idx, 0] = model.theta0 - R_new
            new[idx, 1] = x[idx, 1] + dB_i[idx, 1] / np.sin(theta[idx])
            dL[idx] = dl
            dC[idx] = dc
        mid = near & ~collar
        if mid.any():
            mag, damp = _tanh_rates(a, R[mid])
            noise = _cap_chart_noise(x[mid], dB_i[mid], bs[mid], ci[mid])
            cot = 1.0 / np.tan(theta[mid])
            new[mid, 0] = theta[mid] + noise[:, 0] + 0.5 * cot * dt - mag * dt
            new[mid, 1] = x[mid, 1] + noise[:, 1] / np.sin(theta[mid])
            dL[mid] = mag * dt
            dC[mid] = damp * dt
        far = ~near
        if far.any():
            p = geo.cap_to_ambient(x[far])
            dBv = dB_i[far, 2:5]
            noise = dBv - p * np.sum(p * dBv, axis=-1, keepdims=True)
            mag, damp = _tanh_rates(a, R[far])
            e_theta = geo.cap_basis(x[far])[..., 0]
            prop = p + noise - p * dt - (mag * dt)[:, None] * e_theta
            prop /= np.linalg.norm(prop, axis=-1, keepdims=True)
            new[far] = geo.cap_from_ambient(prop)
            dL[far] = mag * dt
            dC[far] = damp * dt

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
    L (P, N+1) (left-endpoint accumulation of the drift magnitude).
    """
    if a <= 0:
        raise ValueError("a must be positive")
    dB = np.asarray(dB, dtype=float)
    P, N, m = dB.shape
    if m != model.frame_count:
        raise ValueError("driver component count does not match model frame count")
    if N != grid.steps:
        raise ValueError("driver length does not match grid")
    x0 = np.asarray(x0, dtype=float).reshape(model.dim)
    R0 = float(geo.boundary_distance(model, x0))
    if not R0 > 0:
        raise ValueError("start point must lie in the interior")
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
    if model.id in (geo.HALF_LINE, geo.HALF_SPACE):
        rates = partial(_collar_rates, model)
        R = np.full(P, R0)
        L = np.zeros(P)
        C = np.zeros(P)
        tang = np.tile(x0[: d - 1], (P, 1))
        for i in range(N):
            R, (dL, dC) = guarded_walk(R, dB[:, i, 0], dt, a, rates, streams, i)
            L += dL
            C += dC
            if d > 1:
                tang = tang + dB[:, i, 1:]
                points[:, i + 1, : d - 1] = tang
            points[:, i + 1, d - 1] = R
            R_out[:, i + 1] = R
            L_out[:, i + 1] = L
            C_out[:, i + 1] = C
        return {"points": points, "R": R_out, "L": L_out, "C": C_out}

    x = np.tile(x0, (P, 1))
    L = np.zeros(P)
    C = np.zeros(P)
    rows = np.arange(P)
    for i in range(N):
        x, dL, dC = _step_curved_penalized(model, a, x, dB[:, i], dt, streams, i, rows)
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
    dB = np.asarray(dB, dtype=float)
    P, N, m = dB.shape
    if m != model.frame_count:
        raise ValueError("driver component count does not match model frame count")
    if N != grid.steps:
        raise ValueError("driver length does not match grid")
    x0 = np.asarray(x0, dtype=float).reshape(model.dim)
    R0 = float(geo.boundary_distance(model, x0))
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

    delta0 = model.tubular_radius
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
        collar = R < delta0
        beta = geo.blend(model, R)
        bs, ci = np.sqrt(beta), np.sqrt(1.0 - beta)
        new = np.empty_like(x)

        if model.id == geo.FLAT_DISK:
            if collar.any():
                idx = collar
                r = 1.0 - R[idx]
                ang = np.arctan2(x[idx, 1], x[idx, 0]) + dB[idx, i, 1] / r
                R_prop = R[idx] + dB[idx, i, 0] + 0.5 * geo.laplacian_R_of_R(model, R[idx]) * dt
                new[idx, 0] = (1.0 - R_prop) * np.cos(ang)
                new[idx, 1] = (1.0 - R_prop) * np.sin(ang)
            out = ~collar
            if out.any():
                new[out] = x[out] + _disk_noise(x[out], dB[out, i], bs[out], ci[out])
        else:
            theta = x[:, 0]
            near = theta >= model.theta0 - 2.0 * delta0
            both = collar & near
            if both.any():
                idx = both
                R_prop = R[idx] + dB[idx, i, 0] + 0.5 * geo.laplacian_R_of_R(model, R[idx]) * dt
                new[idx, 0] = model.theta0 - R_prop
                new[idx, 1] = x[idx, 1] + dB[idx, i, 1] / np.sin(theta[idx])
            mid = near & ~collar
            if mid.any():
                noise = _cap_chart_noise(x[mid], dB[mid, i], bs[mid], ci[mid])
                cot = 1.0 / np.tan(theta[mid])
                new[mid, 0] = theta[mid] + noise[:, 0] + 0.5 * cot * dt
                new[mid, 1] = x[mid, 1] + noise[:, 1] / np.sin(theta[mid])
            far = ~near
            if far.any():
                p = geo.cap_to_ambient(x[far])
                dBv = dB[far, i, 2:5]
                noise = dBv - p * np.sum(p * dBv, axis=-1, keepdims=True)
                prop = p + noise - p * dt
                prop /= np.linalg.norm(prop, axis=-1, keepdims=True)
                new[far] = geo.cap_from_ambient(prop)

        R_new = geo.raw_boundary_distance(model, new)
        new, R_new, push = _project_to_domain(model, new, R_new)
        L += push
        x = new
        points[:, i + 1] = x
        R_out[:, i + 1] = R_new
        L_out[:, i + 1] = L
    return {"points": points, "R": R_out, "L": L_out}
