"""Batched time stepping for the built-in models (internal).

State layout: chart points, paths along the first axis.  On a shared driver
the penalized and reflected flows differ only in how the boundary-distance
coordinate R moves.  Flat-boundary models move R by a drift-implicit
scalar step (penalized) or as the running infimum of the driver (reflected),
and the tangential coordinates by the driver itself.  The curved
charts share one region-split step, ``_chart_step``.  Its edge rows, the
collar R < delta_0 (on the cap only where the polar chart is near the
boundary), move to the boundary distance the flow computed from increment
component 1 only -- the drift-implicit step ``implicit_step``, or an Euler
step followed by projection onto the domain -- so coupled runs see
bit-identical Brownian input in the normal direction.  The implicit step
solves r - dt b(r) = R + dW per row by Newton's method; its drift is positive
near the boundary and decreasing, so the root is unique and positive and no
step is ever shortened or redrawn (Alfonsi, MCMA 2005; Neuenkirch & Szpruch,
Numer. Math. 2014).  The other rows take plain Euler steps with the blended
frame (disk, cap mid region) or an ambient step on the embedded sphere (cap
far region, where the polar chart degenerates), moved inward by the drift
displacement in the penalized flow.  A penalized off-collar step that leaves
the domain (on coarse grids only) keeps its direction and lands at the
drift-implicit root from its start, so no step draws anything beyond the
driver.
"""
from __future__ import annotations

from functools import partial

import numpy as np

from . import geometry as geo
from .errors import IntegrationError
from .grids import TimeGrid
from .grids import guard_stream  # noqa: F401  (bound for perfbench/spans.py, which wraps it by name)

_NEWTON_TOL = 1e-10  # bound on a Newton correction, relative to the iterate
_ROOT_TOL = 1e-6  # the same for a step that returns only the root
_MAX_NEWTON = 100


def _squares(a):
    """a**2 as Python squares a float, also for an array of values of a: one
    libm ``pow`` each (numpy's ``float_power`` loop), not the array square,
    which rounds a*a and differs from ``pow`` in the last bit for about one
    float in a thousand."""
    return a**2 if isinstance(a, float) else np.float_power(a, 2.0)


def _tanh_constants(a):
    """a, 4/a^2, 8/a^2 and 4/a, the factors of :func:`_tanh_rates` that depend
    on a alone: a tuple for one value of a, and for an array of values one
    array with a new leading axis, so that a step compacts its rows' constants
    with one index and computes them once per run."""
    a_sq = _squares(a)
    consts = (a, 4.0 / a_sq, 8.0 / a_sq, 4.0 / a)
    return consts if isinstance(a, float) else np.stack(consts)


def _tanh_rates(a, R):
    """Drift magnitude 2 / (a sinh z) and damping rate (4/a^2) cosh z / sinh^2 z
    at z = 2R/a, from one sinh (z <= 30) or exp(-z) (beyond) evaluation.
    ``a`` is one value, one per entry of R, or their :func:`_tanh_constants`
    (one more axis than R)."""
    R = np.asarray(R, dtype=float)
    a, c4, c8, c4a = a if np.ndim(a) > R.ndim else _tanh_constants(a)
    z = np.asarray(2.0 * R / a)
    small = z <= 30.0
    if np.count_nonzero(small) == small.size:
        s = np.sinh(z)
        return 2.0 / (a * s), c4 * np.cosh(z) / s**2
    zs = np.where(small, z, 1.0)
    s = np.sinh(zs)
    ez = np.exp(np.where(small, -np.inf, -z))
    gap = 1.0 - ez * ez
    mag = np.where(small, 2.0 / (a * s), c4a * ez / gap)
    damp = np.where(small, c4 * np.cosh(zs) / s**2, c8 * (ez + ez**3) / gap**2)
    return mag, damp


def tanh_drift_magnitude(a: float, R):
    """Magnitude 2 / (a sinh(2R/a)) of the boundary-repelling drift."""
    out = _tanh_rates(a, R)[0]
    return float(out) if np.ndim(out) == 0 else out


def damping_rate(a: float, R):
    """Normal damping rate (4/a^2) cosh/sinh^2 (2R/a), evaluated stably."""
    out = _tanh_rates(a, R)[1]
    return float(out) if np.ndim(out) == 0 else out


def implicit_step(R0, w, dt, a, rates, node=None, rows=None):
    """Drift-implicit Euler step of dR = b(R) dt + dW from positive states R0
    over increments w: the root r > 0 of r - dt b(r) = y, y = R0 + w, per row.

    ``rates(a, r)`` returns ``(b, b', *integrands)`` at states r > 0 and their
    values of ``a``: one value, one per row, or per-row constants of the
    rates stacked on a leading axis, whose first row is a (such as
    :func:`_tanh_constants` of the rows' a).  The drifts stepped here are
    decreasing and blow up at 0+ like 1/r, so F(r) = r - dt b(r) - y rises
    from -inf with slope F' = 1 - dt b' >= 1 and has exactly one positive
    root.  Newton's method starts at y where y > sqrt(dt) and elsewhere at the
    Bessel-3 root (y + sqrt(y^2 + 4 dt)) / 2 (exact for b = 1/r).  An iterate
    moves down by at most half, and each row keeps a bracket of its points
    where F < 0 (from 0) and F > 0 (from +inf) and bisects it where an iterate
    would leave it, so every iterate is positive.  A row is done at the first
    iterate r_k whose correction c = F/F' is at most _NEWTON_TOL * r_k; it
    returns the root r_k - c and each integrand at r_k times dt, so the
    increments are taken at the implicit point to the solver's tolerance.
    A step without integrands needs only the root, which misses by about
    |F''| c^2 / 2F' <= 10 c^2 / r_k for these drifts, and takes
    _ROOT_TOL * r_k as its bound on c.  Done rows leave the iteration and
    rows share nothing, so a row's bits do not depend on its batch-mates.  A
    non-finite y, or a row not done after _MAX_NEWTON iterates, raises an
    ``IntegrationError`` naming the row's path (``rows[j]``, the path index
    in the sweep that the callers hand in, or j), its value of ``a`` and R0.
    """
    R0 = np.asarray(R0, dtype=float)
    y = R0 + w
    n = y.size
    per_row = isinstance(a, np.ndarray)

    def error(message, j):
        a_j = np.reshape(a, (-1, n))[0, j] if per_row else a
        return IntegrationError(message, node_index=node, a=float(a_j),
                                path_index=int(j if rows is None else rows[j]), boundary_distance=float(R0[j]))

    if not np.isfinite(y).all():
        raise error("non-finite increment", int(np.argmin(np.isfinite(y))))
    out = np.empty(n)
    if n == 0:
        return out, [out.copy() for _ in rates(a, y)[2:]]
    incs = None
    pos = np.arange(n)
    root_dt = np.sqrt(dt)
    # per row: the iterate, y, the bracket ends lo (F < 0) and hi (F > 0), F,
    # the next iterate, then the row's a or its constants, so that one index
    # compacts them all
    a_rows = np.reshape(a, (-1, n)) if per_row else np.empty((0, n))
    state = np.empty((6 + len(a_rows), n))
    state[0] = np.where(y > root_dt, y, 2.0 * dt / (np.sqrt(y * y + 4.0 * dt) - np.minimum(y, root_dt)))
    state[1] = y
    state[2] = 0.0
    state[3] = np.inf
    state[6:] = a_rows
    a_at = slice(6, None) if np.ndim(a) > 1 else 6
    for _ in range(_MAX_NEWTON):
        r, y, lo, hi, F, nxt = state[:6]
        b, slope, *vals = rates(state[a_at] if per_row else a, r)
        if incs is None:
            incs = [np.empty(n) for _ in vals]
            tol = _NEWTON_TOL if vals else _ROOT_TOL
        np.subtract(r - dt * b, y, out=F)
        c = F / (1.0 - dt * slope)
        np.subtract(r, c, out=nxt)
        done = np.abs(c) <= tol * r
        fin = done.nonzero()[0]
        if fin.size:
            finished = pos[fin]
            out[finished] = nxt[fin]
            for total, v in zip(incs, vals):
                total[finished] = v[fin] * dt
            if fin.size == pos.size:
                return out, incs
            live = (~done).nonzero()[0]
            pos, state = pos[live], state.take(live, axis=1)
            r, y, lo, hi, F, nxt = state[:6]
        np.copyto(lo, r, where=F < 0)
        np.copyto(hi, r, where=F > 0)
        np.maximum(nxt, 0.5 * r, out=r)
        outside = (r <= lo) | (r >= hi)
        if np.count_nonzero(outside):
            r[outside] = 0.5 * (lo[outside] + hi[outside])
    raise error("implicit step did not converge", pos[0])


def _collar_rates(model, a, R):
    """Drift of the collar radial coordinate and its slope in R, then the
    drift magnitude and the damping rate, whose values at the implicit point
    times dt are the local-time and damping increments.  The damping rate is
    exactly -d(magnitude)/dR."""
    mag, damp = _tanh_rates(a, R)
    if model.id in (geo.HALF_LINE, geo.HALF_SPACE):
        # the Laplacian of R is 0, and mag + 0.0, 0.0 - damp are mag, -damp
        return mag, -damp, mag, damp
    drift = mag + 0.5 * geo.laplacian_R_of_R(model, R)
    return drift, 0.5 * geo.laplacian_R_of_R_slope(model, R) - damp, mag, damp


def _regions(model, x, R):
    """Row indices (edge, mid, far) of a curved chart step: the collar rows
    whose boundary distance the flow's radial update sets, the rows stepped in
    the blended frame, and the rows stepped on the embedded sphere (cap only,
    where the polar chart degenerates)."""
    collar = R < model.tubular_radius
    if model.id == geo.FLAT_DISK:
        return collar.nonzero()[0], (~collar).nonzero()[0], np.empty(0, dtype=np.intp)
    near = x[:, 0] >= model.theta0 - 2.0 * model.tubular_radius
    return (collar & near).nonzero()[0], (near & ~collar).nonzero()[0], (~near).nonzero()[0]


def _chart_step(model, x, R, dB, dt, regions, R_edge, inward=None):
    """New chart points after one step of a curved-chart model.

    ``regions`` holds the rows (edge, mid, far) of :func:`_regions`.
    Edge rows move to boundary distance ``R_edge`` and along the boundary by
    dB[:, 1]; mid rows take an Euler step in the blended frame, far rows one
    on the embedded sphere.  ``inward`` (one entry per row, read off the edge
    only) moves mid and far rows that much further along grad R.
    """
    edge, mid, far = regions
    new = np.empty_like(x)
    # the chart coordinates one by one: (x, y) on the disk, (theta, phi) on the cap
    x0, x1 = x[:, 0], x[:, 1]
    new0, new1 = new[:, 0], new[:, 1]
    dB1 = dB[:, 1]
    if edge.size:
        if model.id == geo.FLAT_DISK:
            ang = np.arctan2(x1[edge], x0[edge]) + dB1[edge] / (1.0 - R[edge])
            r_edge = 1.0 - R_edge
            new0[edge] = r_edge * np.cos(ang)
            new1[edge] = r_edge * np.sin(ang)
        else:
            new0[edge] = model.theta0 - R_edge
            new1[edge] = x1[edge] + dB1[edge] / np.sin(x0[edge])
    if mid.size:
        beta = geo.blend(model, R[mid])
        bs, ci = np.sqrt(beta), np.sqrt(1.0 - beta)
        dBm = dB.take(mid, axis=0)
        if model.id == geo.FLAT_DISK:
            # noise: beta^1/2 (-e_r dB_0 + e_t dB_1) + (1 - beta)^1/2 (dB_2, dB_3),
            # e_t = (-e_r[1], e_r[0])
            xm = x.take(mid, axis=0)
            r = geo.norm(xm)[:, None]
            e_r = np.where(r > 0, xm / np.maximum(r, 1e-300), 0.0)
            e_t = e_r[:, ::-1] * (-1.0, 1.0)
            noise = bs[:, None] * (-e_r * dBm[:, 0:1] + e_t * dBm[:, 1:2]) + ci[:, None] * dBm[:, 2:4]
            step = xm + noise
            new[mid] = step if inward is None else step - inward[mid][:, None] * e_r
        else:
            # noise in (theta, phi-hat) components: beta^1/2 (-dB_0, dB_1) plus
            # (1 - beta)^1/2 times the tangent part of the ambient (dB_2..dB_4)
            theta = x0[mid]
            trig = geo._cap_trig(x.take(mid, axis=0))
            tan0, tan1 = geo._cap_tangent(trig, dBm[:, 2:5])
            cot = 1.0 / np.tan(theta)
            step = theta + (bs * -dBm[:, 0] + ci * tan0) + 0.5 * cot * dt
            new0[mid] = step if inward is None else step - inward[mid]
            new1[mid] = x1[mid] + (bs * dBm[:, 1] + ci * tan1) / trig[1]
    if far.size:
        trig = geo._cap_trig(x.take(far, axis=0))
        p = geo._cap_ambient(trig)
        dBv = dB.take(far, axis=0)[:, 2:5]
        prop = p + (dBv - p * np.sum(p * dBv, axis=-1, keepdims=True)) - p * dt
        if inward is not None:
            prop = prop - inward[far][:, None] * geo._cap_e_theta(trig)
        prop /= geo.norm(prop)[:, None]
        new[far] = geo.cap_from_ambient(prop)
    if model.id == geo.SPHERICAL_CAP:
        # a step across the pole lands at theta < 0: the point (-theta, phi + pi)
        over = (new0 < 0).nonzero()[0]
        if over.size:
            new0[over] = -new0[over]
            new1[over] += np.pi
    return new


def _step_flat_penalized(model, a, x, R, dB_i, dt, node, rows):
    """One penalized step for a flat-boundary model from points x, whose last
    coordinate is the boundary distance R; returns (x_new, R_new, dL, dC).
    The other coordinates move with the driver."""
    rates = partial(_collar_rates, model)
    R, (dL, dC) = implicit_step(R, dB_i[:, 0], dt, a, rates, node, rows)
    new = np.empty_like(x)
    np.add(x[:, :-1], dB_i[:, 1:], out=new[:, :-1])
    new[:, -1] = R
    return new, R, dL, dC


def _step_curved_penalized(model, a, x, R, dB_i, dt, node, rows):
    """One penalized step for a curved-chart model from points x at raw
    boundary distance R; returns (x_new, R_new, dL, dC), R_new the raw
    boundary distance of x_new.  ``a`` holds the rows' :func:`_tanh_constants`
    and ``rows`` the rows' path indices, which an ``IntegrationError``
    names.

    An off-collar row that lands at boundary distance R_land <= 0 (possible on
    coarse grids only) keeps its direction, the disk's ray or the cap's phi,
    and moves to the root of r - dt b(r) = R_land with the collar drift b
    from its start, with that step's increments.  The root has b(r) > 0, so
    it lies inside the chart, short of the centre or the pole.
    """
    n = x.shape[0]
    edge, mid, far = regions = _regions(model, x, R)
    rest = np.concatenate([mid, far]) if far.size else mid
    dL = np.empty(n)
    dC = np.empty(n)
    rates = partial(_collar_rates, model)
    R_edge, (dL[edge], dC[edge]) = implicit_step(R[edge], dB_i[:, 0][edge], dt, a.take(edge, axis=1), rates,
                                                 node, rows[edge])
    mag, damp = _tanh_rates(a.take(rest, axis=1), R[rest])
    dL[rest] = mag * dt
    dC[rest] = damp * dt
    new = _chart_step(model, x, R, dB_i, dt, regions, R_edge, inward=dL)

    R_new = geo.raw_boundary_distance(model, new)
    out = (R_new <= 0).nonzero()[0]
    if out.size:
        r, (dL[out], dC[out]) = implicit_step(R[out], R_new[out] - R[out], dt, a.take(out, axis=1), rates, node,
                                              rows[out])
        if model.id == geo.FLAT_DISK:
            landed = new[out]
            new[out] = (1.0 - r)[:, None] * (landed / geo.norm(landed)[:, None])
        else:
            new[out, 0] = model.theta0 - r
        R_new[out] = geo.raw_boundary_distance(model, new[out])
    return new, R_new, dL, dC


def _grid_rows(a_grid, n_paths, first_path=0):
    """Rows of an a-grid run, a-major: each row's value of a and its path
    index (first_path upwards), after checking the grid."""
    a_grid = np.asarray(a_grid, dtype=float).reshape(-1)
    if a_grid.size == 0:
        raise ValueError("a_grid must be nonempty")
    if not (a_grid > 0).all():
        raise ValueError("a must be positive")
    G = a_grid.size
    return np.repeat(a_grid, n_paths), np.tile(np.arange(first_path, first_path + n_paths), G)


def _checked_start(model, x0):
    """The start point and its boundary distance, checked against the model."""
    x0 = np.asarray(x0, dtype=float).reshape(model.dim)
    return x0, float(geo.boundary_distance(model, x0))


def _joined_blocks(blocks):
    """Driver blocks (i0, dB), dB (P, n, ...) the increments of steps
    i0..i0+n-1, as float arrays of at least two axes, checked to join: each
    block starts where the one before ends and holds the first block's paths
    and at most its steps."""
    done, first = 0, None
    for i0, dB in blocks:
        dB = np.atleast_2d(np.asarray(dB, dtype=float))
        P, n = dB.shape[:2]
        first = first or (P, n)
        if i0 != done or P != first[0] or n > first[1]:
            raise ValueError("driver blocks do not join")
        done += n
        yield i0, dB


def _checked_blocks(model, blocks, grid):
    """Driver blocks (i0, dB), dB (P, n, m), joined (:func:`_joined_blocks`)
    and checked against the model and the grid: together they cover the
    grid.  Yields (i0, dB, bad): bad is None for a finite block, and else the
    step k in the block and the batch row j of its first non-finite increment
    (earliest step, then lowest row), at which the stepper raises
    (:func:`_nonfinite`)."""
    done = 0
    for i0, dB in _joined_blocks(blocks):
        _, n, m = dB.shape
        if m != model.frame_count:
            raise ValueError("driver component count does not match model frame count")
        done += n
        if done > grid.steps:
            raise ValueError("driver length does not match grid")
        finite = np.isfinite(dB)
        bad = None
        if not finite.all():
            steps = ~finite.all(axis=2)
            k = int(steps.any(axis=0).argmax())
            bad = k, int(steps[:, k].argmax())
        yield i0, dB, bad
    if done != grid.steps:
        raise ValueError("driver length does not match grid")


def _nonfinite(node, path, R, a=None):
    """The error of a step from node ``node`` on a non-finite increment: it
    names the node, the path's index, its value of ``a`` (penalized flows)
    and its boundary distance R at the node."""
    return IntegrationError("non-finite increment", node_index=node, a=None if a is None else float(a),
                            path_index=int(path), boundary_distance=float(R))


def _penalized_blocks(model, a_grid, x0, blocks, grid, first_path=0):
    """The runs of :func:`integrate_penalized_grid`, stepped on driver blocks.

    ``blocks`` yields driver blocks (i0, dB), dB (P, n, m) the increments of
    steps i0..i0+n-1, in order (such as :func:`grids.driver_blocks`).  Yields
    (i0, runs) per driver block: runs[key] holds nodes i0..i0+n of the stored
    run's entry (points (G, P, n+1, d), R, L and C (G, P, n+1)), bit for bit.
    The arrays are reused for the next block.  The paths are paths
    first_path.. of a sweep, and an ``IntegrationError`` names that index: a
    non-finite increment raises at its node, before the step from it.
    """
    x0, R0 = _checked_start(model, x0)
    if not R0 > 0:
        raise ValueError("start point must lie in the interior")
    G = np.size(a_grid)
    dt = grid.dt
    flat = model.id in (geo.HALF_LINE, geo.HALF_SPACE)
    step = _step_flat_penalized if flat else _step_curved_penalized
    out = None
    for i0, dB, bad in _checked_blocks(model, blocks, grid):
        n = dB.shape[1]
        if out is None:
            P, B = dB.shape[:2]
            a_rows, paths = _grid_rows(a_grid, P, first_path)
            consts = _tanh_constants(a_rows)
            points = np.empty((G * P, B + 1, model.dim))
            R_out = np.empty((G * P, B + 1))
            L_out = np.empty((G * P, B + 1))
            C_out = np.empty((G * P, B + 1))
            out = {"points": points, "R": R_out, "L": L_out, "C": C_out}
            points[:, 0] = x0
            R_out[:, 0] = R0
            L_out[:, 0] = 0.0
            C_out[:, 0] = 0.0
            x = np.tile(x0, (G * P, 1))
            R = geo.raw_boundary_distance(model, x)
            L = np.zeros(G * P)
            C = np.zeros(G * P)
            # one node's driver, row by row: the paths' increments once per value of a
            node_dB = np.empty((G, P, dB.shape[2]))
            dB_i = node_dB.reshape(G * P, dB.shape[2])
        else:
            # node 0 of this block is the last node of the one before
            for v in out.values():
                v[:, 0] = v[:, last]
        for k in range(1, n + 1 if bad is None else bad[0] + 1):
            np.copyto(node_dB, dB[:, k - 1])
            x, R, dL, dC = step(model, consts, x, R, dB_i, dt, i0 + k - 1, paths)
            L += dL
            C += dC
            points[:, k] = x
            R_out[:, k] = R
            L_out[:, k] = L
            C_out[:, k] = C
        if bad is not None:
            k, j = bad
            raise _nonfinite(i0 + k, paths[j], R[j], a_rows[j])
        last = n
        yield i0, {key: v[:, : n + 1].reshape(G, P, n + 1, *v.shape[2:]) for key, v in out.items()}


def integrate_penalized_grid(
    model: geo.ManifoldModel,
    a_grid,
    x0: np.ndarray,
    dB: np.ndarray,
    grid: TimeGrid,
):
    """Euler-Maruyama with boundary-repelling drift for every a of ``a_grid``
    on one shared driver; returns dict of arrays with a leading a axis.

    dB has shape (P, N, m).  Output: points (G, P, N+1, d), R (G, P, N+1),
    L (G, P, N+1) (accumulated drift magnitude times dt: at the implicit
    point in the collar, at the left endpoint elsewhere) and C (G, P, N+1)
    (the same for the damping rate), G = len(a_grid).  All G * P rows share
    one node loop, and every row is stepped on its own, so entry k equals the
    one-a run at ``a_grid[k]`` bit for bit and a path does not depend on the
    other paths of the batch.
    """
    # one block: the generator runs to its end, so that it checks the length
    [(_, runs)] = _penalized_blocks(model, a_grid, x0, [(0, dB)], grid)
    return runs


def integrate_penalized_batch(
    model: geo.ManifoldModel,
    a: float,
    x0: np.ndarray,
    dB: np.ndarray,
    grid: TimeGrid,
):
    """Euler-Maruyama with boundary-repelling drift; returns dict of arrays.

    dB has shape (P, N, m).  Output: points (P, N+1, d), R (P, N+1),
    L (P, N+1) (accumulated drift magnitude) and C (P, N+1) (accumulated
    damping rate): the one-a case of :func:`integrate_penalized_grid`.
    """
    out = integrate_penalized_grid(model, (a,), x0, dB, grid)
    return {key: v[0] for key, v in out.items()}


def _project_to_domain(model, pts, R):
    """Push points with negative boundary distance back onto the boundary;
    returns the points, their boundary distance and the push distance, and
    ``pts`` and ``R`` themselves when no point was outside."""
    neg = (R < 0).nonzero()[0]
    push = np.zeros_like(R)
    if not neg.size:
        return pts, R, push
    push[neg] = -R[neg]
    out = pts.copy()
    R = R.copy()
    R[neg] = 0.0
    if model.id == geo.FLAT_DISK:
        p = out[neg]
        out[neg] = p / np.maximum(geo.norm(p)[:, None], 1e-300)
    elif model.id == geo.SPHERICAL_CAP:
        out[neg, 0] = model.theta0
    else:
        out[neg, -1] = 0.0
    return out, R, push


def _reflected_blocks(model, x0, blocks, grid, first_path=0):
    """The runs of :func:`integrate_reflected_batch`, stepped on driver blocks.

    ``blocks`` yields driver blocks (i0, dB) as for :func:`_penalized_blocks`.
    Yields (i0, runs) per driver block: runs[key] holds nodes i0..i0+n of the
    stored run's entry (points (P, n+1, d), R and L (P, n+1)), bit for bit.
    Flat blocks carry the cumulative sum and maximum of the block before;
    curved blocks reuse their arrays for the next block.  A non-finite
    increment raises as in :func:`_penalized_blocks`.
    """
    x0, R0 = _checked_start(model, x0)
    dt = grid.dt
    d = model.dim
    blocks = _checked_blocks(model, blocks, grid)

    if model.id in (geo.HALF_LINE, geo.HALF_SPACE):
        # the arithmetic of skorohod1d.skorohod_map on each path, with the
        # driver's normal component moved to the last axis, as in points
        order = np.r_[1:d, 0]
        drift = h = None
        for i0, dB, bad in blocks:
            if drift is None:
                drift = np.zeros((dB.shape[0], 1, d))
                h = np.zeros((dB.shape[0], 1))
            drift = np.cumsum(np.concatenate([drift[:, -1:], dB[:, :, order]], axis=1), axis=1)
            f = drift[..., -1]
            h = np.maximum.accumulate(np.concatenate([h[:, -1:], np.maximum(0.0, -(R0 + f[:, 1:]))], axis=1), axis=1)
            g = R0 + f + h
            if bad is not None:
                k, j = bad
                raise _nonfinite(i0 + k, first_path + j, g[j, k])
            points = x0 + drift
            points[..., -1] = g
            yield i0, {"points": points, "R": g, "L": h}
        return

    out = None
    for i0, dB, bad in blocks:
        n = dB.shape[1]
        if out is None:
            P, B = dB.shape[:2]
            points = np.empty((P, B + 1, d))
            R_out = np.empty((P, B + 1))
            L_out = np.empty((P, B + 1))
            out = {"points": points, "R": R_out, "L": L_out}
            points[:, 0] = x0
            R_out[:, 0] = R0
            L_out[:, 0] = 0.0
            x = np.tile(x0, (P, 1))
            R = geo.raw_boundary_distance(model, x)
            L = np.zeros(P)
        else:
            # node 0 of this block is the last node of the one before
            for v in out.values():
                v[:, 0] = v[:, last]
        for k in range(1, n + 1 if bad is None else bad[0] + 1):
            dB_i = dB[:, k - 1]
            regions = _regions(model, x, R)
            R_e = R[regions[0]]
            R_edge = R_e + dB_i[:, 0][regions[0]] + 0.5 * geo.laplacian_R_of_R(model, R_e) * dt
            x = _chart_step(model, x, R, dB_i, dt, regions, R_edge)
            R = geo.raw_boundary_distance(model, x)
            x, R_new, push = _project_to_domain(model, x, R)
            points[:, k] = x
            R_out[:, k] = R_new
            if R_new is not R:  # some rows were projected
                L += push
                if model.id == geo.FLAT_DISK:
                    # a point projected onto the disk's boundary is at raw
                    # distance near 0, one on the cap's at 0
                    moved = push.nonzero()[0]
                    R_new[moved] = geo.raw_boundary_distance(model, x[moved])
                R = R_new
            L_out[:, k] = L
        if bad is not None:
            k, j = bad
            raise _nonfinite(i0 + k, first_path + j, R[j])
        last = n
        yield i0, {key: v[:, : n + 1] for key, v in out.items()}


def integrate_reflected_batch(
    model: geo.ManifoldModel,
    x0: np.ndarray,
    dB: np.ndarray,
    grid: TimeGrid,
):
    """Reference reflected paths on a shared driver; returns dict of arrays.

    dB has shape (P, N, m).  Output: points (P, N+1, d), R (P, N+1) and the
    local time L (P, N+1).  Flat-boundary models solve the normal coordinate
    exactly as the running infimum of the discretized driver; curved models
    take an Euler step and project back into the domain, the push distance
    feeding the local time.
    """
    # one block: the generator runs to its end, so that it checks the length
    [(_, runs)] = _reflected_blocks(model, x0, [(0, dB)], grid)
    return runs
