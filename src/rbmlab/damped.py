"""Damped parallel transport: smooth, excursion-jump, and limit variants.

All variants integrate, in frame coordinates transported back to the start
tangent space, the linear system

    dw = -1/2 ric(w) dt - kappa <w, q> q dL - (normal damping or jumps),

where ric is the transported Ricci operator (a multiple rho of the identity
on every built-in model), q spans the transported tangent direction of the
boundary-distance level set and kappa its principal curvature.  The smooth
variant damps the normal row by the exact integrating factor exp(-c dt) of
its stiff linear term; the jump variants erase the normal row at right ends
of interior excursions.

The system is linear, so one step is a matrix: w_{i+1} = M_i w_i with

    M_i = (I - j_i n_{i+1} n_{i+1}^T) (I - s_i n_i n_i^T)
          (I - kappa_i dL_i q_i q_i^T) (1 - rho dt / 2),

coefficients frozen at the left node, s_i = 1 - exp(-int c) the damping
factor and j_i = 1 where the step enters an excursion right end.  The engine
builds M for every path and node, applying each rank-one factor only where
its coefficient is nonzero, and runs the node loop as one stacked matrix
product per node.  Jump levels that differ only in j_i (the eps levels of one
path set) share one pass: the other factors are built once and each level's
product runs in the same stacked call.  The engine returns the running
products; a sweep feeds it node blocks, each call starting from the last
product of the one before, and reduces the products of each block itself, so
it never holds a whole path.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import geometry as geo
from .geometry import ManifoldModel
from .grids import DriverPath
from .penalized import PenalizedPath
from .reflected import ReflectedPath, excursion_flags
from .transport import TransportFrame

VARIANT_PENALIZED = "penalized"
VARIANT_EPS = "eps-jump"
VARIANT_LIMIT = "limit"


@dataclass
class DampedState:
    """Damped transport along one path, in start-space coordinates.

    tangential[i] is the block with columns orthogonal to carrier[i];
    normal[i] is the row f_i with w_i = tangential_i + outer(carrier_i, f_i).
    """

    variant: str
    param: float
    times: np.ndarray = field(repr=False)
    tangential: np.ndarray = field(repr=False)  # (N+1, d, d)
    normal: np.ndarray = field(repr=False)  # (N+1, d)
    carrier: np.ndarray = field(repr=False)  # (N+1, d), unit

    @property
    def matrices(self) -> np.ndarray:
        return self.tangential + self.carrier[:, :, None] * self.normal[:, None, :]


@dataclass
class CauchyReport:
    """Inter-level sup gaps of the jump variant as epsilon is halved."""

    epsilons: list[float]
    gaps: list[float]
    nonincreasing: bool


def _safe_unit(vecs):
    nrm = np.linalg.norm(vecs, axis=-1, keepdims=True)
    out = np.where(nrm > 1e-12, vecs / np.maximum(nrm, 1e-300), 0.0)
    # degenerate points (disk center) get an arbitrary unit carrier
    bad = nrm[..., 0] <= 1e-12
    if np.any(bad):
        out = out.copy()
        out[bad, 0] = 1.0
    return out


def _node_geometry(model, points, frames):
    """Transported normal n, level tangent q, curvature kappa per node."""
    kappa = geo._level_curvature(model, points)
    if frames is not None and model.id == geo.SPHERICAL_CAP:
        # F^T n and F^T q: with chart n = -e_theta and q = e_phi, rows of F
        return -frames[..., 0, :], frames[..., 1, :], kappa
    # transport on a flat-chart model is the identity, so frames change nothing
    nu = _safe_unit(geo._normal_components(model, points))
    if points.shape[-1] == 1:
        q = np.zeros_like(nu)
    elif model.id == geo.SPHERICAL_CAP:
        q = np.zeros_like(nu)
        q[..., 1] = 1.0
    else:
        q = np.stack([-nu[..., 1], nu[..., 0]], axis=-1)
    return nu, q, kappa


def _vec_mat(v, m):
    """Row vectors times matrices, v^T m, over the leading axes."""
    return sum(v[..., k, None] * m[..., k, :] for k in range(v.shape[-1]))


def _rank_one(M, fac, vecs):
    """M[i, p] <- (I - fac[p, i] v v^T) M[i, p] with v = vecs[p, i].

    Where fac is zero the factor is the identity.  Most coefficients are
    nonzero along penalized paths (dL > 0 at almost every step) and a few per
    cent along reflected ones, so the update runs on the whole stack in the
    first case and gathers the nonzero entries in the second; a zero
    coefficient leaves its entry's bits unchanged either way.
    """
    fac, vecs = fac.T, vecs.swapaxes(0, 1)
    if np.count_nonzero(fac) > fac.size // 4:
        M -= fac[..., None, None] * (vecs[..., :, None] * _vec_mat(vecs, M)[..., None, :])
        return
    i, p = np.nonzero(fac)
    m, v = M[i, p], vecs[i, p]
    M[i, p] = m - fac[i, p][:, None, None] * (v[:, :, None] * _vec_mat(v, m)[:, None, :])


def _damped_engine(model, points, frames, dt, dL, *, c_increments=None, jump_flags=None, start=None):
    """Shared integrator; see module docstring for the system and the step
    matrices.

    dL: (P, N) local-time increments, coefficients frozen at left nodes.
    c_increments: (P, N) per-step integrals of the normal damping rate
    (smooth variant) or None.
    jump_flags: (P, N+1) boolean, erase normal row after the step into a
    flagged node (jump variants), None, or a list of such arrays: one
    level each, all run in one pass over the nodes, which builds the shared
    factors once and applies each level's erasure to its own copy.
    start: the products at node 0, (levels, P, d, d) or broadcast to it, or
    None for the identity.  A run fed in node blocks, each call starting from
    the last node of the call before, gives the whole run's products block by
    block, bit for bit: every node takes the same products in the same order.

    Returns (W, nu): the running products W (N+1, levels, P, d, d), W[0] the
    start, and the transported normals nu (P, N+1, d).
    """
    levels = list(jump_flags) if isinstance(jump_flags, (list, tuple)) else [jump_flags]
    P, n, d = points.shape
    nu, q, kappa = _node_geometry(model, points, frames)
    M = np.empty((n - 1, P, d, d))
    M[...] = (1.0 - 0.5 * geo.ricci_factor(model) * dt) * np.eye(d)
    _rank_one(M, np.where(dL > 0, kappa[:, :-1] * dL, 0.0), q[:, :-1])
    if c_increments is not None:
        _rank_one(M, np.maximum(-np.expm1(-c_increments), 0.0), nu[:, :-1])  # 1 - exp(-int c), exact
    M = np.repeat(M[:, None], len(levels), axis=1) if len(levels) > 1 else M[:, None]
    for k, flags in enumerate(levels):
        if flags is not None:
            _rank_one(M[:, k], flags[:, 1:].astype(float), nu[:, 1:])
    W = np.empty((n, len(levels), P, d, d))
    W[0] = np.eye(d) if start is None else start
    for i in range(n - 1):
        np.matmul(M[i], W[i], out=W[i + 1])
    return W, nu


def _frames_matrices(frame: TransportFrame | None, n: int, d: int):
    if frame is None:
        return None
    mats = frame.matrices
    if mats.shape[0] != n:
        raise ValueError("frame length does not match path")
    return mats[None]


def _state_from(series, nu, variant, param, times):
    normal = _vec_mat(nu, series)
    tangential = series - nu[:, :, None] * normal[:, None, :]
    return DampedState(
        variant=variant,
        param=param,
        times=times,
        tangential=tangential,
        normal=normal,
        carrier=nu,
    )


def damped_penalized(
    model: ManifoldModel, a: float, path: PenalizedPath, frame: TransportFrame | None = None
) -> DampedState:
    """Smooth damped transport along a penalized path.

    The stiff normal damping is integrated by its exact exponential factor
    per step; curvature terms use explicit Euler with the smoothed local-time
    increments stored on the path.
    """
    pts = path.points[None]
    frames = None if model.is_flat_chart else _require_frames(model, path, frame)
    W, nu = _damped_engine(
        model,
        pts,
        frames,
        path.grid.dt,
        np.diff(path.local_time)[None],
        c_increments=np.diff(path.damping_integral)[None],
    )
    return _state_from(W[:, 0, 0], nu[0], VARIANT_PENALIZED, a, path.grid.times)


def _require_frames(model, path, frame):
    if frame is None:
        from .transport import parallel_transport

        frame = parallel_transport(model, path.points)
    return _frames_matrices(frame, path.points.shape[0], model.dim)


def damped_eps(
    model: ManifoldModel,
    path: ReflectedPath,
    frame: TransportFrame | None,
    eps: float,
    eta: float | None = None,
) -> DampedState:
    """Jump damped transport: the normal row is erased exactly at the right
    end of every interior excursion of duration >= eps, after the continuous
    update into that node."""
    eta = path.eta if eta is None else eta
    if not eta > 0:
        raise ValueError("contact threshold must be positive")
    frames = None if model.is_flat_chart else _require_frames(model, path, frame)
    W, nu = _damped_engine(
        model,
        path.points[None],
        frames,
        path.grid.dt,
        np.diff(path.local_time)[None],
        jump_flags=excursion_flags(path.boundary_dist, path.grid.times, eps, eta)[0][None],
    )
    return _state_from(W[:, 0, 0], nu[0], VARIANT_EPS, eps, path.grid.times)


def damped_limit(
    model: ManifoldModel,
    path: ReflectedPath,
    frame: TransportFrame | None,
    eps0: float,
    levels: int,
    eta: float | None = None,
):
    """Jump variants at eps0 * 2^-k for k < levels, plus a Cauchy report.

    Returns the finest-level state and the sup-norm gaps between consecutive
    levels; a non-monotone gap sequence is reported, not raised.
    """
    if levels < 2:
        raise ValueError("need at least two levels")
    eps_list = [eps0 * 2.0**-k for k in range(levels)]
    states = [damped_eps(model, path, frame, e, eta) for e in eps_list]
    gaps = []
    for s0, s1 in zip(states[:-1], states[1:]):
        diff = s0.matrices - s1.matrices
        gaps.append(float(np.sqrt(np.sum(diff * diff, axis=(1, 2))).max()))
    noninc = all(g1 <= g0 + 1e-12 for g0, g1 in zip(gaps[:-1], gaps[1:]))
    report = CauchyReport(epsilons=eps_list, gaps=gaps, nonincreasing=noninc)
    return states[-1], report


def limit_state(
    model: ManifoldModel,
    path: ReflectedPath,
    frame: TransportFrame | None = None,
    eta: float | None = None,
) -> DampedState:
    """Discrete limit variant: jumps at every excursion right end resolved by
    the grid (duration threshold of one step)."""
    state = damped_eps(model, path, frame, eps=path.grid.dt * 0.5, eta=eta)
    return DampedState(
        variant=VARIANT_LIMIT,
        param=0.0,
        times=state.times,
        tangential=state.tangential,
        normal=state.normal,
        carrier=state.carrier,
    )


def normal_part_formula_check(
    model: ManifoldModel,
    path: ReflectedPath,
    frame: TransportFrame | None,
    state: DampedState,
    driver: DriverPath,
    v=None,
    eta: float | None = None,
) -> float:
    """Residual of the normal-part representation along one path.

    Reconstructs the running normal component of the damped transport from
    its stochastic representation (initial normal part, Ricci-against-normal
    quadrature, and the transport-against-normal-field increments) and
    compares with the stored normal row between boundary contacts.  Returns
    the sup-node absolute residual for the start vector v (default: the
    inward normal at the start).
    """
    if state.variant != VARIANT_LIMIT:
        raise ValueError("check requires the limit-variant state")
    pts = path.points
    n_nodes = pts.shape[0]
    dt = path.grid.dt
    eta = path.eta if eta is None else eta
    frames = None if model.is_flat_chart else _require_frames(model, path, frame)
    nu_t, q_t, kappa = _node_geometry(model, pts[None], frames)
    nu_t, q_t, kappa = nu_t[0], q_t[0], kappa[0]
    if v is None:
        v = nu_t[0]
    v = np.asarray(getattr(v, "components", v), dtype=float)

    w_v = state.matrices @ v  # (N+1, d) transported image of v
    f = np.einsum("ni,ni->n", nu_t, w_v)
    rho = geo.ricci_factor(model)

    # q-direction component of the frame noise at the left nodes
    F = geo.frame_matrix(model, pts[:-1])  # (N, m, d)
    noise = np.einsum("nmd,nm->nd", F, driver.increments)  # (N, d) chart comps
    q_chart = _node_geometry(model, pts[None], None)[1][0]
    noise_q = np.einsum("nd,nd->n", noise, q_chart[:-1])

    qw = np.einsum("ni,ni->n", q_t, w_v)
    incr = (
        -0.5 * rho * f[:-1] * dt
        - kappa[:-1] * noise_q * qw[:-1]
        - 0.5 * kappa[:-1] ** 2 * f[:-1] * dt
    )
    r = np.concatenate([[f[0]], f[0] + np.cumsum(incr)])

    contact = path.boundary_dist < eta
    idx = np.arange(n_nodes)
    last = np.where(contact, idx, -1)
    last = np.maximum.accumulate(last)
    r_alpha = np.where(last >= 0, r[np.maximum(last, 0)], 0.0)
    return float(np.abs(f - (r - r_alpha)).max())
