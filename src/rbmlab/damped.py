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
builds M for every path in blocks of nodes, applying each rank-one factor
only where its coefficient is nonzero, and runs the node loop as one stacked
matrix product per node.  Jump levels that differ only in j_i (the eps
levels of one path set) share one pass: the other factors are built once
and each level's product runs in the same stacked call.  A run may also be
fed to the engine in node blocks: a ``carry`` dict takes each level's running
product and the running reductions from one call to the next, so a streamed
sweep never holds a whole path.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import geometry as geo
from .geometry import ManifoldModel
from .grids import DriverPath
from .penalized import PenalizedPath
from .reflected import ReflectedPath, excursions
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


# Step matrices are built, and the running products reduced, this many nodes
# at a time, so that no call holds an (N, P, d, d) stack but "series".
_NODE_BLOCK = 32

_COLLECTS = ("series", "normal", "cauchy", "bound")


def _damped_engine(
    model,
    points,
    frames,
    dt,
    dL,
    *,
    c_increments=None,
    jump_flags=None,
    collect="series",
    carry=None,
):
    """Shared integrator; see module docstring for the system and the step
    matrices.

    dL: (P, N) local-time increments, coefficients frozen at left nodes.
    c_increments: (P, N) per-step integrals of the normal damping rate
    (smooth variant) or None.
    jump_flags: (P, N+1) boolean, erase normal row after the step into a
    flagged node (jump variants), None, or a list of such arrays: one
    level each, all run in one pass over the nodes, which builds the shared
    factors once and applies each level's erasure to its own copy.
    collect, per node for one level: "series" (the matrices, (P, N+1, d, d))
    or "normal" (their normal rows n^T w, (P, N+1, d)).  Reduced over the
    nodes: "cauchy" (the sup over nodes of the Frobenius gap between
    consecutive levels, (P, levels - 1)) or "bound" (the sup over nodes 1..N of
    |w|^2 - 2 exp(-t - 2 int kappa dL), one level).  The transported normals
    come back as "carrier".  Any other collect raises ValueError.
    carry: None for a run from node 0, or a dict that carries the state from
    one node block of a run to the next: the running product W of each level
    and the reduction ("cauchy": the gaps; "bound": the log-bound and the
    worst value).  A call starts from the state it holds (W = I where it is
    empty) and leaves in it the state at its last node, at which the next
    block starts.  Fed node blocks, the calls give the whole run's rows of
    "series" and "normal" block by block, and the last call its "cauchy"
    and "bound", bit for bit: every node takes the same products and
    running sums in the same order.
    """
    if collect not in _COLLECTS:
        raise ValueError(f"unknown collect {collect!r}")
    levels = list(jump_flags) if isinstance(jump_flags, (list, tuple)) else [jump_flags]
    if collect == "cauchy" and len(levels) < 2:
        raise ValueError("collect 'cauchy' needs at least two levels")
    if collect != "cauchy" and len(levels) > 1:
        raise ValueError(f"collect {collect!r} takes one level")
    P, n, d = points.shape
    N = n - 1
    nu, q, kappa = _node_geometry(model, points, frames)
    step = (1.0 - 0.5 * geo.ricci_factor(model) * dt) * np.eye(d)

    # W per node block, blk[0] the last node of the previous block; "series"
    # writes the blocks straight into its output
    series = np.empty((n, 1, P, d, d)) if collect == "series" else None
    blk = np.empty((_NODE_BLOCK + 1, len(levels), P, d, d)) if series is None else series
    blk[0] = carry["W"] if carry else np.eye(d)
    out = {"carrier": nu}
    if collect == "normal":
        out["normal"] = np.empty((P, n, d))
        out["normal"][:, 0] = _vec_mat(nu[:, 0], blk[0, 0])
    elif collect == "cauchy":
        gaps = carry["gaps"].copy() if carry else np.zeros((len(levels) - 1, P))
    elif collect == "bound":
        log_bound = carry["log_bound"] if carry else np.zeros(P)
        # node 0, where |W|^2 = d, does not count
        worst = carry["worst"].copy() if carry else np.full(P, -np.inf)

    for i0 in range(0, N, _NODE_BLOCK):
        i1 = min(i0 + _NODE_BLOCK, N)
        s, s1 = slice(i0, i1), slice(i0 + 1, i1 + 1)
        M = np.empty((i1 - i0, P, d, d))
        M[...] = step
        _rank_one(M, np.where(dL[:, s] > 0, kappa[:, s] * dL[:, s], 0.0), q[:, s])
        if c_increments is not None:
            _rank_one(M, np.maximum(-np.expm1(-c_increments[:, s]), 0.0), nu[:, s])  # 1 - exp(-int c), exact
        M = np.repeat(M[:, None], len(levels), axis=1) if len(levels) > 1 else M[:, None]
        for k, flags in enumerate(levels):
            if flags is not None:
                _rank_one(M[:, k], flags[:, s1].astype(float), nu[:, s1])

        W = series[i0:] if series is not None else blk
        for k in range(i1 - i0):
            np.matmul(M[k], W[k], out=W[k + 1])
        W = W[1 : i1 - i0 + 1]
        if collect == "normal":
            out["normal"][:, s1] = _vec_mat(nu[:, s1], W[:, 0].swapaxes(0, 1))
        elif collect == "cauchy":
            diff = W[:, :-1] - W[:, 1:]
            np.maximum(gaps, np.sqrt(np.sum(diff * diff, axis=(3, 4))).max(axis=0), out=gaps)
        elif collect == "bound":
            steps = np.empty((P, i1 - i0 + 1))
            steps[:, 0] = log_bound
            steps[:, 1:] = -1.0 * dt - 2.0 * kappa[:, s] * dL[:, s]
            np.cumsum(steps, axis=1, out=steps)
            log_bound = steps[:, -1].copy()
            norm2 = np.sum(W[:, 0] * W[:, 0], axis=(2, 3)).T
            np.maximum(worst, (norm2 - 2.0 * np.exp(steps[:, 1:])).max(axis=1), out=worst)
        if series is None:
            blk[0] = W[-1]

    if collect == "series":
        out["series"] = series[:, 0].swapaxes(0, 1)
    elif collect == "cauchy":
        out["cauchy"] = gaps.T
    elif collect == "bound":
        out["bound"] = worst
    if carry is not None:
        carry["W"] = (blk[0] if series is None else series[N]).copy()
        # the next call copies the reductions before it updates them
        if collect == "cauchy":
            carry["gaps"] = gaps
        elif collect == "bound":
            carry.update(log_bound=log_bound, worst=worst)
    return out


def _frames_matrices(frame: TransportFrame | None, n: int, d: int):
    if frame is None:
        return None
    mats = frame.matrices
    if mats.shape[0] != n:
        raise ValueError("frame length does not match path")
    return mats[None]


def _state_from(engine_out, variant, param, times):
    series = engine_out["series"][0]
    nu = engine_out["carrier"][0]
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
    out = _damped_engine(
        model,
        pts,
        frames,
        path.grid.dt,
        np.diff(path.local_time)[None],
        c_increments=np.diff(path.damping_integral)[None],
        collect="series",
    )
    return _state_from(out, VARIANT_PENALIZED, a, path.grid.times)


def _require_frames(model, path, frame):
    if frame is None:
        from .transport import parallel_transport

        frame = parallel_transport(model, path.points)
    return _frames_matrices(frame, path.points.shape[0], model.dim)


def _jump_flag_array(path: ReflectedPath, eps: float, eta: float | None):
    flags = np.zeros(path.points.shape[0], dtype=bool)
    exc = excursions(path, eps, eta)
    flags[exc.right_ends] = True
    return flags


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
    frames = None if model.is_flat_chart else _require_frames(model, path, frame)
    out = _damped_engine(
        model,
        path.points[None],
        frames,
        path.grid.dt,
        np.diff(path.local_time)[None],
        jump_flags=_jump_flag_array(path, eps, eta)[None],
        collect="series",
    )
    return _state_from(out, VARIANT_EPS, eps, path.grid.times)


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
