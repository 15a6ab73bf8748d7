"""Convergence experiments, result tables, and persistence.

Every experiment is a deterministic function of its configuration digest:
drivers come from counter-based per-path substreams, rows are assembled in a
canonical order, and the CSV rendering is reproducible byte for byte.
"""
from __future__ import annotations

import csv
import io
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from . import skorohod1d as sk1d
from . import stepping
from .damped import _damped_engine, _vec_mat
from .estimators import MCEstimate
from .geometry import ManifoldModel, parse_model
from .grids import TimeGrid, driver_block, driver_blocks  # noqa: F401  (driver_block: bound for perfbench/spans.py)
from .hashing import canonical_digest
from .reflected import close_events, default_contact_threshold
from .transport import default_start, transport_batch

SCHEMA_VERSION = "rbmlab-rows-1"

EXPERIMENT_KINDS = (
    "halfline-penalization",
    "sp-convergence",
    "local-time",
    "norm-bound",
    "eps-cauchy",
    "f-normal",
    "transport",
    "projection",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Sweep configuration."""

    kind: str
    model: str = "half-line"
    horizon: float = 1.0
    steps: int = 10_000
    a_grid: tuple = (0.1, 0.05, 0.025, 0.0125)
    eps_grid: tuple = (0.2, 0.1, 0.05, 0.025)
    eta: float | None = None
    n_paths: int = 200
    p: float = 2.0
    master_seed: int = 0
    x0: tuple | None = None

    def validate(self) -> "ExperimentConfig":
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        model = parse_model(self.model)
        if self.kind == "halfline-penalization" and model.id != geo.HALF_LINE:
            raise ValueError("halfline-penalization runs on the half-line model only")
        if self.kind == "norm-bound" and model.is_flat_chart:
            raise ValueError("norm-bound experiment targets the curved model")
        if self.x0 is not None and np.size(self.x0) != model.dim:
            raise ValueError(f"x0 must have {model.dim} coordinates on {model.name}, got {np.size(self.x0)}")
        if self.kind in ("halfline-penalization", "sp-convergence", "local-time",
                         "norm-bound", "f-normal", "transport", "projection"):
            if not self.a_grid:
                raise ValueError("a_grid must be nonempty")
            if any(b >= a for a, b in zip(self.a_grid, self.a_grid[1:])):
                raise ValueError("a_grid must be strictly decreasing")
            if not all(a > 0 for a in self.a_grid):
                raise ValueError("a_grid values must be positive")
        if self.kind == "eps-cauchy":
            if len(self.eps_grid) < 2:
                raise ValueError("eps_grid needs at least two levels")
            if any(b >= a for a, b in zip(self.eps_grid, self.eps_grid[1:])):
                raise ValueError("eps_grid must be strictly decreasing")
            if not all(eps > 0 for eps in self.eps_grid):
                raise ValueError("eps_grid levels must be positive")
        if self.n_paths < 2:
            raise ValueError("n_paths must be at least 2")
        if self.eta is not None and not self.eta > 0:
            raise ValueError("eta must be positive")
        if not self.p > 0:
            raise ValueError("p must be positive")
        return self

    @property
    def grid(self) -> TimeGrid:
        return TimeGrid(self.horizon, self.steps)

    @property
    def digest(self) -> str:
        fields = {
            "kind": self.kind,
            "model": self.model,
            "horizon": self.horizon,
            "steps": self.steps,
            "a_grid": tuple(self.a_grid),
            "eps_grid": tuple(self.eps_grid),
            "eta": self.eta,
            "n_paths": self.n_paths,
            "p": self.p,
            "master_seed": self.master_seed,
            "x0": None if self.x0 is None else tuple(self.x0),
        }
        return canonical_digest(fields)


@dataclass
class ResultRow:
    """One statistic of one parameter point of one experiment."""

    kind: str
    params: dict
    statistic: str
    value: float
    stderr: float = math.nan
    q25: float = math.nan
    q50: float = math.nan
    q75: float = math.nan
    schema_version: str = SCHEMA_VERSION
    digest: str = ""

    def params_text(self) -> str:
        return ";".join(f"{k}={self.params[k]!r}" for k in sorted(self.params))


def _quantiles(vals: np.ndarray):
    q = np.quantile(vals, [0.25, 0.5, 0.75])
    return float(q[0]), float(q[1]), float(q[2])


def _mean_stderr(vals: np.ndarray):
    m = float(vals.mean())
    if vals.size < 2:
        return m, math.nan
    return m, float(vals.std(ddof=1) / math.sqrt(vals.size))


def _chunks(n: int, size: int):
    done = 0
    while done < n:
        c = min(size, n - done)
        yield done, c
        done += c


# Paths a sweep runs per chunk.  Every path draws its own driver and every
# integrator steps each row on its own, so the width moves no byte of a sweep.
_CHUNK_PATHS = 250


# -- elementary statistics ----------------------------------------------------


def sp_distance(paths_a, paths_b, p: float, model: ManifoldModel | None = None) -> MCEstimate:
    """Mean over paths of the sup-node chart distance to the power p
    (Euclidean when no model is given)."""
    A = np.asarray(paths_a, dtype=float)
    B = np.asarray(paths_b, dtype=float)
    if A.ndim == 2:
        A, B = A[None], B[None]
    if A.shape != B.shape:
        raise ValueError("coupled path arrays must share one grid and shape")
    if model is None:
        model = geo.half_space(A.shape[-1])
    sup = geo.chart_distance(model, A, B).max(axis=-1) ** p
    mean, err = _mean_stderr(sup)
    return MCEstimate(mean, err if not math.isnan(err) else 0.0, sup.size, "")


def local_time_tv(L, L_a):
    """(sup gap, total variation of the difference, 2 * terminal local time),
    per series along the last axis (scalars for one series).

    The variation is taken over grid nodes, sum_k |dL_k - dL^a_k|, so it is a
    lower bound on the path variation L_T + L^a_T: it equals L_T + L^a_T when
    no step holds increments of both, and falls short where increments in one
    step cancel.  It approaches the third entry when dt -> 0 before a -> 0,
    with a shortfall set by kappa = a / sqrt(dt); at fixed dt it falls as a
    shrinks.  The sup gap approaches zero as a -> 0.
    """
    L = np.asarray(L, dtype=float)
    L_a = np.asarray(L_a, dtype=float)
    if L.shape != L_a.shape:
        raise ValueError("coupled local-time series must share a grid")
    sup = np.abs(L - L_a).max(axis=-1)
    return sup, _tv_terms(L, L_a).sum(axis=-1), 2.0 * L[..., -1]


def _tv_terms(L, L_a):
    """The terms |dL_k - dL^a_k| of the node variation, one per step."""
    return np.abs(np.diff(L, axis=-1) - np.diff(L_a, axis=-1))


# -- experiment kernels -------------------------------------------------------


def _start_point(cfg: ExperimentConfig, model: ManifoldModel) -> np.ndarray:
    if cfg.x0 is not None:
        return np.asarray(cfg.x0, dtype=float)
    return default_start(model)


# Steps per block of the driver, of the coupled runs stepped on it, and of
# the blocks a streamed kind's reducer is handed.
_REDUCE_BLOCK = 64


def _drivers(cfg: ExperimentConfig, model: ManifoldModel, chunk: slice):
    """The chunk's driver in blocks of _REDUCE_BLOCK steps, drawn from the
    paths' keyed streams."""
    return driver_blocks(cfg.grid, model.frame_count, cfg.master_seed, chunk.start, chunk.stop - chunk.start,
                         _REDUCE_BLOCK)


def _relay(blocks):
    """Two iterators over ``blocks`` for two steppers that take each block in
    turn, the first first: only the block in hand is kept, where
    itertools.tee keeps up to 57."""
    hand = []

    def lead():
        for item in blocks:
            hand.append(item)
            yield item

    def follow():
        while hand:
            yield hand.pop()

    return lead(), follow()


# Terms in a leaf of numpy's pairwise summation (PW_BLOCKSIZE).
_PAIRWISE_LEAF = 128


def _pairwise_plan(n: int) -> list:
    """The leaves of numpy's pairwise sum over n terms, in order: [length,
    merges], where merges counts the nodes of the tree whose last leaf it is.
    A node of more than _PAIRWISE_LEAF terms splits at n//2 rounded down to a
    multiple of 8."""
    if n <= _PAIRWISE_LEAF:
        return [[n, 0]]
    half = n // 2 - (n // 2) % 8
    plan = _pairwise_plan(half) + _pairwise_plan(n - half)
    plan[-1][1] += 1
    return plan


class _RowSums:
    """Sums of n terms per row, fed in blocks along the last axis, equal bit for
    bit to np.sum(terms, axis=-1) of the joined (..., n) array (Higham, SIAM
    J. Sci. Comput. 1993): each leaf of numpy's pairwise tree is summed by
    numpy from a window of _PAIRWISE_LEAF terms per row, and the partial sums
    are added as the tree adds them, so a row holds one window and O(log n)
    partial sums.  ``total`` is set once the n-th term is added."""

    def __init__(self, shape: tuple, n: int):
        self._plan = iter(_pairwise_plan(n))
        self._leaf, self._merges = next(self._plan)
        self._window = np.empty(shape + (_PAIRWISE_LEAF,))
        self._fill = 0
        self._partial = []
        self.total = None

    def add(self, terms: np.ndarray):
        k = 0
        while k < terms.shape[-1]:
            take = min(terms.shape[-1] - k, self._leaf - self._fill)
            self._window[..., self._fill : self._fill + take] = terms[..., k : k + take]
            self._fill += take
            k += take
            if self._fill < self._leaf:
                continue
            s = self._window[..., : self._leaf].sum(axis=-1)
            for _ in range(self._merges):
                s = self._partial.pop() + s
            self._partial.append(s)
            self._fill = 0
            self._leaf, self._merges = next(self._plan, (0, 0))
        if self._leaf == 0:
            self.total = self._partial[0]


def _streams(cfg: ExperimentConfig, model: ManifoldModel, reducer, penalized=None):
    """Coupled node loops on the shared driver, one chunk of paths at a time.

    For each chunk, the driver is drawn, and the runs of the whole a-grid are
    stepped on it, in blocks of _REDUCE_BLOCK steps: one driver pass, one
    reflected run and one penalized run of every row.  Each pair of blocks
    goes to the reducer that ``reducer(chunk)`` returns, ``chunk`` being the
    chunk's slice of the paths.  A call ``reduce(i0, pen, ref)`` gets nodes
    i0..i1 of the penalized runs (points (G, P, n, d), R, L and C (G, P, n),
    n = i1 - i0 + 1, G the a-grid's length) and of the reflected ones (points
    (P, n, d), R and L (P, n)), equal bit for bit to those nodes of the
    stored runs; the next call starts at node i1, and the arrays may be
    reused once it returns, so a reducer carries what its statistic needs
    from block to block: running maxima, transport angles, the damped
    engine's last products, or a _RowSums of its node terms.  Nothing a
    chunk holds grows with N.  The penalized rows are stepped by
    ``penalized(a_grid, x0, blocks, first)``, a block stepper such as
    stepping._penalized_blocks, the default; halfline-penalization passes
    the 1-d flow, whose ``pen`` is its node values (G, P, n).  Only the runs
    a kind reads are stepped: norm-bound gets None for ``ref``, and
    eps-cauchy, which has no a-grid, None for ``pen``.
    """
    x0 = _start_point(cfg, model)
    grid = cfg.grid
    if penalized is None:

        def penalized(a_grid, x0, blocks, first):
            return stepping._penalized_blocks(model, a_grid, x0, blocks, grid, first)

    for first, c in _chunks(cfg.n_paths, _CHUNK_PATHS):
        chunk = slice(first, first + c)
        reduce = reducer(chunk)
        dB = _drivers(cfg, model, chunk)
        if cfg.kind == "eps-cauchy":
            for i0, ref in stepping._reflected_blocks(model, x0, dB, grid, first):
                reduce(i0, None, ref)
            continue
        if cfg.kind == "norm-bound":
            refs = itertools.repeat((None, None))
        else:
            dB, dB_ref = _relay(dB)
            refs = stepping._reflected_blocks(model, x0, dB_ref, grid, first)
        for (i0, pen), (_, ref) in zip(penalized(cfg.a_grid, x0, dB, first), refs):
            reduce(i0, pen, ref)


def _damped_along(model: ManifoldModel, run: dict, dt: float, angle, **kw):
    """The damped engine's products and transported normals along one node
    block of a run, ``kw`` its keyword options.  ``angle`` carries the
    cumulative transport angle from block to block (see transport_batch).  A
    penalized run (one with a damping series C) brings its damping
    increments."""
    frames = None if model.is_flat_chart else transport_batch(model, run["points"], angle)
    dC = np.diff(run["C"], axis=1) if "C" in run else None
    return _damped_engine(model, run["points"], frames, dt, np.diff(run["L"], axis=1), c_increments=dC, **kw)


def _level_gaps(W, gaps):
    """Running max into gaps (levels - 1, P) of the Frobenius gaps between
    consecutive levels of the products W (n, levels, P, d, d) at nodes
    1..n-1."""
    diff = W[1:, :-1] - W[1:, 1:]
    np.maximum(gaps, np.sqrt(np.sum(diff * diff, axis=(3, 4))).max(axis=0), out=gaps)


def _run_halfline_penalization(cfg: ExperimentConfig):
    """Softened 1-d flow vs the exact reflection, reduced block by block: the
    path gap as a running max, and the derivative gap as a _RowSums of its
    terms.  Each path carries the running minimum of R - L, and each row the
    exponent of its derivative flow, from one block to the next."""
    dt = cfg.grid.dt
    sup_gap = np.full((len(cfg.a_grid), cfg.n_paths), -np.inf)
    dflow_gap = np.empty(sup_gap.shape)

    def flow(a_grid, x0, blocks, first):
        return sk1d._flow_blocks(a_grid, x0[0], ((i0, dB[:, :, 0]) for i0, dB in blocks), dt, first)

    def reducer(chunk):
        P = chunk.stop - chunk.start
        low = np.full(P, np.inf)
        expo = np.zeros((len(cfg.a_grid), P))
        dflow = _RowSums(expo.shape, cfg.steps)

        def reduce(i0, X, ref):
            i1 = i0 + X.shape[-1] - 1
            gap = sup_gap[:, chunk]
            np.maximum(gap, np.abs(X - ref["R"]).max(axis=-1), out=gap)
            # R - L is x0 plus the driver up to the first hit: node-level t < tau
            low_run = ref["R"] - ref["L"]
            np.minimum(low_run[:, 0], low, out=low_run[:, 0])
            np.minimum.accumulate(low_run, axis=1, out=low_run)
            low[:] = low_run[:, -1]
            alive = low_run[:, :-1] > 0.0
            terms = np.empty(expo.shape + (i1 - i0,))
            for j, a in enumerate(cfg.a_grid):
                e = np.empty((P, i1 - i0 + 1))
                e[:, 0] = expo[j]
                e[:, 1:] = sk1d.penalized_drift_second_log(a, X[j, :, :-1]) * dt
                np.cumsum(e, axis=1, out=e)
                expo[j] = e[:, -1]
                terms[j] = np.abs(np.exp(e[:, :-1]) - alive)
            dflow.add(terms)
            if i1 == cfg.steps:
                dflow_gap[:, chunk] = dflow.total * dt

        return reduce

    _streams(cfg, geo.half_line(), reducer, penalized=flow)
    rows = []
    for a, sup, dflow in zip(cfg.a_grid, sup_gap, dflow_gap):
        rows.append(ResultRow(cfg.kind, {"a": a}, "sup_path_gap", *_mean_stderr(sup), *_quantiles(sup)))
        rows.append(ResultRow(cfg.kind, {"a": a}, "derivative_flow_l1", *_mean_stderr(dflow), *_quantiles(dflow)))
    return rows


def _run_sp_convergence(cfg: ExperimentConfig):
    model = parse_model(cfg.model)
    sup = np.full((len(cfg.a_grid), cfg.n_paths), -np.inf)

    def reducer(chunk):
        def reduce(i0, pen, ref):
            block = sup[:, chunk]
            np.maximum(block, geo.chart_distance(model, pen["points"], ref["points"]).max(axis=-1), out=block)

        return reduce

    _streams(cfg, model, reducer)
    sup_p = sup**cfg.p
    rows = []
    for a, vals in zip(cfg.a_grid, sup_p):
        m, e = _mean_stderr(vals)
        rows.append(ResultRow(cfg.kind, {"a": a, "p": cfg.p}, "sup_distance_p", m, e, *_quantiles(vals)))
    return rows


def _run_local_time(cfg: ExperimentConfig):
    """local_time_tv of the coupled runs, reduced block by block: the sup gap
    as a running max, and the variation as a _RowSums of its terms, which
    sums them as local_time_tv does."""
    model = parse_model(cfg.model)
    sup = np.full((len(cfg.a_grid), cfg.n_paths), -np.inf)
    tv = np.empty(sup.shape)
    twice = np.empty(cfg.n_paths)

    def reducer(chunk):
        variation = _RowSums((len(cfg.a_grid), chunk.stop - chunk.start), cfg.steps)

        def reduce(i0, pen, ref):
            gap = sup[:, chunk]
            np.maximum(gap, np.abs(ref["L"] - pen["L"]).max(axis=-1), out=gap)
            variation.add(_tv_terms(ref["L"], pen["L"]))
            if i0 + ref["L"].shape[-1] - 1 == cfg.steps:
                tv[:, chunk] = variation.total
                twice[chunk] = 2.0 * ref["L"][:, -1]

        return reduce

    _streams(cfg, model, reducer)
    rows = []
    for k, a in enumerate(cfg.a_grid):
        m, e = _mean_stderr(sup[k])
        rows.append(ResultRow(cfg.kind, {"a": a}, "sup_local_time_gap", m, e, *_quantiles(sup[k])))
        m, e = _mean_stderr(tv[k])
        rows.append(ResultRow(cfg.kind, {"a": a}, "tv_difference", m, e, *_quantiles(tv[k])))
        ratio = tv[k].sum() / max(twice.sum(), 1e-300)
        rows.append(ResultRow(cfg.kind, {"a": a}, "tv_over_twice_terminal", float(ratio)))
    m, e = _mean_stderr(twice)
    rows.append(ResultRow(cfg.kind, {}, "twice_terminal_local_time", m, e, *_quantiles(twice)))
    return rows


def _run_norm_bound(cfg: ExperimentConfig):
    """Node-wise decay bound of the smooth damped transport on the cap,
    max_i |W_i|^2 - 2 exp(-t_i - 2 int kappa dL) over nodes 1..N, reduced
    block by block: each row carries its transport angle, its last product
    and its log-bound from one block to the next."""
    model = parse_model(cfg.model)
    dt = cfg.grid.dt
    worst = np.full((len(cfg.a_grid), cfg.n_paths), -np.inf)

    def reducer(chunk):
        angles = np.zeros((len(cfg.a_grid), chunk.stop - chunk.start))
        starts = [None for _ in angles]
        log_bound = np.zeros(angles.shape)

        def reduce(i0, pen, _):
            for j, angle in enumerate(angles):
                run = {key: v[j] for key, v in pen.items()}
                W = _damped_along(model, run, dt, angle, start=starts[j])[0]
                starts[j] = W[-1]
                w = W[1:, 0]
                steps = np.empty((angle.size, len(w) + 1))
                steps[:, 0] = log_bound[j]
                kappa = geo._level_curvature(model, run["points"][:, :-1])
                steps[:, 1:] = -1.0 * dt - 2.0 * kappa * np.diff(run["L"])
                np.cumsum(steps, axis=1, out=steps)
                log_bound[j] = steps[:, -1]
                row = worst[j, chunk]
                np.maximum(row, (np.sum(w * w, axis=(2, 3)).T - 2.0 * np.exp(steps[:, 1:])).max(axis=1), out=row)

        return reduce

    _streams(cfg, model, reducer)
    rows = []
    for a, vals in zip(cfg.a_grid, worst):
        row = ResultRow(cfg.kind, {"a": a}, "max_bound_violation", float(vals.max()), math.nan, *_quantiles(vals))
        rows.append(row)
    return rows


def _run_eps_cauchy(cfg: ExperimentConfig):
    """Inter-level sup gaps of the excursion-jump transport, reduced block by
    block: each path carries its last contact node, its transport angle and
    its last products from one block to the next."""
    model = parse_model(cfg.model)
    grid = cfg.grid
    times = grid.times
    eta = cfg.eta if cfg.eta is not None else default_contact_threshold(grid)
    n_pairs = len(cfg.eps_grid) - 1
    gaps = np.zeros((n_pairs, cfg.n_paths))

    def reducer(chunk):
        last = np.full(chunk.stop - chunk.start, -1)
        angle = np.zeros(last.shape)
        start = None

        def reduce(i0, _, ref):
            nonlocal start
            closes, dur = close_events(ref["R"], times[: i0 + ref["R"].shape[-1]], eta, last)
            levels = [closes & (dur >= eps) for eps in cfg.eps_grid]
            W = _damped_along(model, ref, grid.dt, angle, jump_flags=levels, start=start)[0]
            start = W[-1]
            _level_gaps(W, gaps[:, chunk])

        return reduce

    _streams(cfg, model, reducer)
    rows = []
    for k in range(n_pairs):
        m, e = _mean_stderr(gaps[k])
        rows.append(
            ResultRow(
                cfg.kind,
                {"eps_coarse": cfg.eps_grid[k], "eps_fine": cfg.eps_grid[k + 1]},
                "sup_level_gap",
                m,
                e,
                *_quantiles(gaps[k]),
            )
        )
    return rows


def _run_f_normal(cfg: ExperimentConfig):
    """L^2(dt) gap between smooth and limit normal components, per a, reduced
    block by block: the reference and each row carry their transport angle
    and last product, and the reference its last contact node, from one block
    to the next; the terms go into a _RowSums."""
    model = parse_model(cfg.model)
    grid = cfg.grid
    times = grid.times
    eta = cfg.eta if cfg.eta is not None else default_contact_threshold(grid)
    vals = np.empty((len(cfg.a_grid), cfg.n_paths))

    def reducer(chunk):
        P = chunk.stop - chunk.start
        last = np.full(P, -1)
        # one angle and last product per row, the reference's last
        angles = np.zeros((len(cfg.a_grid) + 1, P))
        starts = [None for _ in angles]

        def normal(run, j, **kw):
            """The normal component n^T W n of row j's products."""
            W, nu = _damped_along(model, run, grid.dt, angles[j], start=starts[j], **kw)
            starts[j] = W[-1]
            return np.einsum("pni,pni->pn", _vec_mat(nu, W[:, 0].swapaxes(0, 1)), nu)

        l2 = _RowSums((len(cfg.a_grid), P), cfg.steps)

        def reduce(i0, pen, ref):
            i1 = i0 + ref["R"].shape[-1] - 1
            closes, dur = close_events(ref["R"], times[: i1 + 1], eta, last)
            f_lim = normal(ref, -1, jump_flags=closes & (dur >= 0.5 * grid.dt))
            terms = np.empty((len(cfg.a_grid), P, i1 - i0))
            for j, term in enumerate(terms):
                f_a = normal({key: v[j] for key, v in pen.items()}, j)
                term[:] = (f_a - f_lim)[:, :-1] ** 2
            l2.add(terms)
            if i1 == cfg.steps:
                vals[:, chunk] = l2.total * grid.dt

        return reduce

    _streams(cfg, model, reducer)
    rows = []
    for a, v in zip(cfg.a_grid, vals):
        rows.append(ResultRow(cfg.kind, {"a": a}, "normal_component_l2", *_mean_stderr(v), *_quantiles(v)))
    return rows


def _run_transport(cfg: ExperimentConfig):
    """Sup gap between the vectors transported along the coupled runs, as a
    running max: the reference and each row carry their transport angle from
    one block to the next."""
    model = parse_model(cfg.model)
    v = np.zeros(model.dim)
    v[-1] = 1.0
    gaps = np.full((len(cfg.a_grid), cfg.n_paths), -np.inf)

    def reducer(chunk):
        # one angle per row, the reference's last
        angles = np.zeros((len(cfg.a_grid) + 1, chunk.stop - chunk.start))

        def reduce(i0, pen, ref):
            ref_v = transport_batch(model, ref["points"], angles[-1]) @ v
            for j, angle in enumerate(angles[:-1]):
                pen_v = transport_batch(model, pen["points"][j], angle) @ v
                gap = gaps[j, chunk]
                np.maximum(gap, np.linalg.norm(pen_v - ref_v, axis=-1).max(axis=-1), out=gap)

        return reduce

    _streams(cfg, model, reducer)
    rows = []
    for a, g in zip(cfg.a_grid, gaps):
        rows.append(ResultRow(cfg.kind, {"a": a}, "sup_transport_gap", *_mean_stderr(g), *_quantiles(g)))
    return rows


def _run_projection(cfg: ExperimentConfig):
    model = parse_model(cfg.model)
    delta0 = model.tubular_radius
    sup = np.full((len(cfg.a_grid), cfg.n_paths), -np.inf)  # -inf: never in both collars

    def reducer(chunk):
        def reduce(i0, pen, ref):
            both = (ref["R"] < delta0) & (pen["R"] < delta0)
            ref_proj = geo.nearest_boundary_point(model, ref["points"])
            proj_gap = np.linalg.norm(geo.nearest_boundary_point(model, pen["points"]) - ref_proj, axis=-1)
            block = sup[:, chunk]
            np.maximum(block, np.where(both, proj_gap, -np.inf).max(axis=-1), out=block)

        return reduce

    _streams(cfg, model, reducer)
    rows = []
    for a, s in zip(cfg.a_grid, sup):
        vals = s[np.isfinite(s)]
        if vals.size == 0:
            rows.append(ResultRow(cfg.kind, {"a": a}, "sup_projection_gap", math.nan))
            continue
        m, e = _mean_stderr(vals)
        rows.append(ResultRow(cfg.kind, {"a": a}, "sup_projection_gap", m, e, *_quantiles(vals)))
    return rows


_RUNNERS = {
    "halfline-penalization": _run_halfline_penalization,
    "sp-convergence": _run_sp_convergence,
    "local-time": _run_local_time,
    "norm-bound": _run_norm_bound,
    "eps-cauchy": _run_eps_cauchy,
    "f-normal": _run_f_normal,
    "transport": _run_transport,
    "projection": _run_projection,
}


def run_experiment(config: ExperimentConfig) -> list[ResultRow]:
    """Run one experiment kind; rows carry the schema version and digest."""
    config = config.validate()
    rows = _RUNNERS[config.kind](config)
    digest = config.digest
    for row in rows:
        row.digest = digest
    rows.sort(key=lambda r: (r.kind, r.params_text(), r.statistic))
    return rows


# -- rendering ----------------------------------------------------------------

_CSV_COLUMNS = (
    "schema_version",
    "digest",
    "kind",
    "params",
    "statistic",
    "value",
    "stderr",
    "q25",
    "q50",
    "q75",
)


def _fmt(x: float) -> str:
    if isinstance(x, float) and math.isnan(x):
        return ""
    return repr(float(x))


def render_csv(rows: list[ResultRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for r in sorted(rows, key=lambda r: (r.kind, r.params_text(), r.statistic)):
        writer.writerow(
            [
                r.schema_version,
                r.digest,
                r.kind,
                r.params_text(),
                r.statistic,
                _fmt(r.value),
                _fmt(r.stderr),
                _fmt(r.q25),
                _fmt(r.q50),
                _fmt(r.q75),
            ]
        )
    return buf.getvalue()


def rows_to_dicts(rows: list[ResultRow]) -> list[dict]:
    out = []
    for r in rows:
        d = dict(
            schema_version=r.schema_version,
            digest=r.digest,
            kind=r.kind,
            params=r.params,
            statistic=r.statistic,
            value=r.value,
            stderr=None if math.isnan(r.stderr) else r.stderr,
            q25=None if math.isnan(r.q25) else r.q25,
            q50=None if math.isnan(r.q50) else r.q50,
            q75=None if math.isnan(r.q75) else r.q75,
        )
        out.append(d)
    return out


def rows_from_dicts(data: list[dict]) -> list[ResultRow]:
    rows = []
    for d in data:
        rows.append(
            ResultRow(
                kind=d["kind"],
                params=d["params"],
                statistic=d["statistic"],
                value=d["value"],
                stderr=math.nan if d.get("stderr") is None else d["stderr"],
                q25=math.nan if d.get("q25") is None else d["q25"],
                q50=math.nan if d.get("q50") is None else d["q50"],
                q75=math.nan if d.get("q75") is None else d["q75"],
                schema_version=d.get("schema_version", SCHEMA_VERSION),
                digest=d.get("digest", ""),
            )
        )
    return rows


def render(rows: list[ResultRow], fmt: str) -> str:
    """Rows as CSV (deterministic bytes) or JSON text."""
    if fmt == "csv":
        return render_csv(rows)
    if fmt == "json":
        return json.dumps(rows_to_dicts(rows), indent=2, sort_keys=True) + "\n"
    raise ValueError("format must be 'csv' or 'json'")


def report(rows: list[ResultRow], fmt: str, out_path: str) -> str:
    """Write rows as CSV (deterministic bytes) or JSON."""
    text = render(rows, fmt)
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write report to {out_path!r}: {exc}") from exc
    return out_path
