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
from .damped import _damped_engine
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
    """Sweep configuration; the digest ignores the output location."""

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
    out: str | None = None

    def validate(self) -> "ExperimentConfig":
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        model = parse_model(self.model)
        if self.kind == "halfline-penalization" and model.id != geo.HALF_LINE:
            raise ValueError("halfline-penalization runs on the half-line model only")
        if self.kind in ("halfline-penalization", "sp-convergence", "local-time",
                         "norm-bound", "f-normal", "transport", "projection"):
            if not self.a_grid:
                raise ValueError("a_grid must be nonempty")
            if any(b >= a for a, b in zip(self.a_grid, self.a_grid[1:])):
                raise ValueError("a_grid must be strictly decreasing")
        if self.kind == "eps-cauchy":
            if len(self.eps_grid) < 2:
                raise ValueError("eps_grid needs at least two levels")
            if any(b >= a for a, b in zip(self.eps_grid, self.eps_grid[1:])):
                raise ValueError("eps_grid must be strictly decreasing")
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

# Row-nodes one penalized integrator call may hold: the largest one-a call of
# the acceptance sweeps that keep whole paths (a 250-path chunk on 10,000
# steps).  The a-grid is stepped in groups of as many values of a as fit.
_MAX_ROW_NODES = _CHUNK_PATHS * 10_001

# The kinds that reduce the coupled runs as they are stepped (_streams): a row
# holds its state only, and, for local-time, its N variation terms.
# norm-bound reads the penalized rows only, eps-cauchy the reflected ones.
_STREAMED = ("sp-convergence", "local-time", "projection", "norm-bound", "eps-cauchy")


def _row_nodes(cfg: ExperimentConfig) -> int:
    """Nodes of each row that one integrator call of the sweep holds."""
    if cfg.kind == "local-time":
        return cfg.steps
    return 1 if cfg.kind in _STREAMED else cfg.steps + 1


def _a_groups(cfg: ExperimentConfig, paths: int):
    """The a-grid in the slices that one integrator call each steps: as many
    values of a as keep a call of ``paths`` paths within _MAX_ROW_NODES."""
    per_call = max(1, _MAX_ROW_NODES // (paths * _row_nodes(cfg)))
    return [cfg.a_grid[k : k + per_call] for k in range(0, len(cfg.a_grid), per_call)]


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
    """The chunk's driver in blocks of _REDUCE_BLOCK steps; every call draws
    it afresh from the paths' keyed streams, so every call gives the same
    bits."""
    return driver_blocks(cfg.grid, model.frame_count, cfg.master_seed, chunk.start, chunk.stop - chunk.start,
                         _REDUCE_BLOCK)


def _stored(blocks, steps: int) -> dict:
    """A stored run joined from the node blocks (i0, run) of a block stepper;
    the node axis is the one after the paths (R's last)."""
    run = None
    for i0, part in blocks:
        ax = part["R"].ndim - 1
        if run is None:
            run = {key: np.empty(v.shape[:ax] + (steps + 1,) + v.shape[ax + 1 :]) for key, v in part.items()}
        at = (slice(None),) * ax + (slice(i0, i0 + part["R"].shape[-1]),)
        for key, v in part.items():
            run[key][at] = v
    return run


def _chunk_runs(cfg: ExperimentConfig, model: ManifoldModel, penalized=None):
    """Coupled stored runs on the shared driver, one chunk of paths at a time.

    Yields (chunk, ref, pens) per chunk: the chunk's slice of the paths, the
    reflected run on its driver, and an iterator of (a, penalized run) in
    grid order.  The iterator makes one call ``penalized(group, x0, dB)`` per
    _a_groups slice as it is consumed, with the driver blocks of _drivers;
    a call returns the group's runs in order, and the default is the model's
    penalized integrator.
    """
    grid = cfg.grid
    x0 = _start_point(cfg, model)
    if penalized is None:

        def penalized(group, x0, dB):
            runs = _stored(stepping._penalized_blocks(model, group, x0, dB, grid), grid.steps)
            return [{key: v[j] for key, v in runs.items()} for j in range(len(group))]

    def pens(chunk):
        for group in _a_groups(cfg, chunk.stop - chunk.start):
            yield from zip(group, penalized(group, x0, _drivers(cfg, model, chunk)))

    for first, c in _chunks(cfg.n_paths, _CHUNK_PATHS):
        chunk = slice(first, first + c)
        ref = _stored(stepping._reflected_blocks(model, x0, _drivers(cfg, model, chunk), grid), grid.steps)
        yield chunk, ref, pens(chunk)


def _held_blocks(run: dict, steps: int):
    """A stored run in the node blocks of _drivers."""
    for i0 in range(0, steps, _REDUCE_BLOCK):
        i1 = min(i0 + _REDUCE_BLOCK, steps)
        yield i0, {key: v[:, i0 : i1 + 1] for key, v in run.items()}


def _streams(cfg: ExperimentConfig, model: ManifoldModel, reducer):
    """Coupled node loops on the shared driver, one chunk of paths at a time.

    The driver is drawn, and the runs are stepped on it, in blocks of
    _REDUCE_BLOCK steps.  For each chunk and each _a_groups slice, the
    slice's penalized rows and the chunk's reflected rows are stepped block by
    block, and each pair of blocks goes to the reducer that
    ``reducer(chunk, rows)`` returns: ``chunk`` is the chunk's slice of the
    paths and ``rows`` the slice's positions in the a-grid.  A call
    ``reduce(i0, pen, ref)`` gets nodes i0..i1 of the penalized runs (points
    (G, P, n, d), R, L and C (G, P, n), n = i1 - i0 + 1) and of the reflected
    ones (points (P, n, d), R and L (P, n)), equal bit for bit to those nodes
    of the stored runs; the next call starts at node i1, and the arrays may
    be reused once it returns.  Only the runs a kind reads are stepped:
    norm-bound gets None for ``ref``, and eps-cauchy, which has no a-grid,
    one reducer per chunk (``rows`` None) and None for ``pen``.  The
    reflected rows step beside the penalized ones when the a-grid is one
    slice, and once per chunk, held whole, when it splits; each slice then
    draws the driver blocks again.
    """
    x0 = _start_point(cfg, model)
    for first, c in _chunks(cfg.n_paths, _CHUNK_PATHS):
        _stream_chunk(cfg, model, x0, slice(first, first + c), reducer)


def _stream_chunk(cfg: ExperimentConfig, model: ManifoldModel, x0, chunk: slice, reducer):
    """One chunk of _streams."""
    grid = cfg.grid
    if cfg.kind == "eps-cauchy":
        reduce = reducer(chunk, None)
        for i0, ref in stepping._reflected_blocks(model, x0, _drivers(cfg, model, chunk), grid):
            reduce(i0, None, ref)
        return
    groups = _a_groups(cfg, chunk.stop - chunk.start)
    reflected = cfg.kind != "norm-bound"
    held = None
    if reflected and len(groups) > 1:
        held = _stored(stepping._reflected_blocks(model, x0, _drivers(cfg, model, chunk), grid), grid.steps)
    k = 0
    for group in groups:
        reduce = reducer(chunk, slice(k, k + len(group)))
        dB = _drivers(cfg, model, chunk)
        if held is not None:
            refs = _held_blocks(held, grid.steps)
        elif reflected:
            # each driver block goes to both steppers, penalized first
            dB, dB_ref = itertools.tee(dB)
            refs = stepping._reflected_blocks(model, x0, dB_ref, grid)
        else:
            refs = itertools.repeat((None, None))
        for (i0, pen), (_, ref) in zip(stepping._penalized_blocks(model, group, x0, dB, grid), refs):
            reduce(i0, pen, ref)
        k += len(group)


def _damped_along(model: ManifoldModel, run: dict, dt: float, angle=None):
    """The damped engine along one run, or one node block of a run, its
    transport frames computed once: call it with the engine's keyword
    options.  ``angle`` carries the cumulative transport angle from block to
    block (see transport_batch).  A penalized run (one with a damping series
    C) brings its damping increments."""
    frames = None if model.is_flat_chart else transport_batch(model, run["points"], angle)
    dL = np.diff(run["L"], axis=1)
    dC = np.diff(run["C"], axis=1) if "C" in run else None
    return lambda **kw: _damped_engine(model, run["points"], frames, dt, dL, c_increments=dC, **kw)


def _run_halfline_penalization(cfg: ExperimentConfig):
    """Softened 1-d flow vs the exact reflection: path gap and derivative gap."""
    dt = cfg.grid.dt
    sup_gap = {a: np.empty(cfg.n_paths) for a in cfg.a_grid}
    dflow_gap = {a: np.empty(cfg.n_paths) for a in cfg.a_grid}

    def flow(group, x0, dB):
        # the 1-d flow steps a whole driver, joined from its blocks
        dW = np.concatenate([block[:, :, 0] for _, block in dB], axis=1)
        return sk1d.penalized_paths_1d_grid(group, x0[0], dW, dt)

    for chunk, ref, pens in _chunk_runs(cfg, geo.half_line(), penalized=flow):
        # R - L is x0 plus the driver up to the first hit: node-level t < tau
        alive = np.minimum.accumulate(ref["R"] - ref["L"], axis=1) > 0.0
        for a, X in pens:
            sup_gap[a][chunk] = np.abs(X - ref["R"]).max(axis=1)
            expo = np.zeros_like(X)
            np.cumsum(sk1d.penalized_drift_second_log(a, X[:, :-1]) * dt, axis=1, out=expo[:, 1:])
            dflow_gap[a][chunk] = np.abs(np.exp(expo[:, :-1]) - alive[:, :-1]).sum(axis=1) * dt
    rows = []
    for a in cfg.a_grid:
        q = _quantiles(sup_gap[a])
        m, e = _mean_stderr(sup_gap[a])
        rows.append(ResultRow(cfg.kind, {"a": a}, "sup_path_gap", m, e, *q))
        m, e = _mean_stderr(dflow_gap[a])
        q = _quantiles(dflow_gap[a])
        rows.append(ResultRow(cfg.kind, {"a": a}, "derivative_flow_l1", m, e, *q))
    return rows


def _run_sp_convergence(cfg: ExperimentConfig):
    model = parse_model(cfg.model)
    sup = np.full((len(cfg.a_grid), cfg.n_paths), -np.inf)

    def reducer(chunk, rows):
        def reduce(i0, pen, ref):
            block = sup[rows, chunk]
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
    as a running max, and the variation from one (rows, N) buffer of its
    terms, summed as local_time_tv sums them."""
    model = parse_model(cfg.model)
    sup = np.full((len(cfg.a_grid), cfg.n_paths), -np.inf)
    tv = np.empty(sup.shape)
    twice = np.empty(cfg.n_paths)

    def reducer(chunk, rows):
        terms = np.empty((rows.stop - rows.start, chunk.stop - chunk.start, cfg.steps))

        def reduce(i0, pen, ref):
            gap = sup[rows, chunk]
            np.maximum(gap, np.abs(ref["L"] - pen["L"]).max(axis=-1), out=gap)
            i1 = i0 + ref["L"].shape[-1] - 1
            terms[..., i0:i1] = _tv_terms(ref["L"], pen["L"])
            if i1 == cfg.steps:
                tv[rows, chunk] = terms.sum(axis=-1)
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
    reduced block by block: each row carries its transport angle and its
    engine state from one block to the next."""
    model = parse_model(cfg.model)
    if model.is_flat_chart:
        raise ValueError("norm-bound experiment targets the curved model")
    dt = cfg.grid.dt
    worst = np.empty((len(cfg.a_grid), cfg.n_paths))

    def reducer(chunk, rows):
        angles = np.zeros((rows.stop - rows.start, chunk.stop - chunk.start))
        carries = [{} for _ in angles]

        def reduce(i0, pen, _):
            # the last block's running worst is the whole run's
            for j, (angle, carry) in enumerate(zip(angles, carries)):
                run = {key: v[j] for key, v in pen.items()}
                out = _damped_along(model, run, dt, angle)(collect="bound", carry=carry)
                worst[rows.start + j, chunk] = out["bound"]

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
    the engine's products and gaps from one block to the next."""
    model = parse_model(cfg.model)
    grid = cfg.grid
    times = grid.times
    eta = cfg.eta if cfg.eta is not None else default_contact_threshold(grid)
    n_pairs = len(cfg.eps_grid) - 1
    gaps = np.empty((n_pairs, cfg.n_paths))

    def reducer(chunk, _):
        last = np.full(chunk.stop - chunk.start, -1)
        angle = np.zeros(last.shape)
        carry = {}

        def reduce(i0, _, ref):
            closes, dur = close_events(ref["R"], times[: i0 + ref["R"].shape[-1]], eta, last)
            levels = [closes & (dur >= eps) for eps in cfg.eps_grid]
            # the last block's running gaps are the whole run's
            gaps[:, chunk] = _damped_along(model, ref, grid.dt, angle)(
                jump_flags=levels, collect="cauchy", carry=carry)["cauchy"].T

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
    """L^2(dt) gap between smooth and limit normal components, per a."""
    model = parse_model(cfg.model)
    grid = cfg.grid
    eta = cfg.eta if cfg.eta is not None else default_contact_threshold(grid)
    vals = {a: np.empty(cfg.n_paths) for a in cfg.a_grid}
    for chunk, ref, pens in _chunk_runs(cfg, model):
        closes, dur = close_events(ref["R"], grid.times, eta)
        lim = _damped_along(model, ref, grid.dt)(jump_flags=closes & (dur >= 0.5 * grid.dt), collect="normal")
        f_lim = np.einsum("pni,pni->pn", lim["normal"], lim["carrier"])
        for a, pen in pens:
            sm = _damped_along(model, pen, grid.dt)(collect="normal")
            f_a = np.einsum("pni,pni->pn", sm["normal"], sm["carrier"])
            vals[a][chunk] = np.sum((f_a - f_lim)[:, :-1] ** 2, axis=1) * grid.dt
    rows = []
    for a in cfg.a_grid:
        m, e = _mean_stderr(vals[a])
        rows.append(ResultRow(cfg.kind, {"a": a}, "normal_component_l2", m, e, *_quantiles(vals[a])))
    return rows


def _run_transport(cfg: ExperimentConfig):
    model = parse_model(cfg.model)
    v = np.zeros(model.dim)
    v[-1] = 1.0
    gaps = {a: np.empty(cfg.n_paths) for a in cfg.a_grid}
    for chunk, ref, pens in _chunk_runs(cfg, model):
        ref_v = transport_batch(model, ref["points"]) @ v
        for a, pen in pens:
            pen_v = transport_batch(model, pen["points"]) @ v
            gaps[a][chunk] = np.linalg.norm(pen_v - ref_v, axis=-1).max(axis=1)
    rows = []
    for a in cfg.a_grid:
        m, e = _mean_stderr(gaps[a])
        rows.append(ResultRow(cfg.kind, {"a": a}, "sup_transport_gap", m, e, *_quantiles(gaps[a])))
    return rows


def _run_projection(cfg: ExperimentConfig):
    model = parse_model(cfg.model)
    delta0 = model.tubular_radius
    sup = np.full((len(cfg.a_grid), cfg.n_paths), -np.inf)  # -inf: never in both collars

    def reducer(chunk, rows):
        def reduce(i0, pen, ref):
            both = (ref["R"] < delta0) & (pen["R"] < delta0)
            ref_proj = geo.nearest_boundary_point(model, ref["points"])
            proj_gap = np.linalg.norm(geo.nearest_boundary_point(model, pen["points"]) - ref_proj, axis=-1)
            block = sup[rows, chunk]
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


def report(rows: list[ResultRow], fmt: str, out_path: str) -> str:
    """Write rows as CSV (deterministic bytes) or JSON."""
    if fmt == "csv":
        text = render_csv(rows)
    elif fmt == "json":
        text = json.dumps(rows_to_dicts(rows), indent=2, sort_keys=True) + "\n"
    else:
        raise ValueError("format must be 'csv' or 'json'")
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write report to {out_path!r}: {exc}") from exc
    return out_path
