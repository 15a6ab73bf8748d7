"""Convergence experiments, result tables, and persistence.

Every experiment is a deterministic function of its configuration digest:
drivers come from counter-based per-path substreams, rows are assembled in a
canonical order, and the CSV rendering is reproducible byte for byte.
"""
from __future__ import annotations

import csv
import io
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
from .grids import TimeGrid, driver_block
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
# integrator steps each row on its own, so the width moves no byte of a sweep
# (but on coarse grids that take the bridge-halving branch).
_CHUNK_PATHS = 250

# Row-nodes one penalized integrator call may hold: the largest one-a call of
# the acceptance sweeps (a 250-path chunk on 10,000 steps).  The a-grid is
# stepped in groups of as many values of a as fit.
_MAX_ROW_NODES = _CHUNK_PATHS * 10_001


def _a_groups(cfg: ExperimentConfig, paths: int):
    """The a-grid in the slices that one integrator call each steps: as many
    values of a as keep a call of ``paths`` paths within _MAX_ROW_NODES."""
    per_call = max(1, _MAX_ROW_NODES // (paths * (cfg.steps + 1)))
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
    tv = np.abs(np.diff(L, axis=-1) - np.diff(L_a, axis=-1)).sum(axis=-1)
    return sup, tv, 2.0 * L[..., -1]


# -- experiment kernels -------------------------------------------------------


def _start_point(cfg: ExperimentConfig, model: ManifoldModel) -> np.ndarray:
    if cfg.x0 is not None:
        return np.asarray(cfg.x0, dtype=float)
    return default_start(model)


def _chunk_runs(cfg: ExperimentConfig, model: ManifoldModel, reflected=True, penalized=None):
    """Coupled runs on the shared driver, one chunk of paths at a time.

    Yields (chunk, ref, pens) per chunk: the chunk's slice of the paths, the
    reflected run on its driver (None when ``reflected`` is false), and an
    iterator of (a, penalized run) in grid order.  The iterator makes one call
    ``penalized(group, x0, dB)`` per _a_groups slice as it is consumed, and
    none when it is not; a call returns the group's runs in order, and the
    default is the model's penalized integrator.
    """
    grid = cfg.grid
    x0 = _start_point(cfg, model)
    if penalized is None:

        def penalized(group, x0, dB):
            runs = stepping.integrate_penalized_grid(model, group, x0, dB, grid, aux_seed=cfg.master_seed + 1)
            return [{key: v[j] for key, v in runs.items()} for j in range(len(group))]

    def pens(dB):
        for group in _a_groups(cfg, dB.shape[0]):
            yield from zip(group, penalized(group, x0, dB))

    for first, c in _chunks(cfg.n_paths, _CHUNK_PATHS):
        dB = driver_block(grid, model.frame_count, cfg.master_seed, first, c)
        ref = stepping.integrate_reflected_batch(model, x0, dB, grid) if reflected else None
        yield slice(first, first + c), ref, pens(dB)


def _damped_along(model: ManifoldModel, run: dict, dt: float):
    """The damped engine along one run, its transport frames computed once:
    call it with the engine's keyword options.  A penalized run (one with a
    damping series C) brings its damping increments."""
    frames = None if model.is_flat_chart else transport_batch(model, run["points"])
    dL = np.diff(run["L"], axis=1)
    dC = np.diff(run["C"], axis=1) if "C" in run else None
    return lambda **kw: _damped_engine(model, run["points"], frames, dt, dL, c_increments=dC, **kw)


def _run_halfline_penalization(cfg: ExperimentConfig):
    """Softened 1-d flow vs the exact reflection: path gap and derivative gap."""
    dt = cfg.grid.dt
    sup_gap = {a: np.empty(cfg.n_paths) for a in cfg.a_grid}
    dflow_gap = {a: np.empty(cfg.n_paths) for a in cfg.a_grid}

    def flow(group, x0, dB):
        return sk1d.penalized_paths_1d_grid(group, x0[0], dB[:, :, 0], dt)

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
    sup_p = {a: np.empty(cfg.n_paths) for a in cfg.a_grid}
    for chunk, ref, pens in _chunk_runs(cfg, model):
        for a, pen in pens:
            sup_p[a][chunk] = geo.chart_distance(model, pen["points"], ref["points"]).max(axis=1) ** cfg.p
    rows = []
    for a in cfg.a_grid:
        m, e = _mean_stderr(sup_p[a])
        rows.append(ResultRow(cfg.kind, {"a": a, "p": cfg.p}, "sup_distance_p", m, e, *_quantiles(sup_p[a])))
    return rows


def _run_local_time(cfg: ExperimentConfig):
    model = parse_model(cfg.model)
    sup = {a: np.empty(cfg.n_paths) for a in cfg.a_grid}
    tv = {a: np.empty(cfg.n_paths) for a in cfg.a_grid}
    twice = np.empty(cfg.n_paths)
    for chunk, ref, pens in _chunk_runs(cfg, model):
        for a, pen in pens:
            sup[a][chunk], tv[a][chunk], twice[chunk] = local_time_tv(ref["L"], pen["L"])
    rows = []
    for a in cfg.a_grid:
        m, e = _mean_stderr(sup[a])
        rows.append(ResultRow(cfg.kind, {"a": a}, "sup_local_time_gap", m, e, *_quantiles(sup[a])))
        m, e = _mean_stderr(tv[a])
        rows.append(ResultRow(cfg.kind, {"a": a}, "tv_difference", m, e, *_quantiles(tv[a])))
        ratio = tv[a].sum() / max(twice.sum(), 1e-300)
        rows.append(ResultRow(cfg.kind, {"a": a}, "tv_over_twice_terminal", float(ratio)))
    m, e = _mean_stderr(twice)
    rows.append(ResultRow(cfg.kind, {}, "twice_terminal_local_time", m, e, *_quantiles(twice)))
    return rows


def _run_norm_bound(cfg: ExperimentConfig):
    """Node-wise decay bound of the smooth damped transport on the cap."""
    model = parse_model(cfg.model)
    if model.is_flat_chart:
        raise ValueError("norm-bound experiment targets the curved model")
    dt = cfg.grid.dt
    worst = {a: np.empty(cfg.n_paths) for a in cfg.a_grid}
    for chunk, _, pens in _chunk_runs(cfg, model, reflected=False):
        for a, pen in pens:
            norm2 = _damped_along(model, pen, dt)(collect="norm2")["norm2"]
            kappa_floor = geo._level_curvature(model, pen["points"][:, :-1])  # lower bound along the path
            log_bound = np.zeros_like(pen["L"])
            np.cumsum(-1.0 * dt - 2.0 * kappa_floor * np.diff(pen["L"], axis=1), axis=1, out=log_bound[:, 1:])
            worst[a][chunk] = (norm2 - 2.0 * np.exp(log_bound)).max(axis=1)
    rows = []
    for a in cfg.a_grid:
        rows.append(
            ResultRow(cfg.kind, {"a": a}, "max_bound_violation", float(worst[a].max()), math.nan, *_quantiles(worst[a]))
        )
    return rows


def _run_eps_cauchy(cfg: ExperimentConfig):
    """Inter-level sup gaps of the excursion-jump transport."""
    model = parse_model(cfg.model)
    grid = cfg.grid
    eta = cfg.eta if cfg.eta is not None else default_contact_threshold(grid)
    n_pairs = len(cfg.eps_grid) - 1
    gaps = [np.empty(cfg.n_paths) for _ in range(n_pairs)]
    for chunk, ref, _ in _chunk_runs(cfg, model):
        closes, dur = close_events(ref["R"], grid.times, eta)
        engine = _damped_along(model, ref, grid.dt)
        prev = None  # only the previous level's series is held
        for k, eps in enumerate(cfg.eps_grid):
            series = engine(jump_flags=closes & (dur >= eps), collect="series")["series"]
            if prev is not None:
                diff = prev - series
                gaps[k - 1][chunk] = np.sqrt(np.sum(diff * diff, axis=(2, 3))).max(axis=1)
            prev = series
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
    sup = {a: np.full(cfg.n_paths, math.nan) for a in cfg.a_grid}
    for chunk, ref, pens in _chunk_runs(cfg, model):
        ref_proj = geo.nearest_boundary_point(model, ref["points"])
        for a, pen in pens:
            both = (ref["R"] < delta0) & (pen["R"] < delta0)
            proj_gap = np.linalg.norm(geo.nearest_boundary_point(model, pen["points"]) - ref_proj, axis=-1)
            masked = np.where(both, proj_gap, -np.inf).max(axis=1)
            sup[a][chunk] = np.where(np.isfinite(masked), masked, math.nan)
    rows = []
    for a in cfg.a_grid:
        vals = sup[a][~np.isnan(sup[a])]
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
