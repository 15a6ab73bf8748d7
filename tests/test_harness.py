"""Experiment harness: statistics, configs, rendering, CLI."""
from __future__ import annotations

import hashlib
import json
import math
import re
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from rbmlab import cli
from rbmlab import geometry as geo
from rbmlab import harness, stepping
from rbmlab import skorohod1d as sk1d
from rbmlab.damped import _damped_engine
from rbmlab.errors import IntegrationError
from rbmlab.grids import driver_block
from rbmlab.harness import ExperimentConfig, ResultRow, local_time_tv, sp_distance
from rbmlab.reflected import close_events, default_contact_threshold
from rbmlab.transport import transport_batch


def test_sp_distance_trivial_cases():
    A = np.random.default_rng(0).normal(size=(5, 20, 2))
    est = sp_distance(A, A, 2.0)
    assert est.mean == 0.0
    B = A + np.array([0.3, 0.4])  # constant offset of length 0.5
    est = sp_distance(A, B, 2.0)
    assert est.mean == pytest.approx(0.25, abs=1e-15)
    assert est.stderr == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        sp_distance(A, A[:, :-1], 2.0)


def test_sp_distance_on_cap_uses_ambient_metric():
    cap = geo.spherical_cap(np.pi / 2)
    A = np.tile(np.array([np.pi / 4, 0.0]), (1, 10, 1))
    B = A.copy()
    B[..., 1] += 2 * np.pi  # same points, wrapped chart angle
    est = sp_distance(A, B, 2.0, model=cap)
    assert est.mean <= 1e-12


def test_local_time_tv_cases():
    L = np.array([0.0, 0.2, 0.2, 0.7])
    sup, tv, twice = local_time_tv(L, L)
    assert (sup, tv) == (0.0, 0.0)
    assert twice == pytest.approx(1.4)
    sup, tv, twice = local_time_tv(L, np.zeros(4))
    assert sup == pytest.approx(0.7)
    assert tv == pytest.approx(0.7)
    assert twice == pytest.approx(1.4)
    # increments on disjoint steps: the node variation is L_T + L^a_T
    L_a = np.array([0.0, 0.0, 0.3, 0.3])
    _, tv, _ = local_time_tv(L, L_a)
    assert tv == pytest.approx(L[-1] + L_a[-1])
    # increments sharing a step cancel there: strictly less
    L_a = np.array([0.0, 0.1, 0.1, 0.4])
    _, tv, _ = local_time_tv(L, L_a)
    assert tv == pytest.approx(0.3)
    assert tv < L[-1] + L_a[-1]
    # one series per row, as the local-time sweep passes its (paths, nodes) arrays
    rows = local_time_tv(np.stack([L, L, L]), np.stack([L, np.zeros(4), L_a]))
    for k, series in enumerate([(L, L), (L, np.zeros(4)), (L, L_a)]):
        assert tuple(stat[k] for stat in rows) == local_time_tv(*series)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(kind="unknown").validate()
    with pytest.raises(ValueError):
        ExperimentConfig(kind="sp-convergence", a_grid=()).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(kind="sp-convergence", a_grid=(0.1, 0.2)).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(kind="eps-cauchy", eps_grid=(0.1,)).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(kind="local-time", n_paths=1).validate()


@pytest.mark.parametrize("kind,field,value", [
    ("eps-cauchy", "eta", 0.0), ("eps-cauchy", "eta", -1.0), ("f-normal", "eta", 0.0),
    ("sp-convergence", "p", 0.0), ("sp-convergence", "p", -1.0), ("sp-convergence", "p", math.nan),
])
def test_config_rejects_non_positive_eta_and_p(kind, field, value):
    # eta <= 0 counts no node as a contact (all-zero eps-cauchy gaps), and
    # p <= 0 turns the sup distance into a meaningless power of it
    cfg = _tiny_config(kind=kind, model="half-line", n_paths=4, steps=20, **{field: value})
    with pytest.raises(ValueError, match=f"{field} must be positive"):
        harness.run_experiment(cfg)


@pytest.mark.parametrize("model", ["disk", "cap:theta0=1.0", "half-space:d=1"])
def test_halfline_penalization_rejects_other_models(model, capsys):
    # it always ran the half-line, and returned its rows under a digest that
    # named the other model
    cfg = ExperimentConfig(kind="halfline-penalization", model=model, horizon=0.1, steps=20, n_paths=4)
    with pytest.raises(ValueError, match="half-line model only"):
        cfg.validate()
    args = ["sweep", "--kind", "halfline-penalization", "--model", model, "--steps", "20", "--paths", "4"]
    assert cli.main(args) == cli.EXIT_ARGUMENT
    assert "half-line model only" in capsys.readouterr().err
    ExperimentConfig(kind="halfline-penalization", model="half-line").validate()


def test_config_digest_behavior():
    a = ExperimentConfig(kind="local-time", model="half-line", n_paths=16)
    b = ExperimentConfig(kind="local-time", model="half-line", n_paths=16, out="somewhere.csv")
    assert a.digest == b.digest  # output path does not affect the science
    c = ExperimentConfig(kind="local-time", model="half-line", n_paths=16, master_seed=1)
    assert c.digest != a.digest


def _tiny_config(**kw):
    base = dict(
        kind="local-time",
        model="half-line",
        horizon=0.5,
        steps=300,
        a_grid=(0.2, 0.1),
        n_paths=16,
        master_seed=7,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_run_experiment_rows_and_determinism():
    cfg = _tiny_config()
    rows = harness.run_experiment(cfg)
    assert all(r.digest == cfg.digest for r in rows)
    assert all(r.schema_version == harness.SCHEMA_VERSION for r in rows)
    stats = {r.statistic for r in rows}
    assert "sup_local_time_gap" in stats and "tv_over_twice_terminal" in stats
    csv1 = harness.render_csv(rows)
    csv2 = harness.render_csv(harness.run_experiment(cfg))
    assert csv1 == csv2  # byte-identical re-run
    assert all(math.isfinite(r.value) for r in rows)


def test_rows_json_roundtrip(tmp_path):
    rows = harness.run_experiment(_tiny_config(n_paths=8, steps=100))
    out = tmp_path / "rows.json"
    harness.report(rows, "json", str(out))
    back = harness.rows_from_dicts(json.loads(out.read_text()))
    assert harness.render_csv(back) == harness.render_csv(rows)
    with pytest.raises(ValueError):
        harness.report(rows, "yaml", str(tmp_path / "x"))
    with pytest.raises(OSError):
        harness.report(rows, "csv", str(tmp_path / "missing" / "x.csv"))


def test_rows_load_json_written_with_runtimes():
    """Reports written before rows dropped their per-row runtime carry a
    runtime_ms key; they still load, and render the same CSV bytes."""
    rows = harness.run_experiment(_tiny_config(n_paths=8, steps=100))
    data = harness.rows_to_dicts(rows)
    assert all("runtime_ms" not in d for d in data)
    old = [dict(d, runtime_ms=12.5) for d in data]
    back = harness.rows_from_dicts(json.loads(json.dumps(old)))
    assert harness.render_csv(back) == harness.render_csv(rows)
    assert not hasattr(back[0], "runtime_ms")


def test_eps_cauchy_smoke():
    cfg = ExperimentConfig(
        kind="eps-cauchy", model="half-line", horizon=1.0, steps=500,
        eps_grid=(0.2, 0.1), n_paths=24, master_seed=3, x0=(0.2,),
    )
    rows = harness.run_experiment(cfg)
    assert len(rows) == 1
    assert rows[0].statistic == "sup_level_gap"
    assert rows[0].value >= 0


def test_sp_convergence_smoke():
    cfg = ExperimentConfig(
        kind="sp-convergence", model="half-space:d=2", horizon=0.5, steps=500,
        a_grid=(0.1, 0.025), n_paths=32, master_seed=5,
    )
    rows = harness.run_experiment(cfg)
    by_a = {r.params["a"]: r.value for r in rows}
    assert by_a[0.025] < by_a[0.1]


def test_projection_smoke():
    cfg = ExperimentConfig(
        kind="projection", model="disk", horizon=0.5, steps=500,
        a_grid=(0.1, 0.025), n_paths=32, master_seed=6, x0=(0.8, 0.0),
    )
    rows = harness.run_experiment(cfg)
    by_a = {r.params["a"]: r.value for r in rows}
    assert by_a[0.025] < by_a[0.1]


def test_norm_bound_runs_where_the_sub_step_walk_gave_up():
    # the benchmark's cap norm-bound sweep at master seed 12002, where the
    # guarded sub-step walk of the collar ran out of its budget at a = 0.0125
    theta0 = np.pi / 3
    cfg = ExperimentConfig(
        kind="norm-bound", model=f"cap:theta0={theta0}", horizon=0.1, steps=200,
        a_grid=(0.05, 0.0125), n_paths=200, x0=(theta0 - 0.15, 0.0), master_seed=12002,
    )
    assert max(r.value for r in harness.run_experiment(cfg)) <= 1e-6
    model = geo.parse_model(cfg.model)
    dB = driver_block(cfg.grid, model.frame_count, cfg.master_seed, 0, cfg.n_paths)
    out = stepping.integrate_penalized_grid(model, cfg.a_grid, cfg.x0, dB, cfg.grid)
    assert (out["R"] > 0).all()


def _run_cli(*args, timeout=300):
    return subprocess.run(
        [sys.executable, "-m", "rbmlab.cli", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_cli_exit_codes(tmp_path, monkeypatch, capsys):
    r = _run_cli("sweep", "--kind", "local-time", "--a-grid", "0.1,0.2")
    assert r.returncode == 2
    r = _run_cli("sweep")  # missing kind
    assert r.returncode == 2
    r = _run_cli("report", "--input", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x.csv"))
    assert r.returncode == 4
    # a << sqrt(dt): the drift-implicit step keeps the path inside
    r = _run_cli("simulate", "--model", "half-line", "--a", "0.0015", "--steps", "1000", "--x0", "0.01")
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert lines[0].split(",")[:3] == ["t", "x1", "R"] and len(lines) == 1002
    assert all(float(line.split(",")[2]) > 0 for line in lines[1:])
    # a step that fails exits 3, and the numeric error names the node, a,
    # the path and its boundary distance
    def failing(*args, **kwargs):
        raise IntegrationError("implicit step did not converge", node_index=7, a=0.0015, path_index=0,
                               boundary_distance=0.01)

    monkeypatch.setattr(cli, "integrate_penalized", failing)
    assert cli.main(["simulate", "--model", "half-line", "--a", "0.0015", "--steps", "1000", "--x0", "0.01"]) == 3
    err = capsys.readouterr().err
    assert re.search(r"numeric error: implicit step did not converge \(node=7, a=0\.0015, path=0, R=0\.01\)", err), err


def test_cli_sweep_report_roundtrip(tmp_path):
    rows_json = tmp_path / "rows.json"
    r = _run_cli(
        "sweep", "--kind", "local-time", "--model", "half-line", "--T", "0.5",
        "--steps", "200", "--paths", "8", "--a-grid", "0.2,0.1", "--seed", "3",
        "--out", str(rows_json), "--format", "json",
    )
    assert r.returncode == 0, r.stderr
    out_csv = tmp_path / "rows.csv"
    r = _run_cli("report", "--input", str(rows_json), "--format", "csv", "--out", str(out_csv))
    assert r.returncode == 0
    header = out_csv.read_text().splitlines()[0]
    assert header.startswith("schema_version,digest,kind,params,statistic,value")


def test_cli_simulate_and_config_file(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("model=half-line\nsteps=50\nT=0.5\nseed=9\n# comment\n")
    out = tmp_path / "path.csv"
    r = _run_cli("simulate", "--config", str(cfgfile), "--out", str(out))
    assert r.returncode == 0, r.stderr
    lines = out.read_text().splitlines()
    assert lines[0].split(",")[:3] == ["t", "x1", "R"]
    assert len(lines) == 52
    # flags override the file
    r = _run_cli("simulate", "--config", str(cfgfile), "--steps", "20", "--out", str(out))
    assert len(out.read_text().splitlines()) == 22
    # unknown key is an argument error
    bad = tmp_path / "bad.cfg"
    bad.write_text("banana=1\n")
    r = _run_cli("simulate", "--config", str(bad))
    assert r.returncode == 2


def test_cli_config_file_selects_the_field(tmp_path, monkeypatch):
    fields = []
    real = cli.est.scalar_field
    monkeypatch.setattr(cli.est, "scalar_field", lambda name: fields.append(name) or real(name))
    cfgfile = tmp_path / "verify.cfg"
    cfgfile.write_text("field=cos-neumann\nn=200\ndt=0.05\nseed=1\n")
    assert cli.main(["verify", "--config", str(cfgfile)]) == cli.EXIT_OK
    assert cli.main(["verify", "--config", str(cfgfile), "--field", "gauss"]) == cli.EXIT_OK  # the flag wins
    assert fields == ["cos-neumann", "gauss"]


_POSITIVE_FLAGS = [
    ("simulate", "--T", ()),
    ("simulate", "--steps", ()),
    ("sweep", "--paths", ("--kind", "local-time")),
    ("sweep", "--p", ("--kind", "sp-convergence")),
    ("verify", "--n", ()),
    ("verify", "--dt", ()),
    ("simulate", "--eta", ()),
    ("sweep", "--eta", ("--kind", "eps-cauchy")),
]


@pytest.mark.parametrize("command,flag,rest", _POSITIVE_FLAGS, ids=[f"{c}{f}" for c, f, _ in _POSITIVE_FLAGS])
def test_cli_rejects_non_positive_flags(command, flag, rest, tmp_path, capsys):
    # an explicit zero used to fall back silently to the default
    for value in ("0", "-1"):
        assert cli.main([command, *rest, flag, value]) == cli.EXIT_ARGUMENT
        assert f"{flag[2:]} must be positive" in capsys.readouterr().err
    cfgfile = tmp_path / "zero.cfg"
    cfgfile.write_text(f"{flag[2:]}=0\n")
    assert cli.main([command, *rest, "--config", str(cfgfile)]) == cli.EXIT_ARGUMENT


def test_cli_explicit_flags_are_used(capsys):
    assert cli.main(["simulate", "--T", "0.25", "--steps", "3"]) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5 and float(lines[-1].split(",")[0]) == 0.25


def test_cli_verify_smoke():
    r = _run_cli("verify", "--n", "2000", "--dt", "0.01", "--seed", "1", timeout=600)
    assert r.returncode == 0, r.stdout + r.stderr
    assert "verify: 5/5 checks passed" in r.stdout


def test_params_text_is_canonical():
    row = ResultRow(kind="x", params={"b": 1, "a": 2}, statistic="s", value=0.0)
    assert row.params_text() == "a=2;b=1"


def test_smoke_config_is_fast():
    import time

    cfg = ExperimentConfig(
        kind="local-time", model="half-line", horizon=0.1, steps=100,
        a_grid=(0.2, 0.1), n_paths=10, master_seed=1,
    )
    t0 = time.perf_counter()
    rows = harness.run_experiment(cfg)
    assert time.perf_counter() - t0 < 1.0
    assert rows


# The CSV sha256 of every kind that loops over an a-grid, at small configs
# whose a/sqrt(dt) reaches into the stiff regime, recorded before the
# penalized integrators stepped the a-grid as one batch.  f-normal and
# transport were re-recorded when cap transport became a closed-form angle
# and the damped engine a product of step matrices (values moved by <= 1e-15),
# every kind but norm-bound when the collar step became drift-implicit, and
# norm-bound when its statistic left out node 0, where the bound is met.
_A_KIND_CASES = {
    "halfline-penalization": (
        dict(model="half-line", horizon=0.2, steps=400, a_grid=(0.05, 0.0125, 0.00625), n_paths=24, x0=(0.05,)),
        "b9d3cc18418250bbc6054b0b302544ed23dd78e8b9548b3a9656cce49e46b202",
    ),
    "sp-convergence": (
        dict(model="disk", horizon=0.2, steps=200, a_grid=(0.1, 0.025, 0.0125), n_paths=24, x0=(0.9, 0.0)),
        "ad26e4cc32a6bc64a99186eec9b754f280f2aef082ca46f1ffc9075d1f34f970",
    ),
    "local-time": (
        dict(model="half-line", horizon=0.2, steps=400, a_grid=(0.05, 0.0125, 0.00625), n_paths=24, x0=(0.05,)),
        "684343d11e9886ed8e4b689a1b8c2f56e84b17010b6b9d72af5464340964299c",
    ),
    "norm-bound": (
        dict(model=f"cap:theta0={np.pi / 3}", horizon=0.1, steps=100, a_grid=(0.05, 0.025, 0.0125), n_paths=16,
             x0=(np.pi / 3 - 0.1, 0.0)),
        "37077d3489f7a14495f2109763a2c062ab617595037ea94c38f0b76359504b4a",
    ),
    "f-normal": (
        dict(model="half-line", horizon=0.2, steps=200, a_grid=(0.05, 0.025, 0.0125), n_paths=16, x0=(0.05,)),
        "acaa90fc594f66c07e31ae18eff6a5bbb564f63ffa02611fba317e7b446f460c",
    ),
    "transport": (
        dict(model=f"cap:theta0={np.pi / 3}", horizon=0.1, steps=100, a_grid=(0.05, 0.025, 0.0125), n_paths=16,
             x0=(np.pi / 3 - 0.1, 0.0)),
        "a2d2534ce1eb80e4078f46c9c7b713cb77c1423382328fb30aeea8fc18d6d236",
    ),
    "projection": (
        dict(model="disk", horizon=0.2, steps=200, a_grid=(0.1, 0.025, 0.0125), n_paths=24, x0=(0.9, 0.0)),
        "650c3c9f23301ba8fc78e5326f502b640d2c05532f92ee60c1f8a30fa1632c70",
    ),
}


# eps-cauchy's CSV sha256 on the cap and on the half-line, recorded while the
# harness still ran it in fixed 200-path chunks.
_EPS_CAUCHY_CASES = {
    "eps-cauchy-cap": (
        dict(kind="eps-cauchy", model=f"cap:theta0={np.pi / 2}", horizon=1.0, steps=200,
             eps_grid=(0.2, 0.1, 0.05, 0.025), n_paths=16, x0=(np.pi / 2 - 0.15, 0.0)),
        "738c74dbb1a0f0c88066d664b17cac8b924fe45b88cd402dd7d6c06907602a98",
    ),
    "eps-cauchy-half-line": (
        dict(kind="eps-cauchy", model="half-line", horizon=1.0, steps=400, eps_grid=(0.2, 0.1, 0.05, 0.025),
             n_paths=24, x0=(0.2,)),
        "0c7c931d4544a0a2a6878069eb299ea8d28f56f9e1b7703f65c7211f3929b785",
    ),
}

# Every kind, each with its pinned CSV sha256.
_KIND_CASES = {
    **{kind: (dict(kind=kind, **fields), digest) for kind, (fields, digest) in _A_KIND_CASES.items()},
    **_EPS_CAUCHY_CASES,
}


@pytest.mark.parametrize("case", sorted(_KIND_CASES))
def test_sweep_bytes_do_not_depend_on_the_chunk_width(case, monkeypatch):
    fields, digest = _KIND_CASES[case]
    cfg = ExperimentConfig(master_seed=5, **fields)
    # the damped engine's per-path outputs too, reduced over the nodes
    # (norm-bound's bound, eps-cauchy's level gaps) as the sweeps read them
    engine_calls = []
    real_engine = harness._damped_engine

    def engine(*args, **kwargs):
        engine_calls.append(real_engine(*args, **kwargs))
        return engine_calls[-1]

    monkeypatch.setattr(harness, "_damped_engine", engine)
    engine_bytes = {}
    widths = (harness._CHUNK_PATHS, 5, 7)
    for width in widths:
        monkeypatch.setattr(harness, "_CHUNK_PATHS", width)
        engine_calls.clear()
        text = harness.render_csv(harness.run_experiment(cfg))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, width
        engine_bytes[width] = _per_path_bytes(engine_calls, chunks=-(-cfg.n_paths // width))
    assert all(engine_bytes[width] == engine_bytes[widths[0]] for width in widths)


def _per_path_bytes(calls, chunks):
    """Bytes of every output of the calls, each call of a chunk joined along
    the paths across the chunks (every chunk makes the same calls in turn)."""
    per_chunk = len(calls) // chunks
    assert per_chunk * chunks == len(calls)
    return [
        np.concatenate([out[key] for out in calls[j::per_chunk]]).tobytes()
        for j in range(per_chunk)
        for key in sorted(calls[j])
    ]


@pytest.mark.parametrize("kind", harness._STREAMED)
def test_streamed_kinds_read_their_statistics_off_the_stored_runs(kind):
    """The rows of a kind that reduces node by node are those of its statistic
    on the stored runs of the chunk: local_time_tv for local-time, the sup
    chart distance for sp-convergence, the masked sup projection gap for
    projection, and the engine's whole-run reductions on the whole run's
    transport frames and close events for norm-bound and eps-cauchy."""
    fields, _ = _KIND_CASES.get(kind, _KIND_CASES["eps-cauchy-cap"])
    cfg = ExperimentConfig(master_seed=8, **fields)
    model = geo.parse_model(cfg.model)
    grid = cfg.grid
    dB = driver_block(grid, model.frame_count, cfg.master_seed, 0, cfg.n_paths)
    ref = stepping.integrate_reflected_batch(model, cfg.x0, dB, grid)
    expected = {}
    if kind == "eps-cauchy":
        closes, dur = close_events(ref["R"], grid.times, default_contact_threshold(grid))
        levels = [closes & (dur >= eps) for eps in cfg.eps_grid]
        assert levels[-1].any()
        frames = None if model.is_flat_chart else transport_batch(model, ref["points"])
        gaps = _damped_engine(model, ref["points"], frames, grid.dt, np.diff(ref["L"], axis=1), jump_flags=levels,
                              collect="cauchy")["cauchy"]
        for k, eps in enumerate(cfg.eps_grid[1:]):
            expected[(eps, "sup_level_gap")] = gaps[:, k]
    a_grid = () if kind == "eps-cauchy" else cfg.a_grid
    pen = stepping.integrate_penalized_grid(model, a_grid, cfg.x0, dB, grid) if a_grid else None
    for k, a in enumerate(a_grid):
        if kind == "local-time":
            sup, tv, twice = local_time_tv(ref["L"], pen["L"][k])
            expected[(a, "sup_local_time_gap")], expected[(a, "tv_difference")] = sup, tv
            expected[(None, "twice_terminal_local_time")] = twice
        elif kind == "sp-convergence":
            expected[(a, "sup_distance_p")] = geo.chart_distance(model, pen["points"][k], ref["points"]).max(axis=1) ** cfg.p
        elif kind == "norm-bound":
            frames = transport_batch(model, pen["points"][k])
            expected[(a, "max_bound_violation")] = _damped_engine(
                model, pen["points"][k], frames, grid.dt, np.diff(pen["L"][k], axis=1),
                c_increments=np.diff(pen["C"][k], axis=1), collect="bound")["bound"]
        else:
            both = (ref["R"] < model.tubular_radius) & (pen["R"][k] < model.tubular_radius)
            proj = geo.nearest_boundary_point(model, pen["points"][k]) - geo.nearest_boundary_point(model, ref["points"])
            sup = np.where(both, np.linalg.norm(proj, axis=-1), -np.inf).max(axis=1)
            assert np.isfinite(sup).sum() >= 2
            expected[(a, "sup_projection_gap")] = sup[np.isfinite(sup)]
    rows = {(r.params.get("a", r.params.get("eps_fine")), r.statistic): r for r in harness.run_experiment(cfg)}
    assert expected and set(expected) <= set(rows)
    for key, vals in expected.items():
        r = rows[key]
        if kind == "norm-bound":  # the max, with no standard error
            assert r.value == float(vals.max()) and math.isnan(r.stderr), key
        else:
            assert (r.value, r.stderr) == harness._mean_stderr(vals), key
        assert (r.q25, r.q50, r.q75) == harness._quantiles(vals), key


def test_sweeps_make_only_the_runs_they_use(monkeypatch):
    calls = Counter()

    def spy(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    # the block generators make every stored and every streamed run
    for module, name in ((harness, "_chunks"), (stepping, "_reflected_blocks"),
                         (stepping, "_penalized_blocks"), (sk1d, "penalized_paths_1d_grid")):
        spy(module, name)
    monkeypatch.setattr(harness, "_CHUNK_PATHS", 7)
    for case, (fields, _) in sorted(_KIND_CASES.items()):
        calls.clear()
        cfg = ExperimentConfig(master_seed=5, **fields)
        harness.run_experiment(cfg)
        chunks = -(-cfg.n_paths // 7)
        penalized = calls["_penalized_blocks"] + calls["penalized_paths_1d_grid"]
        assert calls["_chunks"] == 1, case
        assert calls["_reflected_blocks"] == (0 if cfg.kind == "norm-bound" else chunks), case
        assert penalized == (0 if cfg.kind == "eps-cauchy" else chunks), case


@pytest.mark.parametrize("kind", sorted(_A_KIND_CASES))
def test_a_grid_kinds_keep_their_bytes_however_the_grid_is_split(kind, monkeypatch):
    fields, digest = _A_KIND_CASES[kind]
    cfg = ExperimentConfig(kind=kind, master_seed=5, **fields)
    one_call = cfg.n_paths * harness._row_nodes(cfg)
    reflected_runs = []
    real_blocks = stepping._reflected_blocks
    monkeypatch.setattr(stepping, "_reflected_blocks", lambda *a: reflected_runs.append(1) or real_blocks(*a))
    # the three values of a in one call, then two values a call, then one
    for limit, calls in ((harness._MAX_ROW_NODES, 1), (2 * one_call, 2), (one_call, 3)):
        monkeypatch.setattr(harness, "_MAX_ROW_NODES", limit)
        assert len(harness._a_groups(cfg, cfg.n_paths)) == calls
        reflected_runs.clear()
        text = harness.render_csv(harness.run_experiment(cfg))
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        # one reflected run for the one chunk, however the grid is split
        assert len(reflected_runs) == (0 if kind == "norm-bound" else 1)
