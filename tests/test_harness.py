"""Experiment harness: statistics, configs, rendering, CLI."""
from __future__ import annotations

import hashlib
import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from rbmlab import geometry as geo
from rbmlab import harness
from rbmlab.harness import ExperimentConfig, ResultRow, local_time_tv, sp_distance


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


def _run_cli(*args, timeout=300):
    return subprocess.run(
        [sys.executable, "-m", "rbmlab.cli", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_cli_exit_codes(tmp_path):
    r = _run_cli("sweep", "--kind", "local-time", "--a-grid", "0.1,0.2")
    assert r.returncode == 2
    r = _run_cli("sweep")  # missing kind
    assert r.returncode == 2
    r = _run_cli("report", "--input", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x.csv"))
    assert r.returncode == 4
    # a << sqrt(dt): the guarded walk runs out of sub-steps, and the numeric
    # error names the node, a, the path and its boundary distance
    r = _run_cli("simulate", "--model", "half-line", "--a", "0.0015", "--steps", "1000", "--x0", "0.01")
    assert r.returncode == 3
    assert re.search(r"substep budget exhausted \(node=\d+, a=0\.0015, path=0, R=[0-9.e-]+\)", r.stderr), r.stderr


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
# penalized integrators stepped the a-grid as one batch.
_A_KIND_CASES = {
    "halfline-penalization": (
        dict(model="half-line", horizon=0.2, steps=400, a_grid=(0.05, 0.0125, 0.00625), n_paths=24, x0=(0.05,)),
        "a804e9be6600880635d57ecb6dff29fb06426a753fbaa3fc03b0b3524c3f035d",
    ),
    "sp-convergence": (
        dict(model="disk", horizon=0.2, steps=200, a_grid=(0.1, 0.025, 0.0125), n_paths=24, x0=(0.9, 0.0)),
        "2c0834fb9fb451c70b0fc44be44bd0347c87efe6ec810e836e872aa27dfb413c",
    ),
    "local-time": (
        dict(model="half-line", horizon=0.2, steps=400, a_grid=(0.05, 0.0125, 0.00625), n_paths=24, x0=(0.05,)),
        "007132471c131ebd669f70874abff5cc948931adba796b1d96e1dbe226a0d717",
    ),
    "norm-bound": (
        dict(model=f"cap:theta0={np.pi / 3}", horizon=0.1, steps=100, a_grid=(0.05, 0.025, 0.0125), n_paths=16,
             x0=(np.pi / 3 - 0.1, 0.0)),
        "d26c24b9170779d547e3e66b701d0723b4681216587d647637dae41955fb20b0",
    ),
    "f-normal": (
        dict(model="half-line", horizon=0.2, steps=200, a_grid=(0.05, 0.025, 0.0125), n_paths=16, x0=(0.05,)),
        "4be295930b544a856a28d18271ad8d79a5fac5441df53b08c3ae2853421f94f9",
    ),
    "transport": (
        dict(model=f"cap:theta0={np.pi / 3}", horizon=0.1, steps=100, a_grid=(0.05, 0.025, 0.0125), n_paths=16,
             x0=(np.pi / 3 - 0.1, 0.0)),
        "f33721f1ca85dc2188320a3d53a5aa953d206c9aabfd08b758c1563e575566d9",
    ),
    "projection": (
        dict(model="disk", horizon=0.2, steps=200, a_grid=(0.1, 0.025, 0.0125), n_paths=24, x0=(0.9, 0.0)),
        "5c1b07aebdb35b7eda0026e978a3871d887b8ec27c6c59a1192f3e763e18a33f",
    ),
}


@pytest.mark.parametrize("kind", sorted(_A_KIND_CASES))
def test_a_grid_kinds_keep_their_bytes_however_the_grid_is_split(kind, monkeypatch):
    fields, digest = _A_KIND_CASES[kind]
    cfg = ExperimentConfig(kind=kind, master_seed=5, **fields)
    one_call = cfg.n_paths * (cfg.steps + 1)
    # the three values of a in one call, then two values a call, then one
    for limit, calls in ((harness._MAX_ROW_NODES, 1), (2 * one_call, 2), (one_call, 3)):
        monkeypatch.setattr(harness, "_MAX_ROW_NODES", limit)
        assert len(harness._a_groups(cfg, cfg.n_paths)) == calls
        text = harness.render_csv(harness.run_experiment(cfg))
        assert hashlib.sha256(text.encode()).hexdigest() == digest
