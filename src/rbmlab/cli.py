"""Command line interface.

Subcommands: simulate (one path dump), sweep (convergence tables), verify
(representation-formula checks), report (re-render saved rows).  A config
file of flat key=value lines can seed any subcommand; explicit flags win.
Exit codes: 0 success, 2 argument error, 3 numeric/integration error,
4 I/O error.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import estimators as est
from . import harness
from .errors import IntegrationError, QuadratureError
from .geometry import TangentVector, parse_model
from .grids import DriverPath, TimeGrid
from .penalized import integrate_penalized
from .reflected import integrate_reflected
from .transport import default_start

EXIT_OK = 0
EXIT_ARGUMENT = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _parse_grid(text):
    vals = tuple(float(v) for v in text.split(",") if v.strip())
    if not vals:
        raise ValueError("empty grid")
    return vals


def _read_config_file(path: str) -> dict:
    opts = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, val = line.partition("=")
            if not sep:
                raise ValueError(f"{path}:{line_no}: expected key=value, got {raw!r}")
            opts[key.strip().replace("-", "_")] = val.strip()
    return opts


_CONFIG_KEYS = {
    "model": str,
    "T": float,
    "steps": int,
    "a": float,
    "a_grid": _parse_grid,
    "eps_grid": _parse_grid,
    "eta": float,
    "paths": int,
    "p": float,
    "seed": int,
    "out": str,
    "format": str,
    "kind": str,
    "x0": _parse_grid,
    "n": int,
    "dt": float,
    "field": str,
}


def _apply_config_file(args):
    if not getattr(args, "config", None):
        return args
    opts = _read_config_file(args.config)
    for key, raw in opts.items():
        if key not in _CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r}")
        if getattr(args, key, None) is None:
            setattr(args, key, _CONFIG_KEYS[key](raw))
    return args


# Numeric options that must be positive, as flags or config-file keys.
_POSITIVE_KEYS = ("T", "steps", "paths", "n", "dt", "p", "eta")


def _check_positive(args):
    for key in _POSITIVE_KEYS:
        value = getattr(args, key, None)
        if value is not None and not value > 0:
            raise ValueError(f"{key} must be positive, got {value}")
    return args


def _given(value, default):
    """An explicit option, zero included, else its default."""
    return default if value is None else value


def _add_common(p):
    p.add_argument("--config", help="flat key=value config file; flags override")
    p.add_argument("--model", default=None)
    p.add_argument("--T", type=float, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default=None)
    p.add_argument("--x0", type=_parse_grid, default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="rbmlab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate one path and dump its nodes")
    _add_common(p)
    p.add_argument("--a", type=float, default=None, help="smoothing parameter; omit for the reflected path")
    p.add_argument("--eta", type=float, default=None)

    p = sub.add_parser("sweep", help="run a convergence experiment")
    _add_common(p)
    p.add_argument("--kind", default=None, choices=harness.EXPERIMENT_KINDS)
    p.add_argument("--a-grid", dest="a_grid", type=_parse_grid, default=None)
    p.add_argument("--eps-grid", dest="eps_grid", type=_parse_grid, default=None)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--paths", type=int, default=None)
    p.add_argument("--p", type=float, default=None)

    p = sub.add_parser("verify", help="representation-formula checks on the half line")
    _add_common(p)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--field", default=None, help="scalar field from the registry (default gauss)")

    p = sub.add_parser("report", help="re-render saved JSON rows")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", required=True)
    return ap


def _cmd_simulate(args) -> int:
    model = parse_model(args.model or "half-line")
    grid = TimeGrid(_given(args.T, 1.0), _given(args.steps, 1000))
    seed = _given(args.seed, 0)
    driver = DriverPath.generate(grid, model.frame_count, seed)
    x0 = np.asarray(args.x0, dtype=float) if args.x0 else default_start(model)
    if args.a is not None:
        path = integrate_penalized(model, args.a, x0, driver, grid)
        header = ["t"] + [f"x{i+1}" for i in range(model.dim)] + ["R", "L", "damping"]
        cols = [grid.times, *path.points.T, path.boundary_dist, path.local_time, path.damping]
    else:
        path = integrate_reflected(model, x0, driver, grid, eta=args.eta)
        header = ["t"] + [f"x{i+1}" for i in range(model.dim)] + ["R", "L", "contact"]
        cols = [grid.times, *path.points.T, path.boundary_dist, path.local_time,
                path.boundary_flags.astype(float)]
    fmt = args.format or "csv"
    lines = []
    if fmt == "csv":
        lines.append(",".join(header))
        for i in range(len(grid.times)):
            lines.append(",".join(repr(float(c[i])) for c in cols))
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(
            {h: [float(v) for v in c] for h, c in zip(header, cols)}, indent=2, sort_keys=True
        ) + "\n"
    _write_or_print(text, args.out)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    if args.kind is None:
        raise ValueError("sweep requires --kind (or kind= in the config file)")
    defaults = harness.ExperimentConfig(kind=args.kind)
    cfg = harness.ExperimentConfig(
        kind=args.kind,
        model=args.model or defaults.model,
        horizon=_given(args.T, defaults.horizon),
        steps=_given(args.steps, defaults.steps),
        a_grid=tuple(args.a_grid) if args.a_grid else defaults.a_grid,
        eps_grid=tuple(args.eps_grid) if args.eps_grid else defaults.eps_grid,
        eta=args.eta,
        n_paths=_given(args.paths, defaults.n_paths),
        p=_given(args.p, defaults.p),
        master_seed=_given(args.seed, 0),
        x0=tuple(args.x0) if args.x0 else None,
        out=args.out,
    )
    rows = harness.run_experiment(cfg)
    fmt = args.format or "csv"
    if args.out:
        harness.report(rows, fmt, args.out)
        print(f"wrote {len(rows)} rows to {args.out} (digest {cfg.digest})")
    else:
        text = harness.render_csv(rows) if fmt == "csv" else json.dumps(
            harness.rows_to_dicts(rows), indent=2, sort_keys=True
        )
        print(text, end="" if text.endswith("\n") else "\n")
    return EXIT_OK


def _cmd_verify(args) -> int:
    model = parse_model(args.model or "half-space:d=1")
    n = _given(args.n, 10_000)
    dt = _given(args.dt, 1e-3)
    T = _given(args.T, 1.0)
    seed = _given(args.seed, 0)
    x = np.asarray(args.x0, dtype=float) if args.x0 else default_start(model)
    f = est.scalar_field(args.field or "gauss")
    # the 1-form under test is the differential of the selected field, so its
    # evolution is the gradient of the function solution
    phi = est.OneForm(f"{f.name}-grad", components=f.gradient, closed=True)
    v = TangentVector(base=x, components=np.eye(model.dim)[-1])
    checks = []

    e = est.neumann_heat_mc(model, f, T, x, n, dt, seed=seed)
    oracle = est.image_kernel_oracle("neumann", T, float(x[-1]), f)
    checks.append(("neumann_heat_mc", e.mean - oracle, 3 * e.stderr))

    d_oracle = est.image_kernel_gradient("neumann", T, float(x[-1]), f)
    e = est.one_form_mc(model, phi, T, v, n, dt, seed=seed)
    checks.append(("one_form_mc", e.mean - d_oracle, 3 * e.stderr))

    e = est.bismut_gradient_mc(model, f, T, v, n, dt, seed=seed)
    checks.append(("bismut_gradient_mc", e.mean - d_oracle, 3 * e.stderr))

    e = est.martingale_check(model, est.NeumannHeatSolution(model, f, T), T, v, n, dt, seed=seed)
    checks.append(("martingale_check", e.mean, 3 * e.stderr))

    def curve(u):
        out = np.array(x, dtype=float)
        out[-1] = 0.2 + u
        return out

    e = est.weak_derivative_check(
        model, f, curve, lambda u: np.eye(model.dim)[-1], 0.0, 0.5, T, n, dt, seed=seed
    )
    checks.append(("weak_derivative_check", e.mean, 3 * e.stderr))

    failures = 0
    for name, gap, tol in checks:
        ok = abs(gap) <= tol + 1e-15
        failures += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'} {name}: |gap|={abs(gap):.3e} tol(3*stderr)={tol:.3e}")
    print(f"verify: {len(checks) - failures}/{len(checks)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_NUMERIC


def _cmd_report(args) -> int:
    with open(args.input, "r", encoding="utf-8") as fh:
        rows = harness.rows_from_dicts(json.load(fh))
    harness.report(rows, args.format, args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def _write_or_print(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ARGUMENT if exc.code not in (0, None) else EXIT_OK
    try:
        args = _check_positive(_apply_config_file(args))
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_report(args)
    except (ValueError, TypeError) as exc:
        print(f"argument error: {exc}", file=sys.stderr)
        return EXIT_ARGUMENT
    except (IntegrationError, QuadratureError, FloatingPointError, ZeroDivisionError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
