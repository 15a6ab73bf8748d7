"""Command line interface.

Subcommands: simulate (one path dump), sweep (convergence tables), verify
(representation-formula checks), report (re-render saved rows).

``--config`` names a file of flat key=value lines for simulate, sweep or
verify.  Its keys are the subcommand's flag names but ``config``, spelled
out (``a_grid`` or ``a-grid`` for ``--a-grid``), and each line is parsed as
the flag ``--key=value``, with that flag's type, choices and positivity
check; an error in a line names the file and the line.  The file is read
first and the command line's flags after it, so an explicit flag wins.

Exit codes: 0 success; 2 argument error (an unknown flag or key, or a bad
value, from the command line or the file); 3 numeric/integration error; 4 I/O
error (a config file that cannot be read included).
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


def _read_config_file(path: str, command: argparse.ArgumentParser) -> list[str]:
    """The flags a flat key=value file stands for: each line is the token
    ``--key=value``, with ``_`` in the key written as ``-``, checked on its
    own by the subcommand's parser ``command``, so that a bad line raises a
    ValueError that names the file and the line."""
    tokens = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, val = line.partition("=")
            if not sep:
                raise ValueError(f"{path}:{line_no}: expected key=value, got {raw!r}")
            flag = key.strip().replace("_", "-")
            token = f"--{flag}={val.strip()}"
            command.exit_on_error = False  # raise the error, not exit with it
            try:
                unknown = command.parse_known_args([token])[1]
            except argparse.ArgumentError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from None
            finally:
                command.exit_on_error = True
            if unknown or flag == "config":
                raise ValueError(f"{path}:{line_no}: unknown key {key.strip()!r}")
            tokens.append(token)
    return tokens


def _positive(parse, key):
    """A flag's type: ``parse``, then a check that the value is positive."""
    def convert(text):
        value = parse(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"{key} must be positive, got {value}")
        return value

    convert.__name__ = parse.__name__  # argparse names it in "invalid <type> value"
    return convert


def _add_common(p):
    p.add_argument("--config", help="flat key=value config file, read before the flags")
    p.add_argument("--model")
    p.add_argument("--T", type=_positive(float, "T"), default=1.0)
    p.add_argument("--steps", type=_positive(int, "steps"), default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--x0", type=_parse_grid)


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser; ``commands`` holds each subcommand's parser by
    name."""
    ap = argparse.ArgumentParser(prog="rbmlab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    ap.commands = sub.choices
    # a flag, and so a config key, must be spelled out: no prefix stands for it

    p = sub.add_parser("simulate", help="integrate one path and dump its nodes", allow_abbrev=False)
    _add_common(p)
    p.set_defaults(model="half-line")
    p.add_argument("--a", type=float, help="smoothing parameter; omit for the reflected path")
    p.add_argument("--eta", type=_positive(float, "eta"))

    C = harness.ExperimentConfig
    p = sub.add_parser("sweep", help="run a convergence experiment", allow_abbrev=False)
    _add_common(p)
    p.set_defaults(model=C.model, T=C.horizon, steps=C.steps, seed=C.master_seed)
    p.add_argument("--kind", choices=harness.EXPERIMENT_KINDS)
    p.add_argument("--a-grid", dest="a_grid", type=_parse_grid, default=C.a_grid)
    p.add_argument("--eps-grid", dest="eps_grid", type=_parse_grid, default=C.eps_grid)
    p.add_argument("--eta", type=_positive(float, "eta"), default=C.eta)
    p.add_argument("--paths", type=_positive(int, "paths"), default=C.n_paths)
    p.add_argument("--p", type=_positive(float, "p"), default=C.p)

    p = sub.add_parser("verify", help="representation-formula checks on the half line", allow_abbrev=False)
    _add_common(p)
    p.set_defaults(model="half-space:d=1")
    p.add_argument("--n", type=_positive(int, "n"), default=10_000)
    p.add_argument("--dt", type=_positive(float, "dt"), default=1e-3)
    p.add_argument("--field", default="gauss", help="scalar field from the registry (default gauss)")

    p = sub.add_parser("report", help="re-render saved JSON rows")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", required=True)
    return ap


def _cmd_simulate(args) -> int:
    model = parse_model(args.model)
    grid = TimeGrid(args.T, args.steps)
    driver = DriverPath.generate(grid, model.frame_count, args.seed)
    x0 = default_start(model) if args.x0 is None else np.asarray(args.x0, dtype=float)
    if args.a is not None:
        path = integrate_penalized(model, args.a, x0, driver, grid)
        header = ["t"] + [f"x{i+1}" for i in range(model.dim)] + ["R", "L", "damping"]
        cols = [grid.times, *path.points.T, path.boundary_dist, path.local_time, path.damping]
    else:
        path = integrate_reflected(model, x0, driver, grid, eta=args.eta)
        header = ["t"] + [f"x{i+1}" for i in range(model.dim)] + ["R", "L", "contact"]
        cols = [grid.times, *path.points.T, path.boundary_dist, path.local_time,
                path.boundary_flags.astype(float)]
    lines = []
    if args.format == "csv":
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
    cfg = harness.ExperimentConfig(
        kind=args.kind, model=args.model, horizon=args.T, steps=args.steps, a_grid=args.a_grid,
        eps_grid=args.eps_grid, eta=args.eta, n_paths=args.paths, p=args.p, master_seed=args.seed, x0=args.x0,
    )
    rows = harness.run_experiment(cfg)
    if args.out:
        harness.report(rows, args.format, args.out)
        print(f"wrote {len(rows)} rows to {args.out} (digest {cfg.digest})")
    else:
        print(harness.render(rows, args.format), end="")
    return EXIT_OK


def _cmd_verify(args) -> int:
    model = parse_model(args.model)
    n, dt, T, seed = args.n, args.dt, args.T, args.seed
    x = default_start(model) if args.x0 is None else np.asarray(args.x0, dtype=float)
    f = est.scalar_field(args.field)
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
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # parse again with the file's flags between the subcommand and the
            # command line's flags, so each file value gets its flag's checks
            # and an explicit flag, seen last, wins
            i = argv.index(args.command) + 1
            tokens = _read_config_file(args.config, parser.commands[args.command])
            args = parser.parse_args([*argv[:i], *tokens, *argv[i:]])
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_report(args)
    except SystemExit as exc:
        return EXIT_ARGUMENT if exc.code not in (0, None) else EXIT_OK
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
