"""The scipy modules each entry point loads.

The simulations and the image-kernel quadrature oracle run on numpy alone;
scipy serves only the 1-d survival-drift flow (scipy.special), which imports
it inside the function that uses it, so a bare import loads no scipy module
and only a run of that flow loads one.  Each check runs in a fresh
interpreter on this checkout's ``src``, where no other test's imports count.
"""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# One small run of each sweep kind that needs no scipy, on the models its
# benchmark sweep uses.
_SWEEPS = {
    "sp-convergence": dict(kind="sp-convergence", model="disk", horizon=0.05, steps=50, a_grid=(0.1, 0.05),
                           n_paths=4, x0=(0.5, 0.0)),
    "local-time": dict(kind="local-time", model="half-line", horizon=0.1, steps=50, a_grid=(0.05, 0.025),
                       n_paths=4, x0=(0.5,)),
    "norm-bound": dict(kind="norm-bound", model=f"cap:theta0={math.pi / 3}", horizon=0.05, steps=50,
                       a_grid=(0.05, 0.025), n_paths=4, x0=(math.pi / 3 - 0.15, 0.0)),
    "eps-cauchy": dict(kind="eps-cauchy", model=f"cap:theta0={math.pi / 2}", horizon=0.2, steps=50,
                       eps_grid=(0.1, 0.05), n_paths=4, x0=(math.pi / 2 - 0.15, 0.0)),
}
_HALFLINE = dict(kind="halfline-penalization", model="half-line", horizon=0.1, steps=50, a_grid=(0.05, 0.025),
                 n_paths=4, x0=(0.5,))
_RUN = "from rbmlab.harness import ExperimentConfig, run_experiment\nrun_experiment(ExperimentConfig(**{!r}))"
# image_kernel_oracle("neumann", 1.0, 0.5, gauss), as scipy.integrate.quad
# returned it while the module imported quad at its top
_ORACLE = 0.5311878904526515
# Criterion 8's seven estimator calls on half-space:d=1 at 200 paths, the
# martingale check on the caloric function of the image-kernel solution, and
# then the gradient oracle on its own.
_CRITERION_8 = """
import numpy as np
from rbmlab import estimators as est
from rbmlab import geometry as geo
from rbmlab.geometry import TangentVector

model, T, n, dt, seed = geo.half_space(1), 0.5, 200, 1e-2, 21
x, f, phi = np.array([0.25]), est.scalar_field("gauss"), est.one_form("gauss-grad")
v = TangentVector(base=x, components=np.array([1.0]))
est.neumann_heat_mc(model, f, T, x, n, dt, seed=seed)
est.one_form_mc(model, phi, T, v, n, dt, seed=seed)
est.bismut_gradient_mc(model, f, T, v, n, dt, seed=seed)
est.neumann_heat_mc(model, f, T, x + 0.05, n, dt, seed=seed)
est.neumann_heat_mc(model, f, T, x - 0.05, n, dt, seed=seed)
est.martingale_check(model, est.NeumannHeatSolution(model, f, T), T, v, n, dt, seed=seed)
est.weak_derivative_check(model, f, lambda u: np.array([0.2 + u]), lambda u: np.array([1.0]), 0.0, 0.5, T, n, dt,
                          seed=seed)
print(repr(est.image_kernel_gradient("neumann", T, 0.25, f)))
"""


def _fresh(code: str):
    """(lines printed, scipy modules loaded) after ``code`` in a fresh
    interpreter."""
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("module", ["rbmlab", "rbmlab.cli"])
def test_import_loads_no_scipy(module):
    assert _fresh(f"import {module}")[1] == []


@pytest.mark.parametrize("kind", sorted(_SWEEPS))
def test_sweeps_without_the_survival_flow_load_no_scipy(kind):
    assert _fresh(_RUN.format(_SWEEPS[kind]))[1] == []


def test_halfline_penalization_loads_special_not_integrate():
    loaded = _fresh(_RUN.format(_HALFLINE))[1]
    assert "scipy.special" in loaded
    assert "scipy.integrate" not in loaded


def test_image_kernel_oracle_loads_no_scipy_and_keeps_its_value():
    code = ("from rbmlab import estimators as est\n"
            "print(repr(est.image_kernel_oracle('neumann', 1.0, 0.5, est.scalar_field('gauss'))))")
    printed, loaded = _fresh(code)
    assert float(printed[-1]) == _ORACLE
    assert loaded == []


def test_criterion_8_calls_load_no_scipy():
    printed, loaded = _fresh(_CRITERION_8)
    assert math.isfinite(float(printed[-1]))
    assert loaded == []
