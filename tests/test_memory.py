"""Memory of the sweeps that reduce their runs as they go.

tracemalloc sees numpy's array buffers, so a traced peak counts every array
a sweep holds at once.  Each bound is set in floats per path-node,
u = P (N+1) 8 bytes, from the arrays the sweep cannot do without; a stack of
one (paths, N+1) series per level or per row group costs u (d^2 u for the
damped matrices) and shows.
"""
from __future__ import annotations

import tracemalloc

import numpy as np

from rbmlab import harness
from rbmlab.harness import ExperimentConfig


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_eps_cauchy_holds_no_series_of_the_damped_matrices():
    # four levels in one chunk on the hemisphere, as criterion 6 runs them
    cfg = ExperimentConfig(
        kind="eps-cauchy", model=f"cap:theta0={np.pi / 2}", horizon=1.0, steps=2000,
        eps_grid=(0.2, 0.1, 0.05, 0.025), n_paths=64, master_seed=46, x0=(np.pi / 2 - 0.15, 0.0),
    )
    P, n, d, levels = cfg.n_paths, cfg.steps + 1, 2, len(cfg.eps_grid)
    u = P * n * 8
    running = P * levels * d * d * 8  # one product per path and level
    # 20 u: the driver (5 per path-step), the reflected run (4), its transport
    # frames (4), and the transport's and the engine's per-node factors and
    # temporaries; 256 running products: the engine's node blocks
    bound = 20 * u + 256 * running
    peak = _traced_peak(lambda: harness.run_experiment(cfg))
    assert peak <= bound, (peak / u, bound / u)


def test_local_time_holds_only_the_driver_and_the_variation_terms():
    # criterion 4's finest variation rung, on a tenth of its grid
    cfg = ExperimentConfig(
        kind="local-time", model="half-line", horizon=0.025, steps=16_000, a_grid=(0.025,),
        n_paths=50, master_seed=44, x0=(0.1,),
    )
    u = cfg.n_paths * (cfg.steps + 1) * 8
    # the driver (u), the (rows, N) variation terms (u), and u of slack for
    # the node blocks of the reflected rows and the per-row statistics
    peak = _traced_peak(lambda: harness.run_experiment(cfg))
    assert peak <= 3 * u, peak / u
