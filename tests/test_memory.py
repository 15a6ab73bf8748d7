"""Memory of the sweeps that reduce their runs as they go.

tracemalloc sees numpy's array buffers, so a traced peak counts every array
a sweep holds at once.  A bound is set from the arrays the sweep cannot do
without.  local-time's is in floats per path-node, u = P (N+1) 8 bytes: a
stack of one (paths, N+1) series per level or per row group costs u and
shows.  norm-bound and eps-cauchy hold nothing that grows with N: their
bounds are in floats per row-node of one node block, b = rows
_REDUCE_BLOCK 8 bytes, and in running products, one d x d matrix per row
and level, so that a whole driver, run, frame stack or flag array (P N
floats or more) shows.
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


# Floats per row-node of a block that the block-wise sweeps may hold: the
# driver block (5 per path-step on the cap), the run's block (4 reflected,
# 5 penalized per row), close events and level flags, the block's transport
# frames (4) and their temporaries, the engine's per-node factors, and slack.
_BLOCK_FLOATS = 48
# Running products the engine holds per row and level: its node blocks of
# step matrices, products and level differences.
_ENGINE_PRODUCTS = 256


def test_eps_cauchy_holds_no_series_of_the_damped_matrices():
    # four levels in one chunk on the hemisphere, as criterion 6 runs them
    cfg = ExperimentConfig(
        kind="eps-cauchy", model=f"cap:theta0={np.pi / 2}", horizon=1.0, steps=2000,
        eps_grid=(0.2, 0.1, 0.05, 0.025), n_paths=64, master_seed=46, x0=(np.pi / 2 - 0.15, 0.0),
    )
    P, d, levels = cfg.n_paths, 2, len(cfg.eps_grid)
    b = P * harness._REDUCE_BLOCK * 8
    running = P * levels * d * d * 8  # one product per path and level
    bound = _BLOCK_FLOATS * b + _ENGINE_PRODUCTS * running
    peak = _traced_peak(lambda: harness.run_experiment(cfg))
    assert peak <= bound, (peak / b, bound / b)


def test_norm_bound_holds_no_series_of_the_penalized_runs():
    # criterion 5 on a sixteenth of its paths: two values of a in one call
    cfg = ExperimentConfig(
        kind="norm-bound", model=f"cap:theta0={np.pi / 2}", horizon=1.0, steps=2000, a_grid=(0.05, 0.0125),
        n_paths=64, master_seed=45, x0=(np.pi / 2 - 0.15, 0.0),
    )
    rows, d = len(cfg.a_grid) * cfg.n_paths, 2
    b = rows * harness._REDUCE_BLOCK * 8
    running = rows * d * d * 8  # one product per row
    bound = _BLOCK_FLOATS * b + _ENGINE_PRODUCTS * running
    peak = _traced_peak(lambda: harness.run_experiment(cfg))
    assert peak <= bound, (peak / b, bound / b)


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
