"""Memory of the sweeps and estimators that reduce their runs as they go.

tracemalloc sees numpy's array buffers, so a traced peak counts every array
a sweep holds at once.  A bound is set from the arrays the sweep cannot do
without.  No sweep holds anything that grows with N: the bounds are in
floats per row-node of one node block, b = rows _REDUCE_BLOCK 8 bytes, so
that a whole driver, run, frame stack, flag array or buffer of N terms per
row (P N floats or more) shows, at inputs of enough steps.  The damped
engine's kinds (norm-bound, eps-cauchy, f-normal) add its running products,
one d x d matrix per row and level.  local-time, halfline-penalization and
f-normal sum their node terms as the blocks stream (harness._RowSums) and
add its window of _PAIRWISE_LEAF terms per row.  transport, f-normal,
local-time and halfline-penalization step a reference row beside each
path's penalized rows, and count it in b.  The estimators draw and step
their paths in blocks: their bounds are in floats per path-step of one
block, plus what they keep (the flat path record, or one value per path).
"""
from __future__ import annotations

import tracemalloc

import numpy as np
import scipy.special  # noqa: F401  (the 1-d flow's erf: imported here, not inside a traced peak)

from rbmlab import estimators as est
from rbmlab import geometry as geo
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
# Running products the engine and the reductions of its products hold per
# row and level: a node block's step matrices and products, and eps-cauchy's
# level differences of them.
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


def _summed_kind_bound(cfg: ExperimentConfig) -> tuple:
    """(b, bound) for a kind that sums node terms per row as they stream: the
    blocks of its penalized and reference rows, and one window of the
    pairwise sum per row."""
    rows = len(cfg.a_grid) * cfg.n_paths
    b = (rows + cfg.n_paths) * harness._REDUCE_BLOCK * 8
    return b, _BLOCK_FLOATS * b + rows * harness._PAIRWISE_LEAF * 8


def test_local_time_holds_only_the_driver_and_the_variation_terms():
    # criterion 4's finest variation rung, on a tenth of its grid: a driver,
    # a run or an N-term buffer of the variation (P N floats) shows
    cfg = ExperimentConfig(
        kind="local-time", model="half-line", horizon=0.025, steps=16_000, a_grid=(0.025,),
        n_paths=50, master_seed=44, x0=(0.1,),
    )
    b, bound = _summed_kind_bound(cfg)
    peak = _traced_peak(lambda: harness.run_experiment(cfg))
    assert peak <= bound, (peak / b, bound / b)


def test_halfline_penalization_holds_only_the_derivative_terms():
    # criterion 2's flow on criterion 4's finest variation grid, a tenth of it
    cfg = ExperimentConfig(
        kind="halfline-penalization", model="half-line", horizon=0.025, steps=16_000, a_grid=(0.025,),
        n_paths=50, master_seed=42, x0=(0.1,),
    )
    b, bound = _summed_kind_bound(cfg)
    peak = _traced_peak(lambda: harness.run_experiment(cfg))
    assert peak <= bound, (peak / b, bound / b)


def test_f_normal_holds_only_the_l2_terms_and_its_blocks():
    # criterion 7's two ends of the a-grid: on the half-line, on 16 paths of
    # 10,000 steps, where an N-term buffer of the L2 terms shows, and on the
    # cap, on 64 paths of 2000 steps, where a frame stack shows
    half_line = ExperimentConfig(kind="f-normal", model="half-line", horizon=1.0, steps=10_000,
                                 a_grid=(0.05, 0.0125), n_paths=16, master_seed=47, x0=(0.5,))
    cap = ExperimentConfig(kind="f-normal", model=f"cap:theta0={np.pi / 3}", horizon=1.0, steps=2000,
                           a_grid=(0.05, 0.0125), n_paths=64, master_seed=47, x0=(np.pi / 3 - 0.15, 0.0))
    for cfg, d in ((half_line, 1), (cap, 2)):
        b, bound = _summed_kind_bound(cfg)
        bound += _ENGINE_PRODUCTS * (len(cfg.a_grid) + 1) * cfg.n_paths * d * d * 8  # one product per row
        peak = _traced_peak(lambda: harness.run_experiment(cfg))
        assert peak <= bound, (cfg.model, peak / b, bound / b)


def test_transport_holds_no_frame_stack():
    cfg = ExperimentConfig(kind="transport", model=f"cap:theta0={np.pi / 3}", horizon=1.0, steps=2000,
                           a_grid=(0.05, 0.0125), n_paths=64, master_seed=47, x0=(np.pi / 3 - 0.15, 0.0))
    rows = len(cfg.a_grid) * cfg.n_paths
    # blocks of the penalized rows and the reference; each carries one angle
    b = (rows + cfg.n_paths) * harness._REDUCE_BLOCK * 8
    peak = _traced_peak(lambda: harness.run_experiment(cfg))
    assert peak <= _BLOCK_FLOATS * b, (peak / b, _BLOCK_FLOATS)


def test_flat_path_record_holds_one_block_of_paths():
    # criterion 8's grid on 2000 paths: the draws of one 256-path block (its
    # driver, nodes, bridge uniforms, bridge minima and running minima, one
    # float per path-step each) beside the record, whose ladders grow by a
    # quarter at a time and may be copied as they grow
    frame_count, T, steps, n, seed = 2, 1.0, 1000, 2000, 48
    b = 256 * steps * 8
    est._path_record.cache_clear()
    try:
        peak = _traced_peak(lambda: est._path_record(frame_count, T, steps, n, seed))
        record = sum(a.nbytes for a in est._path_record(frame_count, T, steps, n, seed))
    finally:
        est._path_record.cache_clear()
    assert peak <= 6 * b + 2 * record, ((peak - 2 * record) / b, record / b)


def test_curved_neumann_holds_one_node_block_of_each_chunk():
    # one 2000-path chunk on 500 steps: two driver blocks of 64 steps (4 floats
    # per path-step on the disk, 5 on the cap, the next drawn while the last
    # is held) and their finiteness flags, the run's block (4 per path-node),
    # and slack, beside each path's generator and value
    n, steps = 2000, 500
    b = n * 64 * 8
    per_path = 1024 + 8
    for model, x in ((geo.flat_disk(), [0.6, 0.5]), (geo.spherical_cap(np.pi / 3), [np.pi / 3 - 0.15, 0.7])):
        peak = _traced_peak(lambda: est.neumann_heat_mc(model, est.scalar_field("gauss"), 0.5, x, n, 0.5 / steps))
        assert peak <= 24 * b + per_path * n, (model.name, (peak - per_path * n) / b)
