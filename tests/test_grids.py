"""Time grids and counter-based driver streams."""
from __future__ import annotations

import numpy as np
import pytest

from rbmlab.grids import (
    DriverPath,
    SeedStreams,
    TimeGrid,
    bridge_stream,
    bridge_uniform_block,
    driver_block,
    driver_blocks,
    driver_stream,
    guard_stream,
)


def test_time_grid_basic():
    grid = TimeGrid(2.0, 4)
    assert grid.dt == 0.5
    assert np.allclose(grid.times, [0, 0.5, 1.0, 1.5, 2.0])
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)
    with pytest.raises(ValueError):
        TimeGrid(-1.0, 10)


def test_driver_reproducible_and_distinct():
    grid = TimeGrid(1.0, 256)
    a = DriverPath.generate(grid, 3, seed=11, path_index=4)
    b = DriverPath.generate(grid, 3, seed=11, path_index=4)
    assert np.array_equal(a.increments, b.increments)
    c = DriverPath.generate(grid, 3, seed=11, path_index=5)
    assert not np.array_equal(a.increments, c.increments)
    d = DriverPath.generate(grid, 3, seed=12, path_index=4)
    assert not np.array_equal(a.increments, d.increments)
    assert a.steps == 256 and a.components == 3


def test_driver_block_matches_individual_streams():
    grid = TimeGrid(1.0, 64)
    block = driver_block(grid, 2, seed=7, first_path=3, n_paths=5)
    for j in range(5):
        single = DriverPath.generate(grid, 2, seed=7, path_index=3 + j)
        assert np.array_equal(block[j], single.increments)


@pytest.mark.parametrize("seed", [0, 2**64 + 5, 2**128 - 1])
@pytest.mark.parametrize("m", [1, 4, 5])
def test_driver_blocks_join_to_the_driver_block(seed, m):
    grid = TimeGrid(1.0, 150)
    whole = driver_block(grid, m, seed, first_path=3, n_paths=4)
    for block in (1, 64, grid.steps):
        i0 = 0
        for start, part in driver_blocks(grid, m, seed, 3, 4, block):
            assert start == i0 and part.shape == (4, min(block, grid.steps - i0), m)
            assert np.array_equal(part, whole[:, i0 : i0 + part.shape[1]]), (block, i0)
            i0 += part.shape[1]
        assert i0 == grid.steps


def test_driver_moments_sane():
    grid = TimeGrid(1.0, 10_000)
    block = driver_block(grid, 1, seed=3, first_path=0, n_paths=8)
    std = block.std()
    assert abs(std - np.sqrt(grid.dt)) < 0.02 * np.sqrt(grid.dt)
    assert abs(block.mean()) < 4 * std / np.sqrt(block.size)


def _fresh(seed, w1, w2, tag):
    counter = np.array([0, w1, w2, tag], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=seed, counter=counter))


@pytest.mark.parametrize("seed", [0, 7, 2**64 + 5, 2**128 - 1])
def test_rekeyed_streams_match_fresh_generators(seed):
    streams = SeedStreams(seed)
    for i in (0, 3, 1000):
        # interleaved purposes: each re-key starts its stream afresh
        assert np.array_equal(streams.driver(i).standard_normal(9), _fresh(seed, 0, i, 0).standard_normal(9))
        assert np.array_equal(streams.bridge(i).random(9), _fresh(seed, 0, i, 1).random(9))
        for attempt in (0, 4):
            assert np.array_equal(
                streams.guard(i, attempt).standard_normal(9), _fresh(seed, attempt, i, 2).standard_normal(9)
            )
    assert np.array_equal(driver_stream(seed, 3).standard_normal(9), _fresh(seed, 0, 3, 0).standard_normal(9))
    assert np.array_equal(bridge_stream(seed, 3).random(9), _fresh(seed, 0, 3, 1).random(9))
    assert np.array_equal(guard_stream(seed, 3, 4).standard_normal(9), _fresh(seed, 4, 3, 2).standard_normal(9))


def test_seed_words_and_range():
    # Philox(key=...) takes the seed as two little-endian 64-bit words
    assert np.array_equal(SeedStreams(2**64 + 5).driver(0).bit_generator.state["state"]["key"], [5, 1])
    for bad in (-1, 2**128):
        with pytest.raises(ValueError):
            SeedStreams(bad)
        with pytest.raises(ValueError):
            driver_block(TimeGrid(1.0, 4), 1, seed=bad, first_path=0, n_paths=2)


def test_public_streams_are_fresh_generators():
    a, b = driver_stream(7, 1), driver_stream(7, 1)
    assert a is not b
    assert np.array_equal(a.standard_normal(5), b.standard_normal(5))


def test_bridge_block_matches_individual_streams():
    grid = TimeGrid(1.0, 64)
    block = bridge_uniform_block(grid, seed=2**64 + 5, first_path=3, n_paths=4)
    for j in range(4):
        assert np.array_equal(block[j], _fresh(2**64 + 5, 0, 3 + j, 1).random(64))
