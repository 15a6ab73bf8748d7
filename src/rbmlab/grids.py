"""Uniform time grids and reproducible Brownian drivers.

Driver increments are drawn from counter-based Philox streams so that path i of
a run with master seed s is the same array no matter how many paths are
generated, in which order, or in which process.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Counter word 3 tags the purpose of a stream; word 2 carries the path index
# (or node index for auxiliary draws).  Distinct tuples give disjoint blocks.
_TAG_DRIVER = 0
_TAG_BRIDGE = 1
_TAG_GUARD = 2


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_N = horizon."""

    horizon: float
    steps: int

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps + 1)


class SeedStreams:
    """The Philox streams of one master seed, drawn through one generator.

    ``driver(i)``, ``bridge(i)`` and ``guard(node, attempt)`` re-key the
    generator in place to the stream's counter and return it in the state a
    freshly built generator for that stream starts in.  Re-keying costs a few
    microseconds; building a generator costs several times more, as it also
    fetches OS entropy for a seed sequence that the fixed key never uses.
    ``Philox(key=seed)`` converts the seed (two little-endian 64-bit words)
    and rejects keys outside ``[0, 2**128)`` with ``ValueError``.  Every call
    returns the same generator, so draw from it before the next call.
    """

    def __init__(self, seed: int):
        self._bits = np.random.Philox(key=seed)
        self._gen = np.random.Generator(self._bits)
        self._state = self._bits.state
        self._counter = self._state["state"]["counter"]

    def _at(self, w1: int, w2: int, w3: int) -> np.random.Generator:
        self._counter[1:] = (w1, w2, w3)
        self._bits.state = self._state
        return self._gen

    def driver(self, path_index: int) -> np.random.Generator:
        return self._at(0, path_index, _TAG_DRIVER)

    def bridge(self, path_index: int) -> np.random.Generator:
        return self._at(0, path_index, _TAG_BRIDGE)

    def guard(self, node: int, attempt: int) -> np.random.Generator:
        return self._at(attempt, node, _TAG_GUARD)

    def own_driver(self, path_index: int) -> np.random.Generator:
        """A generator of its own for ``driver(path_index)``'s stream, which
        keeps its place between draws: its bit generator is built on a fixed
        seed sequence (no OS entropy) and set to the stream's start."""
        bits = np.random.Philox(_UNUSED_SEED)
        self._counter[1:] = (0, path_index, _TAG_DRIVER)
        bits.state = self._state
        return np.random.Generator(bits)


# Seeds the bit generators of SeedStreams.own_driver, whose state is set from
# the stream's key and counter before any draw.
_UNUSED_SEED = np.random.SeedSequence(0)


def driver_stream(seed: int, path_index: int) -> np.random.Generator:
    """Fresh generator for the Gaussian increments of one path."""
    return SeedStreams(seed).driver(path_index)


def bridge_stream(seed: int, path_index: int) -> np.random.Generator:
    """Fresh generator for within-step bridge-minimum uniforms of one path."""
    return SeedStreams(seed).bridge(path_index)


def guard_stream(seed: int, node: int, attempt: int) -> np.random.Generator:
    """Fresh generator for positivity-guard bridge draws, keyed by grid node."""
    return SeedStreams(seed).guard(node, attempt)


@dataclass
class DriverPath:
    """Seeded grid of Brownian increments in R^m shared by coupled runs.

    increments[i, k] ~ N(0, dt) is the k-th component increment over
    [t_i, t_{i+1}].  Reproducible from (seed, path_index).
    """

    seed: int
    path_index: int
    increments: np.ndarray = field(repr=False)

    @classmethod
    def generate(cls, grid: TimeGrid, m: int, seed: int, path_index: int = 0) -> "DriverPath":
        rng = driver_stream(seed, path_index)
        inc = rng.standard_normal((grid.steps, m)) * np.sqrt(grid.dt)
        return cls(seed=seed, path_index=path_index, increments=inc)

    @property
    def steps(self) -> int:
        return self.increments.shape[0]

    @property
    def components(self) -> int:
        return self.increments.shape[1]


def driver_block(grid: TimeGrid, m: int, seed: int, first_path: int, n_paths: int) -> np.ndarray:
    """Increments for paths [first_path, first_path + n_paths) as (P, N, m)."""
    out = np.empty((n_paths, grid.steps, m))
    root = np.sqrt(grid.dt)
    streams = SeedStreams(seed)
    for j in range(n_paths):
        streams.driver(first_path + j).standard_normal(out=out[j])
    out *= root
    return out


def driver_blocks(grid: TimeGrid, m: int, seed: int, first_path: int, n_paths: int, block: int):
    """The increments of :func:`driver_block` in node blocks of at most
    ``block`` steps: yields (i0, (P, n, m)) for steps i0..i0+n-1, the next
    block starting at step i0+n.  Each path draws from a generator of its own
    that keeps its place in the path's stream, so the blocks join to
    driver_block's array bit for bit."""
    root = np.sqrt(grid.dt)
    streams = SeedStreams(seed)
    gens = [streams.own_driver(first_path + j) for j in range(n_paths)]
    for i0 in range(0, grid.steps, block):
        out = np.empty((n_paths, min(block, grid.steps - i0), m))
        for j, gen in enumerate(gens):
            gen.standard_normal(out=out[j])
        out *= root
        yield i0, out


def bridge_uniform_block(grid: TimeGrid, seed: int, first_path: int, n_paths: int) -> np.ndarray:
    """Per-step uniforms used to sample within-step bridge minima, (P, N)."""
    out = np.empty((n_paths, grid.steps))
    streams = SeedStreams(seed)
    for j in range(n_paths):
        streams.bridge(first_path + j).random(out=out[j])
    return out
