"""Seeded sampling of coefficient matrices and cost vectors.

Determinism contract: every draw is a pure function of (master_seed,
stream_index). Streams are numpy PCG64 generators seeded through
SeedSequence(master_seed, spawn_key=(stream_index,)), so distinct stream
indices give statistically independent, platform-stable streams. Gaussian
variates come from Generator.standard_normal (ziggurat); that is the one
normal sampler used anywhere in this package.

Rademacher draws come from rademacher_bits, the one sampler of +/-1 entries.
It reads the bits that Generator.integers(0, 2) would return straight from
the bit generator's raw 64-bit words: integers(0, 2) takes the top bit of the
next 32-bit half of the PCG64 output, low half first, and keeps an unused
high half buffered in the bit generator. rademacher_bits returns exactly
gen.integers(0, 2, size=shape) != 0 and leaves gen in the state that call
would, so a rademacher draw is the same whichever way it is taken;
tests/test_sampling.py::TestRademacherBits pins that contract.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

# A 32-bit half at or above this value is a +1 draw of integers(0, 2).
_TOP_BIT = np.uint32(1 << 31)


@dataclass(frozen=True)
class SeedSpec:
    """A (master_seed, stream_index) pair naming one reproducible stream."""

    master_seed: int
    stream_index: int

    def __post_init__(self) -> None:
        if self.stream_index < 0:
            raise ValueError("stream_index must be non-negative")

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_index,))
        return np.random.Generator(np.random.PCG64(seq))


@dataclass(frozen=True)
class EntryDistribution:
    """A mean-0, variance-1 entry law for coefficient matrices.

    Variants: gaussian N(0,1); rademacher +/-1; bernoulli_normal, the product
    of Bernoulli(p) and N(0, 1/p).
    """

    kind: str
    p: float = 1.0

    _KINDS = ("gaussian", "rademacher", "bernoulli_normal")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown entry distribution {self.kind!r}")
        if self.kind == "bernoulli_normal":
            if not 0.0 < self.p <= 1.0:
                raise ValueError("p must be in (0, 1]")

    @classmethod
    def gaussian(cls) -> "EntryDistribution":
        return cls("gaussian")

    @classmethod
    def rademacher(cls) -> "EntryDistribution":
        return cls("rademacher")

    @classmethod
    def bernoulli_normal(cls, p: float = 0.5) -> "EntryDistribution":
        return cls("bernoulli_normal", p=p)


@dataclass(frozen=True)
class CostVectorKind:
    """A unit-norm cost vector family.

    Variants: rescaled_rademacher (+/- 1/sqrt(n) entries), uniform_sphere
    (normalized i.i.d. Gaussians), k_spike (first k entries 1/sqrt(k)).
    """

    kind: str
    k: int = 0

    _KINDS = ("rescaled_rademacher", "uniform_sphere", "k_spike")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown cost vector kind {self.kind!r}")
        if self.kind == "k_spike" and self.k < 1:
            raise ValueError("k_spike requires k >= 1")

    @classmethod
    def rescaled_rademacher(cls) -> "CostVectorKind":
        return cls("rescaled_rademacher")

    @classmethod
    def uniform_sphere(cls) -> "CostVectorKind":
        return cls("uniform_sphere")

    @classmethod
    def k_spike(cls, k: int = 1) -> "CostVectorKind":
        return cls("k_spike", k=k)


def draw_entries(
    dist: EntryDistribution,
    shape: tuple[int, ...],
    gen: np.random.Generator,
    masks: np.random.Generator | None = None,
) -> np.ndarray:
    """Draw an array of i.i.d. entries from dist using an existing generator.

    Gaussian and rademacher entries are read from gen in order, so
    consecutive calls on one generator draw what one call on the stacked
    shape would. bernoulli_normal draws its whole Bernoulli mask before its
    normals, so its draw depends on the block layout: the mask comes from
    masks if given (see _block_slices), from gen otherwise, and the normals
    from gen.
    """
    if dist.kind == "gaussian":
        return gen.standard_normal(shape)
    if dist.kind == "rademacher":
        return rademacher_bits(shape, gen).astype(float) * 2.0 - 1.0
    dropped = (gen if masks is None else masks).random(shape) >= dist.p
    x = gen.standard_normal(shape)
    x *= math.sqrt(1.0 / dist.p)
    np.copyto(x, 0.0, where=dropped)
    return x


def _block_slices(
    dist: EntryDistribution, shape: tuple[int, int], gen: np.random.Generator, slice_rows: int
) -> Iterator[tuple[tuple[int, int], np.random.Generator | None]]:
    """Split the block draw_entries(dist, shape, gen) into row slices.

    Yields (slice_shape, masks) for consecutive slices of at most slice_rows
    rows; draw_entries(dist, slice_shape, gen, masks) on each in turn draws
    the block's rows and leaves gen where the one call would. For
    bernoulli_normal, masks is a copy of gen at the block's start, and gen
    skips the block's mask (one raw word per entry) to its normals.
    """
    rows, dim = shape
    masks = None
    if dist.kind == "bernoulli_normal":
        masks = copy.deepcopy(gen)
        bitgen = gen.bit_generator
        state = bitgen.state
        bitgen.advance(rows * dim)
        # advance drops a buffered 32-bit half, which neither draw reads.
        bitgen.state = {**bitgen.state, "has_uint32": state["has_uint32"], "uinteger": state["uinteger"]}
    for start in range(0, rows, slice_rows):
        yield (min(slice_rows, rows - start), dim), masks


def rademacher_bits(shape: tuple[int, ...], gen: np.random.Generator) -> np.ndarray:
    """Rademacher draws as booleans, True for +1: gen.integers(0, 2, size=shape) != 0.

    Each value is the top bit of a 32-bit half: first the half gen holds
    buffered on entry, if any, then the low and high halves of fresh raw
    words. An unused high half stays buffered, so gen ends in the state
    integers would leave. gen's bit generator must buffer halves as PCG64
    does (its state has has_uint32 and uinteger).
    """
    bitgen = gen.bit_generator
    out = np.empty(shape, dtype=bool)
    flat = out.reshape(-1)
    if flat.size == 0:
        return out
    state = bitgen.state
    buffered = state["has_uint32"]
    if buffered:
        flat[0] = state["uinteger"] >= _TOP_BIT
    rest = flat.size - buffered
    halves = bitgen.random_raw((rest + 1) // 2).astype("<u8", copy=False).view("<u4")
    np.greater_equal(halves[:rest], _TOP_BIT, out=flat[buffered:])
    state = bitgen.state
    if rest:
        state["uinteger"] = int(halves[-1])
    state["has_uint32"] = rest % 2
    bitgen.state = state
    return out


def sample_matrix(dist: EntryDistribution, m: int, n: int, seed: SeedSpec) -> np.ndarray:
    """Sample an m x n matrix of i.i.d. entries from dist, deterministically."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be at least 1")
    return draw_entries(dist, (m, n), seed.generator())


def sample_cost_vector(kind: CostVectorKind, n: int, seed: SeedSpec) -> np.ndarray:
    """Sample a unit-norm cost vector of the given family.

    k_spike consumes no randomness (the vector is deterministic); the seed is
    accepted for interface symmetry and ignored.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if kind.kind == "k_spike":
        if kind.k > n:
            raise ValueError(f"k_spike k={kind.k} exceeds n={n}")
        c = np.zeros(n)
        c[: kind.k] = 1.0 / math.sqrt(kind.k)
        return c
    gen = seed.generator()
    if kind.kind == "rescaled_rademacher":
        return draw_entries(EntryDistribution.rademacher(), (n,), gen) / math.sqrt(n)
    g = gen.standard_normal(n)
    nrm = float(np.linalg.norm(g))
    if nrm == 0.0:
        raise ValueError("degenerate zero draw for uniform_sphere")
    return g / nrm
