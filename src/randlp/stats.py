"""Statistics for ensembles of optimal values: the asymptotic reference level,
sample moments, a goodness-of-fit test against a fitted normal, histogram and
ECDF extraction for figure data, and Monte Carlo tail probabilities.

The goodness-of-fit p-value uses the asymptotic Kolmogorov series with
parameters fitted from the sample. Fitting shifts the null distribution (the
Lilliefors effect), so reported p-values are optimistic; they are used here
for comparison against reference values computed the same way, not as
calibrated significance levels.

Tail probabilities are Monte Carlo counts over one seeded stream, drawn and
counted a slice of at most 2**18 entries at a time, so a 10^6-trial estimate
at n = 400 holds about 2 MB of draws; rademacher rows along a flat direction
are counted exactly in integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .sampling import EntryDistribution, SeedSpec, _block_slices, draw_entries, rademacher_bits
from .solver import UNIT_COST_TOL

KS_SERIES_TERM_TOL = 1e-12
KS_SERIES_MAX_TERMS = 100000
# Rows per draw block of tail_probability_mc. bernoulli_normal draws each
# block's mask before its normals, so its results depend on this layout;
# no other law's do.
MC_CHUNK_ROWS = 65536
# Entries per slice of a block, the most tail_probability_mc holds at once.
_SLICE_ENTRIES = 2**18
# A tail threshold this close above an attainable value of <y, xi> counts as
# that value.
LATTICE_TIE_TOL = 1e-9


@dataclass(frozen=True)
class SampleSummary:
    count: int
    mean: float
    std: float


@dataclass(frozen=True)
class KSResult:
    statistic: float
    p_value: float
    n_samples: int


@dataclass(frozen=True)
class TailEstimate:
    p_hat: float
    standard_error: float
    trials: int


def asymptotic_bound(m: int, n: int) -> float:
    """Reference level (2 log(m/n))^{-1/2} for an m x n ensemble."""
    if m <= n or n < 1:
        raise ValueError("need m > n >= 1")
    return (2.0 * math.log(m / n)) ** -0.5


def relative_gap(ab: float, mu_hat: float) -> float:
    """Percent gap |ab - mu_hat| / ab * 100."""
    if ab <= 0.0:
        raise ValueError("reference level must be positive")
    return abs(ab - mu_hat) / ab * 100.0


def summarize(samples: Sequence[float]) -> SampleSummary:
    """Mean and unbiased (n-1 divisor) standard deviation."""
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("need at least two samples")
    return SampleSummary(count=int(arr.size), mean=float(np.mean(arr)), std=float(np.std(arr, ddof=1)))


def normal_cdf(t: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-t / math.sqrt(2.0))


def kolmogorov_p(d: float, n: int) -> float:
    """Asymptotic two-sided p-value 2 sum (-1)^{k-1} exp(-2 k^2 n d^2).

    Truncated once a term drops below KS_SERIES_TERM_TOL; the alternating
    series bounds the truncation error by that term. Clamped to [0, 1].
    """
    if d <= 0.0:
        return 1.0
    s = 0.0
    sign = 1.0
    for k in range(1, KS_SERIES_MAX_TERMS + 1):
        term = math.exp(-2.0 * k * k * n * d * d)
        s += sign * term
        if term < KS_SERIES_TERM_TOL:
            break
        sign = -sign
    return min(1.0, max(0.0, 2.0 * s))


def ks_test(samples: Sequence[float]) -> KSResult:
    """Sup-distance of the sample ECDF from a normal fitted to the sample.

    D compares the ECDF from both sides at each sorted point; the p-value
    comes from the asymptotic Kolmogorov series.
    """
    arr = np.sort(np.asarray(samples, dtype=float))
    n = arr.size
    if n < 8:
        raise ValueError("need at least 8 samples")
    summary = summarize(arr)
    if summary.std == 0.0:
        raise ValueError("degenerate sample: zero standard deviation")
    z = (arr - summary.mean) / summary.std
    F = np.array([normal_cdf(t) for t in z])
    i = np.arange(1, n + 1)
    d_plus = float(np.max(i / n - F))
    d_minus = float(np.max(F - (i - 1) / n))
    D = max(d_plus, d_minus)
    return KSResult(statistic=D, p_value=kolmogorov_p(D, n), n_samples=n)


def histogram(samples: Sequence[float]) -> List[Tuple[float, float, int]]:
    """ceil(log2 N) + 1 equal-width bins spanning [min, max] (one bin for a
    single sample); rightmost bin closed."""
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise ValueError("empty sample")
    n_bins = int(math.ceil(math.log2(arr.size))) + 1 if arr.size > 1 else 1
    counts, edges = np.histogram(arr, bins=n_bins)
    return [(float(edges[k]), float(edges[k + 1]), int(counts[k])) for k in range(n_bins)]


def ecdf(samples: Sequence[float]) -> List[Tuple[float, float]]:
    """Step points (x_(i), i/N) of the empirical CDF at the sorted samples."""
    arr = np.sort(np.asarray(samples, dtype=float))
    n = arr.size
    if n == 0:
        raise ValueError("empty sample")
    return [(float(arr[k]), (k + 1) / n) for k in range(n)]


def _lattice_threshold(dim: int, y0: float, t: float) -> int:
    """Smallest attainable S = 2 * (number of +1s) - dim with S * y0 >= t.

    A threshold within LATTICE_TIE_TOL above S * y0 counts as S * y0: a
    threshold written as a decimal (1.8) is held as the nearest float, which
    can lie just above the lattice value it names.
    """
    q = min(max((t - LATTICE_TIE_TOL) / y0, -dim), dim + 1)
    k = math.ceil(q)
    return k + (k - dim) % 2


def tail_probability_mc(
    y: np.ndarray,
    dist: EntryDistribution,
    t: float,
    trials: int,
    seed: SeedSpec,
) -> TailEstimate:
    """Monte Carlo estimate of P{<y, xi> >= t} for a fresh coefficient row xi.

    Draws come from the single stream named by seed, so results are
    reproducible for fixed inputs regardless of platform. The stream is read
    in blocks of MC_CHUNK_ROWS rows, the layout a bernoulli_normal draw
    depends on, and each block in slices of at most _SLICE_ENTRIES entries,
    rounded down to a multiple of 4 rows, so memory stays bounded at any
    trial count. Slicing changes no draw, and no result on a BLAS whose
    per-row sums depend only on a row's offset modulo 4 within a mat-vec
    call, as OpenBLAS's do. For rademacher rows and a flat y (all entries
    equal and positive), <y, xi> = S * y[0] with the integer S = 2 * (number
    of +1s) - dim, so hits are counted exactly in integers from the same
    draws.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError("y must be a vector")
    if abs(float(np.linalg.norm(y)) - 1.0) > UNIT_COST_TOL:
        raise ValueError("y must have unit Euclidean norm")
    if trials < 1000:
        raise ValueError("need at least 1000 trials")
    gen = seed.generator()
    dim = y.shape[0]
    lattice = dist.kind == "rademacher" and y[0] > 0.0 and bool(np.all(y == y[0]))
    if lattice:
        k_t = _lattice_threshold(dim, float(y[0]), t)
    slice_rows = max(4, _SLICE_ENTRIES // dim // 4 * 4)
    hits = 0
    for done in range(0, trials, MC_CHUNK_ROWS):
        block = (min(MC_CHUNK_ROWS, trials - done), dim)
        for shape, masks in _block_slices(dist, block, gen, slice_rows):
            if lattice:
                ones = rademacher_bits(shape, gen).sum(axis=1, dtype=np.int32)
                hits += int(np.count_nonzero(2 * ones - dim >= k_t))
            else:
                hits += int(np.count_nonzero(draw_entries(dist, shape, gen, masks) @ y >= t))
    p_hat = hits / trials
    se = math.sqrt(p_hat * (1.0 - p_hat) / trials)
    return TailEstimate(p_hat=p_hat, standard_error=se, trials=trials)
