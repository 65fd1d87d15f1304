"""
Tests for the statistical layer: reference level, moments, KS, tails.

"""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from randlp.sampling import EntryDistribution, SeedSpec, draw_entries
from randlp.stats import (
    MC_CHUNK_ROWS,
    asymptotic_bound,
    ecdf,
    histogram,
    kolmogorov_p,
    ks_test,
    normal_cdf,
    relative_gap,
    summarize,
    tail_probability_mc,
)

# Exact binomial tail P{Bin(400, 1/2) >= 218}, the true value of the flat
# Rademacher tail at threshold 1.8 in R^400 (computed with math.comb).
BINOM_400_218 = 0.03999422712871022

GAUSSIAN = EntryDistribution.gaussian()
RADEMACHER = EntryDistribution.rademacher()
BERNOULLI_NORMAL = EntryDistribution.bernoulli_normal()


class TestAsymptoticBound:
    def test_reference_rows(self):
        assert abs(asymptotic_bound(1000, 50) - 0.40853) <= 1e-5
        assert abs(asymptotic_bound(10000, 50) - 0.30719) <= 1e-5

    def test_rejects_m_le_n(self):
        with pytest.raises(ValueError):
            asymptotic_bound(50, 50)

    def test_monotonicity(self):
        ms = [200, 500, 1000, 5000, 20000]
        for n in (10, 50):
            vals = [asymptotic_bound(m, n) for m in ms]
            assert all(a > b for a, b in zip(vals, vals[1:]))
        ns = [10, 20, 50, 100]
        vals = [asymptotic_bound(100000, n) for n in ns]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestRelativeGap:
    def test_reference_rows(self):
        assert abs(relative_gap(0.40853, 0.50626) - 23.92) <= 0.01
        assert abs(relative_gap(0.30719, 0.35176) - 14.50) <= 0.01

    def test_exact_match(self):
        assert relative_gap(0.375, 0.375) == 0.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            relative_gap(0.0, 0.5)


class TestSummarize:
    def test_constant(self):
        s = summarize([1.0, 1.0, 1.0])
        assert s.mean == 1.0 and s.std == 0.0 and s.count == 3

    def test_two_points(self):
        s = summarize([0.0, 2.0])
        assert s.mean == 1.0
        assert_allclose(s.std, math.sqrt(2.0), rtol=1e-15)

    def test_four_points(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.mean == 2.5
        assert_allclose(s.std, 1.2909944487358056, rtol=1e-15)

    def test_too_few(self):
        with pytest.raises(ValueError):
            summarize([1.0])


class TestNormalCdf:
    def test_symmetry_point(self):
        assert normal_cdf(0.0) == 0.5

    def test_one_sigma(self):
        assert abs(normal_cdf(1.0) - 0.8413447460685429) <= 1e-12

    def test_tail_bracket_at_three(self):
        # Mills-ratio bracket with the Gaussian density at 3.
        phi3 = math.exp(-4.5) / math.sqrt(2.0 * math.pi)
        tail = 1.0 - normal_cdf(3.0)
        assert (1.0 / 3.0 - 1.0 / 27.0) * phi3 <= tail <= (1.0 / 3.0) * phi3
        # The coarser exp(-t^2/2)/t envelope also holds.
        assert tail <= (1.0 / 3.0) * math.exp(-4.5)


class TestKolmogorovP:
    def test_frozen_series_values(self):
        assert_allclose(kolmogorov_p(0.0232, 1000), 0.6547330163446402, rtol=1e-12)
        assert_allclose(kolmogorov_p(0.0219, 1000), 0.7236176195663985, rtol=1e-12)

    def test_reported_figure_values(self):
        assert abs(kolmogorov_p(0.0232, 1000) - 0.6453) <= 0.02
        assert abs(kolmogorov_p(0.0219, 1000) - 0.7161) <= 0.02

    def test_range_and_monotonicity(self):
        ds = [0.01, 0.02, 0.04, 0.08, 0.16]
        ps = [kolmogorov_p(d, 1000) for d in ds]
        assert all(0.0 <= p <= 1.0 for p in ps)
        assert all(a >= b for a, b in zip(ps, ps[1:]))
        assert kolmogorov_p(0.5, 1000) < 1e-12


class TestKsTest:
    def test_needs_enough_samples(self):
        with pytest.raises(ValueError):
            ks_test([1.0] * 7)

    def test_degenerate_sample(self):
        with pytest.raises(ValueError):
            ks_test([2.0] * 100)

    def test_statistic_matches_direct_computation(self):
        gen = np.random.default_rng(8)
        x = np.sort(gen.standard_normal(64))
        res = ks_test(x)
        mu, sd = float(x.mean()), float(x.std(ddof=1))
        F = np.array([0.5 * math.erfc(-(v - mu) / sd / math.sqrt(2.0)) for v in x])
        i = np.arange(1, 65)
        D = max(float(np.max(i / 64 - F)), float(np.max(F - (i - 1) / 64)))
        assert_allclose(res.statistic, D, rtol=1e-15)
        assert res.n_samples == 64

    def test_null_calibration(self):
        # Fitting mean/std from the sample makes the plain-KS p conservative
        # (it skews high); the workable guarantees are a floor and a high
        # median, not uniformity.
        gen = np.random.default_rng(2024)
        ps = [ks_test(gen.standard_normal(1000)).p_value for _ in range(100)]
        assert sum(p > 0.01 for p in ps) >= 98
        assert 0.5 <= float(np.median(ps)) <= 0.99

    def test_detects_uniform_sample(self):
        gen = np.random.default_rng(5)
        res = ks_test(gen.uniform(size=2000))
        assert res.p_value < 0.01


class TestHistogramEcdf:
    def test_two_bins(self):
        assert histogram([0.0, 1.0]) == [(0.0, 0.5, 1), (0.5, 1.0, 1)]

    def test_default_bin_count(self):
        bins = histogram(list(range(1000)))
        assert len(bins) == 11

    def test_conservation(self):
        gen = np.random.default_rng(12)
        for _ in range(10):
            x = gen.standard_normal(int(gen.integers(1, 400)))
            bins = histogram(x)
            assert len(bins) == (math.ceil(math.log2(x.size)) + 1 if x.size > 1 else 1)
            assert sum(b[2] for b in bins) == x.size

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            histogram([])
        with pytest.raises(ValueError):
            ecdf([])

    def test_ecdf_hand_case(self):
        pts = ecdf([3.0, 1.0, 2.0])
        assert_allclose(pts, [(1.0, 1 / 3), (2.0, 2 / 3), (3.0, 1.0)])

    def test_ecdf_ends_at_one(self):
        gen = np.random.default_rng(13)
        pts = ecdf(gen.standard_normal(57))
        assert pts[-1][1] == 1.0
        xs = [p[0] for p in pts]
        assert xs == sorted(xs)


class TestTailProbabilityMc:
    def test_unit_norm_required(self):
        with pytest.raises(ValueError):
            tail_probability_mc(np.ones(4), EntryDistribution.gaussian(), 0.0, 2000, SeedSpec(0, 0))

    def test_trial_floor(self):
        y = np.array([1.0])
        with pytest.raises(ValueError):
            tail_probability_mc(y, EntryDistribution.gaussian(), 0.0, 999, SeedSpec(0, 0))

    def test_gaussian_median(self):
        y = np.full(8, 8**-0.5)
        est = tail_probability_mc(y, EntryDistribution.gaussian(), 0.0, 200000, SeedSpec(0, 0))
        assert abs(est.p_hat - 0.5) <= 3.0 * est.standard_error

    def test_gaussian_one_sigma_rotation_invariant(self):
        # <y, xi> is exactly N(0,1) for any unit y in the Gaussian case.
        target = 1.0 - 0.8413447460685429
        flat = np.full(8, 8**-0.5)
        est = tail_probability_mc(flat, EntryDistribution.gaussian(), 1.0, 200000, SeedSpec(0, 1))
        assert abs(est.p_hat - target) <= 3.0 * est.standard_error
        axis = np.zeros(8)
        axis[0] = 1.0
        est2 = tail_probability_mc(axis, EntryDistribution.gaussian(), 1.0, 200000, SeedSpec(0, 2))
        assert abs(est2.p_hat - target) <= 3.0 * est2.standard_error

    def test_rademacher_flat_matches_exact_binomial(self):
        y = np.full(400, 0.05)
        est = tail_probability_mc(y, EntryDistribution.rademacher(), 1.8, 200000, SeedSpec(0, 3))
        assert abs(est.p_hat - BINOM_400_218) <= 4.0 * est.standard_error

    def test_rademacher_flat_on_lattice_tie(self):
        # t = 1.8 puts rows with sum 36 exactly on the threshold, the case of
        # criterion 12's draws (master seed 0, stream 200).
        y = np.full(400, 400**-0.5)
        est = tail_probability_mc(y, EntryDistribution.rademacher(), 1.8, 10**6, SeedSpec(0, 200))
        assert abs(est.p_hat - BINOM_400_218) <= 4.0 * est.standard_error

    @pytest.mark.parametrize("n, t, k", [(400, 1.8, 36), (400, 1.75, 36), (9, 0.5, 3), (9, -5.0, -9), (9, 4.0, 11)])
    def test_rademacher_flat_counts_lattice_sums(self, n, t, k, trials=MC_CHUNK_ROWS + 4000):
        # A hit is a row whose sum of n signs reaches k, the smallest attainable
        # sum S with S / sqrt(n) >= t; at n = 400, t = 1.8 the sum 36 is a tie.
        # The reference takes the same stream's signs from one numpy
        # integers(0, 2) call.
        y = np.full(n, n**-0.5)
        est = tail_probability_mc(y, EntryDistribution.rademacher(), t, trials, SeedSpec(2, 9))
        signs = 2 * SeedSpec(2, 9).generator().integers(0, 2, size=(trials, n)) - 1
        assert est.p_hat == int(np.count_nonzero(signs.sum(axis=1) >= k)) / trials

    def test_rademacher_flat_counts_odd_entry_count(self):
        # 9 * (MC_CHUNK_ROWS + 4001) entries: the last rows hold an odd number.
        self.test_rademacher_flat_counts_lattice_sums(9, 0.5, 3, trials=MC_CHUNK_ROWS + 4001)

    def test_determinism_across_chunk_boundary(self, n=37, t=0.3, trials=MC_CHUNK_ROWS + 4001):
        # Each law's estimate counts what whole MC_CHUNK_ROWS-row blocks of
        # the stream count (the last one ragged), although it holds only
        # slices of each block. y is not flat, so rademacher rows take the
        # floating-point path too.
        y = np.random.default_rng(5).standard_normal(n)
        y /= np.linalg.norm(y)
        for dist in (GAUSSIAN, RADEMACHER, BERNOULLI_NORMAL):
            est = tail_probability_mc(y, dist, t, trials, SeedSpec(4, 0))
            gen = SeedSpec(4, 0).generator()
            hits = 0
            for done in range(0, trials, MC_CHUNK_ROWS):
                block = draw_entries(dist, (min(MC_CHUNK_ROWS, trials - done), n), gen)
                hits += int(np.count_nonzero(block @ y >= t))
            assert est.p_hat == hits / trials, dist.kind
            assert est.trials == trials

    @pytest.mark.parametrize("dist", [GAUSSIAN, RADEMACHER, BERNOULLI_NORMAL], ids=lambda d: d.kind)
    def test_memory_bounded_by_slice(self, dist):
        # A 20000 x 400 block would be 64 MB of floats; the estimate holds one
        # slice of 2**18 entries (2 MB of floats) and its mask at a time.
        y = np.full(400, 400**-0.5)
        tracemalloc.start()
        try:
            tail_probability_mc(y, dist, 1.75, 20000, SeedSpec(0, 0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4e6
