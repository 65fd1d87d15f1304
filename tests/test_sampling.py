"""
Tests for seeded matrix/cost-vector sampling.

"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from randlp.sampling import (
    CostVectorKind,
    EntryDistribution,
    SeedSpec,
    draw_entries,
    sample_cost_vector,
    sample_matrix,
)


class TestSeedSpec:
    def test_determinism(self):
        a = sample_matrix(EntryDistribution.gaussian(), 5, 3, SeedSpec(42, 7))
        b = sample_matrix(EntryDistribution.gaussian(), 5, 3, SeedSpec(42, 7))
        assert_array_equal(a, b)

    def test_streams_differ(self):
        a = sample_matrix(EntryDistribution.gaussian(), 5, 3, SeedSpec(42, 7))
        b = sample_matrix(EntryDistribution.gaussian(), 5, 3, SeedSpec(42, 8))
        assert not np.array_equal(a, b)

    def test_negative_stream_rejected(self):
        with pytest.raises(ValueError):
            SeedSpec(1, -1)


class TestEntryDistribution:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            EntryDistribution("cauchy")

    def test_rademacher_support(self):
        A = sample_matrix(EntryDistribution.rademacher(), 2, 2, SeedSpec(0, 0))
        assert set(np.unique(A)) <= {-1.0, 1.0}

    def test_gaussian_moments(self):
        A = sample_matrix(EntryDistribution.gaussian(), 10000, 1, SeedSpec(3, 0))
        assert abs(float(A.mean())) < 0.05
        assert 0.9 < float(A.var()) < 1.1

    def test_bernoulli_normal_moments(self):
        A = sample_matrix(EntryDistribution.bernoulli_normal(), 10000, 1, SeedSpec(4, 0))
        zero_frac = float(np.mean(A == 0.0))
        assert 0.45 < zero_frac < 0.55
        nz = A[A != 0.0]
        assert 1.7 < float(nz.var()) < 2.3

    def test_size_validation(self):
        with pytest.raises(ValueError):
            sample_matrix(EntryDistribution.gaussian(), 0, 3, SeedSpec(0, 0))

    def test_chunked_draws_concatenate(self):
        # Gaussian and Rademacher streams are position-independent: drawing
        # 2+3 rows equals drawing 5 rows. (bernoulli_normal is not, because
        # each call interleaves its mask and normal blocks; chunk layout is
        # therefore part of any caller's determinism contract.)
        for dist in (EntryDistribution.gaussian(), EntryDistribution.rademacher()):
            gen = SeedSpec(9, 1).generator()
            top = draw_entries(dist, (2, 4), gen)
            bottom = draw_entries(dist, (3, 4), gen)
            whole = draw_entries(dist, (5, 4), SeedSpec(9, 1).generator())
            assert_array_equal(np.vstack([top, bottom]), whole)


class TestCostVectors:
    def test_k_spike_values(self):
        c = sample_cost_vector(CostVectorKind.k_spike(4), 50, SeedSpec(0, 0))
        assert_allclose(c[:4], 0.5)
        assert_array_equal(c[4:], np.zeros(46))

    def test_k_spike_ignores_seed(self):
        a = sample_cost_vector(CostVectorKind.k_spike(3), 10, SeedSpec(1, 0))
        b = sample_cost_vector(CostVectorKind.k_spike(3), 10, SeedSpec(2, 99))
        assert_array_equal(a, b)

    def test_k_spike_range(self):
        with pytest.raises(ValueError):
            sample_cost_vector(CostVectorKind.k_spike(11), 10, SeedSpec(0, 0))
        with pytest.raises(ValueError):
            CostVectorKind.k_spike(0)

    def test_rescaled_rademacher_entries(self):
        c = sample_cost_vector(CostVectorKind.rescaled_rademacher(), 50, SeedSpec(5, 0))
        assert_allclose(np.abs(c), 1.0 / math.sqrt(50))

    def test_unit_norm_all_kinds(self):
        kinds = [
            CostVectorKind.rescaled_rademacher(),
            CostVectorKind.uniform_sphere(),
            CostVectorKind.k_spike(7),
        ]
        for seed in range(20):
            for kind in kinds:
                c = sample_cost_vector(kind, 33, SeedSpec(seed, 2))
                assert abs(float(np.linalg.norm(c)) - 1.0) <= 1e-12

    def test_uniform_sphere_spread(self):
        # Max coordinate of a random direction in R^1000 stays small.
        for seed in range(100):
            c = sample_cost_vector(CostVectorKind.uniform_sphere(), 1000, SeedSpec(seed, 0))
            assert float(np.max(np.abs(c))) < 0.2

