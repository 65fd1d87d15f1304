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
    _block_slices,
    draw_entries,
    rademacher_bits,
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

    @pytest.mark.parametrize("p", [0.5, 0.1, 1.0])
    def test_bernoulli_normal_is_mask_then_normals(self, p):
        # Bit for bit where(mask, normals * sqrt(1/p), 0.0), the whole mask
        # drawn first: a dropped entry is +0.0 and a kept one keeps its sign.
        x = draw_entries(EntryDistribution.bernoulli_normal(p), (300, 7), SeedSpec(6, 2).generator())
        twin = SeedSpec(6, 2).generator()
        mask = twin.random((300, 7)) < p
        ref = np.where(mask, twin.standard_normal((300, 7)) * math.sqrt(1.0 / p), 0.0)
        assert_array_equal(x, ref)
        assert_array_equal(np.signbit(x), np.signbit(ref))

    def test_size_validation(self):
        with pytest.raises(ValueError):
            sample_matrix(EntryDistribution.gaussian(), 0, 3, SeedSpec(0, 0))

    def test_chunked_draws_concatenate(self):
        # Gaussian and Rademacher streams are position-independent: drawing
        # 2+3 rows equals drawing 5 rows, also when a 3x3 rademacher chunk
        # leaves half a raw word buffered for the next. (bernoulli_normal is
        # not, because each call draws its whole mask before its normals;
        # chunk layout is therefore part of any caller's determinism contract,
        # and TestBlockSlices covers drawing one call's block in slices.)
        cases = [
            (EntryDistribution.gaussian(), (2, 4), (3, 4)),
            (EntryDistribution.rademacher(), (2, 4), (3, 4)),
            (EntryDistribution.rademacher(), (3, 3), (2, 3)),
        ]
        for dist, top_shape, bottom_shape in cases:
            gen = SeedSpec(9, 1).generator()
            top = draw_entries(dist, top_shape, gen)
            bottom = draw_entries(dist, bottom_shape, gen)
            whole = draw_entries(dist, (5, top_shape[1]), SeedSpec(9, 1).generator())
            assert_array_equal(np.vstack([top, bottom]), whole)


class TestBlockSlices:
    @pytest.mark.parametrize(
        "dist",
        [EntryDistribution.gaussian(), EntryDistribution.rademacher(), EntryDistribution.bernoulli_normal(0.3)],
        ids=lambda d: d.kind,
    )
    @pytest.mark.parametrize("rows, slice_rows", [(12, 4), (11, 4), (7, 100)])
    def test_slices_stack_to_the_block(self, dist, rows, slice_rows):
        # Drawn slice by slice, a block equals one draw_entries call and
        # leaves the generator in that call's state, also when a 32-bit half
        # is buffered on entry; the next draws then agree too.
        gen = SeedSpec(8, 3).generator()
        twin = SeedSpec(8, 3).generator()
        rademacher_bits((3,), gen)
        rademacher_bits((3,), twin)
        whole = draw_entries(dist, (rows, 5), twin)
        slices = _block_slices(dist, (rows, 5), gen, slice_rows)
        parts = [draw_entries(dist, shape, gen, masks) for shape, masks in slices]
        assert [part.shape[0] for part in parts[:-1]] == [slice_rows] * (len(parts) - 1)
        assert_array_equal(np.vstack(parts), whole)
        assert gen.bit_generator.state == twin.bit_generator.state
        assert_array_equal(draw_entries(dist, (3, 5), gen), draw_entries(dist, (3, 5), twin))


class TestRademacherBits:
    @pytest.mark.parametrize("seed", range(20))
    def test_equals_integers_and_leaves_the_same_state(self, seed):
        # Every call equals integers(0, 2) on a twin generator and leaves the
        # same state, through odd and even sizes 0..8 and interleaved draws
        # that use or keep the buffered 32-bit half; afterwards both
        # generators draw alike.
        plan = np.random.default_rng(seed)
        gen = SeedSpec(seed, 0).generator()
        twin = SeedSpec(seed, 0).generator()
        for _ in range(40):
            step = int(plan.integers(0, 4))
            if step == 0:
                assert gen.integers(0, 5) == twin.integers(0, 5)
            elif step == 1:
                assert gen.random() == twin.random()
            else:
                size = int(plan.integers(0, 9))
                bits = rademacher_bits((size,), gen)
                assert bits.dtype == bool
                assert_array_equal(bits, twin.integers(0, 2, size) != 0)
            assert gen.bit_generator.state == twin.bit_generator.state
        assert_array_equal(gen.integers(0, 2, 9), twin.integers(0, 2, 9))
        assert_array_equal(gen.random(3), twin.random(3))

    def test_shape(self):
        bits = rademacher_bits((4, 3), SeedSpec(1, 0).generator())
        assert bits.shape == (4, 3)
        assert_array_equal(bits, SeedSpec(1, 0).generator().integers(0, 2, (4, 3)) != 0)


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

