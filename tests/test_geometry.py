"""
Tests for mean-width estimation and the scaled-cost lower bound.

"""

import math

import numpy as np
import pytest

from randlp.geometry import MeanWidthEstimate, mean_width_mc
from randlp.sampling import CostVectorKind, EntryDistribution, SeedSpec, sample_cost_vector, sample_matrix
from randlp.solver import LPInstance, check_feasible, solve

SQUARE = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
EIGHT_OVER_PI = 2.5464790894703255


class TestMeanWidthMc:
    def test_square_analytic_value(self):
        # W([-1,1]^2) = 2 E(|cos t| + |sin t|) = 8/pi.
        est = mean_width_mc(SQUARE, 2000, SeedSpec(0, 0))
        assert abs(est.estimate - EIGHT_OVER_PI) <= 4.0 * est.standard_error
        assert est.trials == 2000
        assert est.standard_error > 0.0

    def test_halfspace_unbounded(self):
        est = mean_width_mc(np.array([[1.0, 0.0]]), 10, SeedSpec(0, 0))
        assert est.error.endswith(" of 10 is unbounded")
        assert math.isnan(est.estimate) and math.isnan(est.standard_error) and math.isnan(est.normalized)

    def test_trials_floor(self):
        with pytest.raises(ValueError):
            mean_width_mc(SQUARE, 9, SeedSpec(0, 0))

    def test_determinism(self):
        a = mean_width_mc(SQUARE, 50, SeedSpec(3, 1))
        b = mean_width_mc(SQUARE, 50, SeedSpec(3, 1))
        assert a.estimate == b.estimate
        assert a.standard_error == b.standard_error

    def test_normalized_undefined_for_square(self):
        # The m > n normalization factor sqrt(2 log(m/n)) applies to the
        # random ensemble; for hand polytopes with m <= n it would still be
        # defined when m > n. Here m=4 > n=2, so it is just the scaled value.
        est = mean_width_mc(SQUARE, 50, SeedSpec(3, 1))
        assert est.normalized == pytest.approx(math.sqrt(2 * math.log(2.0)) * est.estimate)

    def test_gaussian_ensemble_band(self):
        # 200 directions on a 10000 x 50 Gaussian draw; the normalized width
        # sits in the finite-scale band around the asymptotic value 2.
        A = sample_matrix(EntryDistribution.gaussian(), 10000, 50, SeedSpec(1, 0))
        est = mean_width_mc(A, 200, SeedSpec(1, 2))
        assert 1.4 <= est.normalized <= 2.4


def scaled_cost_bound(A: np.ndarray, c: np.ndarray) -> float:
    """1 / ||A c||_inf: the objective of the feasible point c / ||A c||_inf."""
    return 1.0 / float(np.max(np.abs(A @ c)))


class TestScaledCostBound:
    def test_certified_lower_bound(self):
        # x = c/||Ac||_inf is feasible and never beats the optimum.
        for seed in range(20):
            A = sample_matrix(EntryDistribution.gaussian(), 60, 6, SeedSpec(seed, 0))
            c = sample_cost_vector(CostVectorKind.uniform_sphere(), 6, SeedSpec(seed, 1))
            bound = scaled_cost_bound(A, c)
            assert check_feasible(A, c * bound) <= 1e-12
            out = solve(LPInstance(A=A, c=c))
            if out.status == "optimal":
                assert out.z_star >= bound - 1e-9

    def test_gaussian_concentration(self):
        # ||Ac||_inf is the max of 1e5 |N(0,1)| draws; its Gumbel fluctuation
        # keeps sqrt(2 log m)/||Ac||_inf inside [0.85, 1.2] with large margin
        # per run.
        inband = 0
        scale = math.sqrt(2.0 * math.log(100000))
        for seed in range(100):
            A = sample_matrix(EntryDistribution.gaussian(), 100000, 50, SeedSpec(seed, 0))
            c = sample_cost_vector(CostVectorKind.uniform_sphere(), 50, SeedSpec(seed, 1))
            if 0.85 <= scale * scaled_cost_bound(A, c) <= 1.2:
                inband += 1
        assert inband >= 95
