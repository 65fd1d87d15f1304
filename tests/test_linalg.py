"""
Tests for the pivoted Gram solver.

"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from randlp.linalg import (
    GRAM_RESIDUAL_REL,
    SingularGram,
    gram_solve,
    pruned_gram_solve,
)


class TestGramSolve:
    def test_hand_2x2(self):
        # M columns (1,0) and (1,1): M^T M = [[1,1],[1,2]].
        M = np.array([[1.0, 1.0], [0.0, 1.0]])
        b = np.array([1.0, 3.0])
        u = gram_solve(M, b)
        assert_allclose(M.T @ (M @ u), b, atol=1e-12)
        assert_allclose(u, [-1.0, 2.0], atol=1e-12)

    def test_residual_contract_seeded(self):
        gen = np.random.default_rng(3)
        for _ in range(100):
            n = int(gen.integers(2, 12))
            k = int(gen.integers(1, n + 1))
            M = gen.standard_normal((n, k))
            b = gen.standard_normal(k)
            u = gram_solve(M, b)
            resid = np.linalg.norm(b - M.T @ (M @ u))
            assert resid <= GRAM_RESIDUAL_REL * (1.0 + np.linalg.norm(b))

    def test_parallel_columns_raise(self):
        M = np.array([[1.0, 2.0], [1.0, 2.0]])
        with pytest.raises(SingularGram):
            gram_solve(M, np.array([1.0, 1.0]))

    def test_zero_column_raises(self):
        M = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(SingularGram):
            gram_solve(M, np.array([1.0, 1.0]))

    def test_empty_block(self):
        u = gram_solve(np.zeros((3, 0)), np.zeros(0))
        assert u.shape == (0,)

    def test_mismatch(self):
        with pytest.raises(ValueError):
            gram_solve(np.eye(2), np.ones(3))

    def test_ill_scaled_block(self):
        # Columns with norms 1 and 1e-5 stay solvable; the pivot floor is
        # relative, and refinement keeps the residual contract.
        M = np.array([[1.0, 0.0], [0.0, 1e-5]])
        b = np.array([0.5, -2e-10])
        u = gram_solve(M, b)
        assert np.linalg.norm(b - M.T @ (M @ u)) <= GRAM_RESIDUAL_REL * (1.0 + np.linalg.norm(b))


class TestPrunedGramSolve:
    def test_drops_dependent_column(self):
        # Third column repeats the first; exactly one of the pair survives.
        M = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        b = np.array([1.0, 2.0, 1.0])
        u, kept = pruned_gram_solve(M, b)
        assert len(kept) == 2
        assert u.shape == (3,)
        dropped = set(range(3)) - set(int(i) for i in kept)
        assert all(u[i] == 0.0 for i in dropped)
        # Kept equations are satisfied.
        r = M.T @ (M @ u) - b
        assert max(abs(r[int(i)]) for i in kept) <= 1e-9

    def test_full_rank_matches_gram_solve(self):
        gen = np.random.default_rng(9)
        M = gen.standard_normal((6, 3))
        b = gen.standard_normal(3)
        u, kept = pruned_gram_solve(M, b)
        assert_allclose(kept, [0, 1, 2])
        assert_allclose(u, gram_solve(M, b), atol=1e-9)

    def test_all_tiny_raises(self):
        with pytest.raises(SingularGram):
            pruned_gram_solve(np.zeros((2, 2)), np.ones(2))

    def test_empty_raises(self):
        with pytest.raises(SingularGram):
            pruned_gram_solve(np.zeros((2, 0)), np.zeros(0))
