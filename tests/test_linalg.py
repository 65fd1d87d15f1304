"""
Tests for the pivoted Gram solver.

"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from randlp import linalg
from randlp.linalg import (
    GRAM_PIVOT_REL,
    GRAM_RESIDUAL_REL,
    TINY_COLUMN_NORM,
    SingularGram,
    gram_solve,
    pruned_gram_solve,
)


def swap_pivoted_cholesky(G):
    """Reference factor: right-looking diagonally pivoted Cholesky that swaps
    rows and columns of the working matrix at every pivot. It returns the
    leading rank-by-rank block of its working matrix as L, the factor
    contract of randlp.linalg._pivoted_cholesky."""
    G = np.array(G, dtype=float)
    k = G.shape[0]
    perm = np.arange(k)
    floor = GRAM_PIVOT_REL * max(float(np.max(np.diag(G))), 0.0) if k else 0.0
    rank = k
    for j in range(k):
        diag = np.diag(G)[j:]
        p = j + int(np.argmax(diag))
        if G[p, p] <= floor:
            rank = j
            break
        if p != j:
            G[[j, p], :] = G[[p, j], :]
            G[:, [j, p]] = G[:, [p, j]]
            perm[[j, p]] = perm[[p, j]]
        G[j, j] = np.sqrt(G[j, j])
        if j + 1 < k:
            G[j + 1 :, j] /= G[j, j]
            G[j + 1 :, j + 1 :] -= np.outer(G[j + 1 :, j], G[j + 1 :, j])
        G[j, j + 1 :] = 0.0
    return G[:rank, :rank], perm, rank


def _block(kind, gen):
    """One seeded n-by-k block M of the given kind; its Gram matrix is M^T M."""
    k = 1 if kind == "k1" else int(gen.integers(2, 13))
    n = int(gen.integers(1, 2 * k + 2))
    if kind == "integer":
        # Small integer entries make exactly equal diagonals, so ties decide pivots.
        return gen.integers(-2, 3, size=(n, k)).astype(float)
    if kind == "rank_one":
        return np.outer(gen.standard_normal(n), gen.standard_normal(k))
    M = gen.standard_normal((n, k))
    if kind == "duplicated":
        src = gen.integers(0, k, size=k // 2 + 1)
        dst = gen.integers(0, k, size=src.size)
        M[:, dst] = M[:, src] * gen.choice([-1.0, 1.0, 2.0], size=src.size)
    elif kind == "zero_columns":
        M[:, gen.integers(0, k, size=k // 3 + 1)] = 0.0
    return M


BLOCK_KINDS = ["gaussian", "duplicated", "zero_columns", "integer", "rank_one", "k1"]
BLOCKS_PER_KIND = 350


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
        # Columns with norms 1 and 1e-5 stay solvable: the pivot floor is
        # relative. The Gram matrix is diagonal, so one solve meets the
        # residual contract without refinement.
        M = np.array([[1.0, 0.0], [0.0, 1e-5]])
        b = np.array([0.5, -2e-10])
        u = gram_solve(M, b)
        assert np.linalg.norm(b - M.T @ (M @ u)) <= GRAM_RESIDUAL_REL * (1.0 + np.linalg.norm(b))

    @staticmethod
    def count_solves(monkeypatch):
        solves = []
        solve = linalg._solve_cholesky

        def spy(L, perm, b):
            solves.append(b.copy())
            return solve(L, perm, b)

        monkeypatch.setattr(linalg, "_solve_cholesky", spy)
        return solves

    def test_refinement_restores_residual_contract(self, monkeypatch):
        # Two near-parallel columns scaled by 1000: the first solve misses the
        # contract, and one refinement step on its residual meets it.
        M = 1000.0 * np.array([[1.0, 1.0], [0.0, 1e-4]])
        b = np.array([1.0, 0.0])
        bound = GRAM_RESIDUAL_REL * (1.0 + np.linalg.norm(b))
        solves = self.count_solves(monkeypatch)
        u = gram_solve(M, b)
        assert len(solves) == 2
        assert np.linalg.norm(solves[1]) > bound
        assert np.linalg.norm(b - (M.T @ M) @ u) <= bound

    def test_unattainable_residual_contract_raises(self, monkeypatch):
        # Closer columns pass the pivot floor, but even the refined solve
        # misses the contract, so the block is reported as singular.
        M = 1000.0 * np.array([[1.0, 1.0], [0.0, 3e-5]])
        solves = self.count_solves(monkeypatch)
        with pytest.raises(SingularGram, match="residual contract unattainable"):
            gram_solve(M, np.array([1.0, 0.0]))
        assert len(solves) == 2


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

    def test_tiny_column_dropped_by_norm(self):
        # Column 1 has norm 1e-12 < TINY_COLUMN_NORM. Against column 0's
        # diagonal of 1e-18 its own of 1e-24 is far above the relative pivot
        # floor, so only the norm rule drops it.
        M = np.array([[1e-9, 0.0], [0.0, 1e-12]])
        assert np.linalg.norm(M[:, 1]) < TINY_COLUMN_NORM <= np.linalg.norm(M[:, 0])
        assert (M[1, 1] / M[0, 0]) ** 2 > GRAM_PIVOT_REL
        u, kept = pruned_gram_solve(M, np.array([1e-18, 5.0]))
        assert kept.tolist() == [0]
        assert u[1] == 0.0
        assert_allclose(u[0], 1.0, rtol=1e-12)

    def test_all_tiny_raises(self):
        with pytest.raises(SingularGram):
            pruned_gram_solve(np.zeros((2, 2)), np.ones(2))

    def test_empty_raises(self):
        with pytest.raises(SingularGram):
            pruned_gram_solve(np.zeros((2, 0)), np.zeros(0))


class TestFactorBitwise:
    """The shipped factor never swaps rows or columns; these tests pin it bit
    for bit (signs of zero included) to the swapping reference above."""

    @pytest.mark.parametrize("kind", BLOCK_KINDS)
    def test_matches_swapping_reference(self, kind):
        gen = np.random.default_rng(BLOCK_KINDS.index(kind))
        for _ in range(BLOCKS_PER_KIND):
            M = _block(kind, gen)
            G = M.T @ M
            ref_L, ref_perm, ref_rank = swap_pivoted_cholesky(G)
            L, perm, rank = linalg._pivoted_cholesky(G)
            assert rank == ref_rank
            assert perm.tolist() == ref_perm.tolist()
            assert L.shape == (rank, rank)
            assert L.tobytes() == ref_L.tobytes()

    @pytest.mark.parametrize("kind", BLOCK_KINDS)
    def test_solves_match_swapping_reference(self, kind, monkeypatch):
        gen = np.random.default_rng(100 + BLOCK_KINDS.index(kind))
        cases = []
        for _ in range(BLOCKS_PER_KIND // 5):
            M = _block(kind, gen)
            cases.append((M, gen.standard_normal(M.shape[1])))

        def outcomes():
            out = []
            for M, b in cases:
                for fn in (gram_solve, pruned_gram_solve):
                    try:
                        result = fn(M, b)
                    except SingularGram as exc:
                        out.append(("raised", str(exc)))
                        continue
                    parts = result if isinstance(result, tuple) else (result,)
                    out.append(tuple(np.asarray(part).tobytes() for part in parts))
            return out

        shipped = outcomes()
        monkeypatch.setattr(linalg, "_pivoted_cholesky", swap_pivoted_cholesky)
        assert outcomes() == shipped
