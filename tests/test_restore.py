"""
Tests for the block-iterative feasibility repair.

"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from randlp import linalg
from randlp import restore as restore_module
from randlp.restore import IterationRecord, RestoreOptions, restore
from randlp.sampling import CostVectorKind, EntryDistribution, SeedSpec, sample_cost_vector, sample_matrix
from randlp.solver import check_feasible
from randlp.stats import asymptotic_bound
from test_linalg import swap_pivoted_cholesky

E1 = np.array([1.0, 0.0])


def gaussian_instance(m, n, master):
    A = sample_matrix(EntryDistribution.gaussian(), m, n, SeedSpec(master, 4))
    c = sample_cost_vector(CostVectorKind.uniform_sphere(), n, SeedSpec(master, 5))
    return A, c


class TestOptions:
    def test_defaults(self):
        opts = RestoreOptions()
        assert opts.eps0 == 0.1 and opts.shrink == 0.1
        assert opts.max_iters == 50 and opts.feas_tol == 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            RestoreOptions(eps0=1.0)
        with pytest.raises(ValueError):
            RestoreOptions(shrink=0.0)
        with pytest.raises(ValueError):
            RestoreOptions(max_iters=0)
        with pytest.raises(ValueError):
            RestoreOptions(feas_tol=-1e-9)
        for feas_tol in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="feas_tol must be finite"):
                RestoreOptions(feas_tol=feas_tol)


class TestInputValidation:
    def test_needs_m_greater_n(self):
        with pytest.raises(ValueError):
            restore(np.eye(2), E1)

    def test_needs_unit_cost(self):
        with pytest.raises(ValueError):
            restore(np.ones((3, 2)), np.array([2.0, 0.0]))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["A", "c"])
    def test_needs_finite_entries(self, where, value):
        A, c = np.ones((3, 2)), E1.copy()
        (A[0] if where == "A" else c)[1] = value
        with pytest.raises(ValueError, match="entries must be finite"):
            restore(A, c)

    def test_fortran_order_input_is_restored_in_c_order(self):
        # Restoring this A in Fortran order would move the last bits of final_x.
        A, c = gaussian_instance(100, 10, 1)
        ours, theirs = restore(np.asfortranarray(A), c), restore(A, c)
        assert ours.final_x.tobytes() == theirs.final_x.tobytes()
        assert (ours.status, ours.iterates) == (theirs.status, theirs.iterates)


class TestHandSweep:
    # The start is ab * e1 with ab = asymptotic_bound(3, 2). Scaling the first
    # column by 0.6 / ab makes each row's value there its value at (0.6, 0)
    # in the unscaled matrix [[2, 1], [0, -1], [-1, 0]].
    AB = asymptotic_bound(3, 2)
    A = np.array([[2.0 * 0.6 / AB, 1.0], [0.0, -1.0], [-0.6 / AB, 0.0]])

    def test_single_block_step(self):
        # At the start only row 0 (value 1.2) is over 1 - 0.1; its correction
        # direction is (0,1), the block solve gives u = -0.3, and the row
        # lands exactly on 0.9.
        assert_allclose(self.A @ (self.AB * E1), [1.2, 0.0, -0.6], atol=1e-12)
        trace = restore(self.A, E1)
        assert trace.converged
        assert trace.iterations == 1
        assert_allclose(trace.final_x, [self.AB, -0.3], atol=1e-12)
        assert_allclose(self.A @ trace.final_x, [0.9, 0.3, -0.6], atol=1e-12)
        rec = trace.iterates[0]
        assert rec.violated == 1
        assert rec.epsilon == 0.1
        assert_allclose(rec.update_norm, 0.3, atol=1e-12)

    def test_objective_unchanged_by_sweep(self):
        trace = restore(self.A, E1)
        assert abs(float(np.dot(E1, trace.final_x - self.AB * E1))) <= 1e-12

    def test_already_feasible(self):
        A = np.array([[-1.0, 0.0], [0.0, -1.0], [-0.5, -0.5]])
        trace = restore(A, E1)
        assert trace.converged
        assert trace.iterations == 0
        assert trace.iterates == []
        assert_array_equal(trace.final_x, asymptotic_bound(3, 2) * E1)


class TestSeededRuns:
    def test_objective_preservation(self):
        for master in range(10):
            A, c = gaussian_instance(400, 30, master)
            trace = restore(A, c)
            assert abs(float(np.dot(c, trace.final_x - asymptotic_bound(400, 30) * c))) <= 1e-10

    def test_convergence_certificate(self):
        for master in range(10):
            A, c = gaussian_instance(400, 30, master)
            trace = restore(A, c)
            if trace.converged:
                assert check_feasible(A, trace.final_x) <= 1e-12

    def test_epsilon_sequence_geometric(self):
        A, c = gaussian_instance(1000, 50, 0)
        trace = restore(A, c)
        assert trace.iterations >= 2
        for j, rec in enumerate(trace.iterates):
            assert_allclose(rec.epsilon, 0.1 * 0.1**j, rtol=1e-12)

    def test_block_repair_exactness(self):
        # Replay the run one truncated sweep at a time: after sweep j, every
        # row collected under eps_{j-1} must sit on 1 - eps_{j-1} up to the
        # solve residual.
        for master in (0, 8, 9):
            A, c = gaussian_instance(1000, 50, master)
            full = restore(A, c)
            assert full.converged and full.iterations >= 2
            row_norms = np.linalg.norm(A, axis=1)
            x_prev = asymptotic_bound(1000, 50) * c
            for j in range(1, full.iterations + 1):
                eps = 0.1 * 0.1 ** (j - 1)
                block = np.nonzero(A @ x_prev > 1.0 - eps)[0]
                assert block.size > 0
                truncated = restore(A, c, RestoreOptions(max_iters=j))
                x_j = truncated.final_x
                err = np.abs(A[block] @ x_j - (1.0 - eps))
                assert float(np.max(err / (1.0 + row_norms[block]))) <= 1e-7
                x_prev = x_j

    def test_initial_scaling(self, monkeypatch):
        # The first sweep's right-hand side is 1 - eps0 - A x0 on the rows
        # over 1 - eps0, so it pins the start x0 = (2 log(m/n))^{-1/2} c.
        A, c = gaussian_instance(1000, 50, 1)
        scale = (2.0 * math.log(1000 / 50)) ** -0.5
        assert_allclose(asymptotic_bound(1000, 50), scale, rtol=0.0, atol=1e-15)
        rhs = []

        def spy(M, b):
            rhs.append(b.copy())
            return linalg.gram_solve(M, b)

        monkeypatch.setattr(restore_module, "gram_solve", spy)
        trace = restore(A, c)
        assert trace.iterations >= 1 and len(rhs) == trace.iterations
        values = A @ (asymptotic_bound(1000, 50) * c)
        assert rhs[0].tobytes() == (1.0 - 0.1 - values[values > 1.0 - 0.1]).tobytes()


class TestNonConvergence:
    def test_near_parallel_row_ping_pongs(self):
        # Row 0 is almost parallel to c, so its correction direction is tiny;
        # repairing it throws row 1 far out, repairing row 1 re-exposes row 0,
        # and the loop exhausts max_iters. The trace reports the finding.
        A = np.array([[2.0, 1e-6], [0.0, -1.0], [-1.0, 0.0]])
        trace = restore(A, E1)
        assert not trace.converged
        assert trace.iterations == 50
        assert len(trace.iterates) == 50

    def test_slow_random_instance(self):
        # One member of the calibration family sits in the slow mode.
        A, c = gaussian_instance(1000, 50, 2)
        trace = restore(A, c)
        assert not trace.converged
        assert trace.iterations == 50
        # The objective is still preserved on the partial result.
        assert abs(float(np.dot(c, trace.final_x - asymptotic_bound(1000, 50) * c))) <= 1e-10


class TestGramFactorIdentity:
    # Whether a zig-zag run converges depends on the last bits of every Gram
    # solve, so restoration must not see which factor algorithm ran.
    @pytest.mark.parametrize(
        "shape, master, converged",
        [((1000, 50), 2, False), ((2000, 100), 0, True)],
        ids=["slow_1000x50", "converged_2000x100"],
    )
    def test_trace_matches_swapping_factor(self, shape, master, converged, monkeypatch):
        A, c = gaussian_instance(*shape, master)
        shipped = restore(A, c)
        monkeypatch.setattr(linalg, "_pivoted_cholesky", swap_pivoted_cholesky)
        reference = restore(A, c)
        assert shipped.converged == converged
        assert shipped.status == reference.status
        assert shipped.final_x.tobytes() == reference.final_x.tobytes()
        assert shipped.iterates == reference.iterates


class TestDegenerateBlock:
    def test_parallel_row_returns_partial_trace(self):
        # Sweep 1 repairs row (1,1) after pruning the direction of row (2,0)
        # (parallel to c, zero correction); sweep 2's block is that parallel
        # row alone, so pruning empties it and the run stops with the trace.
        A = np.array([[2.0, 0.0], [1.0, 1.0], [-1.0, 0.0]])
        trace = restore(A, E1)
        assert trace.status == "degenerate_block"
        assert trace.message == "sweep 1: 1 rows, block singular after pruning"
        assert not trace.converged
        assert trace.iterations == 1
        assert trace.iterates[0].violated == 2

    def test_tiny_direction_pruned_by_norm(self, monkeypatch):
        # Row (2, 1e-12) is almost parallel to c: its correction direction
        # has norm 1e-12, under linalg.TINY_COLUMN_NORM. Sweep 1's block pairs
        # it with row (1, 1), so gram_solve finds it singular and
        # pruned_gram_solve drops the tiny column and solves the other one.
        # Sweep 2 repairs the tiny row alone, with a huge step along it.
        solved = []

        def spy(M, b):
            u, kept = linalg.pruned_gram_solve(M, b)
            solved.append((M.shape, u.copy(), kept.tolist()))
            return u, kept

        monkeypatch.setattr(restore_module, "pruned_gram_solve", spy)
        A = np.array([[2.0, 1e-12], [1.0, 1.0], [-1.0, 0.0]])
        trace = restore(A, E1)
        assert trace.status == "converged" and trace.message == ""
        assert [(shape, kept) for shape, _, kept in solved] == [((2, 2), [1])]
        assert solved[0][1][0] == 0.0
        assert trace.iterates == [
            IterationRecord(violated=2, epsilon=0.1, update_norm=0.21047365173074495),
            IterationRecord(violated=1, epsilon=0.1 * 0.1, update_norm=1230947303461.2795),
        ]
        assert trace.final_x.tobytes().hex() == "490d140580c4f13fd75702d4a2e971c2"
        assert check_feasible(A, trace.final_x) <= 1e-12


class TestObjectiveOf:
    def test_frozen_grid_values(self):
        # Converged runs land on (2 log(m/n))^{-1/2} to solver precision.
        cases = [(1000, 50, 3, "0.408539"), (2000, 50, 3, "0.368161"), (100000, 100, 7, "0.269040")]
        for m, n, master, expected in cases:
            A, c = gaussian_instance(m, n, master)
            trace = restore(A, c)
            assert trace.converged
            z = float(c @ trace.final_x)
            assert f"{z:.6f}" == expected
            assert abs(z - (2.0 * math.log(m / n)) ** -0.5) <= 1e-10


class TestCalibration:
    def test_iteration_count_family(self):
        # 100 seeded Gaussian 1000x50 runs: at least 95 finish within three
        # sweeps with an initial block of reasonable size. A few slow-mode
        # draws are expected and tolerated.
        good = 0
        for master in range(100):
            A, c = gaussian_instance(1000, 50, master)
            trace = restore(A, c)
            i0 = trace.iterates[0].violated if trace.iterates else 0
            if trace.converged and trace.iterations <= 3 and 1 <= i0 <= 60:
                good += 1
        assert good >= 95
