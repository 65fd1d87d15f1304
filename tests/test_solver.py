"""
Tests for the two-phase simplex and its brute-force cross-check.

"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from randlp import solver
from randlp.oracle import brute_force_oracle
from randlp.sampling import CostVectorKind, EntryDistribution, SeedSpec, sample_cost_vector, sample_matrix
from randlp.solver import LPInstance, check_feasible, duality_gap, solve

SQRT2 = math.sqrt(2.0)

ENTRY_LAWS = (EntryDistribution.gaussian(), EntryDistribution.rademacher(), EntryDistribution.bernoulli_normal())
COST_KINDS = (CostVectorKind.rescaled_rademacher(), CostVectorKind.uniform_sphere(), CostVectorKind.k_spike(1))
HIGHS_COST_KINDS = (CostVectorKind.rescaled_rademacher(), CostVectorKind.uniform_sphere(), CostVectorKind.k_spike(3))


def certify_optimal(inst: LPInstance, out) -> None:
    assert out.status == "optimal"
    assert check_feasible(inst.A, out.x_star) <= 1e-9
    assert float(np.max(np.abs(inst.A.T @ out.y_star - inst.c))) <= 1e-7
    assert float(np.min(out.y_star)) >= -1e-12
    assert abs(duality_gap(inst, out.x_star, out.y_star)) <= 1e-7


def sample_instance(dist, m, n, seed, cost=CostVectorKind.rescaled_rademacher()) -> LPInstance:
    A = sample_matrix(dist, m, n, SeedSpec(seed, 0))
    c = sample_cost_vector(cost, n, SeedSpec(seed, 1))
    return LPInstance(A=A, c=c)


def solve_full_pricing(monkeypatch, inst: LPInstance):
    """Solve with a working set too large to form: every pivot prices all m rows."""
    with monkeypatch.context() as patch:
        patch.setattr(solver, "WORKING_SET", inst.m)
        return solve(inst)


def certify_unbounded(inst: LPInstance, out) -> None:
    assert out.status == "unbounded"
    assert float(np.max(inst.A @ out.ray)) <= 1e-9
    assert float(np.dot(inst.c, out.ray)) >= 1.0 - 1e-9


def reflected(inst: LPInstance) -> LPInstance:
    """Reflect every row with <a_i, c> > 0. That leaves c outside the cone of
    the rows, so the program is unbounded along c."""
    A = inst.A * np.where(inst.A @ inst.c > 0.0, -1.0, 1.0)[:, None]
    return LPInstance(A=A, c=inst.c)


class TestInstanceValidation:
    def test_unit_cost_required(self):
        with pytest.raises(ValueError):
            LPInstance(A=np.eye(2), c=np.array([1.0, 1.0]))

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            LPInstance(A=np.ones(3), c=np.array([1.0]))
        with pytest.raises(ValueError):
            LPInstance(A=np.eye(2), c=np.array([1.0, 0.0, 0.0]))

    def test_finite_entries(self):
        for value in (np.nan, np.inf, -np.inf):
            for where in ("A", "c"):
                A = np.eye(2)
                c = np.array([1.0, 0.0])
                (A[0] if where == "A" else c)[1] = value
                with pytest.raises(ValueError, match="finite"):
                    LPInstance(A=A, c=c)


class TestCheckFeasible:
    def test_interior_point(self):
        assert check_feasible(np.eye(2), np.zeros(2)) == -1.0

    def test_violated(self):
        assert_allclose(check_feasible(np.array([[2.0, 1.0]]), np.array([0.6, 0.0])), 0.2)

    def test_active(self):
        assert check_feasible(np.eye(2), np.ones(2)) == 0.0


class TestDualityGap:
    def test_hand_pair(self):
        inst = LPInstance(A=np.eye(2), c=np.array([1.0, 0.0]))
        assert duality_gap(inst, np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 0.0

    def test_weak_duality_at_zero(self):
        inst = LPInstance(A=np.eye(2), c=np.array([1.0, 0.0]))
        y = np.array([1.0, 0.0])
        assert duality_gap(inst, np.zeros(2), y) == 1.0

    def test_negative_y_rejected(self):
        inst = LPInstance(A=np.eye(2), c=np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            duality_gap(inst, np.zeros(2), np.array([-1e-6, 0.0]))


class TestHandInstances:
    def test_triangle(self):
        inst = LPInstance(
            A=np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]),
            c=np.array([1.0, 0.0]),
        )
        out = solve(inst)
        certify_optimal(inst, out)
        assert_allclose(out.z_star, 1.0, atol=1e-9)

    def test_box_corner(self):
        inst = LPInstance(A=np.eye(2), c=np.array([1.0, 1.0]) / SQRT2)
        out = solve(inst)
        certify_optimal(inst, out)
        assert_allclose(out.z_star, SQRT2, atol=1e-9)
        assert_allclose(out.x_star, [1.0, 1.0], atol=1e-9)

    def test_single_row_unbounded(self):
        inst = LPInstance(A=np.array([[1.0, 0.0]]), c=np.array([0.0, 1.0]))
        certify_unbounded(inst, solve(inst))

    def test_degenerate_duplicate_rows(self):
        A = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
        inst = LPInstance(A=A, c=np.array([1.0, 0.0]))
        out = solve(inst)
        certify_optimal(inst, out)
        assert_allclose(out.z_star, 1.0, atol=1e-9)

    def test_determinism(self):
        A = sample_matrix(EntryDistribution.gaussian(), 40, 5, SeedSpec(21, 0))
        c = sample_cost_vector(CostVectorKind.uniform_sphere(), 5, SeedSpec(21, 1))
        inst = LPInstance(A=A, c=c)
        a = solve(inst)
        b = solve(inst)
        assert a.z_star == b.z_star
        assert a.pivots == b.pivots

    def test_scale_covariance(self):
        gen_seeds = range(10)
        for s in gen_seeds:
            A = sample_matrix(EntryDistribution.gaussian(), 12, 3, SeedSpec(s, 0))
            c = sample_cost_vector(CostVectorKind.uniform_sphere(), 3, SeedSpec(s, 1))
            base = solve(LPInstance(A=A, c=c))
            if base.status != "optimal":
                continue
            beta = 2.5
            scaled = solve(LPInstance(A=beta * A, c=c))
            assert scaled.status == "optimal"
            assert abs(scaled.z_star - base.z_star / beta) <= 1e-9 * max(1.0, abs(base.z_star))


class TestOracle:
    def test_triangle(self):
        status, z, x = brute_force_oracle(
            np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]), np.array([1.0, 0.0])
        )
        assert status == "optimal"
        assert_allclose(z, 1.0, atol=1e-10)

    def test_halfspace_unbounded(self):
        status, z, ray = brute_force_oracle(np.array([[1.0, 0.0]]), np.array([0.0, 1.0]))
        assert status == "unbounded"
        assert float(np.dot(ray, np.array([0.0, 1.0]))) > 0.0

    def test_identity(self):
        status, z, x = brute_force_oracle(np.eye(2), np.array([1.0, 0.0]))
        assert status == "optimal"
        assert_allclose(z, 1.0, atol=1e-10)

    def test_parallel_rows_bounded_without_vertex(self):
        # Both rows constrain only x1; the polyhedron is a slab with no
        # vertex, yet the objective along c = e1 is bounded.
        A = np.array([[1.0, 0.0], [2.0, 0.0], [-1.0, 0.0]])
        status, z, x = brute_force_oracle(A, np.array([1.0, 0.0]))
        assert status == "optimal"
        assert_allclose(z, 0.5, atol=1e-10)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            brute_force_oracle(np.ones((13, 2)), np.array([1.0, 0.0]))


class TestOracleAgreement:
    def test_seeded_sweep(self):
        # Module-level cross-check; the acceptance suite runs the full 500.
        rng_plan = [
            (EntryDistribution.gaussian(), 0),
            (EntryDistribution.rademacher(), 1000),
        ]
        mismatches = []
        optimal = 0
        unbounded = 0
        for dist, base in rng_plan:
            for i in range(75):
                m = 3 + i % 6
                n = 2 + i % 2
                A = sample_matrix(dist, m, n, SeedSpec(base + i, 0))
                c = sample_cost_vector(CostVectorKind.rescaled_rademacher(), n, SeedSpec(base + i, 1))
                inst = LPInstance(A=A, c=c)
                out = solve(inst)
                status, z, _ = brute_force_oracle(A, c)
                if out.status != status:
                    mismatches.append((dist.kind, base + i, out.status, status))
                    continue
                if status == "optimal":
                    optimal += 1
                    if abs(out.z_star - z) > 1e-8:
                        mismatches.append((dist.kind, base + i, out.z_star, z))
                else:
                    unbounded += 1
        assert not mismatches, mismatches
        assert optimal > 0 and unbounded > 0


class TestCertificates:
    def test_midsize_instances(self):
        plans = [
            (EntryDistribution.gaussian(), 200, 20),
            (EntryDistribution.rademacher(), 500, 30),
            (EntryDistribution.bernoulli_normal(), 300, 25),
        ]
        for seed, (dist, m, n) in enumerate(plans):
            A = sample_matrix(dist, m, n, SeedSpec(seed, 0))
            c = sample_cost_vector(CostVectorKind.uniform_sphere(), n, SeedSpec(seed, 1))
            inst = LPInstance(A=A, c=c)
            out = solve(inst)
            certify_optimal(inst, out)

    def test_never_infeasible(self):
        # x = 0 always satisfies Ax <= 1, so no instance is infeasible.
        for seed in range(30):
            n = 2 + seed % 2
            A = sample_matrix(EntryDistribution.rademacher(), 3 + seed % 5, n, SeedSpec(seed, 3))
            c = sample_cost_vector(CostVectorKind.uniform_sphere(), n, SeedSpec(seed, 4))
            out = solve(LPInstance(A=A, c=c))
            assert out.status in ("optimal", "unbounded")


class TestWorkingSetPricing:
    @pytest.mark.parametrize("m, n", [(3000, 20), (2000, 40)])
    def test_agrees_with_full_pricing(self, monkeypatch, m, n):
        for seed, (dist, cost) in enumerate((d, k) for d in ENTRY_LAWS for k in COST_KINDS):
            inst = sample_instance(dist, m, n, seed, cost)
            full = solve_full_pricing(monkeypatch, inst)
            out = solve(inst)
            certify_optimal(inst, full)
            certify_optimal(inst, out)
            assert abs(out.z_star - full.z_star) <= 1e-12, (dist.kind, cost.kind, seed)

    def test_tall_unbounded_ray(self, monkeypatch):
        inst = reflected(sample_instance(EntryDistribution.gaussian(), 3000, 20, 7))
        certify_unbounded(inst, solve_full_pricing(monkeypatch, inst))
        certify_unbounded(inst, solve(inst))

    def test_tall_unbounded_ray_after_working_set_pivots(self, monkeypatch):
        # With a rescaled-rademacher cost, phase 1's starting multipliers
        # sign(c) are parallel to c and a reflected instance certifies its ray
        # after 0 pivots. A uniform-sphere cost is not, so this one pivots, over
        # the working set, before it finds the ray.
        inst = reflected(sample_instance(EntryDistribution.gaussian(), 3000, 20, 0, CostVectorKind.uniform_sphere()))
        certify_unbounded(inst, solve_full_pricing(monkeypatch, inst))
        priced = []
        price = solver._price

        def spy(rows, pi, phase):
            priced.append(rows.shape[0])
            return price(rows, pi, phase)

        monkeypatch.setattr(solver, "_price", spy)
        out = solve(inst)
        certify_unbounded(inst, out)
        assert out.pivots > 0
        assert min(priced) < inst.m

    def test_bland_rule_under_working_set(self, monkeypatch):
        # A zero budget engages Bland's rule at the first degenerate pivot.
        # Phase 1's perturbation breaks the rademacher sign ties only at its
        # own scale, PERTURB, so the steps between tied basic values stay
        # below the 1e-12 that counts a pivot as degenerate.
        engaged = []
        run_phase = solver._run_phase

        def spy(basis, phase):
            run_phase(basis, phase)
            engaged.append(basis.bland)

        for seed in range(3):
            inst = sample_instance(EntryDistribution.rademacher(), 4000, 20, seed)
            reference = solve(inst)
            with monkeypatch.context() as patch:
                patch.setattr(solver, "DEGENERATE_BUDGET", 0)
                patch.setattr(solver, "_run_phase", spy)
                out = solve(inst)
            certify_optimal(inst, reference)
            certify_optimal(inst, out)
            assert abs(out.z_star - reference.z_star) <= 1e-12
            assert engaged[-1]


class TestHighsAgreement:
    """Differential check against HiGHS at the sizes the campaigns solve."""

    @staticmethod
    def highs(inst: LPInstance):
        linprog = pytest.importorskip("scipy.optimize").linprog
        return linprog(-inst.c, A_ub=inst.A, b_ub=np.ones(inst.m), bounds=(None, None), method="highs")

    @pytest.mark.parametrize(
        "dist, m, n, cost",
        [
            (EntryDistribution.rademacher(), 20000, 50, CostVectorKind.rescaled_rademacher()),
            (EntryDistribution.rademacher(), 6000, 150, CostVectorKind.rescaled_rademacher()),
            (EntryDistribution.gaussian(), 1000, 50, CostVectorKind.rescaled_rademacher()),
            (EntryDistribution.bernoulli_normal(), 5000, 30, CostVectorKind.rescaled_rademacher()),
            # Spike costs at the sizes where phase 1 stalled on their zero
            # entries before its right-hand side was perturbed.
            (EntryDistribution.gaussian(), 6000, 150, CostVectorKind.k_spike(1)),
            (EntryDistribution.rademacher(), 20000, 50, CostVectorKind.k_spike(3)),
        ]
        + [(dist, 2000, 40, cost) for dist in ENTRY_LAWS for cost in HIGHS_COST_KINDS],
        ids=[
            "rademacher-20000x50",
            "rademacher-6000x150",
            "gaussian-1000x50",
            "bernoulli_normal-5000x30",
            "gaussian-k_spike-6000x150",
            "rademacher-k_spike-20000x50",
        ]
        + [f"{dist.kind}-{cost.kind}-2000x40" for dist in ENTRY_LAWS for cost in HIGHS_COST_KINDS],
    )
    def test_z_star_matches_highs(self, dist, m, n, cost):
        inst = sample_instance(dist, m, n, 0, cost)
        ref = self.highs(inst)
        out = solve(inst)
        assert ref.status == 0, ref.message
        certify_optimal(inst, out)
        assert abs(out.z_star + ref.fun) <= 1e-9

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_unbounded_matches_highs(self, seed):
        inst = reflected(sample_instance(EntryDistribution.gaussian(), 3000, 20, seed, CostVectorKind.uniform_sphere()))
        ref = self.highs(inst)
        out = solve(inst)
        assert ref.status == 3, ref.message
        certify_unbounded(inst, out)
        assert out.pivots > 0


class TestPerturbedPhaseOne:
    """Phase 1 runs on c + PERTURB * s * u, which breaks the ties of sign
    and spike costs and leaves other instances on their unperturbed path."""

    def test_spike_cost_needs_no_degenerate_walk(self):
        # A 1-spike cost leaves n - 1 basic values at exactly 0 in an
        # unperturbed phase 1, which then took 6389 pivots here.
        inst = sample_instance(EntryDistribution.gaussian(), 2000, 100, 0, CostVectorKind.k_spike(1))
        out = solve(inst)
        certify_optimal(inst, out)
        assert out.pivots < 2000

    @pytest.mark.parametrize(
        "dist, m, n",
        [(EntryDistribution.gaussian(), 1000, 50), (EntryDistribution.bernoulli_normal(), 5000, 30)],
        ids=["gaussian-1000x50", "bernoulli_normal-5000x30"],
    )
    @pytest.mark.parametrize("cost", [CostVectorKind.rescaled_rademacher(), CostVectorKind.uniform_sphere()], ids=lambda k: k.kind)
    def test_continuous_laws_keep_their_path(self, monkeypatch, dist, m, n, cost):
        inst = sample_instance(dist, m, n, 0, cost)
        out = solve(inst)
        with monkeypatch.context() as patch:
            patch.setattr(solver, "PERTURB", 0.0)
            plain = solve(inst)
        certify_optimal(inst, out)
        assert out.pivots == plain.pivots
        assert out.z_star == plain.z_star
        assert out.x_star.tobytes() == plain.x_star.tobytes()
        assert out.y_star.tobytes() == plain.y_star.tobytes()

    def test_pivot_path_independent_of_blas_threads(self):
        # Without the perturbation the sign ties fell the way Binv @ col and
        # A @ pi happened to round, which depends on the BLAS thread count.
        code = (
            "from randlp.sampling import CostVectorKind, EntryDistribution, SeedSpec, sample_cost_vector, sample_matrix\n"
            "from randlp.solver import LPInstance, solve\n"
            "A = sample_matrix(EntryDistribution.rademacher(), 6000, 150, SeedSpec(0, 0))\n"
            "c = sample_cost_vector(CostVectorKind.rescaled_rademacher(), 150, SeedSpec(0, 1))\n"
            "out = solve(LPInstance(A, c))\n"
            "print(out.status, out.pivots)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        printed = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            printed.append(proc.stdout.split())
        assert printed[0][0] == "optimal"
        assert printed[0] == printed[1]


class TestPivotUpdates:
    """The per-pivot updates: incremental multipliers, the carried working set
    and the rationed residual check."""

    @staticmethod
    def spy_pricing(monkeypatch):
        """Record, for each pricing call, its phase, whether it priced all m
        rows, the rows priced and how far pi is from B^-T c_B, relative to
        max(1, ||B^-T c_B||_inf)."""
        calls = []
        current = {}
        run_phase, price, multipliers = solver._run_phase, solver._price, solver._multipliers

        def phase_spy(basis, phase):
            current["basis"] = basis
            entry_set = None if basis.in_set is None else basis.in_set.copy()
            run_phase(basis, phase)
            exit_set = None if basis.in_set is None else basis.in_set.copy()
            current.setdefault("sets", []).append((phase, entry_set, exit_set))

        def price_spy(rows, pi, phase):
            basis = current["basis"]
            fresh = multipliers(basis, phase)
            calls.append(
                {
                    "phase": phase,
                    "full": rows is basis.A,
                    "rows": rows,
                    "exact": bool(np.array_equal(pi, fresh)),
                    "drift": float(np.abs(pi - fresh).max()) / max(1.0, float(np.abs(fresh).max())),
                }
            )
            return price(rows, pi, phase)

        monkeypatch.setattr(solver, "_run_phase", phase_spy)
        monkeypatch.setattr(solver, "_price", price_spy)
        return calls, current

    def test_full_passes_price_fresh_multipliers(self, monkeypatch):
        inst = sample_instance(EntryDistribution.rademacher(), 6000, 150, 0)
        reference = solve(inst)
        calls, _ = self.spy_pricing(monkeypatch)
        out = solve(inst)
        certify_optimal(inst, out)
        assert out.pivots == reference.pivots and out.z_star == reference.z_star
        full = [call for call in calls if call["full"]]
        incremental = [call for call in calls if not call["full"]]
        assert full and incremental
        # Optimality and the entering column of every full pass are decided on
        # multipliers computed from B^-1, bit for bit.
        assert all(call["exact"] for call in full)
        # Between full passes the rank-1 updates track B^-T c_B to 1e-9, scaled
        # by the multipliers where they exceed 1: in degenerate bases they
        # reach 1e5, where B^-T c_B itself is only resolved to about 1e-10.
        assert max(call["drift"] for call in incremental) <= 1e-9

    @pytest.mark.parametrize("m, n", [(3000, 20), (6000, 150)])
    def test_phase_two_starts_with_phase_one_set(self, monkeypatch, m, n):
        inst = sample_instance(EntryDistribution.rademacher(), m, n, 1)
        calls, current = self.spy_pricing(monkeypatch)
        certify_optimal(inst, solve(inst))
        (phase1, _, carried), (phase2, entry, _) = current["sets"]
        assert (phase1, phase2) == (1, 2)
        assert carried.any() and np.array_equal(entry, carried)
        first = next(call for call in calls if call["phase"] == 2)
        assert not first["full"]
        assert np.array_equal(first["rows"], inst.A[carried])

    @pytest.mark.parametrize("m, n", [(40, 5), (2000, 40), (6000, 150)])
    def test_residual_checked_every_pivot(self, monkeypatch, m, n):
        for seed, dist in enumerate(ENTRY_LAWS):
            inst = sample_instance(dist, m, n, seed)
            out = solve(inst)
            with monkeypatch.context() as patch:
                patch.setattr(solver, "RESIDUAL_CHECK", 1)
                every = solve(inst)
            assert every.status == out.status, (dist.kind, seed)
            if out.status == "optimal":
                certify_optimal(inst, every)
                assert abs(every.z_star - out.z_star) <= 1e-12, (dist.kind, seed)

    @pytest.mark.parametrize("m, n", [(40, 5), (2000, 40), (6000, 150)])
    def test_drift_refactor(self, monkeypatch, m, n):
        # No tested solve drifts past RESIDUAL_REFACTOR, so a threshold of -1
        # stands in for drift: every residual check then refactors, clips x_B
        # and recomputes pi, and the solve must still reach the same optimum.
        refactor = solver._Basis.refactor
        for seed, dist in enumerate(ENTRY_LAWS):
            inst = sample_instance(dist, m, n, seed)
            out = solve(inst)
            refactors = []

            def spy(basis):
                refactors.append(basis.m)
                refactor(basis)

            with monkeypatch.context() as patch:
                patch.setattr(solver._Basis, "refactor", spy)
                patch.setattr(solver, "RESIDUAL_REFACTOR", -1.0)
                drifted = solve(inst)
            assert len(refactors) >= drifted.pivots // solver.RESIDUAL_CHECK, (dist.kind, seed)
            assert drifted.status == out.status, (dist.kind, seed)
            if out.status == "optimal":
                certify_optimal(inst, drifted)
                assert abs(drifted.z_star - out.z_star) <= 1e-12, (dist.kind, seed)


# The update rules the solver used before B^-1, x_B and pi became one extended
# inverse: separate updates of B^-1 and x_B in the basis, and of pi in the
# phase loop. TestPivotPath pins the shipped solver to them bit for bit.


class _SeparateBasis:
    def __init__(self, A, c):
        self.A = A
        self.b = c
        self.m, self.n = A.shape
        signs = np.where(c >= 0.0, 1.0, -1.0)
        self.basis = np.arange(self.m, self.m + self.n)
        self.Bmat = np.diag(signs)
        self.Binv = np.diag(signs)
        self.outer = np.empty((self.n, self.n))
        self.xB = np.abs(c).astype(float)
        self.in_basis = np.zeros(self.m + self.n, dtype=bool)
        self.in_basis[self.basis] = True
        self.pivots = 0
        self.degenerate = 0
        self.bland = False
        self.in_set = np.zeros(self.m, dtype=bool) if solver.WORKING_SET * self.n < self.m else None

    def refactor(self):
        self.Binv = np.linalg.inv(self.Bmat)
        self.xB = self.Binv @ self.b
        return self.residual()

    def residual(self):
        return float(np.abs(self.Bmat @ self.xB - self.b).max())

    def swap(self, pos, entering, d, theta):
        leaving = self.basis[pos]
        self.in_basis[leaving] = False
        self.in_basis[entering] = True
        self.basis[pos] = entering
        self.Bmat[:, pos] = self.A[entering]
        self.xB -= theta * d
        self.xB[pos] = theta
        pivrow = self.Binv[pos] / d[pos]
        self.Binv -= np.einsum("i,j->ij", d, pivrow, out=self.outer)
        self.Binv[pos] = pivrow


def _separate_run_phase(basis, phase):
    m = basis.m
    degenerate_budget = solver.DEGENERATE_BUDGET * (m + basis.n)
    max_pivots = solver.PIVOT_BUDGET * (m + basis.n)
    refill = solver.WORKING_SET * basis.n
    in_set = basis.in_set
    rows = None
    A_rows = None
    if in_set is not None and in_set.any():
        rows = np.flatnonzero(in_set)
        A_rows = basis.A[rows]
    ratios = np.empty(basis.n)
    pi = solver._multipliers(basis, phase)
    while True:
        if basis.pivots >= max_pivots:
            raise solver._NumericalFailure(f"phase {phase}: pivot_budget")
        j = -1
        if rows is not None and not basis.bland:
            r = solver._price(A_rows, pi, phase)
            r[basis.in_basis[rows]] = np.inf
            i = int(r.argmin())
            if r[i] < -solver.REDUCED_COST_TOL:
                j = int(rows[i])
                r_j = float(r[i])
        if j < 0:
            pi = solver._multipliers(basis, phase)
            r = solver._price(basis.A, pi, phase)
            r[basis.in_basis[:m]] = np.inf
            if basis.bland:
                cand = np.flatnonzero(r < -solver.REDUCED_COST_TOL)
                if cand.size == 0:
                    return
                j = int(cand[0])
            else:
                j = int(r.argmin())
                if r[j] >= -solver.REDUCED_COST_TOL:
                    return
                if in_set is not None:
                    best = np.argpartition(r, refill)[:refill]
                    in_set[best[r[best] < -solver.REDUCED_COST_TOL]] = True
                    rows = np.flatnonzero(in_set)
                    A_rows = basis.A[rows]
            r_j = float(r[j])
        d = basis.Binv @ basis.A[j]
        pos_mask = d > solver.PIVOT_TOL
        if not pos_mask.any():
            raise solver._NumericalFailure(f"phase {phase}: no_pivot_row")
        ratios.fill(np.inf)
        np.divide(basis.xB, d, out=ratios, where=pos_mask)
        if basis.bland:
            theta = max(float(ratios.min()), 0.0)
            ties = np.flatnonzero(ratios <= theta)
            pos = int(ties[basis.basis[ties].argmin()])
        else:
            pos = int(ratios.argmin())
            theta = max(float(ratios[pos]), 0.0)
        if theta < 1e-12:
            basis.degenerate += 1
            if basis.degenerate > degenerate_budget:
                basis.bland = True
        basis.swap(pos, j, d, theta)
        basis.pivots += 1
        if basis.pivots % solver.RESIDUAL_CHECK == 0 and basis.residual() > solver.RESIDUAL_REFACTOR:
            basis.refactor()
            np.clip(basis.xB, 0.0, None, out=basis.xB)
            pi = solver._multipliers(basis, phase)
        else:
            pi += r_j * basis.Binv[pos]


def _separate_drive_out(basis):
    for pos in range(basis.n):
        if basis.basis[pos] < basis.m:
            continue
        row = basis.Binv[pos]
        vals = basis.A @ row
        vals[basis.in_basis[: basis.m]] = 0.0
        j = int(np.argmax(np.abs(vals)))
        if abs(vals[j]) <= solver.PIVOT_TOL:
            continue
        d = basis.Binv @ basis.A[j]
        basis.swap(pos, j, d, float(basis.xB[pos] / d[pos]))
        basis.pivots += 1
    basis.refactor()
    np.clip(basis.xB, 0.0, None, out=basis.xB)


_PIN_CASES = [
    pytest.param(dist, m, n, cost, "optimal", id=f"{dist.kind}-{cost.kind}-{m}x{n}")
    for dist in ENTRY_LAWS
    for cost in COST_KINDS
    for m, n in ((1000, 50), (3000, 20))
] + [
    pytest.param(ENTRY_LAWS[1], 20000, 50, COST_KINDS[0], "optimal", id="rademacher-20000x50"),
    pytest.param(ENTRY_LAWS[1], 6000, 150, COST_KINDS[0], "optimal", id="rademacher-6000x150"),
    # WORKING_SET * n >= m: the working set never forms.
    pytest.param(ENTRY_LAWS[0], 60, 40, COST_KINDS[0], "unbounded", id="no-working-set-60x40"),
    pytest.param(ENTRY_LAWS[0], 80, 40, COST_KINDS[0], "optimal", id="no-working-set-80x40"),
]


class TestPivotPath:
    """The extended inverse chooses every pivot the separate updates chose and
    returns the same outcome, bit for bit."""

    @staticmethod
    def run(monkeypatch, inst, separate):
        """Solve inst and record each pivot's (position, entering column)."""
        path = []
        with monkeypatch.context() as patch:
            if separate:
                patch.setattr(solver, "_Basis", _SeparateBasis)
                patch.setattr(solver, "_run_phase", _separate_run_phase)
                patch.setattr(solver, "_drive_out_artificials", _separate_drive_out)
            swap = solver._Basis.swap

            def recording_swap(basis, pos, entering, *rest):
                path.append((int(pos), int(entering)))
                return swap(basis, pos, entering, *rest)

            patch.setattr(solver._Basis, "swap", recording_swap)
            out = solve(inst)
        arrays = tuple(None if a is None else a.tobytes() for a in (out.x_star, out.y_star, out.ray))
        return (out.status, out.pivots, out.z_star, out.message) + arrays, path

    def assert_pinned(self, monkeypatch, inst):
        shipped, shipped_path = self.run(monkeypatch, inst, separate=False)
        separate, separate_path = self.run(monkeypatch, inst, separate=True)
        assert shipped_path == separate_path
        assert shipped == separate
        return shipped

    @pytest.mark.parametrize("dist, m, n, cost, status", _PIN_CASES)
    def test_matches_separate_updates(self, monkeypatch, dist, m, n, cost, status):
        outcome = self.assert_pinned(monkeypatch, sample_instance(dist, m, n, 0, cost))
        assert outcome[0] == status

    def test_unbounded(self, monkeypatch):
        inst = sample_instance(EntryDistribution.gaussian(), 3000, 20, 7)
        A = inst.A * np.where(inst.A @ inst.c > 0.0, -1.0, 1.0)[:, None]
        outcome = self.assert_pinned(monkeypatch, LPInstance(A=A, c=inst.c))
        assert outcome[0] == "unbounded"

    def test_bland_rule(self, monkeypatch):
        monkeypatch.setattr(solver, "DEGENERATE_BUDGET", 0)
        bland = []
        run_phase = solver._run_phase

        def spy(basis, phase):
            run_phase(basis, phase)
            bland.append(basis.bland)

        monkeypatch.setattr(solver, "_run_phase", spy)
        outcome = self.assert_pinned(monkeypatch, sample_instance(EntryDistribution.rademacher(), 4000, 20, 0))
        assert outcome[0] == "optimal" and bland[-1]


class TestSingularBasis:
    def test_refactor_failure_is_a_numerical_failure(self, monkeypatch):
        def singular(self):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(solver._Basis, "refactor", singular)
        out = solve(sample_instance(EntryDistribution.gaussian(), 200, 20, 0))
        assert out.status == "numerical_failure"
        assert out.message == "singular basis: Singular matrix"
        # Phase 1 pivots before its closing refactor.
        assert out.pivots > 0
        assert out.z_star is None and out.ray is None


# Each way a solve can fail: (solver constant, its value, instance, message,
# whether the message is exact or only its prefix, pivots before the failure).
_FAILURE_EXITS = [
    pytest.param("PIVOT_BUDGET", 0, None, "phase 1: pivot_budget", True, 0, id="phase-1-pivot-budget"),
    pytest.param("PIVOT_BUDGET", 0.15, None, "phase 2: pivot_budget", True, 158, id="phase-2-pivot-budget"),
    pytest.param("PIVOT_TOL", 1e9, None, "phase 1: no_pivot_row", True, 0, id="no-pivot-row"),
    pytest.param("DUAL_RESIDUAL_TOL", -1.0, None, "certificate check failed: viol=", False, 239, id="certificate"),
    # Every optimum looks infeasible, so phase 1's multipliers are taken for a ray.
    pytest.param(
        "FEAS_TOL", -1.0, None, "phase-1 multipliers degenerate; no ray certificate", True, 107, id="no-ray",
    ),
    pytest.param(
        None, None, "near_parallel_rows", "ray certificate violates A d <= 0 beyond tolerance", True, 2,
        id="ray-violation",
    ),
]


class TestFailureExits:
    @pytest.mark.parametrize("name, value, family, message, exact, pivots", _FAILURE_EXITS)
    def test_status_message_and_pivots(self, monkeypatch, name, value, family, message, exact, pivots):
        if family is None:
            inst = sample_instance(EntryDistribution.gaussian(), 1000, 50, 0)
        else:
            inst = property_instance(family, 23, 4, 2174368136, CostVectorKind.rescaled_rademacher(), False)
        swaps = []
        swap = solver._Basis.swap

        def counting_swap(basis, *args):
            swaps.append(args[0])
            return swap(basis, *args)

        monkeypatch.setattr(solver._Basis, "swap", counting_swap)
        if name is not None:
            monkeypatch.setattr(solver, name, value)
        out = solve(inst)
        assert out.status == "numerical_failure"
        assert (out.message == message) if exact else out.message.startswith(message)
        assert out.pivots == len(swaps) == pivots
        assert out.z_star is None and out.x_star is None and out.ray is None


class TestDriveOutArtificials:
    """Phase 1 can end with artificials basic at value 0. The drive-out pivots
    each onto a row of A that reaches it; one that no row reaches stays basic,
    and marks a redundant equality row of the dual."""

    @staticmethod
    def solve_observed(monkeypatch, inst):
        """Solve inst; return the outcome, the drive-out's pivots and the
        artificials it left basic."""
        seen = {"inside": False, "pivots": 0}
        drive_out, swap = solver._drive_out_artificials, solver._Basis.swap

        def drive_out_spy(basis, *args):
            seen["inside"] = True
            drive_out(basis, *args)
            seen["inside"] = False
            seen["left"] = int(np.sum(basis.basis >= basis.m))

        def swap_spy(basis, *args):
            seen["pivots"] += seen["inside"]
            return swap(basis, *args)

        monkeypatch.setattr(solver, "_drive_out_artificials", drive_out_spy)
        monkeypatch.setattr(solver._Basis, "swap", swap_spy)
        return solve(inst), seen["pivots"], seen["left"]

    @staticmethod
    def certify_against_oracle(inst, out):
        certify_optimal(inst, out)
        status, z, _ = brute_force_oracle(inst.A, inst.c)
        assert status == "optimal"
        assert abs(out.z_star - z) <= 1e-12 * max(1.0, abs(z))

    def test_pivots_an_artificial_out(self, monkeypatch):
        inst = property_instance("small_integers", 5, 4, 302, CostVectorKind.rescaled_rademacher(), False)
        out, pivots, left = self.solve_observed(monkeypatch, inst)
        assert (pivots, left) == (1, 0)
        self.certify_against_oracle(inst, out)

    def test_artificial_of_a_redundant_row_stays(self, monkeypatch):
        # A zero column of A is a zero row of A^T y = c; the 1-spike cost is 0
        # there, so the row is redundant and its artificial stays basic at 0.
        gen = np.random.default_rng(2)
        A = gen.integers(-3, 4, (5, 4)).astype(float)
        A[:, gen.integers(0, 4)] = 0.0
        inst = LPInstance(A=A, c=sample_cost_vector(CostVectorKind.k_spike(1), 4, SeedSpec(2, 1)))
        out, pivots, left = self.solve_observed(monkeypatch, inst)
        assert (pivots, left) == (0, 1)
        self.certify_against_oracle(inst, out)


# Families of hard inputs for the property tests, each drawing A from a
# generator and (m, n); PROPERTY_FAMILIES names them.
def _duplicated_and_zero_rows(gen, m, n):
    A = gen.standard_normal((m, n))
    A[gen.integers(0, m, m // 2)] = A[gen.integers(0, m, m // 2)]
    A[gen.integers(0, m, m // 5)] = 0.0
    return A


def _scaled_rows(gen, m, n):
    return gen.standard_normal((m, n)) * 10.0 ** gen.integers(-6, 7, m)[:, None]


def _rank_deficient(gen, m, n):
    # Copied columns: bounded only where c agrees on each copied pair.
    A = gen.standard_normal((m, n))
    A[:, gen.integers(0, n, n // 2)] = A[:, gen.integers(0, n, n // 2)]
    return A


def _near_parallel_rows(gen, m, n):
    base = gen.standard_normal((max(1, m // 8), n))
    scale = gen.uniform(0.5, 2.0, (m, 1))
    return scale * (base[gen.integers(0, len(base), m)] + 1e-9 * gen.standard_normal((m, n)))


def _rademacher(gen, m, n):
    return gen.choice([-1.0, 1.0], (m, n))


def _small_integers(gen, m, n):
    return gen.integers(-3, 4, (m, n)).astype(float)


PROPERTY_FAMILIES = {
    "duplicated_and_zero_rows": _duplicated_and_zero_rows,
    "scaled_rows": _scaled_rows,
    "rank_deficient": _rank_deficient,
    "near_parallel_rows": _near_parallel_rows,
    "rademacher": _rademacher,
    "small_integers": _small_integers,
}
LATTICE_FAMILIES = ("rademacher", "small_integers")


def property_instance(family, m, n, seed, cost, reflect):
    """A seeded instance of the family, optionally reflected to be unbounded."""
    A = PROPERTY_FAMILIES[family](np.random.default_rng(seed), m, n)
    inst = LPInstance(A=A, c=sample_cost_vector(cost, n, SeedSpec(seed, 1)))
    return reflected(inst) if reflect else inst


def check_certified_or_failure(inst: LPInstance, out) -> None:
    """Every outcome is a certified optimum, a certified ray, or a reported
    failure; where scipy is present an optimum agrees with HiGHS's interior
    point method to 1e-6 relative."""
    assert out.status in ("optimal", "unbounded", "numerical_failure"), out.status
    if out.status == "unbounded":
        certify_unbounded(inst, out)
    if out.status != "optimal":
        return
    certify_optimal(inst, out)
    try:
        from scipy.optimize import linprog
    except ImportError:
        return
    ref = linprog(-inst.c, A_ub=inst.A, b_ub=np.ones(inst.m), bounds=(None, None), method="highs-ipm")
    assert ref.status == 0, ref.message
    assert abs(out.z_star + ref.fun) <= 1e-6 * max(1.0, abs(out.z_star))


class TestSolverProperties:
    """Hypothesis property tests over degenerate, badly scaled and unbounded
    inputs at m <= 80, n <= 9, built from seeds so that each example is cheap."""

    @staticmethod
    def run(families, examples):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        def instances(n):
            costs = st.one_of(
                st.just(CostVectorKind.rescaled_rademacher()),
                st.just(CostVectorKind.uniform_sphere()),
                st.integers(1, n).map(CostVectorKind.k_spike),
            )
            return st.tuples(
                st.sampled_from(families), st.integers(1, 80), st.just(n), st.integers(0, 2**32 - 1), costs,
                st.booleans(),
            )

        @hypothesis.settings(max_examples=examples, derandomize=True, database=None, deadline=None)
        @hypothesis.given(st.integers(1, 9).flatmap(instances))
        def certified_or_failure(args):
            inst = property_instance(*args)
            check_certified_or_failure(inst, solve(inst))

        certified_or_failure()

    def test_certified_or_failure(self):
        self.run(sorted(PROPERTY_FAMILIES), 800)

    def test_lattice_entries_under_blands_rule(self, monkeypatch):
        # A zero degenerate budget puts every pivot after the first
        # degenerate one under Bland's rule.
        monkeypatch.setattr(solver, "DEGENERATE_BUDGET", 0)
        self.run(LATTICE_FAMILIES, 200)
