"""Exact solver for max <c, x> subject to A x <= 1 with free x.

The problem is attacked through its standard-form dual

    min <1, y>  subject to  A^T y = c,  y >= 0,

whose basis has size n (the column count of A), tiny next to m in every
experiment here, so a dense explicit basis inverse stays cheap even at
m = 100000. A two-phase revised simplex solves the dual; the multipliers of
the equality rows at optimality are the primal optimizer x*, and y itself is
the dual certificate. Phase-1 infeasibility (c outside the conical hull of
the rows of A) is exactly primal unboundedness and is reported with a ray.

One _Basis holds the whole state of a solve, and phase 2 takes it over
from phase 1: the extended inverse below, the pivot counts, Bland's switch
and the working set. Every failure leaves solve by one exit, a
"numerical_failure" outcome with the pivots made so far and the reason.

Pricing is Dantzig (most negative reduced cost) over a working set of
y-columns. At the optimum only n of the m rows of A carry weight, so each
pivot prices just the rows in the set. When none of them improves, a full
pass prices all m rows: if it finds no improving column either, the phase is
optimal, so optimality is only ever declared after a full pass; otherwise it
picks the entering column over all m rows and adds to the set up to
WORKING_SET * n rows with the most negative reduced costs. The set only
grows, and phase 2 starts with the rows phase 1 left in it; when
WORKING_SET * n >= m it never forms and every pivot is a full pass. Once
the degenerate-pivot budget is spent, pricing switches permanently to
Bland's rule, which rules out cycling; Bland's smallest index is taken over
all m columns, so from then on every pivot is a full pass.

The simplex multipliers pi = B^-T c_B and the basic values x_B are the last
row and column of an extended inverse [[B^-1, x_B], [pi, .]], and one rank-1
update per pivot moves all three: its pivot column is the entering column's
ftran extended by minus its reduced cost, so pi moves by that reduced cost
times the new pivot row of B^-1. The multipliers are recomputed from B^-1
before every full pass and after every refactor, so optimality and Bland's
smallest index are only ever decided on freshly computed multipliers. The
basis inverse is refreshed from scratch whenever the basic residual, checked
every RESIDUAL_CHECK pivots, has drifted past RESIDUAL_REFACTOR, and at the
end of each phase.

Phase 1 runs on a perturbed right-hand side c + PERTURB * s * u, with s the
signs of the artificial columns and u_i = frac(i * 0.618...) for i = 1..n, a
fixed sequence that draws nothing (Wolfe's remedy for degeneracy). Phase 1
then starts at x_B = |c| + PERTURB * u, whose entries are distinct and
positive, so the equal entries of a rademacher cost no longer leave its
ratio tests to be decided by rounding, and the zero entries of a spike cost
no longer walk it through long runs of zero steps. Steps across the broken
ties are of order PERTURB and still count as degenerate. The perturbation
only chooses the basis phase 1 ends on: that basis is refactored against
the true c before the phase-1 objective is judged, and the unbounded ray,
phase 2 and every certificate use the true c.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

FEAS_TOL = 1e-9
# Size of phase 1's right-hand-side perturbation; c has unit norm.
PERTURB = 1e-11
PIVOT_TOL = 1e-9
REDUCED_COST_TOL = 1e-9

# Certificate tolerances for reported Optimal outcomes.
DUAL_RESIDUAL_TOL = 1e-7
DUALITY_GAP_TOL = 1e-7
Y_NEGATIVITY_TOL = 1e-12

# Pivots between checks of the basic residual against RESIDUAL_REFACTOR.
RESIDUAL_CHECK = 10
# Degenerate pivots allowed per (m + n) before Bland's rule takes over.
DEGENERATE_BUDGET = 5
# Pivots allowed per (m + n), over both phases, before a solve gives up.
PIVOT_BUDGET = 50
# Rows added to the pricing working set per full pass, per column of A.
WORKING_SET = 2
RESIDUAL_REFACTOR = 1e-10

# How far from 1 the norm of a vector taken as unit-norm may be.
UNIT_COST_TOL = 1e-9


@dataclass(frozen=True)
class LPInstance:
    """A random-program instance: m x n matrix A and unit cost vector c."""

    A: np.ndarray
    c: np.ndarray

    def __post_init__(self) -> None:
        A = np.ascontiguousarray(self.A, dtype=float)
        c = np.ascontiguousarray(self.c, dtype=float)
        if A.ndim != 2 or c.ndim != 1 or A.shape[1] != c.shape[0]:
            raise ValueError(f"shape mismatch: A is {A.shape}, c has length {c.shape}")
        if A.shape[0] < 1 or A.shape[1] < 1:
            raise ValueError("m and n must be at least 1")
        # min and max propagate NaN and +-inf, and build no m x n mask.
        if not all(np.isfinite(v) for v in (A.min(), A.max(), c.min(), c.max())):
            raise ValueError("entries must be finite")
        if abs(float(np.linalg.norm(c)) - 1.0) > UNIT_COST_TOL:
            raise ValueError("c must have unit Euclidean norm")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "c", c)

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True)
class SolveOutcome:
    """Result of one solve: a certified optimum, an unbounded ray, or a failure.

    status is "optimal", "unbounded", or "numerical_failure". For "optimal",
    z_star / x_star / y_star are set and satisfy A x* <= 1 + FEAS_TOL,
    ||A^T y* - c||_inf <= 1e-7, y* >= -1e-12, |<1,y*> - <c,x*>| <= 1e-7.
    For "unbounded", ray d satisfies A d <= FEAS_TOL and <c, d> >= 1 - 1e-9.
    """

    status: str
    pivots: int
    z_star: Optional[float] = None
    x_star: Optional[np.ndarray] = None
    y_star: Optional[np.ndarray] = None
    ray: Optional[np.ndarray] = None
    message: str = ""


def check_feasible(A: np.ndarray, x: np.ndarray) -> float:
    """Return max_i (<row_i(A), x> - 1), the worst constraint violation;
    callers compare it against their own threshold."""
    A = np.asarray(A, dtype=float)
    x = np.asarray(x, dtype=float)
    if A.ndim != 2 or x.ndim != 1 or A.shape[1] != x.shape[0]:
        raise ValueError(f"dimension mismatch: A is {A.shape}, x has length {x.shape}")
    return float(np.max(A @ x - 1.0))


def duality_gap(inst: LPInstance, x: np.ndarray, y: np.ndarray) -> float:
    """Return <1, y> - <c, x> for a primal/dual pair of the instance."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (inst.n,) or y.shape != (inst.m,):
        raise ValueError("dimension mismatch with instance")
    if float(np.min(y)) < -Y_NEGATIVITY_TOL:
        raise ValueError("y has a negative entry beyond tolerance")
    return float(np.sum(y) - np.dot(inst.c, x))


class _NumericalFailure(Exception):
    """A solve that cannot finish or certify its outcome; the message says why."""


class _Basis:
    """Basis bookkeeping for the dual standard form.

    Columns 0..m-1 are the y variables (column j of A^T is row j of A);
    columns m..m+n-1 are phase-1 artificials with column sign(c_j) * e_j.
    Artificials only leave the basis, so every entering column is a row of A.

    B^-1, the basic values x_B = B^-1 c and the running phase's multipliers
    pi are kept as one extended inverse T = [[B^-1, x_B], [pi, .]] of order
    n + 1; Binv, xB and pi are views of it, so the one rank-1 update of T in
    swap moves all three.

    It also holds the solve's counters pivots and degenerate, the flag bland,
    and the working set: the row mask in_set (None when the set never forms),
    its sorted indices set_rows and their rows of A, set_A, gathered at each
    refill and None before the first.
    """

    def __init__(self, A: np.ndarray, c: np.ndarray):
        self.A = A
        self.b = c
        self.m, self.n = A.shape
        n = self.n
        self.basis = np.arange(self.m, self.m + n)
        self.Bmat = np.diag(np.where(c >= 0.0, 1.0, -1.0))
        self.T = np.zeros((n + 1, n + 1))
        self.Binv = self.T[:n, :n]
        self.xB = self.T[:n, n]
        self.pi = self.T[n, :n]
        self.Binv[...] = self.Bmat
        self.xB[...] = np.abs(c)
        # Scratch for the rank-1 term of the update.
        self.outer = np.empty((n + 1, n + 1))
        self.in_basis = np.zeros(self.m + n, dtype=bool)
        self.in_basis[self.basis] = True
        self.pivots = 0
        self.degenerate = 0
        self.bland = False
        self.in_set = np.zeros(self.m, dtype=bool) if WORKING_SET * n < self.m else None
        self.set_rows = None
        self.set_A = None

    def refactor(self) -> None:
        """Rebuild the inverse and basic values from scratch."""
        self.Binv[...] = np.linalg.inv(self.Bmat)
        self.xB[...] = self.Binv @ self.b

    def residual(self) -> float:
        return float(np.abs(self.Bmat @ self.xB - self.b).max())

    def swap(self, pos: int, entering: int, d_aug: np.ndarray, theta: float) -> None:
        """Pivot the column with ftran d = d_aug[:n] into position pos at step theta.

        d_aug[n] is minus the entering reduced cost, so pi moves by r_j times
        the new row pos of B^-1 (0 leaves pi as it is)."""
        leaving = self.basis[pos]
        self.in_basis[leaving] = False
        self.in_basis[entering] = True
        self.basis[pos] = entering
        self.Bmat[:, pos] = self.A[entering]
        pivrow = self.T[pos] / d_aug[pos]
        pivrow[self.n] = theta
        self.T -= np.einsum("i,j->ij", d_aug, pivrow, out=self.outer)
        self.T[pos] = pivrow


def _price(rows: np.ndarray, pi: np.ndarray, phase: int) -> np.ndarray:
    """Reduced costs of the y-columns whose rows of A are given, under pi."""
    Api = rows @ pi
    if phase == 1:
        return np.negative(Api, out=Api)
    return np.subtract(1.0, Api, out=Api)


def _multipliers(basis: _Basis, phase: int) -> np.ndarray:
    """Simplex multipliers B^-T c_B of the phase's cost vector."""
    if phase == 1:
        cost_B = (basis.basis >= basis.m).astype(float)
    else:
        cost_B = (basis.basis < basis.m).astype(float)
    return basis.Binv.T @ cost_B


@np.errstate(divide="ignore", invalid="ignore")
def _run_phase(basis: _Basis, phase: int) -> None:
    """Run one simplex phase to optimality, or raise _NumericalFailure.

    The ratio test divides by every entry of the ftran column, so division
    by zero is expected and masked afterwards, not warned about."""
    m, n = basis.m, basis.n
    degenerate_budget = DEGENERATE_BUDGET * (m + n)
    max_pivots = PIVOT_BUDGET * (m + n)
    refill = WORKING_SET * n
    # The entering column's ftran d = B^-1 a_j, extended by minus its reduced
    # cost, is the pivot column of the extended inverse.
    d_aug = np.empty(n + 1)
    d = d_aug[:n]
    ratios = np.empty(n)
    pi = basis.pi
    pi[...] = _multipliers(basis, phase)
    while True:
        if basis.pivots >= max_pivots:
            raise _NumericalFailure(f"phase {phase}: pivot_budget")
        j = -1
        if basis.set_rows is not None and not basis.bland:
            rows = basis.set_rows
            r = _price(basis.set_A, pi, phase)
            i = int(r.argmin())
            # A first minimum at a nonbasic column is also the first minimum
            # once basic columns are masked, so mask only when the argmin
            # falls on a basic one.
            if basis.in_basis[rows[i]]:
                r[basis.in_basis[rows]] = np.inf
                i = int(r.argmin())
            if r[i] < -REDUCED_COST_TOL:
                j = int(rows[i])
                r_j = float(r[i])
        if j < 0:
            pi[...] = _multipliers(basis, phase)
            r = _price(basis.A, pi, phase)
            # Columns already in the basis are never candidates.
            r[basis.in_basis[:m]] = np.inf
            if basis.bland:
                cand = np.flatnonzero(r < -REDUCED_COST_TOL)
                if cand.size == 0:
                    return
                j = int(cand[0])
            else:
                j = int(r.argmin())
                if r[j] >= -REDUCED_COST_TOL:
                    return
                if basis.in_set is not None:
                    best = np.argpartition(r, refill)[:refill]
                    basis.in_set[best[r[best] < -REDUCED_COST_TOL]] = True
                    basis.set_rows = np.flatnonzero(basis.in_set)
                    basis.set_A = basis.A[basis.set_rows]
            r_j = float(r[j])
        np.matmul(basis.Binv, basis.A[j], out=d)
        # Only rows with d_i > PIVOT_TOL can block; a NaN in d never does.
        np.divide(basis.xB, d, out=ratios)
        ratios[~(d > PIVOT_TOL)] = np.inf
        pos = int(ratios.argmin())
        theta = float(ratios[pos])
        if theta == np.inf:
            # The standard form is bounded below by 0, so this is numeric dirt.
            raise _NumericalFailure(f"phase {phase}: no_pivot_row")
        theta = max(theta, 0.0)
        if basis.bland:
            ties = np.flatnonzero(ratios <= theta)
            pos = int(ties[basis.basis[ties].argmin()])
        if theta < 1e-12:
            basis.degenerate += 1
            if basis.degenerate > degenerate_budget:
                basis.bland = True
        d_aug[n] = -r_j
        basis.swap(pos, j, d_aug, theta)
        basis.pivots += 1
        if basis.pivots % RESIDUAL_CHECK == 0 and basis.residual() > RESIDUAL_REFACTOR:
            basis.refactor()
            np.clip(basis.xB, 0.0, None, out=basis.xB)
            pi[...] = _multipliers(basis, phase)


def _drive_out_artificials(basis: _Basis) -> None:
    """Pivot basic artificials out where possible; leftovers mark redundant rows."""
    # A zero last entry leaves pi alone: phase 2 computes its own at its start.
    d_aug = np.zeros(basis.n + 1)
    d = d_aug[: basis.n]
    start = basis.pivots
    for pos in range(basis.n):
        if basis.basis[pos] < basis.m:
            continue
        row = basis.Binv[pos]
        vals = basis.A @ row
        vals[basis.in_basis[: basis.m]] = 0.0
        j = int(np.argmax(np.abs(vals)))
        if abs(vals[j]) <= PIVOT_TOL:
            continue
        np.matmul(basis.Binv, basis.A[j], out=d)
        basis.swap(pos, j, d_aug, float(basis.xB[pos] / d[pos]))
        basis.pivots += 1
    # solve refactored this basis just before; only a pivot makes it stale.
    if basis.pivots > start:
        basis.refactor()
    np.clip(basis.xB, 0.0, None, out=basis.xB)


def _extract_optimal(inst: LPInstance, basis: _Basis) -> SolveOutcome:
    basis.refactor()
    y = np.zeros(basis.m)
    y_positions = basis.basis < basis.m
    y[basis.basis[y_positions]] = basis.xB[y_positions]
    artificial_mass = float(np.sum(np.abs(basis.xB[~y_positions])))
    np.clip(y, 0.0, None, out=y)
    x = _multipliers(basis, 2)
    z = float(np.sum(y))
    max_viol = check_feasible(inst.A, x)
    dual_resid = float(np.max(np.abs(inst.A.T @ y - inst.c)))
    gap = abs(duality_gap(inst, x, y))
    if not (
        artificial_mass <= FEAS_TOL
        and max_viol <= FEAS_TOL
        and dual_resid <= DUAL_RESIDUAL_TOL
        and gap <= DUALITY_GAP_TOL
    ):
        raise _NumericalFailure(
            f"certificate check failed: viol={max_viol:.3e} "
            f"dual_resid={dual_resid:.3e} gap={gap:.3e} art={artificial_mass:.3e}"
        )
    return SolveOutcome(status="optimal", pivots=basis.pivots, z_star=z, x_star=x, y_star=y)


def _extract_unbounded(inst: LPInstance, basis: _Basis) -> SolveOutcome:
    """Certify a ray from phase 1's multipliers; solve refactors basis first."""
    pi = _multipliers(basis, 1)
    along_c = float(np.dot(inst.c, pi))
    if not along_c > 0.0:
        raise _NumericalFailure("phase-1 multipliers degenerate; no ray certificate")
    ray = pi / along_c
    if not float(np.max(inst.A @ ray)) <= FEAS_TOL:
        raise _NumericalFailure("ray certificate violates A d <= 0 beyond tolerance")
    return SolveOutcome(status="unbounded", pivots=basis.pivots, ray=ray)


def solve(inst: LPInstance) -> SolveOutcome:
    """Solve the instance exactly; see SolveOutcome for the certificates.

    Deterministic for fixed input. Never silently wrong: a certificate residual
    that breaks its tolerance or is NaN, or a basis found singular, comes back
    as status "numerical_failure" with a diagnostic message.
    """
    signs = np.where(inst.c >= 0.0, 1.0, -1.0)
    u = np.modf(np.arange(1, inst.n + 1) * 0.6180339887498949)[0]
    basis = _Basis(inst.A, inst.c + PERTURB * signs * u)
    try:
        _run_phase(basis, 1)
        basis.b = inst.c
        basis.refactor()
        phase1_objective = float(np.sum(basis.xB[basis.basis >= inst.m]))
        if phase1_objective > FEAS_TOL * max(1.0, float(np.linalg.norm(inst.c))):
            return _extract_unbounded(inst, basis)
        _drive_out_artificials(basis)
        _run_phase(basis, 2)
        return _extract_optimal(inst, basis)
    except _NumericalFailure as exc:
        message = str(exc)
    except np.linalg.LinAlgError as exc:
        # Raised by a refactor of a basis that has turned singular.
        message = f"singular basis: {exc}"
    return SolveOutcome(status="numerical_failure", pivots=basis.pivots, message=message)
