"""Block-iterative feasibility repair for the scaled cost vector.

Starting from x = (2 log(m/n))^{-1/2} c, each sweep collects every row of A
whose value at x exceeds 1 - eps, then projects x (within the hyperplane
orthogonal to c, so the objective <c, x> never moves) so that all collected
rows land exactly on 1 - eps. eps then shrinks geometrically. Because the
correction directions v_i = row_i - <row_i, c> c are the rows with their
c-component removed, the block solve is a Gram system over those directions.

A run's outcome is the returned trace, never an exception: its status is
"converged", "non_converged" (max_iters sweeps without reaching feas_tol) or
"degenerate_block" (a sweep's Gram system stayed singular after pruning; the
trace stops before that sweep and its message says which). Only bad input
raises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from .linalg import SingularGram, gram_solve, pruned_gram_solve
from .solver import UNIT_COST_TOL
from .stats import asymptotic_bound


@dataclass(frozen=True)
class RestoreOptions:
    eps0: float = 0.1
    shrink: float = 0.1
    max_iters: int = 50
    feas_tol: float = 1e-12

    def __post_init__(self) -> None:
        if not (0.0 < self.eps0 < 1.0):
            raise ValueError("eps0 must be in (0, 1)")
        if not (0.0 < self.shrink < 1.0):
            raise ValueError("shrink must be in (0, 1)")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.feas_tol < 0.0:
            raise ValueError("feas_tol must be nonnegative")


@dataclass(frozen=True)
class IterationRecord:
    """One sweep: how many rows were over threshold, the eps in force, and the
    Euclidean size of the correction applied."""

    violated: int
    epsilon: float
    update_norm: float


@dataclass
class RestoreTrace:
    """A restoration's outcome: status and message as in the module
    docstring, and one record per completed sweep."""

    final_x: np.ndarray
    status: str
    message: str = ""
    iterates: List[IterationRecord] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    @property
    def iterations(self) -> int:
        return len(self.iterates)


def restore(A: np.ndarray, c: np.ndarray, opts: RestoreOptions = RestoreOptions()) -> RestoreTrace:
    """Repair feasibility of the scaled cost vector; see the module docstring."""
    A = np.asarray(A, dtype=float)
    c = np.asarray(c, dtype=float)
    if A.ndim != 2 or c.ndim != 1 or A.shape[1] != c.shape[0]:
        raise ValueError(f"shape mismatch: A is {A.shape}, c has length {c.shape}")
    m, n = A.shape
    if not (m > n >= 1):
        raise ValueError("need m > n >= 1")
    if abs(float(np.linalg.norm(c)) - 1.0) > UNIT_COST_TOL:
        raise ValueError("c must have unit Euclidean norm")

    x = asymptotic_bound(m, n) * c
    eps = opts.eps0
    records: List[IterationRecord] = []
    # One check of A x per sweep, and one more after the last.
    while True:
        values = A @ x
        converged = float(values.max()) - 1.0 <= opts.feas_tol
        if converged or len(records) == opts.max_iters:
            return RestoreTrace(final_x=x, status="converged" if converged else "non_converged", iterates=records)
        idx = np.nonzero(values > 1.0 - eps)[0]
        b = 1.0 - eps - values[idx]
        rows = A[idx]
        M = (rows - np.outer(rows @ c, c)).T
        try:
            u = gram_solve(M, b)
        except SingularGram:
            try:
                u, _ = pruned_gram_solve(M, b)
            except SingularGram:
                message = f"sweep {len(records)}: {idx.size} rows, block singular after pruning"
                return RestoreTrace(final_x=x, status="degenerate_block", message=message, iterates=records)
        step = M @ u
        records.append(
            IterationRecord(violated=int(idx.size), epsilon=eps, update_norm=float(np.linalg.norm(step)))
        )
        eps *= opts.shrink
        x = x + step
