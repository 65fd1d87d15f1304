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
from typing import List, Optional

import numpy as np

from .linalg import SingularGram, gram_solve, pruned_gram_solve
from .solver import UNIT_COST_TOL
from .stats import asymptotic_bound

TINY_COLUMN_NORM = 1e-10


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

    initial_x: np.ndarray
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


def restore(
    A: np.ndarray,
    c: np.ndarray,
    opts: RestoreOptions = RestoreOptions(),
    initial_x: Optional[np.ndarray] = None,
) -> RestoreTrace:
    """Repair feasibility of the scaled cost vector; see the module docstring.

    initial_x overrides the default start (2 log(m/n))^{-1/2} c; hand checks
    of a single sweep use this. The objective-preservation guarantee relates
    final_x to whatever start was used.
    """
    A = np.asarray(A, dtype=float)
    c = np.asarray(c, dtype=float)
    if A.ndim != 2 or c.ndim != 1 or A.shape[1] != c.shape[0]:
        raise ValueError(f"shape mismatch: A is {A.shape}, c has length {c.shape}")
    m, n = A.shape
    if not (m > n >= 1):
        raise ValueError("need m > n >= 1")
    if abs(float(np.linalg.norm(c)) - 1.0) > UNIT_COST_TOL:
        raise ValueError("c must have unit Euclidean norm")

    if initial_x is None:
        x0 = asymptotic_bound(m, n) * c
    else:
        x0 = np.asarray(initial_x, dtype=float).copy()
        if x0.shape != (n,):
            raise ValueError("initial_x has the wrong length")
    x = x0.copy()
    eps = opts.eps0
    records: List[IterationRecord] = []

    for _ in range(opts.max_iters):
        values = A @ x
        if float(values.max()) - 1.0 <= opts.feas_tol:
            return RestoreTrace(initial_x=x0, final_x=x, status="converged", iterates=records)
        idx = np.nonzero(values > 1.0 - eps)[0]
        b = 1.0 - eps - values[idx]
        rows = A[idx]
        V = rows - np.outer(rows @ c, c)
        M = V.T
        try:
            u = gram_solve(M, b)
        except SingularGram:
            col_norms = np.linalg.norm(V, axis=1)
            keep = np.nonzero(col_norms >= TINY_COLUMN_NORM)[0]
            u = np.zeros(idx.size)
            try:
                if keep.size == 0:
                    raise SingularGram("every correction direction is tiny")
                u[keep], _ = pruned_gram_solve(M[:, keep], b[keep])
            except SingularGram:
                message = f"sweep {len(records)}: {idx.size} rows, block singular after pruning"
                return RestoreTrace(
                    initial_x=x0, final_x=x, status="degenerate_block", message=message, iterates=records
                )
        step = M @ u
        records.append(
            IterationRecord(violated=int(idx.size), epsilon=eps, update_norm=float(np.linalg.norm(step)))
        )
        eps *= opts.shrink
        x = x + step

    values = A @ x
    status = "converged" if float(values.max()) - 1.0 <= opts.feas_tol else "non_converged"
    return RestoreTrace(initial_x=x0, final_x=x, status=status, iterates=records)

