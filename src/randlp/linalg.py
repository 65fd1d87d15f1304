"""The small symmetric Gram solves used by restoration.

Everything operates on float64 numpy arrays. A block M is n x k: one column
of length n (the column count of A) per row that a restoration sweep
collects, so blocks are small and kept dense. All functions are pure and safe
to call from concurrent workers.
"""

from __future__ import annotations

import math

import numpy as np

# A diagonal pivot below GRAM_PIVOT_REL * (largest initial diagonal of M^T M)
# marks the Gram matrix numerically singular.
GRAM_PIVOT_REL = 1e-10

# Accepted solves must satisfy ||M^T M u - b||_2 <= GRAM_RESIDUAL_REL * (1 + ||b||_2).
GRAM_RESIDUAL_REL = 1e-8

# pruned_gram_solve drops every column of M shorter than this before factoring.
TINY_COLUMN_NORM = 1e-10


class SingularGram(Exception):
    """The Gram matrix M^T M has no acceptable pivot left."""


def _pivoted_cholesky(G: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Factor P G P^T = L L^T with diagonal pivoting, stopping at rank.

    Returns (L, perm, rank) where L is the rank-by-rank lower-triangular
    factor and perm maps factor position -> original index. Positions at and
    beyond `rank` had remaining diagonal <= the pivot floor.

    The factor is computed in original index order: neither the working copy
    W of G nor the columns of L are ever permuted. Each pivot is the first
    largest remaining diagonal in factor-position order, the rank-1 update
    runs over all of W (entries outside the remaining block only lose +-0
    and are never read again), and the rows of L are gathered through perm
    once at the end. Every entry of L therefore goes through the same
    floating-point operations as in the right-looking algorithm that swaps
    rows and columns at each pivot (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., ch. 10), and is bitwise equal to it.
    """
    W = np.array(G, dtype=float)
    k = W.shape[0]
    perm = np.arange(k)
    diag = W.diagonal()
    floor = GRAM_PIVOT_REL * max(float(np.max(diag)), 0.0) if k else 0.0
    # Row j of Lt is column j of L, indexed by original index.
    Lt = np.zeros((k, k))
    outer = np.empty((k, k))
    rank = k
    for j in range(k):
        p = j + int(diag[perm[j:]].argmax())
        q = int(perm[p])
        pivot = float(diag[q])
        if pivot <= floor:
            rank = j
            break
        perm[p] = perm[j]
        perm[j] = q
        s = math.sqrt(pivot)
        col = Lt[j]
        if j + 1 < k:
            np.divide(W[:, q], s, out=col)
            col[perm[: j + 1]] = 0.0
            np.multiply.outer(col, col, out=outer)
            W -= outer
        col[q] = s
    return Lt[:rank, perm[:rank]].T, perm, rank


def _solve_cholesky(L: np.ndarray, perm: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (P G P^T) w = P b restricted to the factor's rank leading positions."""
    pb = b[perm[: L.shape[0]]]
    w = np.linalg.solve(L, pb)
    w = np.linalg.solve(L.T, w)
    return w


def _checked(M: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    M = np.asarray(M, dtype=float)
    b = np.asarray(b, dtype=float)
    if M.ndim != 2 or b.ndim != 1 or M.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: M is {M.shape}, b has length {b.shape}")
    return M, b


def gram_solve(M: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve M^T M u = b by symmetric factorization with diagonal pivoting.

    M holds one column per equation; b matches the column count. Raises
    SingularGram when some pivot of M^T M falls below the relative floor,
    which signals a degenerate block of near-parallel columns.
    """
    M, b = _checked(M, b)
    k = M.shape[1]
    if k == 0:
        return np.zeros(0)
    G = M.T @ M
    L, perm, rank = _pivoted_cholesky(G)
    if rank < k:
        raise SingularGram(f"pivot below tolerance after {rank} of {k} columns")
    w = _solve_cholesky(L, perm, b)
    u = np.empty(k)
    u[perm] = w
    # One refinement step keeps the residual contract on ill-scaled blocks.
    resid = b - G @ u
    bound = GRAM_RESIDUAL_REL * (1.0 + float(np.linalg.norm(b)))
    if float(np.linalg.norm(resid)) > bound:
        w = _solve_cholesky(L, perm, resid)
        du = np.zeros(k)
        du[perm] = w
        u = u + du
        if float(np.linalg.norm(b - G @ u)) > bound:
            raise SingularGram("residual contract unattainable; block too ill-conditioned")
    return u


def pruned_gram_solve(M: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Like gram_solve, but drops the columns it cannot use: first every column
    shorter than TINY_COLUMN_NORM, then those the pivoting rejects.

    Returns (u, kept) where u is full length with zeros on dropped columns and
    kept holds the sorted indices of the columns actually solved. Raises
    SingularGram only when no column survives.
    """
    M, b = _checked(M, b)
    keep = np.nonzero(np.linalg.norm(M, axis=0) >= TINY_COLUMN_NORM)[0]
    if keep.size == 0:
        raise SingularGram("no column above the norm floor")
    M = M[:, keep]
    L, perm, rank = _pivoted_cholesky(M.T @ M)
    if rank == 0:
        raise SingularGram("no acceptable pivot in block")
    solved = keep[perm[:rank]]
    u = np.zeros(b.size)
    u[solved] = _solve_cholesky(L, perm, b[keep])
    return u, np.sort(solved)
