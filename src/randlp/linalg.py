"""The small symmetric Gram solves used by restoration.

Everything operates on float64 numpy arrays. Matrices are row-major and kept
dense: the largest instance handled anywhere is 100000 x 100 (about 80 MB),
so sparse formats buy nothing. All functions are pure and safe to call from
concurrent workers.
"""

from __future__ import annotations

import numpy as np

# A diagonal pivot below GRAM_PIVOT_REL * (largest initial diagonal of M^T M)
# marks the Gram matrix numerically singular.
GRAM_PIVOT_REL = 1e-10

# Accepted solves must satisfy ||M^T M u - b||_2 <= GRAM_RESIDUAL_REL * (1 + ||b||_2).
GRAM_RESIDUAL_REL = 1e-8


class SingularGram(Exception):
    """The Gram matrix M^T M has no acceptable pivot left."""


def _pivoted_cholesky(G: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Factor P G P^T = L L^T with diagonal pivoting, stopping at rank.

    Returns (L, perm, rank) where perm maps factor position -> original index.
    Positions at and beyond `rank` had remaining diagonal <= the pivot floor.
    """
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
    return G, perm, rank


def _solve_cholesky(L: np.ndarray, perm: np.ndarray, rank: int, b: np.ndarray) -> np.ndarray:
    """Solve (P G P^T) w = P b using the leading rank-by-rank factor block."""
    pb = b[perm[:rank]]
    Lr = L[:rank, :rank]
    w = np.linalg.solve(Lr, pb)
    w = np.linalg.solve(Lr.T, w)
    return w


def gram_solve(M: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve M^T M u = b by symmetric factorization with diagonal pivoting.

    M holds one column per equation; b matches the column count. Raises
    SingularGram when some pivot of M^T M falls below the relative floor,
    which signals a degenerate block of near-parallel columns.
    """
    M = np.asarray(M, dtype=float)
    b = np.asarray(b, dtype=float)
    if M.ndim != 2 or b.ndim != 1 or M.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: M is {M.shape}, b has length {b.shape}")
    k = M.shape[1]
    if k == 0:
        return np.zeros(0)
    G = M.T @ M
    L, perm, rank = _pivoted_cholesky(G)
    if rank < k:
        raise SingularGram(f"pivot below tolerance after {rank} of {k} columns")
    w = _solve_cholesky(L, perm, rank, b)
    u = np.empty(k)
    u[perm] = w
    # One refinement step keeps the residual contract on ill-scaled blocks.
    resid = b - G @ u
    bound = GRAM_RESIDUAL_REL * (1.0 + float(np.linalg.norm(b)))
    if float(np.linalg.norm(resid)) > bound:
        w = _solve_cholesky(L, perm, rank, resid)
        du = np.zeros(k)
        du[perm] = w
        u = u + du
        if float(np.linalg.norm(b - G @ u)) > bound:
            raise SingularGram("residual contract unattainable; block too ill-conditioned")
    return u


def pruned_gram_solve(M: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Like gram_solve, but drops columns the pivoting rejects.

    Returns (u, kept) where u is full length with zeros on dropped columns and
    kept holds the indices of the columns actually solved. Raises SingularGram
    only when no column survives.
    """
    M = np.asarray(M, dtype=float)
    b = np.asarray(b, dtype=float)
    if M.ndim != 2 or b.ndim != 1 or M.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: M is {M.shape}, b has length {b.shape}")
    k = M.shape[1]
    if k == 0:
        raise SingularGram("empty block")
    G = M.T @ M
    L, perm, rank = _pivoted_cholesky(G)
    if rank == 0:
        raise SingularGram("no acceptable pivot in block")
    w = _solve_cholesky(L, perm, rank, b)
    u = np.zeros(k)
    u[perm[:rank]] = w
    return u, np.sort(perm[:rank])
