"""Geometric functionals of the polyhedron {x : A x <= 1}.

The spherical mean width is twice the expected support value over uniformly
random unit directions; each direction is resolved exactly by the solver, so
the only error is Monte Carlo. A direction that is unbounded or not certified
optimal ends the estimate: it comes back NaN with the reason in its error
field, and only bad input raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sampling import SeedSpec
from .solver import LPInstance, solve


@dataclass(frozen=True)
class MeanWidthEstimate:
    estimate: float
    standard_error: float
    trials: int
    normalized: float
    error: str = ""


def mean_width_mc(A: np.ndarray, trials: int, seed: SeedSpec) -> MeanWidthEstimate:
    """Monte Carlo spherical mean width: 2 E_c [max <c, x> over A x <= 1].

    All directions are drawn up front from the one stream named by seed and
    solved in draw order, so fixed (A, trials, seed) reproduces bitwise.
    normalized is sqrt(2 log(m/n)) times the estimate when m > n, else NaN.
    The first direction that is unbounded or not certified stops the run and
    sets error; estimate, standard_error and normalized are then NaN.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError("A must be a matrix")
    if trials < 10:
        raise ValueError("need at least 10 trials")
    m, n = A.shape
    gen = seed.generator()
    raw = gen.standard_normal((trials, n))
    norms = np.linalg.norm(raw, axis=1)
    norms[norms == 0.0] = 1.0
    directions = raw / norms[:, None]

    values = np.empty(trials)
    for k in range(trials):
        outcome = solve(LPInstance(A, directions[k]))
        if outcome.status != "optimal":
            if outcome.status == "unbounded":
                error = f"direction {k} of {trials} is unbounded"
            else:
                error = f"direction {k}: solver reported {outcome.status}: {outcome.message}"
            nan = float("nan")
            return MeanWidthEstimate(estimate=nan, standard_error=nan, trials=trials, normalized=nan, error=error)
        values[k] = outcome.z_star

    estimate = 2.0 * float(np.mean(values))
    se = 2.0 * float(np.std(values, ddof=1)) / math.sqrt(trials)
    normalized = math.sqrt(2.0 * math.log(m / n)) * estimate if m > n else float("nan")
    return MeanWidthEstimate(estimate=estimate, standard_error=se, trials=trials, normalized=normalized)

