"""Random linear programs max <c, x> subject to A x <= 1: sampling, an exact
simplex solver, block-iterative feasibility restoration, statistics, geometry,
and a reproducible experiment harness."""

__version__ = "0.1.0"
