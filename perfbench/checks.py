"""Correctness checks on what a campaign emitted, computed apart from randlp.

Inputs are regenerated from the documented stream contract (PCG64 seeded by
SeedSequence(master_seed, spawn_key=(stream_index,)), stream_index =
(grid_index * 2**20 + replicate_index) * 8 + lane) with numpy alone. Optimal
values are compared with HiGHS through scipy.optimize.linprog; tails with the
exact binomial tail, computed in rational arithmetic. Nothing is compared
with stored copies of earlier output.

Two faults are named, and only operations that fail through them count as
failed rather than as a wrong result:

- `restore_zigzag`: a fault probe's restoration ends non_converged after
  max_iters sweeps.
- `tail_lattice_tie`: a fault probe's tail case has its threshold on the
  lattice of attainable values of <y, xi>, and p_hat misses the exact tail by
  more than TAIL_SE_LIMIT standard errors.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Tuple

import numpy as np

LANE_MATRIX = 0
LANE_COST = 1
_REPLICATE_SPACE = 2**20
_LANES = 8

Z_TOL = 1e-9  # |z*_randlp - z*_HiGHS|
LOWER_BOUND_TOL = 1e-12  # relative slack on z* >= 1 / ||A c||_inf
ZX_TOL = 1e-10  # |z_x - (2 log(m/n))^(-1/2)|
STAT_RTOL = 1e-12  # recomputed moments and bin edges
KS_TOL = 1e-9  # recomputed Kolmogorov-Smirnov statistic
TAIL_SE_LIMIT = 4.0
# HiGHS runs on replicates 0 .. k-1 of each grid point, k = HIGHS_CELLS // (m n),
# at least 1: a fixed subset that keeps the check to a few seconds.
HIGHS_CELLS = 200_000


@dataclass
class Verdict:
    """What one campaign's outputs showed."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    tallies: Dict[str, int] = field(default_factory=dict)

    def count(self, key: str) -> None:
        self.tallies[key] = self.tallies.get(key, 0) + 1


# -- inputs, regenerated from the stream contract ---------------------------------


def stream_index(grid_index: int, replicate_index: int, lane: int) -> int:
    return (grid_index * _REPLICATE_SPACE + replicate_index) * _LANES + lane


def _generator(master_seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(master_seed, spawn_key=(stream,))))


def sample_matrix(dist: dict, m: int, n: int, master_seed: int, stream: int) -> np.ndarray:
    gen = _generator(master_seed, stream)
    if dist["kind"] == "gaussian":
        return gen.standard_normal((m, n))
    if dist["kind"] == "rademacher":
        return gen.integers(0, 2, size=(m, n)).astype(float) * 2.0 - 1.0
    raise ValueError(f"the checks do not regenerate {dist['kind']!r} entries")


def sample_cost(cost: dict, n: int, master_seed: int, stream: int) -> np.ndarray:
    gen = _generator(master_seed, stream)
    if cost["kind"] == "rescaled_rademacher":
        return (gen.integers(0, 2, size=n).astype(float) * 2.0 - 1.0) / math.sqrt(n)
    if cost["kind"] == "uniform_sphere":
        g = gen.standard_normal(n)
        return g / np.linalg.norm(g)
    raise ValueError(f"the checks do not regenerate {cost['kind']!r} costs")


def instance(cfg: dict, g: int, j: int) -> Tuple[np.ndarray, np.ndarray]:
    """The (A, c) of replicate j at grid point g of a campaign config."""
    m, n = cfg["grid"][g]
    cost_rep = 0 if cfg["cost_policy"] == "FixedAcrossReplicates" else j
    A = sample_matrix(cfg["distribution"], m, n, cfg["master_seed"], stream_index(g, j, LANE_MATRIX))
    c = sample_cost(cfg["cost"], n, cfg["master_seed"], stream_index(g, cost_rep, LANE_COST))
    return A, c


def highs_z_star(A: np.ndarray, c: np.ndarray) -> float:
    """max <c, x> s.t. A x <= 1 with free x, solved by HiGHS."""
    from scipy.optimize import linprog

    res = linprog(-c, A_ub=A, b_ub=np.ones(A.shape[0]), bounds=(None, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS: {res.message}")
    return float(-res.fun)


def asymptotic_bound(m: int, n: int) -> float:
    return (2.0 * math.log(m / n)) ** -0.5


def highs_replicates(m: int, n: int, sample_size: int) -> range:
    return range(min(sample_size, max(1, HIGHS_CELLS // (m * n))))


# -- exact rademacher tail --------------------------------------------------------


def decimal_threshold(t: float) -> Fraction:
    """The threshold as written in the config: 1.8 means 9/5, not the double."""
    return Fraction(repr(float(t)))


def _sum_at_least(s: int, t: Fraction, n: int) -> bool:
    """s >= t * sqrt(n), exactly."""
    if s >= 0 and t <= 0:
        return True
    if s < 0 and t >= 0:
        return False
    if s >= 0:  # both sides nonnegative
        return s * s >= t * t * n
    return s * s <= t * t * n  # both sides negative


def rademacher_tail(n: int, t: Fraction) -> Fraction:
    """P{<y, xi> >= t} for y = (n^-1/2, ..., n^-1/2) and n independent signs xi.

    <y, xi> = (2B - n) / sqrt(n) with B ~ Binomial(n, 1/2).
    """
    hits = sum(math.comb(n, b) for b in range(n + 1) if _sum_at_least(2 * b - n, t, n))
    return Fraction(hits, 2**n)


def on_lattice(n: int, t: Fraction) -> bool:
    """Whether t * sqrt(n) is an attainable value 2B - n of a sum of n signs."""
    root = math.isqrt(n)
    if root * root != n:
        return False  # t * sqrt(n) is irrational for rational t != 0
    s = t * root
    return s.denominator == 1 and abs(s.numerator) <= n and (s.numerator - n) % 2 == 0


# -- emitted files ----------------------------------------------------------------


def read_records(out_dir: str) -> List[dict]:
    with open(os.path.join(out_dir, "records.jsonl"), encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def read_table(path: str) -> Tuple[List[dict], str]:
    """CSV rows as dicts of floats, and the trailing comment line."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    footer = lines[-1] if lines and lines[-1].startswith("#") else ""
    body = lines[:-1] if footer else lines
    rows = [{k: float(v) if v not in ("true", "false") else v == "true" for k, v in row.items()}
            for row in csv.DictReader(body)]
    return rows, footer


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


# -- per-kind checks --------------------------------------------------------------


def _check_solve_records(cfg: dict, records: List[dict], v: Verdict) -> Dict[Tuple[int, int], List[float]]:
    grid = [tuple(p) for p in cfg["grid"]]
    expected = len(grid) * cfg["sample_size"]
    v.attempted += expected
    if len(records) != expected:
        v.problems.append(f"{len(records)} records for {expected} replicates")
        return {}
    values: Dict[Tuple[int, int], List[float]] = {p: [] for p in grid}
    for k, rec in enumerate(records):
        g, j = divmod(k, cfg["sample_size"])
        m, n = grid[g]
        where = f"({m}, {n}) replicate {j}"
        if (rec["m"], rec["n"], rec["replicate_index"]) != (m, n, j) or rec["stream_index"] != stream_index(g, j, LANE_MATRIX):
            v.problems.append(f"{where}: record out of order")
            continue
        if rec["status"] != "optimal" or rec["z_star"] is None:
            v.problems.append(f"{where}: status {rec['status']}: {rec.get('error')}")
            continue
        z = rec["z_star"]
        A, c = instance(cfg, g, j)
        lower = 1.0 / float(np.max(np.abs(A @ c)))
        if z < lower * (1.0 - LOWER_BOUND_TOL):
            v.problems.append(f"{where}: z*={z!r} below the feasible point's {lower!r}")
        if j in highs_replicates(m, n, cfg["sample_size"]):
            z_ref = highs_z_star(A, c)
            if abs(z - z_ref) > Z_TOL:
                v.problems.append(f"{where}: z*={z!r} but HiGHS gives {z_ref!r}")
        values[(m, n)].append(z)
    return values


def check_distribution_study(cfg: dict, out_dir: str, v: Verdict) -> None:
    from scipy import stats

    records = read_records(out_dir)
    values = [z for zs in _check_solve_records(cfg, records, v).values() for z in zs]
    if len(values) != len(records) or not values:
        return
    arr = np.asarray(values)
    rows, footer = read_table(os.path.join(out_dir, "histogram.csv"))
    counts, edges = np.histogram(arr, bins=int(math.ceil(math.log2(arr.size))) + 1)
    if [int(r["count"]) for r in rows] != counts.tolist():
        v.problems.append(f"histogram counts {[int(r['count']) for r in rows]} != numpy {counts.tolist()}")
    elif not all(_close(r["bin_left"], e, STAT_RTOL) for r, e in zip(rows, edges)):
        v.problems.append("histogram bin edges differ from numpy's")
    if footer != "# excluded_replicates=0":
        v.problems.append(f"histogram footer {footer!r}")
    ecdf_rows, _ = read_table(os.path.join(out_dir, "ecdf.csv"))
    if [r["x"] for r in ecdf_rows] != sorted(values):
        v.problems.append("ecdf.csv is not the sorted sample")
    with open(os.path.join(out_dir, "ks.json"), encoding="utf-8") as fh:
        ks = json.load(fh)
    ref = stats.kstest(arr, "norm", args=(float(np.mean(arr)), float(np.std(arr, ddof=1)))).statistic
    if abs(ks.get("statistic", math.nan) - ref) > KS_TOL:
        v.problems.append(f"KS statistic {ks.get('statistic')} but scipy gives {ref}")


def check_stddev_table(cfg: dict, out_dir: str, v: Verdict) -> None:
    values = _check_solve_records(cfg, read_records(out_dir), v)
    rows, footer = read_table(os.path.join(out_dir, "stddev_table.csv"))
    if footer != "# excluded_replicates=0":
        v.problems.append(f"stddev table footer {footer!r}")
    for row in rows:
        zs = values.get((int(row["m"]), int(row["n"])))
        if not zs:
            continue
        sigma = float(np.std(zs, ddof=1))
        if not (_close(row["sigma_hat"], sigma, STAT_RTOL) and _close(row["sigma_sqrt_m"], sigma * math.sqrt(row["m"]), STAT_RTOL)):
            v.problems.append(f"({row['m']:.0f}, {row['n']:.0f}): sigma_hat {row['sigma_hat']} but numpy gives {sigma}")
        if not _close(row["ab"], asymptotic_bound(row["m"], row["n"]), STAT_RTOL):
            v.problems.append(f"({row['m']:.0f}, {row['n']:.0f}): ab {row['ab']}")


def check_algorithm_table(cfg: dict, out_dir: str, v: Verdict, probe: bool) -> None:
    from randlp.restore import RestoreOptions, restore

    grid = [tuple(p) for p in cfg["grid"]]
    expected = len(grid) * cfg["sample_size"]
    v.attempted += expected
    rows, _ = read_table(os.path.join(out_dir, "algorithm_table.csv"))
    records = read_records(out_dir)
    if len(rows) != expected or len(records) != expected:
        v.problems.append(f"{len(rows)} rows, {len(records)} records for {expected} replicates")
        return
    opts = RestoreOptions(**cfg["restore"])
    for k, (row, rec) in enumerate(zip(rows, records)):
        g, j = divmod(k, cfg["sample_size"])
        m, n = grid[g]
        where = f"({m}, {n}) replicate {j}"
        if (int(row["m"]), int(row["n"]), rec["replicate_index"]) != (m, n, j):
            v.problems.append(f"{where}: row out of order")
            continue
        if rec["status"] == "degenerate_block":
            v.problems.append(f"{where}: {rec.get('error')}")
            continue
        # Sweeps move orthogonally to c, so z_x is the start's objective,
        # converged or not.
        if abs(row["z_x"] - asymptotic_bound(m, n)) > ZX_TOL:
            v.problems.append(f"{where}: z_x={row['z_x']!r} but (2 log(m/n))^-1/2 = {asymptotic_bound(m, n)!r}")
        if not row["converged"]:
            if int(row["r"]) != opts.max_iters:
                v.problems.append(f"{where}: non_converged after {int(row['r'])} of {opts.max_iters} sweeps")
            elif probe:
                v.failed += 1
                v.count("restore_zigzag")
            else:
                v.count("restore_non_converged")
            continue
        if j in highs_replicates(m, n, cfg["sample_size"]):
            A, c = instance(cfg, g, j)
            trace = restore(A, c, opts)
            violation = float(np.max(A @ trace.final_x)) - 1.0
            if violation > opts.feas_tol:
                v.problems.append(f"{where}: re-run gives max(Ax) - 1 = {violation!r} > feas_tol")
            if trace.iterations != int(row["r"]) or float(c @ trace.final_x) != row["z_x"]:
                v.problems.append(f"{where}: re-run differs from the emitted row")
            z_ref = highs_z_star(A, c)
            if row["z_x"] > z_ref + Z_TOL:
                v.problems.append(f"{where}: z_x={row['z_x']!r} exceeds HiGHS z*={z_ref!r}")


def check_tail_check(cfg: dict, out_dir: str, v: Verdict, probe: bool) -> None:
    rows, _ = read_table(os.path.join(out_dir, "tail_check.csv"))
    cases = cfg["tail_cases"]
    v.attempted += len(cases)
    if len(rows) != len(cases):
        v.problems.append(f"{len(rows)} rows for {len(cases)} tail cases")
        return
    if cfg["distribution"]["kind"] != "rademacher":
        raise ValueError("the checks know the exact tail of rademacher entries only")
    for case, row in zip(cases, rows):
        n, trials = case["n"], case["trials"]
        t = decimal_threshold(case["t"])
        p = float(rademacher_tail(n, t))
        se = math.sqrt(p * (1.0 - p) / trials)
        dev = (row["p_hat"] - p) / se
        where = f"n={n} t={case['t']}: p_hat={row['p_hat']!r} vs exact {p!r} ({dev:+.2f} SE)"
        if abs(dev) <= TAIL_SE_LIMIT:
            continue
        if probe and on_lattice(n, t):
            v.failed += 1
            v.count("tail_lattice_tie")
        else:
            v.problems.append(where)


def check_campaign(cfg: dict, out_dir: str, probe: bool) -> Verdict:
    """Check one emitted campaign; cfg is the YAML mapping with its master seed."""
    v = Verdict()
    kind = cfg["experiment"]
    if kind == "DistributionStudy":
        check_distribution_study(cfg, out_dir, v)
    elif kind == "StdDevTable":
        check_stddev_table(cfg, out_dir, v)
    elif kind == "AlgorithmTable":
        check_algorithm_table(cfg, out_dir, v, probe)
    elif kind == "TailCheck":
        check_tail_check(cfg, out_dir, v, probe)
    else:
        raise ValueError(f"no checks for {kind}")
    return v


def _without_wall_time(line: str) -> dict:
    rec = json.loads(line)
    rec.pop("wall_time", None)
    return rec


def same_outputs(dir_a: str, dir_b: str) -> List[str]:
    """Differences between two emissions of the same config, wall_time aside."""
    names_a, names_b = sorted(os.listdir(dir_a)), sorted(os.listdir(dir_b))
    if names_a != names_b:
        return [f"files {names_b} != {names_a}"]
    problems = []
    for name in names_a:
        with open(os.path.join(dir_a, name), encoding="utf-8") as fa, open(os.path.join(dir_b, name), encoding="utf-8") as fb:
            a, b = fa.read(), fb.read()
        if name == "records.jsonl":
            same = [_without_wall_time(x) for x in a.splitlines()] == [_without_wall_time(x) for x in b.splitlines()]
        else:
            same = a == b
        if not same:
            problems.append(f"{name} differs between rounds")
    return problems
