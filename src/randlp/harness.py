"""Experiment campaigns: deterministic seeding, optional process parallelism,
and file emission for the table, distribution, width, and tail studies.

Every random draw in a campaign comes from a stream index packed as

    stream_index = (grid_index * 2**20 + replicate_index) * 8 + lane

under the campaign's master seed, with lane 0 the coefficient matrix, lane 1
the cost vector, and lane 2 auxiliary draws (e.g. width directions). The
packing is a pure function of the task's coordinates, so results do not
depend on the worker count, and re-runs are bitwise reproducible.

KINDS is the one place an experiment kind is declared: the CLI command that
runs it, its runner, and its main table file. run_campaign runs any of them.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .cli import cap_blas_threads, write_text
from .geometry import mean_width_mc
from .restore import restore
from .sampling import CostVectorKind, SeedSpec, sample_cost_vector, sample_matrix
from .solver import LPInstance, solve
from .stats import asymptotic_bound, ecdf, histogram, ks_test, relative_gap, summarize, tail_probability_mc
from . import render

if TYPE_CHECKING:  # config imports KINDS from here
    from .config import ExperimentConfig

LANE_MATRIX = 0
LANE_COST = 1
LANE_AUX = 2
_LANES = 8
# Replicate indices are packed into stream indices below this bound.
MAX_REPLICATES = 2**20


def stream_index(grid_index: int, replicate_index: int, lane: int) -> int:
    """Pack task coordinates into a nonnegative stream index."""
    if grid_index < 0 or not (0 <= replicate_index < MAX_REPLICATES) or not (0 <= lane < _LANES):
        raise ValueError("stream coordinates out of range")
    return (grid_index * MAX_REPLICATES + replicate_index) * _LANES + lane


@dataclass
class RunRecord:
    m: int
    n: int
    replicate_index: int
    stream_index: int
    z_star: Optional[float]
    pivots: int
    wall_time: float
    status: str
    error: Optional[str] = None
    arm: Optional[str] = None
    r: Optional[int] = None
    i0: Optional[int] = None
    i1: Optional[int] = None
    converged: Optional[bool] = None
    iterates: Optional[List[Dict[str, float]]] = None
    # The threshold of a TailCheck case.
    t: Optional[float] = None

    def to_json(self) -> str:
        payload = {k: v for k, v in vars(self).items() if v is not None}
        if self.z_star is None:
            payload["z_star"] = None
        return json.dumps(payload, sort_keys=True)


# Statuses of the runs a campaign's results count. Every other status
# (unbounded, numerical_failure, degenerate_block, error, ...) is excluded.
_COUNTED = ("optimal", "converged", "non_converged")


@dataclass
class CampaignResult:
    rows: List[dict]
    records: List[RunRecord]
    ks: Optional[dict] = None

    @property
    def errored(self) -> int:
        """The number of excluded runs."""
        return sum(rec.status not in _COUNTED for rec in self.records)

    @property
    def partial(self) -> bool:
        """Some run was excluded or a restoration did not converge."""
        return self.errored > 0 or any(rec.status == "non_converged" for rec in self.records)


def _map_tasks(fn, tasks: Sequence, workers: int) -> List:
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    cap_blas_threads()
    ctx = get_context("spawn")
    with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
        return list(pool.map(fn, tasks))


def sample_instance(
    config: ExperimentConfig, grid_index: int, replicate_index: int, cost_kind: CostVectorKind
) -> Tuple[np.ndarray, np.ndarray]:
    """Draw replicate replicate_index of the campaign's grid point grid_index:
    its (A, c). Under FixedAcrossReplicates all replicates of a grid point
    share replicate 0's cost vector."""
    A = _sample_matrix(config, grid_index, replicate_index)
    return A, _sample_cost(config, grid_index, replicate_index, cost_kind)


def _sample_matrix(config: ExperimentConfig, g: int, j: int) -> np.ndarray:
    m, n = config.grid[g]
    return sample_matrix(config.dist, m, n, SeedSpec(config.master_seed, stream_index(g, j, LANE_MATRIX)))


def _sample_cost(config: ExperimentConfig, g: int, j: int, cost_kind: CostVectorKind) -> np.ndarray:
    n = config.grid[g][1]
    cost_replicate = 0 if config.cost_policy == "FixedAcrossReplicates" else j
    return sample_cost_vector(cost_kind, n, SeedSpec(config.master_seed, stream_index(g, cost_replicate, LANE_COST)))


def _replicate_tasks(
    config: ExperimentConfig, arms: Optional[List[Tuple[Optional[str], CostVectorKind]]] = None
) -> List[Tuple]:
    """One (config, grid_index, replicate_index, arms) task per grid point and
    replicate, ordered by grid point, then replicate. An arm is (label, cost
    kind); the default is the configured cost, unlabelled."""
    arms = arms if arms is not None else [(None, config.cost_kind)]
    return [(config, g, j, arms) for g in range(len(config.grid)) for j in range(config.sample_size)]


def _replicate_record(config: ExperimentConfig, grid_index: int, replicate_index: int, **fields) -> RunRecord:
    m, n = config.grid[grid_index]
    mat_stream = stream_index(grid_index, replicate_index, LANE_MATRIX)
    return RunRecord(m=m, n=n, replicate_index=replicate_index, stream_index=mat_stream, **fields)


def _solve_task(task: Tuple) -> List[RunRecord]:
    """Solve every arm on one replicate's matrix, drawn once: one record per arm."""
    config, g, j, arms = task
    A = _sample_matrix(config, g, j)
    records = []
    for label, cost_kind in arms:
        c = _sample_cost(config, g, j, cost_kind)
        t0 = time.perf_counter()
        outcome = solve(LPInstance(A, c))
        wall = time.perf_counter() - t0
        optimal = outcome.status == "optimal"
        error = None if optimal else (outcome.message or outcome.status)
        records.append(
            _replicate_record(
                config, g, j, z_star=outcome.z_star if optimal else None, pivots=outcome.pivots, wall_time=wall,
                status=outcome.status, error=error, arm=label,
            )
        )
    return records


def _restore_task(task: Tuple) -> Tuple[dict, RunRecord]:
    """One replicate's feasibility restoration: its (row, record)."""
    config, g, j, _ = task
    A, c = sample_instance(config, g, j, config.cost_kind)
    t0 = time.perf_counter()
    trace = restore(A, c, config.restore)
    wall = time.perf_counter() - t0
    degenerate = trace.status == "degenerate_block"
    rec = _replicate_record(
        config, g, j, z_star=None if degenerate else float(np.dot(c, trace.final_x)), pivots=0,
        wall_time=wall, status=trace.status, error=trace.message or None, r=trace.iterations,
        i0=trace.iterates[0].violated if trace.iterations >= 1 else 0,
        i1=trace.iterates[1].violated if trace.iterations >= 2 else 0,
        converged=trace.converged, iterates=[dict(vars(it)) for it in trace.iterates],
    )
    z_x = rec.z_star if rec.z_star is not None else float("nan")
    row = {"m": rec.m, "n": rec.n, "r": rec.r, "z_x": z_x, "i0": rec.i0, "i1": rec.i1, "converged": rec.converged}
    return row, rec


def _solve_campaign_records(config: ExperimentConfig, arms: Optional[List[Tuple[str, CostVectorKind]]] = None) -> List[List[RunRecord]]:
    """Run one solve per (grid point, arm, replicate); return the records of
    each (grid point, arm) as one run of sample_size, ordered by grid point,
    then arm.

    Arms share the per-replicate matrix streams, so a cost-vector sweep is a
    paired comparison on identical matrices, each drawn once.
    """
    per_task = _map_tasks(_solve_task, _replicate_tasks(config, arms), config.workers)
    k = config.sample_size
    # A task holds one replicate's record for every arm.
    return [
        [records[a] for records in per_task[i : i + k]]
        for i in range(0, len(per_task), k)
        for a in range(len(per_task[i]))
    ]


def _concat(runs: List[List[RunRecord]]) -> List[RunRecord]:
    return [rec for run in runs for rec in run]


def _optimal_values(records: List[RunRecord]) -> List[float]:
    return [rec.z_star for rec in records if rec.status == "optimal" and rec.z_star is not None]


def _grid_table(config: ExperimentConfig, row_stats) -> CampaignResult:
    """Solve the grid and build one row per grid entry: m, n, ab, then
    row_stats(m, ab, optimal values) of that entry's own replicates."""
    runs = _solve_campaign_records(config)
    rows = []
    for (m, n), run in zip(config.grid, runs):
        ab = asymptotic_bound(m, n)
        rows.append({"m": m, "n": n, "ab": ab, **row_stats(m, ab, _optimal_values(run))})
    return CampaignResult(rows=rows, records=_concat(runs))


def _mean_stats(m: int, ab: float, values: List[float]) -> dict:
    mu = float(np.mean(values)) if values else float("nan")
    gap = relative_gap(ab, mu) if values else float("nan")
    return {"mu_hat": mu, "relative_gap_pct": gap}


def _stddev_stats(m: int, ab: float, values: List[float]) -> dict:
    if len(values) < 2:
        return {"sigma_hat": float("nan"), "sigma_sqrt_m": float("nan")}
    sigma = summarize(values).std
    return {"sigma_hat": sigma, "sigma_sqrt_m": sigma * math.sqrt(m)}


def _sparse_cost_table(config: ExperimentConfig) -> CampaignResult:
    """Spike-cost sweep against the spread-cost baseline on shared matrices.

    k = 0 in the output denotes the baseline row.
    """
    arms = [("baseline", config.cost_kind)] + [(f"k={k}", CostVectorKind.k_spike(k)) for k in config.k_values]
    runs = _solve_campaign_records(config, arms=arms)
    # Runs go grid point by grid point, arm by arm, so arm a pools every
    # grid point's run a.
    arm_values = [_optimal_values(_concat(runs[a :: len(arms)])) for a in range(len(arms))]
    baseline_values = arm_values[0]
    mu_base = float(np.mean(baseline_values)) if baseline_values else float("nan")
    supplied = config.baseline_mu
    rows = [{"k": 0, "mu_hat": mu_base, "relative_gap_pct": 0.0}]
    # Each spike arm's reference level is the baseline mean (_mean_stats
    # ignores m); with no baseline values it is NaN, and so is every gap.
    for k, values in zip(config.k_values, arm_values[1:]):
        rows.append({"k": k, **_mean_stats(0, mu_base, values)})
    if supplied is not None:
        for row in rows:
            mu = row["mu_hat"]
            row["relative_gap_vs_supplied_pct"] = (
                relative_gap(supplied, mu) if math.isfinite(mu) else float("nan")
            )
    return CampaignResult(rows=rows, records=_concat(runs))


_HISTOGRAM_COLUMNS = ("bin_left", "bin_right", "count")


def _distribution_study(config: ExperimentConfig) -> CampaignResult:
    """Histogram, ECDF, and normal goodness-of-fit of the objective ensemble."""
    records = _concat(_solve_campaign_records(config))
    values = _optimal_values(records)
    ks_payload: dict
    try:
        result = ks_test(values)
        ks_payload = {"statistic": result.statistic, "p_value": result.p_value, "n_samples": result.n_samples}
    except ValueError as exc:
        ks_payload = {"error": str(exc)}
    rows = [dict(zip(_HISTOGRAM_COLUMNS, b)) for b in histogram(values)] if values else []
    return CampaignResult(rows=rows, records=records, ks=ks_payload)


def _mean_width_task(task: Tuple) -> Tuple[dict, RunRecord]:
    """One grid point's mean width: its (row, record)."""
    config, g = task
    m, n = config.grid[g]
    A = _sample_matrix(config, g, 0)
    t0 = time.perf_counter()
    est = mean_width_mc(A, config.trials, SeedSpec(config.master_seed, stream_index(g, 0, LANE_AUX)))
    wall = time.perf_counter() - t0
    row = {
        "m": m,
        "n": n,
        "trials": est.trials,
        "estimate": est.estimate,
        "standard_error": est.standard_error,
        "normalized": est.normalized,
    }
    record = _replicate_record(
        config, g, 0, z_star=None if est.error else est.estimate, pivots=0, wall_time=wall,
        status="error" if est.error else "optimal", error=est.error or None,
    )
    return row, record


def _tail_task(task: Tuple) -> Tuple[dict, RunRecord]:
    """One tail case's Monte Carlo estimate: its (row, record)."""
    config, case_index = task
    case = config.tail_cases[case_index]
    t = case.threshold()
    spec = SeedSpec(config.master_seed, stream_index(case_index, 0, LANE_MATRIX))
    t0 = time.perf_counter()
    est = tail_probability_mc(np.full(case.n, case.n ** -0.5), config.dist, t, case.trials, spec)
    wall = time.perf_counter() - t0
    row = {
        "n": case.n,
        "delta": case.delta,
        "eps": case.eps,
        "t": t,
        "p_hat": est.p_hat,
        "se": est.standard_error,
        "exponent_bound": math.exp(-case.delta * case.n / 2.0),
    }
    record = RunRecord(
        m=case.trials, n=case.n, replicate_index=0, stream_index=spec.stream_index,
        z_star=est.p_hat, pivots=0, wall_time=wall, status="optimal", t=t,
    )
    return row, record


def _row_record_table(fn, tasks_of, config: ExperimentConfig) -> CampaignResult:
    """Run the tasks tasks_of(config), each of which fn turns into a (row,
    record) pair."""
    pairs = _map_tasks(fn, tasks_of(config), config.workers)
    return CampaignResult(rows=[row for row, _ in pairs], records=[rec for _, rec in pairs])


# Experiment kind -> (CLI command, runner, main table file). A table's
# columns are its rows' keys, in the order its runner writes them. MeanWidth
# runs one task per grid point, TailCheck one per tail case.
KINDS = {
    "ObjectiveTable": ("table", partial(_grid_table, row_stats=_mean_stats), "objective_table.csv"),
    "StdDevTable": ("table", partial(_grid_table, row_stats=_stddev_stats), "stddev_table.csv"),
    "SparseCostTable": ("table", _sparse_cost_table, "sparse_cost_table.csv"),
    "DistributionStudy": ("dist", _distribution_study, "histogram.csv"),
    "AlgorithmTable": ("table", partial(_row_record_table, _restore_task, _replicate_tasks), "algorithm_table.csv"),
    "MeanWidth": (
        "meanwidth",
        partial(_row_record_table, _mean_width_task, lambda config: [(config, g) for g in range(len(config.grid))]),
        "mean_width.csv",
    ),
    "TailCheck": (
        "tailcheck",
        partial(_row_record_table, _tail_task, lambda config: [(config, i) for i in range(len(config.tail_cases))]),
        "tail_check.csv",
    ),
}


def run_campaign(config: ExperimentConfig) -> CampaignResult:
    """Run the campaign of the configured experiment kind."""
    return KINDS[config.experiment_kind][1](config)


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_text(header: Sequence[str], rows: List[dict], footer: str) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_format_cell(row[col]) for col in header))
    lines.append(footer)
    return "\n".join(lines) + "\n"


def emit(config: ExperimentConfig, result: CampaignResult, output_dir: Optional[str] = None) -> List[str]:
    """Write the campaign's CSV/JSON (and optional SVG) files; returns paths.

    Output is bitwise identical for identical inputs, apart from wall_time
    fields inside records.jsonl.
    """
    out = output_dir if output_dir is not None else config.output_dir
    os.makedirs(out, exist_ok=True)
    kind = config.experiment_kind
    footer = f"# excluded_replicates={result.errored}"
    # Only the histogram can have no rows: every replicate failed.
    header = tuple(result.rows[0]) if result.rows else _HISTOGRAM_COLUMNS
    files = [(KINDS[kind][2], _csv_text(header, result.rows, footer))]
    if kind == "DistributionStudy":
        values = _optimal_values(result.records)
        ecdf_rows = [{"x": x, "ecdf": p} for (x, p) in ecdf(values)] if values else []
        files.append(("ecdf.csv", _csv_text(("x", "ecdf"), ecdf_rows, footer)))
        files.append(("ks.json", json.dumps(result.ks, sort_keys=True) + "\n"))
        if config.svg:
            files.append(("histogram.svg", render.svg_histogram([tuple(row.values()) for row in result.rows])))
            files.append(("ecdf.svg", render.svg_steps([(row["x"], row["ecdf"]) for row in ecdf_rows])))
    # The largest file: written a line at a time, never held whole.
    files.append(("records.jsonl", (rec.to_json() + "\n" for rec in result.records)))
    paths = [os.path.join(out, name) for name, _ in files]
    for path, (_, text) in zip(paths, files):
        write_text(path, text)
    return paths
