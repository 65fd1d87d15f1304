"""
Acceptance gate: thirteen end-to-end checks, one test per criterion, each
printing a single PASS/FAIL line (run with `pytest tests/test_acceptance.py
-v -s` to see them live).

Statistical criteria run at fixed master seeds, so every number here is
reproducible. Tolerances are part of the criteria and must not be widened:
a failing line means the product, not the test, is wrong. Criterion 12's
flat-vector branch asserts a theoretical lower bound that is unattainable
at any finite scale; it fails by design and prints the exact tail value it
measured (see the assert message for the arithmetic).

The full module takes about two and a half minutes on a 2-vCPU machine (153 s;
the whole suite ran in 203 s there); criterion 9 dominates (twenty thousand LP
solves, 103 s).
"""

import math
import time

import numpy as np
import pytest

from randlp.config import config_from_mapping
from randlp.geometry import mean_width_mc
from randlp.harness import (
    LANE_COST,
    LANE_MATRIX,
    emit,
    run_campaign,
    stream_index,
)
from randlp.oracle import brute_force_oracle
from randlp.restore import RestoreOptions, restore
from randlp.sampling import (
    CostVectorKind,
    EntryDistribution,
    SeedSpec,
    sample_cost_vector,
    sample_matrix,
)
from randlp.solver import LPInstance, check_feasible, duality_gap, solve
from randlp.stats import asymptotic_bound, kolmogorov_p, normal_cdf, tail_probability_mc

GAUSSIAN = EntryDistribution.gaussian()
RADEMACHER = EntryDistribution.rademacher()
BERNOULLI_NORMAL = EntryDistribution.bernoulli_normal()
RESCALED = CostVectorKind.rescaled_rademacher()
SPHERE = CostVectorKind.uniform_sphere()

SWEEP_GRID = [[1000, 50], [2000, 50], [6000, 50], [10000, 50], [20000, 50]]

STDDEV_GRID = [
    [1000, 50], [2000, 50], [4000, 50], [6000, 50], [8000, 50], [10000, 50],
    [1000, 100], [2000, 100], [4000, 100], [6000, 100],
    [1000, 150], [2000, 150], [4000, 150], [6000, 150],
]

# deterministic reference: (m, n) -> printed objective of the restored point
RESTORE_GRID = (
    ((1000, 50), "0.408539"),
    ((1000, 100), "0.465991"),
    ((2000, 50), "0.368161"),
    ((2000, 100), "0.408539"),
    ((4000, 50), "0.337791"),
    ((4000, 100), "0.368161"),
    ((6000, 50), "0.323170"),
    ((6000, 100), "0.349456"),
    ((8000, 50), "0.313877"),
    ((8000, 100), "0.337791"),
    ((10000, 50), "0.307196"),
    ((10000, 100), "0.329505"),
)


def report(num: int, ok: bool, detail: str) -> str:
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    return line


def sweep_config(dist: str) -> dict:
    return {
        "experiment": "ObjectiveTable",
        "grid": SWEEP_GRID,
        "sample_size": 50,
        "master_seed": 0,
        "distribution": {"kind": dist},
    }


@pytest.fixture(scope="module")
def gaussian_sweep():
    result = run_campaign(config_from_mapping(sweep_config("gaussian")))
    assert result.errored == 0
    return result


@pytest.fixture(scope="module")
def rademacher_sweep():
    result = run_campaign(config_from_mapping(sweep_config("rademacher")))
    assert result.errored == 0
    return result


def test_criterion_01_solver_matches_oracle():
    t0 = time.perf_counter()
    mismatches = 0
    optimal = 0
    unbounded = 0
    for i in range(500):
        m = 3 + (i % 6)
        n = 2 + ((i // 6) % 2)
        dist = GAUSSIAN if i < 250 else RADEMACHER
        A = sample_matrix(dist, m, n, SeedSpec(7, stream_index(i, 0, LANE_MATRIX)))
        c = sample_cost_vector(RESCALED, n, SeedSpec(7, stream_index(i, 0, LANE_COST)))
        got = solve(LPInstance(A, c))
        status, z_oracle, _ = brute_force_oracle(A, c)
        if got.status != status:
            mismatches += 1
        elif status == "optimal":
            optimal += 1
            if abs(got.z_star - z_oracle) > 1e-8:
                mismatches += 1
        else:
            unbounded += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 10.0
    line = report(
        1, ok,
        f"500 instances vs. oracle: {mismatches} mismatches "
        f"({optimal} optimal, {unbounded} unbounded) in {elapsed:.2f}s (budget 10s)",
    )
    assert ok, line


def test_criterion_02_certificates_at_scale():
    t0 = time.perf_counter()
    sizes = (
        [(100, 10)] * 60 + [(500, 20)] * 50 + [(1000, 50)] * 40
        + [(2000, 50)] * 30 + [(5000, 100)] * 15 + [(10000, 100)] * 5
    )
    dists = (GAUSSIAN, RADEMACHER, BERNOULLI_NORMAL)
    violations = 0
    checked = 0
    for i, (m, n) in enumerate(sizes):
        A = sample_matrix(dists[i % 3], m, n, SeedSpec(13, stream_index(i, 0, LANE_MATRIX)))
        c = sample_cost_vector(RESCALED, n, SeedSpec(13, stream_index(i, 0, LANE_COST)))
        out = solve(LPInstance(A, c))
        if out.status != "optimal":
            continue
        checked += 1
        if check_feasible(A, out.x_star) > 1e-9:
            violations += 1
        if float(np.max(np.abs(A.T @ out.y_star - c))) > 1e-7:
            violations += 1
        if float(np.min(out.y_star)) < -1e-12:
            violations += 1
        if abs(duality_gap(LPInstance(A, c), out.x_star, out.y_star)) > 1e-7:
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and checked == 200 and elapsed < 300.0
    line = report(
        2, ok,
        f"{checked}/200 optimal outcomes, {violations} certificate violations "
        f"in {elapsed:.1f}s (budget 300s)",
    )
    assert ok, line


def test_criterion_03_gaussian_1000x50_mean(gaussian_sweep):
    row = gaussian_sweep.rows[0]
    assert (row["m"], row["n"]) == (1000, 50)
    ok = (
        abs(row["mu_hat"] - 0.50626) <= 0.015
        and abs(row["ab"] - 0.40853) <= 1e-5
        and abs(row["relative_gap_pct"] - 23.92) <= 3.0
    )
    line = report(
        3, ok,
        f"gaussian (1000, 50) x 50: mu={row['mu_hat']:.5f} (target 0.50626 +/- 0.015), "
        f"ab={row['ab']:.6f} (target 0.40853 +/- 1e-5), "
        f"gap={row['relative_gap_pct']:.2f}% (target 23.92 +/- 3.0)",
    )
    assert ok, line


def test_criterion_04_rademacher_2000x50_mean(rademacher_sweep):
    row = rademacher_sweep.rows[1]
    assert (row["m"], row["n"]) == (2000, 50)
    ok = abs(row["mu_hat"] - 0.43801) <= 0.015
    line = report(
        4, ok,
        f"rademacher (2000, 50) x 50: mu={row['mu_hat']:.5f} (target 0.43801 +/- 0.015)",
    )
    assert ok, line


def test_criterion_05_gap_decreases_with_m(gaussian_sweep, rademacher_sweep):
    details = []
    ok = True
    for name, result in (("gaussian", gaussian_sweep), ("rademacher", rademacher_sweep)):
        gaps = [row["relative_gap_pct"] for row in result.rows]
        steps = [gaps[i + 1] - gaps[i] for i in range(len(gaps) - 1)]
        ok = ok and all(step <= 1.5 for step in steps)
        details.append(f"{name} gaps {['%.2f' % g for g in gaps]}")
    line = report(5, ok, "; ".join(details) + " (each step may rise at most 1.5pp)")
    assert ok, line


def test_criterion_06_stddev_scaling_band():
    out_of_band = []
    for dist in ("gaussian", "rademacher"):
        cfg = config_from_mapping({
            "experiment": "StdDevTable",
            "grid": STDDEV_GRID,
            "sample_size": 50,
            "master_seed": 0,
            "distribution": {"kind": dist},
        })
        result = run_campaign(cfg)
        assert result.errored == 0
        for row in result.rows:
            if not 0.5 <= row["sigma_sqrt_m"] <= 1.2:
                out_of_band.append((dist, row["m"], row["n"], row["sigma_sqrt_m"]))
    ok = not out_of_band
    line = report(
        6, ok,
        f"sigma*sqrt(m) within [0.5, 1.2] at all {2 * len(STDDEV_GRID)} grid points"
        + ("" if ok else f"; out of band: {out_of_band}"),
    )
    assert ok, line


def test_criterion_07_sparse_cost_gap_pattern():
    cfg = config_from_mapping({
        "experiment": "SparseCostTable",
        "grid": [[1000, 50]],
        "sample_size": 50,
        "master_seed": 0,
        "distribution": {"kind": "bernoulli_normal"},
    })
    result = run_campaign(cfg)
    assert result.errored == 0
    gaps = {row["k"]: row["relative_gap_pct"] for row in result.rows if row["k"] > 0}
    worst_rise = max(gaps[k + 1] - gaps[k] for k in range(1, 10))
    ok = gaps[1] > 10.0 and gaps[10] < 5.0 and worst_rise <= 3.0
    line = report(
        7, ok,
        f"gap(k=1)={gaps[1]:.2f}% (>10), gap(k=10)={gaps[10]:.2f}% (<5), "
        f"worst inversion {worst_rise:.2f}pp (<=3)",
    )
    assert ok, line


def test_criterion_08_restoration_grid():
    worst = 20
    worst_point = None
    for g, ((m, n), printed) in enumerate(RESTORE_GRID):
        ab = asymptotic_bound(m, n)
        fast = 0
        for j in range(20):
            A = sample_matrix(GAUSSIAN, m, n, SeedSpec(0, stream_index(g, j, LANE_MATRIX)))
            c = sample_cost_vector(SPHERE, n, SeedSpec(0, stream_index(g, j, LANE_COST)))
            trace = restore(A, c, RestoreOptions())
            if not trace.converged:
                continue
            violation = check_feasible(A, trace.final_x)
            z = float(c @ trace.final_x)
            assert violation <= 1e-12, f"({m}, {n}) run {j}: violation {violation}"
            assert abs(z - ab) <= 1e-10, f"({m}, {n}) run {j}: z={z!r} vs ab={ab!r}"
            assert f"{z:.6f}" == printed, f"({m}, {n}) run {j}: {z:.6f} != {printed}"
            if trace.iterations <= 5:
                fast += 1
        if fast < worst:
            worst = fast
            worst_point = (m, n)
    ok = worst >= 18
    line = report(
        8, ok,
        f"12 grid points x 20 runs: worst point {worst_point} has {worst}/20 "
        f"converging with r <= 5 (need >= 18); every converged run hit its "
        f"printed objective exactly",
    )
    assert ok, line


def test_criterion_09_ks_normality_across_seeds():
    t0 = time.perf_counter()
    counts = {}
    p_ranges = {}
    for dist in ("gaussian", "rademacher"):
        p_values = []
        for master in range(10):
            cfg = config_from_mapping({
                "experiment": "DistributionStudy",
                "grid": [[1000, 50]],
                "sample_size": 1000,
                "master_seed": master,
                "distribution": {"kind": dist},
            })
            result = run_campaign(cfg)
            assert result.errored == 0
            p_values.append(result.ks["p_value"])
        counts[dist] = sum(p > 0.05 for p in p_values)
        p_ranges[dist] = (min(p_values), max(p_values))
    elapsed = time.perf_counter() - t0
    ok = counts["gaussian"] >= 8 and counts["rademacher"] >= 8 and elapsed < 1800.0
    line = report(
        9, ok,
        f"KS p>0.05 in {counts['gaussian']}/10 gaussian seeds "
        f"(p in [{p_ranges['gaussian'][0]:.3f}, {p_ranges['gaussian'][1]:.3f}]) and "
        f"{counts['rademacher']}/10 rademacher seeds "
        f"(p in [{p_ranges['rademacher'][0]:.3f}, {p_ranges['rademacher'][1]:.3f}]), "
        f"need >= 8 each, in {elapsed:.0f}s (budget 1800s)",
    )
    assert ok, line


def test_criterion_10_ks_pvalue_anchors():
    p1 = kolmogorov_p(0.0232, 1000)
    p2 = kolmogorov_p(0.0219, 1000)
    ok = abs(p1 - 0.6453) <= 0.02 and abs(p2 - 0.7161) <= 0.02
    line = report(
        10, ok,
        f"p(0.0232, 1000)={p1:.4f} (target 0.6453 +/- 0.02), "
        f"p(0.0219, 1000)={p2:.4f} (target 0.7161 +/- 0.02)",
    )
    assert ok, line


def test_criterion_11_square_mean_width():
    square = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    est = mean_width_mc(square, 10**4, SeedSpec(0, 0))
    target = 8.0 / math.pi
    deviation = abs(est.estimate - target) / est.standard_error
    ok = deviation <= 4.0
    line = report(
        11, ok,
        f"square width {est.estimate:.5f} vs 8/pi={target:.5f}, "
        f"off by {deviation:.2f} standard errors (limit 4)",
    )
    assert ok, line


def test_criterion_12_tail_probabilities():
    y = np.full(100, 100 ** -0.5)
    gaussian_ok = True
    gaussian_detail = []
    for k, t in enumerate((0.0, 1.0, 2.0)):
        est = tail_probability_mc(y, GAUSSIAN, t, 10**6, SeedSpec(0, 100 + k))
        target = 1.0 - normal_cdf(t)
        dev = abs(est.p_hat - target) / est.standard_error
        gaussian_ok = gaussian_ok and dev <= 4.0
        gaussian_detail.append(f"t={t:.0f}: {dev:.2f}SE")

    y400 = np.full(400, 400 ** -0.5)
    est = tail_probability_mc(y400, RADEMACHER, 1.8, 10**6, SeedSpec(0, 200))
    bound = math.exp(-2.0) - 4.0 * est.standard_error
    rademacher_ok = est.p_hat >= bound

    ok = gaussian_ok and rademacher_ok
    line = report(
        12, ok,
        f"gaussian tail vs 1-Phi(t) [{', '.join(gaussian_detail)}, limit 4SE]; "
        f"rademacher flat-vector p_hat={est.p_hat:.6f} vs required "
        f">= exp(-2)-4SE = {bound:.6f}",
    )
    assert ok, (
        line
        + " | the flat +/-1 case cannot satisfy this bound at any n: the exact "
        "tail P{sum of 400 signs >= 1.8*20} = P{Binomial(400, 1/2) >= 218} = "
        "0.03999422712871022, and the maximum over all n of the exact tail at "
        "threshold 1.8*sqrt(n)/sqrt(n) is 0.0625 (n=4), both far below "
        "exp(-2) ~ 0.135335, so the gap to the bound is structural, not "
        "statistical"
    )


def test_criterion_13_worker_count_invariance(tmp_path):
    import json

    outputs = {}
    for workers in (1, 8):
        cfg = config_from_mapping({
            "experiment": "ObjectiveTable",
            "grid": [[1000, 50]],
            "sample_size": 16,
            "master_seed": 0,
            "workers": workers,
        })
        result = run_campaign(cfg)
        out_dir = tmp_path / f"w{workers}"
        emit(cfg, result, output_dir=str(out_dir))
        table = (out_dir / "objective_table.csv").read_bytes()
        records = []
        for raw in (out_dir / "records.jsonl").read_text().splitlines():
            payload = json.loads(raw)
            payload.pop("wall_time")
            records.append(json.dumps(payload, sort_keys=True))
        outputs[workers] = (table, records)
    ok = outputs[1] == outputs[8]
    line = report(
        13, ok,
        "1-worker and 8-worker campaigns emit byte-identical tables and "
        "records (wall_time excluded)" if ok else "worker counts disagree",
    )
    assert ok, line
