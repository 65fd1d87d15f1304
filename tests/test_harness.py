"""
Tests for the campaign harness: stream packing, record derivations, the
table runners, and file emission.

Every campaign here runs through run_campaign. The experiment kinds are the
keys of harness.KINDS, which _KIND_CONFIGS below mirrors with one tiny config
per kind; MAX_REPLICATES sits beside stream_index in harness.

Runner outputs are deterministic functions of (config, master_seed), so
expected values here are frozen from the seeds in use. One test exercises a
real two-worker process pool and takes a few seconds.
"""

import copy
import json
import math
import os
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from randlp import cli, harness
from randlp.config import config_from_mapping, load_config
from randlp.geometry import mean_width_mc
from randlp.harness import (
    LANE_AUX,
    LANE_COST,
    LANE_MATRIX,
    emit,
    run_campaign,
    stream_index,
)
from randlp.restore import IterationRecord, RestoreTrace
from randlp.sampling import CostVectorKind, SeedSpec, sample_cost_vector, sample_matrix
from randlp.solver import LPInstance, SolveOutcome, solve
from randlp.stats import asymptotic_bound, relative_gap, summarize, tail_probability_mc


def make_config(**over):
    raw = {
        "experiment": "ObjectiveTable",
        "grid": [[30, 5], [40, 6]],
        "sample_size": 3,
        "master_seed": 11,
    }
    raw.update(over)
    return config_from_mapping(raw)


class TestStreamIndex:
    def test_hand_values(self):
        assert stream_index(0, 0, 0) == 0
        assert stream_index(0, 0, 1) == 1
        assert stream_index(0, 1, 0) == 8
        assert stream_index(1, 0, 0) == 2**23
        assert stream_index(2, 3, 1) == (2 * 2**20 + 3) * 8 + 1

    def test_distinct_over_coordinate_block(self):
        seen = {
            stream_index(g, j, lane)
            for g in range(3)
            for j in range(5)
            for lane in range(3)
        }
        assert len(seen) == 45

    def test_out_of_range_coordinates(self):
        with pytest.raises(ValueError):
            stream_index(-1, 0, 0)
        with pytest.raises(ValueError):
            stream_index(0, 2**20, 0)
        with pytest.raises(ValueError):
            stream_index(0, -1, 0)
        with pytest.raises(ValueError):
            stream_index(0, 0, 8)


class TestRecordDerivation:
    """Records must be reproducible from their coordinates alone: matrix from
    (grid_index, replicate, lane 0), cost from (grid_index, cost replicate,
    lane 1) under the master seed."""

    def test_fixed_policy_rederives_bitwise(self):
        cfg = make_config()
        result = run_campaign(cfg)
        for g, (m, n) in enumerate(cfg.grid):
            recs = [r for r in result.records if (r.m, r.n) == (m, n)]
            assert [r.replicate_index for r in recs] == [0, 1, 2]
            c = sample_cost_vector(
                cfg.cost_kind, n, SeedSpec(cfg.master_seed, stream_index(g, 0, LANE_COST))
            )
            for j, rec in enumerate(recs):
                assert rec.stream_index == stream_index(g, j, LANE_MATRIX)
                A = sample_matrix(cfg.dist, m, n, SeedSpec(cfg.master_seed, rec.stream_index))
                out = solve(LPInstance(A, c))
                assert out.status == "optimal"
                assert rec.z_star == out.z_star
                assert rec.pivots == out.pivots

    def test_fresh_policy_rederives_bitwise(self):
        cfg = make_config(cost_policy="FreshPerReplicate", grid=[[30, 5]])
        result = run_campaign(cfg)
        for j, rec in enumerate(result.records):
            A = sample_matrix(cfg.dist, 30, 5, SeedSpec(cfg.master_seed, rec.stream_index))
            c = sample_cost_vector(
                cfg.cost_kind, 5, SeedSpec(cfg.master_seed, stream_index(0, j, LANE_COST))
            )
            out = solve(LPInstance(A, c))
            assert rec.z_star == out.z_star

    def test_policies_draw_different_costs(self):
        cfg = make_config()
        fixed = sample_cost_vector(
            cfg.cost_kind, 6, SeedSpec(cfg.master_seed, stream_index(0, 0, LANE_COST))
        )
        fresh = sample_cost_vector(
            cfg.cost_kind, 6, SeedSpec(cfg.master_seed, stream_index(0, 2, LANE_COST))
        )
        assert np.any(fixed != fresh)


def _asdict_to_json(rec):
    """RunRecord.to_json as first written, through a deep copy by asdict."""
    payload = {k: v for k, v in asdict(rec).items() if v is not None}
    if rec.z_star is None:
        payload["z_star"] = None
    return json.dumps(payload, sort_keys=True)


class TestRecordJson:
    def _records(self):
        restoration = run_campaign(
            config_from_mapping(
                {"experiment": "AlgorithmTable", "grid": [[100, 10]], "sample_size": 2,
                 "cost": {"kind": "uniform_sphere"}, "master_seed": 11}
            )
        ).records[0]
        optimal = run_campaign(make_config()).records[0]
        failed = harness.RunRecord(
            m=6, n=5, replicate_index=0, stream_index=0, z_star=None, pivots=3, wall_time=0.5,
            status="unbounded", error="unbounded",
        )
        return restoration, optimal, failed

    def test_matches_asdict_definition(self):
        restoration, optimal, failed = self._records()
        assert restoration.iterates and restoration.status == "converged"
        assert optimal.status == "optimal" and optimal.iterates is None
        for rec in (restoration, optimal, failed):
            before = copy.deepcopy(rec)
            text = rec.to_json()
            assert text == _asdict_to_json(rec)
            assert rec.to_json() == text
            assert rec == before
        assert json.loads(failed.to_json())["z_star"] is None

    def test_tail_records_name_their_threshold(self):
        # Both configs draw the same stream at n = 400, and t = 1.8 and t = 1.75
        # have the same exact tail, so only t tells their records apart.
        configs = Path(__file__).resolve().parents[1] / "perfbench" / "configs"
        payloads = []
        for name in ("tail_probe", "tail_rademacher"):
            (record,) = run_campaign(load_config(str(configs / f"{name}.yaml"))).records
            payload = json.loads(record.to_json())
            payload.pop("wall_time")
            payloads.append(payload)
        probe, rademacher = payloads
        assert (probe.pop("t"), rademacher.pop("t")) == (1.8, 1.75)
        assert probe == rademacher


class TestStubSolver:
    """Inject a trivial solver to pin down the aggregation arithmetic without
    depending on real optima. Runs stay at workers=1 so the patched module
    global is the one the tasks see."""

    def test_constant_solver_gives_zero_stddev(self, monkeypatch):
        monkeypatch.setattr(
            harness, "solve", lambda inst: SolveOutcome(status="optimal", pivots=0, z_star=0.75)
        )
        result = run_campaign(make_config(experiment="StdDevTable"))
        for row in result.rows:
            assert row["sigma_hat"] == 0.0
            assert row["sigma_sqrt_m"] == 0.0
        assert result.errored == 0
        assert not result.partial

    def test_constant_solver_objective_rows(self, monkeypatch):
        monkeypatch.setattr(
            harness, "solve", lambda inst: SolveOutcome(status="optimal", pivots=0, z_star=0.75)
        )
        result = run_campaign(make_config())
        for row in result.rows:
            assert row["mu_hat"] == 0.75
            ab = asymptotic_bound(row["m"], row["n"])
            assert row["ab"] == ab
            assert_allclose(row["relative_gap_pct"], relative_gap(ab, 0.75), rtol=1e-12)

    def test_failed_replicates_are_excluded(self, monkeypatch):
        calls = {"k": 0}

        def flaky(inst):
            k = calls["k"]
            calls["k"] += 1
            if k % 2 == 1:
                return SolveOutcome(status="numerical_failure", pivots=3, message="stub failure")
            return SolveOutcome(status="optimal", pivots=0, z_star=float(k))

        monkeypatch.setattr(harness, "solve", flaky)
        result = run_campaign(make_config(grid=[[30, 5]], sample_size=4))
        assert result.errored == 2
        assert result.partial
        assert result.rows[0]["mu_hat"] == 1.0
        assert [r.status for r in result.records] == [
            "optimal", "numerical_failure", "optimal", "numerical_failure",
        ]
        failed = [r for r in result.records if r.status != "optimal"]
        assert all(r.z_star is None and r.error == "stub failure" for r in failed)

    def test_failed_replicates_in_footer(self, monkeypatch, tmp_path):
        calls = {"k": 0}

        def flaky(inst):
            k = calls["k"]
            calls["k"] += 1
            if k % 2 == 1:
                return SolveOutcome(status="numerical_failure", pivots=3, message="stub failure")
            return SolveOutcome(status="optimal", pivots=0, z_star=float(k))

        monkeypatch.setattr(harness, "solve", flaky)
        cfg = make_config(grid=[[30, 5]], sample_size=4)
        result = run_campaign(cfg)
        emit(cfg, result, output_dir=str(tmp_path))
        lines = (tmp_path / "objective_table.csv").read_text().splitlines()
        assert lines[-1] == "# excluded_replicates=2"

    def test_singular_basis_is_excluded_not_raised(self, monkeypatch, tmp_path):
        def singular(self):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr("randlp.solver._Basis.refactor", singular)
        cfg = make_config()
        result = run_campaign(cfg)
        assert {rec.status for rec in result.records} == {"numerical_failure"}
        assert all(rec.error == "singular basis: Singular matrix" for rec in result.records)
        assert result.errored == len(result.records) == 6
        assert all(math.isnan(row["mu_hat"]) for row in result.rows)
        emit(cfg, result, output_dir=str(tmp_path))
        lines = (tmp_path / "objective_table.csv").read_text().splitlines()
        assert lines[-1] == "# excluded_replicates=6"


class TestTableRunners:
    def test_objective_rows_schema(self):
        cfg = make_config()
        result = run_campaign(cfg)
        assert [(r["m"], r["n"]) for r in result.rows] == [(30, 5), (40, 6)]
        for row in result.rows:
            assert row["ab"] == asymptotic_bound(row["m"], row["n"])
            assert math.isfinite(row["mu_hat"])
            assert_allclose(
                row["relative_gap_pct"], relative_gap(row["ab"], row["mu_hat"]), rtol=1e-12
            )
        assert result.errored == 0
        assert not result.partial

    def test_stddev_rows(self):
        cfg = make_config(experiment="StdDevTable", sample_size=4)
        result = run_campaign(cfg)
        for row in result.rows:
            assert row["sigma_hat"] > 0.0
            assert_allclose(row["sigma_sqrt_m"], row["sigma_hat"] * math.sqrt(row["m"]), rtol=1e-15)

    @pytest.mark.parametrize(
        "kind, column, statistic",
        [
            ("ObjectiveTable", "mu_hat", lambda values: float(np.mean(values))),
            ("StdDevTable", "sigma_hat", lambda values: summarize(values).std),
        ],
        ids=["ObjectiveTable", "StdDevTable"],
    )
    def test_repeated_grid_entry_reads_its_own_replicates(self, kind, column, statistic):
        # A point listed twice gets one row per entry, each from that entry's
        # own streams, not two copies of a row pooled over both entries.
        cfg = make_config(experiment=kind, grid=[[200, 10], [200, 10]], sample_size=3, master_seed=0)
        result = run_campaign(cfg)
        assert len(result.rows) == 2
        for g, row in enumerate(result.rows):
            own = [rec for rec in result.records if rec.stream_index == stream_index(g, rec.replicate_index, LANE_MATRIX)]
            assert len(own) == 3
            assert row[column] == statistic([rec.z_star for rec in own])
        assert result.rows[0][column] != result.rows[1][column]

    def test_sparse_cost_rows_and_pairing(self):
        cfg = make_config(experiment="SparseCostTable", grid=[[40, 6]], k_values=[1, 2])
        result = run_campaign(cfg)
        assert [row["k"] for row in result.rows] == [0, 1, 2]
        assert result.rows[0]["relative_gap_pct"] == 0.0
        mu_base = result.rows[0]["mu_hat"]
        for row in result.rows[1:]:
            assert_allclose(row["relative_gap_pct"], relative_gap(mu_base, row["mu_hat"]), rtol=1e-12)
        # every arm must reuse the same per-replicate matrix streams
        streams = {}
        for rec in result.records:
            streams.setdefault(rec.arm, []).append(rec.stream_index)
        assert streams["baseline"] == streams["k=1"] == streams["k=2"]

    def test_sparse_cost_empty_baseline_gives_nan_gaps(self, monkeypatch):
        # Every baseline solve (a cost with no zero entry) is unbounded, so
        # the baseline mean is NaN and so is each spike arm's gap to it.
        def stub(inst):
            if np.count_nonzero(inst.c) == inst.c.size:
                return SolveOutcome(status="unbounded", pivots=0)
            return solve(inst)

        monkeypatch.setattr(harness, "solve", stub)
        cfg = make_config(experiment="SparseCostTable", grid=[[40, 6]], k_values=[1, 2])
        rows = run_campaign(cfg).rows
        assert math.isnan(rows[0]["mu_hat"]) and rows[0]["relative_gap_pct"] == 0.0
        for row in rows[1:]:
            assert math.isfinite(row["mu_hat"]) and math.isnan(row["relative_gap_pct"])

    def test_sparse_cost_draws_each_matrix_once(self, monkeypatch):
        drawn = []

        def spy(dist, m, n, seed):
            drawn.append(seed.stream_index)
            return sample_matrix(dist, m, n, seed)

        monkeypatch.setattr(harness, "sample_matrix", spy)
        cfg = make_config(experiment="SparseCostTable", grid=[[40, 6]], k_values=[1, 2])
        result = run_campaign(cfg)
        assert drawn == [stream_index(0, j, LANE_MATRIX) for j in range(3)]
        # Records still come grid point by grid point, arm by arm.
        arms = [(rec.arm, rec.replicate_index) for rec in result.records]
        assert arms == [(arm, j) for arm in ("baseline", "k=1", "k=2") for j in range(3)]

    def test_sparse_cost_arm_rederives_bitwise(self):
        cfg = make_config(experiment="SparseCostTable", grid=[[40, 6]], k_values=[1])
        result = run_campaign(cfg)
        rec = next(r for r in result.records if r.arm == "k=1" and r.replicate_index == 1)
        A = sample_matrix(cfg.dist, 40, 6, SeedSpec(cfg.master_seed, rec.stream_index))
        c = sample_cost_vector(
            CostVectorKind.k_spike(1), 6, SeedSpec(cfg.master_seed, stream_index(0, 0, LANE_COST))
        )
        assert rec.z_star == solve(LPInstance(A, c)).z_star

    def test_sparse_cost_supplied_baseline_column(self):
        cfg = make_config(
            experiment="SparseCostTable", grid=[[40, 6]], k_values=[1, 2], baseline_mu=0.5
        )
        result = run_campaign(cfg)
        for row in result.rows:
            assert_allclose(
                row["relative_gap_vs_supplied_pct"], relative_gap(0.5, row["mu_hat"]), rtol=1e-12
            )

    def test_sparse_cost_without_supplied_baseline(self):
        cfg = make_config(experiment="SparseCostTable", grid=[[40, 6]], k_values=[1])
        result = run_campaign(cfg)
        assert all("relative_gap_vs_supplied_pct" not in row for row in result.rows)

    def test_algorithm_rows_preserve_objective(self):
        cfg = make_config(
            experiment="AlgorithmTable",
            grid=[[300, 20]],
            master_seed=3,
            cost={"kind": "uniform_sphere"},
        )
        result = run_campaign(cfg)
        ab = asymptotic_bound(300, 20)
        assert [row["r"] for row in result.rows] == [2, 2, 2]
        for row in result.rows:
            assert row["converged"] is True
            assert abs(row["z_x"] - ab) <= 1e-10
            assert row["i0"] >= 1
        assert result.errored == 0
        assert not result.partial

    def test_algorithm_non_converged_marks_partial(self):
        # master 11 replicate 0 at (300, 20) is a genuine slow-mode run
        cfg = make_config(
            experiment="AlgorithmTable",
            grid=[[300, 20]],
            sample_size=2,
            cost={"kind": "uniform_sphere"},
        )
        result = run_campaign(cfg)
        assert [row["converged"] for row in result.rows] == [False, True]
        assert result.rows[0]["r"] == 50
        assert result.records[0].status == "non_converged"
        assert result.errored == 0
        assert result.partial
        # objective is preserved even without convergence
        assert abs(result.rows[0]["z_x"] - asymptotic_bound(300, 20)) <= 1e-10

    def test_algorithm_stub_non_convergence(self, monkeypatch):
        x0 = np.zeros(5)
        violated = (5, 2, 1, 1, 1, 1, 1)

        def stub(A, c, opts):
            return RestoreTrace(
                final_x=x0,
                status="non_converged",
                iterates=[
                    IterationRecord(violated=v, epsilon=0.1 * 0.1**k, update_norm=1.0)
                    for k, v in enumerate(violated)
                ],
            )

        monkeypatch.setattr(harness, "restore", stub)
        result = run_campaign(make_config(experiment="AlgorithmTable", grid=[[30, 5]]))
        assert all(row["converged"] is False for row in result.rows)
        assert all(row["r"] == 7 for row in result.rows)
        assert all(row["i0"] == 5 and row["i1"] == 2 for row in result.rows)
        assert result.errored == 0
        assert result.partial

    def test_algorithm_degenerate_block_counts_as_error(self, monkeypatch):
        trace = RestoreTrace(
            final_x=np.zeros(5),
            status="degenerate_block",
            message="stub degenerate",
            iterates=[IterationRecord(violated=3, epsilon=0.1, update_norm=0.5)],
        )

        def stub(A, c, opts):
            return trace

        monkeypatch.setattr(harness, "restore", stub)
        result = run_campaign(
            make_config(experiment="AlgorithmTable", grid=[[30, 5]], sample_size=1)
        )
        assert result.errored == 1
        assert result.partial
        rec = result.records[0]
        assert rec.status == "degenerate_block"
        assert rec.i0 == 3 and rec.i1 == 0
        assert math.isnan(result.rows[0]["z_x"])
        assert result.rows[0]["converged"] is False

    def test_mean_width_rows_rederive(self):
        cfg = make_config(experiment="MeanWidth", grid=[[40, 4]], trials=64)
        result = run_campaign(cfg)
        row = result.rows[0]
        assert row["trials"] == 64
        assert row["estimate"] > 0.0
        assert_allclose(
            row["normalized"], math.sqrt(2.0 * math.log(10.0)) * row["estimate"], rtol=1e-15
        )
        A = sample_matrix(cfg.dist, 40, 4, SeedSpec(cfg.master_seed, stream_index(0, 0, LANE_MATRIX)))
        est = mean_width_mc(A, 64, SeedSpec(cfg.master_seed, stream_index(0, 0, LANE_AUX)))
        assert est.estimate == row["estimate"]
        assert result.records[0].status == "optimal"

    def test_mean_width_uncertified_direction_is_an_error(self, monkeypatch, tmp_path):
        monkeypatch.setattr(
            "randlp.geometry.solve", lambda inst: SolveOutcome(status="numerical_failure", pivots=0, message="stub")
        )
        cfg = make_config(experiment="MeanWidth", grid=[[40, 4]], trials=16)
        result = run_campaign(cfg)
        rec = result.records[0]
        assert rec.status == "error"
        assert rec.error.startswith("direction 0: solver reported numerical_failure")
        assert rec.z_star is None
        row = result.rows[0]
        assert all(math.isnan(row[key]) for key in ("estimate", "standard_error", "normalized"))
        emit(cfg, result, output_dir=str(tmp_path))
        lines = (tmp_path / "mean_width.csv").read_text().splitlines()
        assert lines[-1] == "# excluded_replicates=1"

    def test_tail_check_rows_rederive(self):
        cfg = make_config(
            experiment="TailCheck",
            tail_cases=[{"n": 100, "delta": 0.04, "eps": 0.0, "trials": 2000}],
        )
        result = run_campaign(cfg)
        row = result.rows[0]
        assert row["t"] == 2.0
        assert row["exponent_bound"] == math.exp(-2.0)
        assert 0.0 < row["p_hat"] < 0.2
        y = np.full(100, 100 ** -0.5)
        est = tail_probability_mc(
            y, cfg.dist, 2.0, 2000, SeedSpec(cfg.master_seed, stream_index(0, 0, LANE_MATRIX))
        )
        assert est.p_hat == row["p_hat"]
        assert not result.partial

    def test_distribution_study_payload(self):
        cfg = make_config(experiment="DistributionStudy", grid=[[30, 5]], sample_size=16)
        result = run_campaign(cfg)
        assert set(result.ks) == {"statistic", "p_value", "n_samples"}
        assert result.ks["n_samples"] == 16
        assert sum(row["count"] for row in result.rows) == 16

    def test_distribution_study_too_small_for_ks(self):
        cfg = make_config(experiment="DistributionStudy", grid=[[30, 5]], sample_size=5)
        result = run_campaign(cfg)
        assert "error" in result.ks


class TestEmission:
    def test_objective_csv_schema(self, tmp_path):
        cfg = make_config()
        result = run_campaign(cfg)
        files = emit(cfg, result, output_dir=str(tmp_path))
        assert files == [str(tmp_path / "objective_table.csv"), str(tmp_path / "records.jsonl")]
        lines = (tmp_path / "objective_table.csv").read_text().splitlines()
        assert lines[0] == "m,n,ab,mu_hat,relative_gap_pct"
        assert lines[-1] == "# excluded_replicates=0"
        assert len(lines) == 2 + len(cfg.grid)
        # float cells are repr-formatted, so parsing back is lossless
        cells = lines[1].split(",")
        assert float(cells[3]) == result.rows[0]["mu_hat"]

    def test_records_jsonl_round_trip(self, tmp_path):
        cfg = make_config()
        result = run_campaign(cfg)
        emit(cfg, result, output_dir=str(tmp_path))
        lines = (tmp_path / "records.jsonl").read_text().splitlines()
        assert len(lines) == len(result.records)
        for line, rec in zip(lines, result.records):
            payload = json.loads(line)
            assert payload["z_star"] == rec.z_star
            assert payload["stream_index"] == rec.stream_index
            assert payload["status"] == rec.status
            assert "wall_time" in payload

    def test_repeat_runs_byte_identical_modulo_wall_time(self, tmp_path):
        out = []
        for tag in ("a", "b"):
            cfg = make_config()
            result = run_campaign(cfg)
            emit(cfg, result, output_dir=str(tmp_path / tag))
            out.append(tmp_path / tag)
        assert (out[0] / "objective_table.csv").read_bytes() == (
            out[1] / "objective_table.csv"
        ).read_bytes()

        def canon(path):
            rows = []
            for line in path.read_text().splitlines():
                payload = json.loads(line)
                payload.pop("wall_time")
                rows.append(json.dumps(payload, sort_keys=True))
            return rows

        assert canon(out[0] / "records.jsonl") == canon(out[1] / "records.jsonl")

    def test_supplied_baseline_extends_header(self, tmp_path):
        cfg = make_config(
            experiment="SparseCostTable", grid=[[40, 6]], k_values=[1], baseline_mu=0.5
        )
        emit(cfg, run_campaign(cfg), output_dir=str(tmp_path))
        header = (tmp_path / "sparse_cost_table.csv").read_text().splitlines()[0]
        assert header == "k,mu_hat,relative_gap_pct,relative_gap_vs_supplied_pct"

    def test_distribution_emission(self, tmp_path):
        cfg = make_config(experiment="DistributionStudy", grid=[[30, 5]], sample_size=16, svg=True)
        result = run_campaign(cfg)
        files = emit(cfg, result, output_dir=str(tmp_path))
        names = [os.path.basename(f) for f in files]
        assert names == ["histogram.csv", "ecdf.csv", "ks.json", "histogram.svg", "ecdf.svg", "records.jsonl"]
        ks = json.loads((tmp_path / "ks.json").read_text())
        assert ks == result.ks
        ecdf_lines = (tmp_path / "ecdf.csv").read_text().splitlines()
        assert ecdf_lines[0] == "x,ecdf"
        assert ecdf_lines[-2].endswith(",1.0")
        assert "<svg" in (tmp_path / "histogram.svg").read_text()

    def test_output_dir_falls_back_to_config(self, tmp_path):
        cfg = make_config(output_dir=str(tmp_path / "from_config"))
        result = run_campaign(cfg)
        files = emit(cfg, result)
        assert all(f.startswith(str(tmp_path / "from_config")) for f in files)
        assert os.path.exists(files[0])


# One tiny config per experiment kind. Pivot paths at tall sizes depend on the
# BLAS thread count; conftest.py caps this process at one thread, as the
# spawned workers are, and sizes stay small to keep the 14 campaigns quick.
_KIND_CONFIGS = {
    "ObjectiveTable": {"grid": [[60, 8]], "sample_size": 4},
    "StdDevTable": {"grid": [[50, 5], [80, 10]], "sample_size": 3, "distribution": {"kind": "rademacher"}},
    "SparseCostTable": {"grid": [[40, 6]], "sample_size": 3, "k_values": [1, 2], "baseline_mu": 0.5},
    "DistributionStudy": {"grid": [[30, 5]], "sample_size": 16, "svg": True},
    "AlgorithmTable": {"grid": [[100, 10]], "sample_size": 3, "cost": {"kind": "uniform_sphere"}},
    # (6, 5) has an unbounded direction, so one point emits a NaN row.
    "MeanWidth": {"grid": [[40, 4], [6, 5]], "trials": 32},
    "TailCheck": {
        "distribution": {"kind": "rademacher"},
        "tail_cases": [
            {"n": 400, "delta": 0.01, "eps": 0.1, "trials": 2000, "t": 1.8},
            {"n": 100, "delta": 0.04, "eps": 0.0, "trials": 2000},
        ],
    },
}


def _canonical_records(path):
    out = []
    for line in path.read_text().splitlines():
        payload = json.loads(line)
        payload.pop("wall_time")
        out.append(json.dumps(payload, sort_keys=True))
    return out


class TestKindTable:
    def test_every_kind_has_a_command_a_config_and_a_first_file(self, tmp_path):
        assert set(harness.KINDS) == set(_KIND_CONFIGS)
        parser = cli.build_parser()
        for kind, (command, _, table_file) in harness.KINDS.items():
            args = parser.parse_args([command, "--config", "c.yaml"])
            assert args.run is cli._run_campaign
            assert kind in cli._kinds(command)
            cfg = config_from_mapping(dict(_KIND_CONFIGS[kind], experiment=kind, master_seed=11))
            files = emit(cfg, run_campaign(cfg), output_dir=str(tmp_path / kind))
            assert os.path.basename(files[0]) == table_file


class TestWorkerInvariance:
    def test_two_workers_match_one(self):
        base = {"experiment": "ObjectiveTable", "grid": [[60, 8]], "sample_size": 4, "master_seed": 11}
        serial = run_campaign(config_from_mapping(dict(base, workers=1)))
        pooled = run_campaign(config_from_mapping(dict(base, workers=2)))
        assert serial.rows == pooled.rows

        def canon(records):
            out = []
            for rec in records:
                payload = json.loads(rec.to_json())
                payload.pop("wall_time")
                out.append(json.dumps(payload, sort_keys=True))
            return out

        assert canon(serial.records) == canon(pooled.records)

    @pytest.mark.parametrize("kind", sorted(_KIND_CONFIGS))
    def test_two_workers_emit_the_same_files(self, kind, tmp_path):
        emitted = []
        for workers in (1, 2):
            cfg = config_from_mapping(dict(_KIND_CONFIGS[kind], experiment=kind, master_seed=11, workers=workers))
            files = emit(cfg, run_campaign(cfg), output_dir=str(tmp_path / f"w{workers}"))
            emitted.append([tmp_path / f"w{workers}" / os.path.basename(f) for f in files])
        serial, pooled = emitted
        assert [p.name for p in serial] == [p.name for p in pooled]
        for a, b in zip(serial, pooled):
            if a.name == "records.jsonl":
                assert _canonical_records(a) == _canonical_records(b)
            else:
                assert a.read_bytes() == b.read_bytes(), a.name

    @pytest.mark.parametrize(
        "kind, errored",
        [("MeanWidth", 1), ("TailCheck", 0)],
        ids=["MeanWidth", "TailCheck"],
    )
    def test_monte_carlo_kinds_dispatch_through_task_map(self, kind, errored, monkeypatch):
        # The spy runs the tasks in this process but records the worker
        # count each kind asked for.
        seen = []

        def spy(fn, tasks, workers):
            seen.append((len(tasks), workers))
            return [fn(t) for t in tasks]

        monkeypatch.setattr(harness, "_map_tasks", spy)
        cfg = config_from_mapping(dict(_KIND_CONFIGS[kind], experiment=kind, master_seed=11, workers=2))
        result = run_campaign(cfg)
        # Both configs have two grid points or cases.
        assert seen == [(2, 2)]
        assert len(result.rows) == len(result.records) == 2
        # MeanWidth's (6, 5) point is unbounded: its record has status
        # "error", which is excluded and makes the campaign partial.
        assert result.errored == errored
        assert result.partial == (errored > 0)
