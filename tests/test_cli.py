"""
Command-line tests run in-process through main(argv): exit codes, output
routing, overrides, and the generate/solve/restore round trip on .npz files.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from randlp import harness
from randlp.cli import build_parser, main
from randlp.config import load_config
from randlp.solver import SolveOutcome
from randlp.stats import asymptotic_bound


def write_config(path, **over):
    raw = {
        "experiment": "ObjectiveTable",
        "grid": [[30, 5]],
        "sample_size": 3,
        "master_seed": 11,
    }
    raw.update(over)
    path.write_text(yaml.safe_dump(raw))
    return str(path)


class TestUsage:
    def test_no_command(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_campaign_without_config(self, capsys):
        assert main(["table"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["table", "--config", str(tmp_path / "none.yaml")]) == 1

    def test_kind_command_mismatch(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml")
        assert main(["dist", "--config", cfg]) == 1
        assert "does not belong" in capsys.readouterr().err

    def test_restore_value_out_of_range(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml", experiment="AlgorithmTable", restore={"eps0": 2.0})
        assert main(["table", "--config", cfg]) == 1
        assert "randlp: config error" in capsys.readouterr().err

    def test_solve_needs_instance_argument(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve"])
        assert exc.value.code == 1

    def test_solve_missing_instance_file(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "nope.npz")]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "inst.npz", "--config", "c.yaml"],
            ["solve", "inst.npz", "--seed", "3"],
            ["solve", "inst.npz", "--workers", "2"],
            ["restore", "inst.npz", "--seed", "3"],
            ["restore", "inst.npz", "--workers", "2"],
            ["generate", "--config", "c.yaml", "--workers", "2"],
        ],
        ids=lambda argv: f"{argv[0]} {argv[-2]}",
    )
    def test_flag_the_command_does_not_read_is_usage_error(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1

    @pytest.mark.parametrize("command", ["table", "dist", "meanwidth", "tailcheck"])
    def test_campaign_commands_take_all_four_flags(self, command):
        args = build_parser().parse_args([command, "--config", "c.yaml", "--seed", "3", "--workers", "2", "--out", "o"])
        assert (args.config, args.seed, args.workers, args.out) == ("c.yaml", 3, 2, "o")


class TestImports:
    """Fresh interpreters, so numpy and randlp are not yet loaded."""

    @staticmethod
    def run_python(code):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)

    def test_cli_import_leaves_numpy_unloaded(self):
        # main caps BLAS threads through the environment, which works only
        # before numpy loads.
        proc = self.run_python("import sys, randlp.cli; print('numpy' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_restore_submodule_not_shadowed(self):
        proc = self.run_python("import types, randlp.restore; print(isinstance(randlp.restore, types.ModuleType))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "True"


class TestCampaignCommands:
    def test_table_success(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml")
        out = tmp_path / "results"
        assert main(["table", "--config", cfg, "--out", str(out)]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed == [str(out / "objective_table.csv"), str(out / "records.jsonl")]
        header = (out / "objective_table.csv").read_text().splitlines()[0]
        assert header == "m,n,ab,mu_hat,relative_gap_pct"

    def test_partial_campaign_exits_2(self, tmp_path, monkeypatch, capsys):
        calls = {"k": 0}

        def flaky(inst):
            k = calls["k"]
            calls["k"] += 1
            if k == 1:
                return SolveOutcome(status="numerical_failure", pivots=0, message="stub failure")
            return SolveOutcome(status="optimal", pivots=0, z_star=0.5)

        monkeypatch.setattr(harness, "solve", flaky)
        cfg = write_config(tmp_path / "c.yaml")
        out = tmp_path / "results"
        assert main(["table", "--config", cfg, "--out", str(out)]) == 2
        lines = (out / "objective_table.csv").read_text().splitlines()
        assert lines[-1] == "# excluded_replicates=1"

    def test_singular_basis_exits_2(self, tmp_path, monkeypatch, capsys):
        def singular(self):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr("randlp.solver._Basis.refactor", singular)
        cfg = write_config(tmp_path / "c.yaml")
        out = tmp_path / "results"
        assert main(["table", "--config", cfg, "--out", str(out)]) == 2
        lines = (out / "objective_table.csv").read_text().splitlines()
        assert lines[-1] == "# excluded_replicates=3"

    def test_seed_override_matches_config_seed(self, tmp_path, capsys):
        cfg_a = write_config(tmp_path / "a.yaml", master_seed=11)
        cfg_b = write_config(tmp_path / "b.yaml", master_seed=5)
        assert main(["table", "--config", cfg_a, "--seed", "5", "--out", str(tmp_path / "o1")]) == 0
        assert main(["table", "--config", cfg_b, "--out", str(tmp_path / "o2")]) == 0
        assert main(["table", "--config", cfg_a, "--out", str(tmp_path / "o3")]) == 0
        t1 = (tmp_path / "o1" / "objective_table.csv").read_bytes()
        t2 = (tmp_path / "o2" / "objective_table.csv").read_bytes()
        t3 = (tmp_path / "o3" / "objective_table.csv").read_bytes()
        assert t1 == t2
        assert t1 != t3

    def test_out_flag_beats_env_dir(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path / "c.yaml")
        monkeypatch.setenv("RANDLP_OUTPUT_DIR", str(tmp_path / "env_dir"))
        assert main(["table", "--config", cfg, "--out", str(tmp_path / "flag_dir")]) == 0
        assert (tmp_path / "flag_dir" / "objective_table.csv").exists()
        assert not (tmp_path / "env_dir").exists()

    def test_env_dir_beats_config_dir(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path / "c.yaml", output_dir=str(tmp_path / "cfg_dir"))
        monkeypatch.setenv("RANDLP_OUTPUT_DIR", str(tmp_path / "env_dir"))
        assert main(["table", "--config", cfg]) == 0
        assert (tmp_path / "env_dir" / "objective_table.csv").exists()
        assert not (tmp_path / "cfg_dir").exists()

    def test_workers_override(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml", grid=[[60, 8]], sample_size=4)
        assert main(["table", "--config", cfg, "--out", str(tmp_path / "w1")]) == 0
        assert main(["table", "--config", cfg, "--workers", "2", "--out", str(tmp_path / "w2")]) == 0
        t1 = (tmp_path / "w1" / "objective_table.csv").read_bytes()
        t2 = (tmp_path / "w2" / "objective_table.csv").read_bytes()
        assert t1 == t2

    def test_dist_smoke(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml", experiment="DistributionStudy", sample_size=16)
        out = tmp_path / "results"
        assert main(["dist", "--config", cfg, "--out", str(out)]) == 0
        ks = json.loads((out / "ks.json").read_text())
        assert ks["n_samples"] == 16
        assert (out / "histogram.csv").exists()
        assert (out / "ecdf.csv").exists()

    def test_meanwidth_smoke(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml", experiment="MeanWidth", grid=[[40, 4]], trials=32)
        out = tmp_path / "results"
        assert main(["meanwidth", "--config", cfg, "--out", str(out)]) == 0
        header = (out / "mean_width.csv").read_text().splitlines()[0]
        assert header == "m,n,trials,estimate,standard_error,normalized"

    def test_tailcheck_smoke(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.yaml",
            experiment="TailCheck",
            tail_cases=[{"n": 100, "delta": 0.04, "eps": 0.0, "trials": 2000}],
        )
        out = tmp_path / "results"
        assert main(["tailcheck", "--config", cfg, "--out", str(out)]) == 0
        header = (out / "tail_check.csv").read_text().splitlines()[0]
        assert header == "n,delta,eps,t,p_hat,se,exponent_bound"


class TestInstanceCommands:
    def test_generate_needs_config(self, capsys):
        assert main(["generate"]) == 1
        assert "config" in capsys.readouterr().err

    def test_generate_needs_a_grid(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.yaml", experiment="TailCheck", grid=[], tail_cases=[{"n": 400, "delta": 0.01}]
        )
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "inst.npz")]) == 1
        assert "generate needs a non-empty grid" in capsys.readouterr().err
        assert not (tmp_path / "inst.npz").exists()

    def test_generate_writes_instance(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml", grid=[[40, 6]])
        inst = tmp_path / "inst.npz"
        assert main(["generate", "--config", cfg, "--out", str(inst)]) == 0
        assert capsys.readouterr().out.strip() == str(inst)
        with np.load(inst) as data:
            assert data["A"].shape == (40, 6)
            assert abs(float(np.linalg.norm(data["c"])) - 1.0) <= 1e-12
            assert str(data["dist_kind"]) == "gaussian"
            assert int(data["master_seed"]) == 11

    def test_generate_appends_npz_extension(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml", grid=[[40, 6]])
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / "inst")]) == 0
        # the printed path must name the file that actually exists on disk
        assert capsys.readouterr().out.strip() == str(tmp_path / "inst.npz")
        assert (tmp_path / "inst.npz").exists()

    def test_generate_seed_override_changes_instance(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml", grid=[[40, 6]])
        a, b = tmp_path / "a.npz", tmp_path / "b.npz"
        assert main(["generate", "--config", cfg, "--out", str(a)]) == 0
        assert main(["generate", "--config", cfg, "--seed", "5", "--out", str(b)]) == 0
        with np.load(a) as da, np.load(b) as db:
            assert np.any(da["A"] != db["A"])
            assert int(db["master_seed"]) == 5

    @pytest.mark.parametrize("policy", ["FixedAcrossReplicates", "FreshPerReplicate"])
    def test_generate_writes_the_campaigns_first_replicate(self, tmp_path, capsys, policy):
        cfg = write_config(
            tmp_path / "c.yaml", grid=[[40, 6], [50, 7]], cost={"kind": "uniform_sphere"}, cost_policy=policy
        )
        inst, out = tmp_path / "inst.npz", tmp_path / "campaign"
        assert main(["generate", "--config", cfg, "--out", str(inst)]) == 0
        assert main(["table", "--config", cfg, "--out", str(out)]) == 0
        config = load_config(cfg)
        A, c = harness.sample_instance(config, 0, 0, config.cost_kind)
        first = json.loads((out / "records.jsonl").read_text().splitlines()[0])
        assert (first["m"], first["n"], first["replicate_index"]) == (40, 6, 0)
        with np.load(inst) as data:
            for saved, drawn in ((data["A"], A), (data["c"], c)):
                assert (saved.dtype, saved.shape, saved.tobytes()) == (drawn.dtype, drawn.shape, drawn.tobytes())
            assert int(data["matrix_stream"]) == first["stream_index"]
        # Solving the saved instance replays the campaign's record exactly.
        capsys.readouterr()
        assert main(["solve", str(inst)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert first["status"] == payload["status"] == "optimal"
        assert (payload["z_star"], payload["pivots"]) == (first["z_star"], first["pivots"])

    def test_solve_round_trip(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml", grid=[[40, 6]])
        inst = tmp_path / "inst.npz"
        main(["generate", "--config", cfg, "--out", str(inst)])
        capsys.readouterr()
        assert main(["solve", str(inst)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "optimal"
        assert payload["z_star"] > 0.0
        # the optimum must satisfy every constraint of the saved instance
        with np.load(inst) as data:
            A = data["A"]
        assert float(np.max(A @ np.array(payload["x_star"]) - 1.0)) <= 1e-9

    def test_solve_out_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml", grid=[[40, 6]])
        inst = tmp_path / "inst.npz"
        main(["generate", "--config", cfg, "--out", str(inst)])
        result = tmp_path / "solution.json"
        capsys.readouterr()
        assert main(["solve", str(inst), "--out", str(result)]) == 0
        assert capsys.readouterr().out.strip() == str(result)
        payload = json.loads(result.read_text())
        assert payload["status"] == "optimal"

    def test_solve_unbounded_instance(self, tmp_path, capsys):
        inst = tmp_path / "ub.npz"
        np.savez(inst, A=np.array([[1.0, 0.0]]), c=np.array([0.0, 1.0]))
        assert main(["solve", str(inst)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "unbounded"
        assert payload["z_star"] is None
        assert payload["ray"] == [0.0, 1.0]

    @pytest.mark.parametrize("command", ["solve", "restore"])
    @pytest.mark.parametrize(
        "arrays, reason",
        [
            ({"A": np.eye(3)}, "'c is not a file in the archive'"),
            ({"A": np.array([[1.0, np.nan], [0.0, 1.0]]), "c": np.array([1.0, 0.0])}, "entries must be finite"),
            ({"A": np.eye(3), "c": np.ones(3)}, "c must have unit Euclidean norm"),
        ],
        ids=["no_c", "nan_entry", "non_unit_c"],
    )
    def test_bad_instance_file_is_one_line(self, tmp_path, capsys, command, arrays, reason):
        inst = tmp_path / "bad.npz"
        np.savez(inst, **arrays)
        assert main([command, str(inst)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"randlp: {inst} is not an instance file: {reason}\n"

    @pytest.mark.parametrize("command", ["solve", "restore"])
    def test_npy_file_is_not_an_instance(self, tmp_path, capsys, command):
        inst = tmp_path / "A.npy"
        np.save(inst, np.eye(3))
        assert main([command, str(inst)]) == 1
        assert capsys.readouterr().err.startswith(f"randlp: {inst} is not an instance file: ")

    def test_restore_round_trip(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml", grid=[[40, 6]])
        inst = tmp_path / "inst.npz"
        main(["generate", "--config", cfg, "--out", str(inst)])
        capsys.readouterr()
        assert main(["restore", str(inst)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["converged"] is True
        assert payload["iterations"] == 1
        assert abs(payload["objective"] - asymptotic_bound(40, 6)) <= 1e-10
        # the restored point must be strictly feasible
        with np.load(inst) as data:
            A = data["A"]
        assert float(np.max(A @ np.array(payload["final_x"]))) < 1.0

    def test_restore_non_converged_exits_2(self, tmp_path, capsys):
        # near-parallel row keeps two constraints trading violations forever
        inst = tmp_path / "pp.npz"
        np.savez(
            inst,
            A=np.array([[2.0, 1e-6], [0.0, -1.0], [-1.0, 0.0]]),
            c=np.array([1.0, 0.0]),
        )
        assert main(["restore", str(inst)]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["converged"] is False
        assert payload["iterations"] == 50
        assert payload["status"] == "non_converged"
        assert payload["message"] == ""

    def test_restore_degenerate_block_exits_2(self, tmp_path, capsys):
        # the second sweep's block is row (2, 0) alone, parallel to c, so
        # pruning empties it and the run stops after one sweep
        inst = tmp_path / "deg.npz"
        np.savez(inst, A=np.array([[2.0, 0.0], [1.0, 1.0], [-1.0, 0.0]]), c=np.array([1.0, 0.0]))
        assert main(["restore", str(inst)]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "degenerate_block"
        assert payload["converged"] is False
        assert payload["iterations"] == 1
        assert payload["message"]

    def test_restore_reads_options_from_config(self, tmp_path, capsys):
        inst = tmp_path / "pp.npz"
        np.savez(
            inst,
            A=np.array([[2.0, 1e-6], [0.0, -1.0], [-1.0, 0.0]]),
            c=np.array([1.0, 0.0]),
        )
        cfg = write_config(tmp_path / "c.yaml", restore={"max_iters": 3})
        assert main(["restore", str(inst), "--config", cfg]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["iterations"] == 3

    def test_restore_out_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.yaml", grid=[[40, 6]])
        inst = tmp_path / "inst.npz"
        main(["generate", "--config", cfg, "--out", str(inst)])
        result = tmp_path / "trace.json"
        capsys.readouterr()
        assert main(["restore", str(inst), "--out", str(result)]) == 0
        assert capsys.readouterr().out.strip() == str(result)
        payload = json.loads(result.read_text())
        assert payload["converged"] is True
        assert [rec["violated"] for rec in payload["iterates"]] == [payload["iterates"][0]["violated"]]
