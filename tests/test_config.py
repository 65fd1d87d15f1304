"""
Tests for campaign configuration parsing and validation.

"""

import math

import pytest

from randlp.cli import main
from randlp.config import (
    ConfigError,
    ExperimentConfig,
    TailCase,
    config_from_mapping,
    load_config,
)


def minimal(experiment="ObjectiveTable", **over):
    raw = {
        "experiment": experiment,
        "grid": [[100, 10]],
        "sample_size": 5,
        "master_seed": 7,
    }
    raw.update(over)
    return raw


class TestParsing:
    def test_defaults(self):
        cfg = config_from_mapping(minimal())
        assert cfg.experiment_kind == "ObjectiveTable"
        assert cfg.dist.kind == "gaussian"
        assert cfg.cost_kind.kind == "rescaled_rademacher"
        assert cfg.cost_policy == "FixedAcrossReplicates"
        assert cfg.grid == ((100, 10),)
        assert cfg.workers == 1
        assert cfg.output_dir == "results"

    def test_unknown_top_key(self):
        with pytest.raises(ConfigError):
            config_from_mapping(minimal(extra_key=1))

    def test_unknown_nested_keys(self):
        with pytest.raises(ConfigError):
            config_from_mapping(minimal(distribution={"kind": "gaussian", "scale": 2}))
        with pytest.raises(ConfigError):
            config_from_mapping(minimal(cost={"kind": "k_spike", "width": 3}))
        with pytest.raises(ConfigError):
            config_from_mapping(minimal(restore={"momentum": 0.9}))

    def test_distribution_variants(self):
        cfg = config_from_mapping(minimal(distribution={"kind": "bernoulli_normal"}))
        assert cfg.dist.p == 0.5
        with pytest.raises(ConfigError):
            config_from_mapping(minimal(distribution={"kind": "levy"}))
        with pytest.raises(ConfigError, match="variance"):
            config_from_mapping(minimal(distribution={"kind": "bernoulli_normal", "p": 0.25, "variance": 2.0}))

    def test_k_spike_defaults_to_one(self):
        cfg = config_from_mapping(minimal(cost={"kind": "k_spike"}))
        assert cfg.cost_kind.kind == "k_spike" and cfg.cost_kind.k == 1

    @pytest.mark.parametrize(
        "over",
        [
            {"sample_size": 2.7},
            {"grid": [[100.9, 10]]},
            {"workers": True},
            {"svg": "false"},
            {"distribution": {"kind": "gaussian", "p": 0.3}},
            {"cost": {"kind": "uniform_sphere", "k": 3}},
        ],
        ids=["float-int", "float-grid", "bool-int", "str-bool", "gaussian-p", "sphere-k"],
    )
    def test_values_not_cast_or_ignored(self, over):
        with pytest.raises(ConfigError, match=next(iter(over))):
            config_from_mapping(minimal(**over))

    def test_floats_accept_integers_and_numeric_strings(self):
        # PyYAML reads 1e-12 (no dot) as a string.
        cfg = config_from_mapping(minimal("AlgorithmTable", restore={"eps0": "2e-1", "feas_tol": 0}))
        assert cfg.restore.eps0 == 0.2 and cfg.restore.feas_tol == 0.0
        assert isinstance(cfg.restore.feas_tol, float)
        with pytest.raises(ConfigError, match="feas_tol"):
            config_from_mapping(minimal("AlgorithmTable", restore={"feas_tol": "tiny"}))

    def test_missing_experiment(self):
        with pytest.raises(ConfigError):
            config_from_mapping({"grid": [[10, 2]]})

    def test_grid_shape_errors(self):
        with pytest.raises(ConfigError):
            config_from_mapping(minimal(grid=[[10]]))
        with pytest.raises(ConfigError):
            config_from_mapping(minimal(grid="everywhere"))


class TestValidation:
    def test_grid_needs_m_greater_n(self):
        with pytest.raises(ConfigError):
            config_from_mapping(minimal(grid=[[10, 10]]))

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            config_from_mapping(minimal(grid=[]))

    def test_sample_size_bounds(self):
        with pytest.raises(ConfigError):
            config_from_mapping(minimal(sample_size=0))
        with pytest.raises(ConfigError):
            config_from_mapping(minimal(sample_size=2**20 + 1))

    def test_master_seed_bounds(self):
        with pytest.raises(ConfigError):
            config_from_mapping(minimal(master_seed=-1))
        with pytest.raises(ConfigError):
            config_from_mapping(minimal(master_seed=2**64))

    def test_workers_floor(self):
        with pytest.raises(ConfigError):
            config_from_mapping(minimal(workers=0))

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError):
            config_from_mapping(minimal(experiment="Tables"))

    def test_unknown_cost_policy(self):
        with pytest.raises(ConfigError):
            config_from_mapping(minimal(cost_policy="Sometimes"))

    def test_k_values_default(self):
        cfg = config_from_mapping(minimal("SparseCostTable"))
        assert cfg.k_values == tuple(range(1, 11))
        with pytest.raises(ConfigError):
            config_from_mapping(minimal("SparseCostTable", k_values=[0]))

    def test_baseline_mu_scoped(self):
        cfg = config_from_mapping(minimal("SparseCostTable", baseline_mu=0.5))
        assert cfg.baseline_mu == 0.5
        with pytest.raises(ConfigError):
            config_from_mapping(minimal(baseline_mu=0.5))
        with pytest.raises(ConfigError):
            config_from_mapping(minimal("SparseCostTable", baseline_mu=0.0))

    def test_mean_width_trials_floor(self):
        with pytest.raises(ConfigError):
            config_from_mapping(minimal("MeanWidth", trials=5))

    def test_tail_check_needs_cases(self):
        with pytest.raises(ConfigError):
            config_from_mapping({"experiment": "TailCheck", "master_seed": 1})

    def test_tail_case_bounds(self):
        base = {"experiment": "TailCheck", "master_seed": 1}
        bad = dict(base, tail_cases=[{"n": 400, "delta": 0.01, "eps": 0.1, "trials": 10}])
        with pytest.raises(ConfigError, match=r"^each tail case needs n >= 1 and trials >= 1000$"):
            config_from_mapping(bad)
        bad = dict(base, tail_cases=[{"n": 400, "delta": 0.0, "trials": 2000}])
        with pytest.raises(ConfigError, match=r"^each tail case needs delta > 0 and eps in \[0, 1\)$"):
            config_from_mapping(bad)
        # A case built in code checks its own values too.
        with pytest.raises(ValueError, match="n >= 1"):
            TailCase(n=0, delta=0.01)

    def test_tail_case_defaults_and_required_keys(self):
        base = {"experiment": "TailCheck", "master_seed": 1}
        cfg = config_from_mapping(dict(base, tail_cases=[{"n": 400, "delta": 0.01}]))
        assert cfg.tail_cases == (TailCase(n=400, delta=0.01, eps=0.0, trials=1_000_000),)
        with pytest.raises(ConfigError, match="'delta'"):
            config_from_mapping(dict(base, tail_cases=[{"n": 400, "eps": 0.1}]))

    @pytest.mark.parametrize(
        "key, value", [("eps0", 2.0), ("shrink", 0.0), ("max_iters", 0), ("feas_tol", -1e-12)]
    )
    def test_restore_values_checked(self, key, value):
        with pytest.raises(ConfigError, match=key):
            config_from_mapping(minimal("AlgorithmTable", restore={key: value}))

    def test_frozen(self):
        cfg = config_from_mapping(minimal())
        with pytest.raises(Exception):
            cfg.workers = 3


class TestTailCase:
    def test_default_threshold(self):
        case = TailCase(n=400, delta=0.01, eps=0.1, trials=2000)
        assert case.threshold() == pytest.approx(0.9 * math.sqrt(4.0))

    def test_explicit_threshold_wins(self):
        case = TailCase(n=400, delta=0.01, eps=0.1, trials=2000, t=2.5)
        assert case.threshold() == 2.5


class TestLoadConfig:
    def test_yaml_round_trip(self, tmp_path):
        path = tmp_path / "campaign.yaml"
        path.write_text(
            "experiment: ObjectiveTable\n"
            "distribution: {kind: rademacher}\n"
            "grid: [[2000, 50]]\n"
            "sample_size: 3\n"
            "master_seed: 11\n"
            "workers: 2\n"
        )
        cfg = load_config(str(path))
        assert cfg.dist.kind == "rademacher"
        assert cfg.grid == ((2000, 50),)
        assert cfg.workers == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "absent.yaml"))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("experiment: [ObjectiveTable\n", "cannot parse config"),
            ("", "is empty"),
            ("experiment: AlgorithmTable\ngrid: [[100, 10]]\nrestore: 3\n", "restore must be a mapping, got 3"),
        ],
        ids=["malformed", "empty", "scalar_for_mapping"],
    )
    def test_fails_before_any_field_is_checked(self, tmp_path, capsys, text, message):
        path = tmp_path / "campaign.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError, match=message):
            load_config(str(path))
        assert main(["table", "--config", str(path)]) == 1
        assert message in capsys.readouterr().err

    def test_non_mapping_rejected(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(ConfigError):
            load_config(str(path))
