"""Campaign configuration: a YAML file naming the experiment kind, the
ensemble, the (m, n) grid, seeding, and output destination.

CLI flags override file values; the RANDLP_OUTPUT_DIR environment variable
overrides the file's output_dir (and is itself overridden by an explicit
--out flag). Unknown keys are rejected so that a typo cannot silently change
an experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import yaml

from .restore import RestoreOptions
from .sampling import CostVectorKind, EntryDistribution

EXPERIMENT_KINDS = (
    "ObjectiveTable",
    "StdDevTable",
    "SparseCostTable",
    "DistributionStudy",
    "AlgorithmTable",
    "MeanWidth",
    "TailCheck",
)
COST_POLICIES = ("FixedAcrossReplicates", "FreshPerReplicate")

# Replicate indices are packed into stream indices below this bound.
MAX_REPLICATES = 2**20

_TOP_KEYS = {
    "experiment",
    "distribution",
    "grid",
    "sample_size",
    "cost",
    "cost_policy",
    "master_seed",
    "output_dir",
    "workers",
    "k_values",
    "baseline_mu",
    "trials",
    "tail_cases",
    "restore",
    "svg",
}


class ConfigError(Exception):
    """The configuration file or flag set is invalid."""


@dataclass(frozen=True)
class TailCase:
    """One moderate-deviation check: dimension, sparsity level delta,
    threshold slack eps, trial count, and optionally an explicit threshold t
    (default (1 - eps) * sqrt(delta * n))."""

    n: int
    delta: float
    eps: float
    trials: int
    t: Optional[float] = None

    def threshold(self) -> float:
        if self.t is not None:
            return self.t
        return (1.0 - self.eps) * (self.delta * self.n) ** 0.5


@dataclass(frozen=True)
class ExperimentConfig:
    experiment_kind: str
    dist: EntryDistribution
    grid: Tuple[Tuple[int, int], ...]
    sample_size: int
    cost_kind: CostVectorKind
    cost_policy: str
    master_seed: int
    output_dir: str
    workers: int
    k_values: Tuple[int, ...] = ()
    baseline_mu: Optional[float] = None
    trials: int = 200
    tail_cases: Tuple[TailCase, ...] = ()
    restore: RestoreOptions = field(default_factory=RestoreOptions)
    svg: bool = False

    def __post_init__(self) -> None:
        if self.experiment_kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment kind {self.experiment_kind!r}")
        if self.cost_policy not in COST_POLICIES:
            raise ConfigError(f"unknown cost policy {self.cost_policy!r}")
        if self.experiment_kind == "TailCheck":
            if not self.tail_cases:
                raise ConfigError("TailCheck needs a non-empty tail_cases list")
        else:
            if not self.grid:
                raise ConfigError("grid must be non-empty")
        for m, n in self.grid:
            if not (m > n >= 1):
                raise ConfigError(f"grid entry ({m}, {n}) needs m > n >= 1")
        if self.sample_size < 1:
            raise ConfigError("sample_size must be at least 1")
        if self.sample_size > MAX_REPLICATES:
            raise ConfigError(f"sample_size must be at most {MAX_REPLICATES}")
        if not (0 <= self.master_seed < 2**64):
            raise ConfigError("master_seed must fit in 64 bits")
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")
        if self.experiment_kind == "SparseCostTable":
            for k in self.k_values:
                if k < 1:
                    raise ConfigError("k_values must be positive")
            if not self.k_values:
                object.__setattr__(self, "k_values", tuple(range(1, 11)))
        if self.baseline_mu is not None:
            if self.experiment_kind != "SparseCostTable":
                raise ConfigError("baseline_mu only applies to SparseCostTable")
            if self.baseline_mu <= 0.0:
                raise ConfigError("baseline_mu must be positive")
        if self.experiment_kind == "MeanWidth" and self.trials < 10:
            raise ConfigError("MeanWidth needs trials >= 10")
        for case in self.tail_cases:
            if case.n < 1 or case.trials < 1000:
                raise ConfigError("each tail case needs n >= 1 and trials >= 1000")
            if not (0.0 <= case.eps < 1.0) or case.delta <= 0.0:
                raise ConfigError("each tail case needs delta > 0 and eps in [0, 1)")


def _parse_distribution(raw: object) -> EntryDistribution:
    if raw is None:
        return EntryDistribution.gaussian()
    if not isinstance(raw, dict) or "kind" not in raw:
        raise ConfigError("distribution must be a mapping with a 'kind' key")
    kind = raw["kind"]
    extra = set(raw) - {"kind", "p", "variance"}
    if extra:
        raise ConfigError(f"unknown distribution keys {sorted(extra)}")
    try:
        if kind == "gaussian":
            return EntryDistribution.gaussian()
        if kind == "rademacher":
            return EntryDistribution.rademacher()
        if kind == "bernoulli_normal":
            return EntryDistribution.bernoulli_normal(
                p=float(raw.get("p", 0.5)), variance=float(raw.get("variance", 2.0))
            )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown distribution kind {kind!r}")


def _parse_cost(raw: object) -> CostVectorKind:
    if raw is None:
        return CostVectorKind.rescaled_rademacher()
    if not isinstance(raw, dict) or "kind" not in raw:
        raise ConfigError("cost must be a mapping with a 'kind' key")
    kind = raw["kind"]
    extra = set(raw) - {"kind", "k"}
    if extra:
        raise ConfigError(f"unknown cost keys {sorted(extra)}")
    try:
        if kind == "rescaled_rademacher":
            return CostVectorKind.rescaled_rademacher()
        if kind == "uniform_sphere":
            return CostVectorKind.uniform_sphere()
        if kind == "k_spike":
            return CostVectorKind.k_spike(int(raw.get("k", 1)))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown cost kind {kind!r}")


def _parse_grid(raw: object) -> Tuple[Tuple[int, int], ...]:
    if raw is None:
        return ()
    if not isinstance(raw, list):
        raise ConfigError("grid must be a list of [m, n] pairs")
    out = []
    for entry in raw:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
            raise ConfigError(f"grid entry {entry!r} is not an [m, n] pair")
        out.append((int(entry[0]), int(entry[1])))
    return tuple(out)


def _parse_tail_cases(raw: object) -> Tuple[TailCase, ...]:
    if raw is None:
        return ()
    if not isinstance(raw, list):
        raise ConfigError("tail_cases must be a list of mappings")
    cases = []
    for entry in raw:
        if not isinstance(entry, dict):
            raise ConfigError("each tail case must be a mapping")
        extra = set(entry) - {"n", "delta", "eps", "trials", "t"}
        if extra:
            raise ConfigError(f"unknown tail case keys {sorted(extra)}")
        try:
            cases.append(
                TailCase(
                    n=int(entry["n"]),
                    delta=float(entry["delta"]),
                    eps=float(entry.get("eps", 0.0)),
                    trials=int(entry.get("trials", 1_000_000)),
                    t=None if entry.get("t") is None else float(entry["t"]),
                )
            )
        except KeyError as exc:
            raise ConfigError(f"tail case missing key {exc}") from exc
    return tuple(cases)


def _parse_restore(raw: object) -> RestoreOptions:
    if raw is None:
        return RestoreOptions()
    if not isinstance(raw, dict):
        raise ConfigError("restore must be a mapping")
    extra = set(raw) - {"eps0", "shrink", "max_iters", "feas_tol"}
    if extra:
        raise ConfigError(f"unknown restore keys {sorted(extra)}")
    # PyYAML reads exponent floats without a dot (1e-12) as strings.
    return RestoreOptions(
        eps0=float(raw.get("eps0", 0.1)),
        shrink=float(raw.get("shrink", 0.1)),
        max_iters=int(raw.get("max_iters", 50)),
        feas_tol=float(raw.get("feas_tol", 1e-12)),
    )


def config_from_mapping(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("top level of the config must be a mapping")
    extra = set(raw) - _TOP_KEYS
    if extra:
        raise ConfigError(f"unknown config keys {sorted(extra)}")
    if "experiment" not in raw:
        raise ConfigError("config needs an 'experiment' key")
    try:
        return ExperimentConfig(
            experiment_kind=str(raw["experiment"]),
            dist=_parse_distribution(raw.get("distribution")),
            grid=_parse_grid(raw.get("grid")),
            sample_size=int(raw.get("sample_size", 50)),
            cost_kind=_parse_cost(raw.get("cost")),
            cost_policy=str(raw.get("cost_policy", "FixedAcrossReplicates")),
            master_seed=int(raw.get("master_seed", 0)),
            output_dir=str(raw.get("output_dir", "results")),
            workers=int(raw.get("workers", 1)),
            k_values=tuple(int(k) for k in raw.get("k_values", [])),
            baseline_mu=None if raw.get("baseline_mu") is None else float(raw["baseline_mu"]),
            trials=int(raw.get("trials", 200)),
            tail_cases=_parse_tail_cases(raw.get("tail_cases")),
            restore=_parse_restore(raw.get("restore")),
            svg=bool(raw.get("svg", False)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate a YAML campaign file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if raw is None:
        raise ConfigError(f"config {path} is empty")
    return config_from_mapping(raw)
