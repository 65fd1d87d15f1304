"""Campaign configuration: a YAML file naming the experiment kind, the
ensemble, the (m, n) grid, seeding, and output destination.

Each setting is declared once, on the type it builds. A top-level key is a
field of ExperimentConfig (experiment, distribution and cost name the fields
experiment_kind, dist and cost_kind); restore and each tail case are mappings
of RestoreOptions and TailCase fields; distribution and cost are kind-tagged
mappings, {kind: k_spike, k: 3}, that call the same-named classmethod of
EntryDistribution or CostVectorKind with the other keys. A key left out
takes the default declared there. Values are checked against the declared
type, never cast: an int must be a YAML integer, a bool a YAML bool, a string
a YAML string, and a float a number or a numeric string (PyYAML reads 1e-12
as a string). Unknown keys are rejected, so a typo cannot silently change an
experiment.

The experiment kinds are the keys of harness.KINDS, and sample_size is
bounded by harness.MAX_REPLICATES, the stream packing's replicate range.

CLI flags override file values; the RANDLP_OUTPUT_DIR environment variable
overrides the file's output_dir (and is itself overridden by an explicit
--out flag).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, is_dataclass
from typing import Mapping, Optional, Tuple, Union, get_args, get_origin, get_type_hints

import yaml

from .harness import KINDS, MAX_REPLICATES
from .restore import RestoreOptions
from .sampling import CostVectorKind, EntryDistribution

COST_POLICIES = ("FixedAcrossReplicates", "FreshPerReplicate")

# YAML keys of the ExperimentConfig fields whose names differ from them.
_KEYS = {"experiment_kind": "experiment", "dist": "distribution", "cost_kind": "cost"}

_TYPE_NAMES = {int: "an integer", float: "a number", bool: "true or false", str: "a string"}


class ConfigError(Exception):
    """The configuration file or flag set is invalid."""


@dataclass(frozen=True)
class TailCase:
    """One moderate-deviation check: dimension, sparsity level delta,
    threshold slack eps, trial count, and optionally an explicit threshold t
    (default (1 - eps) * sqrt(delta * n))."""

    n: int
    delta: float
    eps: float = 0.0
    trials: int = 1_000_000
    t: Optional[float] = None

    def threshold(self) -> float:
        if self.t is not None:
            return self.t
        return (1.0 - self.eps) * (self.delta * self.n) ** 0.5


@dataclass(frozen=True)
class ExperimentConfig:
    experiment_kind: str
    dist: EntryDistribution = EntryDistribution.gaussian()
    grid: Tuple[Tuple[int, int], ...] = ()
    sample_size: int = 50
    cost_kind: CostVectorKind = CostVectorKind.rescaled_rademacher()
    cost_policy: str = "FixedAcrossReplicates"
    master_seed: int = 0
    output_dir: str = "results"
    workers: int = 1
    k_values: Tuple[int, ...] = ()
    baseline_mu: Optional[float] = None
    trials: int = 200
    tail_cases: Tuple[TailCase, ...] = ()
    restore: RestoreOptions = RestoreOptions()
    svg: bool = False

    def __post_init__(self) -> None:
        if self.experiment_kind not in KINDS:
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


def _check(hint, raw: object, key: str) -> object:
    """raw as a value of the type hint: checked, never cast, except that an
    integer or a numeric string may stand for a float (PyYAML reads 1e-12 as
    a string). Settings types are built from their mappings."""
    if get_origin(hint) is Union:  # Optional[X]
        return None if raw is None else _check(get_args(hint)[0], raw, key)
    if get_origin(hint) is tuple:
        if not isinstance(raw, (list, tuple)):
            raise ConfigError(f"{key} must be a list, got {raw!r}")
        items = get_args(hint)
        if items[-1] is Ellipsis:  # Tuple[X, ...]
            return tuple(_check(items[0], value, f"{key} entry") for value in raw)
        if len(raw) != len(items):
            raise ConfigError(f"{key} must be a list of {len(items)} values, got {raw!r}")
        return tuple(_check(item, value, key) for item, value in zip(items, raw))
    if is_dataclass(hint):
        return _settings(hint, raw, key)
    if hint is float and not isinstance(raw, bool) and isinstance(raw, (int, float, str)):
        try:
            return float(raw)
        except ValueError:
            pass
    elif isinstance(raw, hint) and (hint is bool or not isinstance(raw, bool)):
        return raw
    raise ConfigError(f"{key} must be {_TYPE_NAMES[hint]}, got {raw!r}")


def _settings(cls: type, raw: object, key: str) -> object:
    """Build a settings type from its mapping. A kind-tagged type (one with
    _KINDS) is built by the classmethod its kind names, from the other keys."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{key} must be a mapping, got {raw!r}")
    kinds = getattr(cls, "_KINDS", None)
    if kinds is None:
        return _build(cls, raw, key)
    kind = raw.get("kind")
    if kind not in kinds:
        raise ConfigError(f"{key} kind must be one of {', '.join(kinds)}, got {kind!r}")
    rest = {k: v for k, v in raw.items() if k != "kind"}
    return _build(getattr(cls, kind), rest, f"{kind} {key}")


def _build(maker, raw: dict, where: str, keys: Mapping[str, str] = {}) -> object:
    """Call maker with one argument per key of raw. Each key names a parameter
    (or, through keys, is renamed to one), and a parameter left out takes its
    default."""
    params = inspect.signature(maker).parameters
    hints = get_type_hints(maker)
    name_of = {keys.get(name, name): name for name in params}
    extra = set(raw) - set(name_of)
    if extra:
        raise ConfigError(f"unknown {where} keys {sorted(extra)}")
    kwargs = {}
    for key, name in name_of.items():
        if key in raw:
            kwargs[name] = _check(hints[name], raw[key], key)
        elif params[name].default is inspect.Parameter.empty:
            raise ConfigError(f"{where} is missing key {key!r}")
    try:
        return maker(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def config_from_mapping(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("top level of the config must be a mapping")
    return _build(ExperimentConfig, raw, "config", _KEYS)


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
