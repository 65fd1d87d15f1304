"""Tests of the benchmark's own correctness checks.

    python3 -m pytest -q perfbench/tests

They run tiny campaigns through randlp, confirm the checks accept the
emitted outputs, then perturb one emitted value and confirm the checks
reject it.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import sys
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import checks  # noqa: E402
from randlp.config import config_from_mapping  # noqa: E402
from randlp.harness import emit, run_campaign  # noqa: E402

BASE = {
    "distribution": {"kind": "gaussian"},
    "cost": {"kind": "rescaled_rademacher"},
    "cost_policy": "FixedAcrossReplicates",
    "master_seed": 0,
    "workers": 1,
}
DIST = {**BASE, "experiment": "DistributionStudy", "grid": [[60, 5]], "sample_size": 12}
STDDEV = {**BASE, "experiment": "StdDevTable", "grid": [[80, 4], [60, 6]], "sample_size": 3,
          "distribution": {"kind": "rademacher"}}
RESTORE = {**BASE, "experiment": "AlgorithmTable", "grid": [[200, 10], [300, 20]], "sample_size": 3,
           "cost": {"kind": "uniform_sphere"}, "cost_policy": "FreshPerReplicate",
           "restore": {"eps0": 0.1, "shrink": 0.1, "max_iters": 50, "feas_tol": 1e-12}}
# t = 1.1 puts the threshold t * sqrt(16) = 4.4 off the lattice; t = 1.5 puts it on (6).
TAIL = {**BASE, "experiment": "TailCheck", "distribution": {"kind": "rademacher"},
        "tail_cases": [{"n": 16, "delta": 0.25, "eps": 0.0, "trials": 20000, "t": 1.1},
                       {"n": 16, "delta": 0.25, "eps": 0.0, "trials": 20000, "t": 1.5}]}


def _emitted(cfg: dict, tmp_path) -> str:
    out = str(tmp_path / cfg["experiment"])
    emit(config_from_mapping(cfg), run_campaign(config_from_mapping(cfg)), out)
    return out


def _edit_csv(path: str, row: int, column: str, fn) -> None:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    cells = lines[1 + row].split(",")
    k = header.index(column)
    cells[k] = repr(fn(float(cells[k])))
    lines[1 + row] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _edit_record(out: str, row: int, key: str, fn) -> None:
    path = os.path.join(out, "records.jsonl")
    with open(path, encoding="utf-8") as fh:
        recs = [json.loads(line) for line in fh]
    recs[row][key] = fn(recs[row][key])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(json.dumps(r, sort_keys=True) + "\n" for r in recs))


@pytest.mark.parametrize("n", range(1, 11))
def test_exact_tail_matches_brute_force(n):
    getcontext().prec = 60
    root = Decimal(n).sqrt()
    for t in (Fraction(-3, 2), Fraction(0), Fraction(1, 3), Fraction(1), Fraction(9, 5), Fraction(2)):
        bound = Decimal(t.numerator) / Decimal(t.denominator) * root
        hits = sum(1 for signs in itertools.product((-1, 1), repeat=n) if Decimal(sum(signs)) >= bound)
        assert checks.rademacher_tail(n, t) == Fraction(hits, 2**n), (n, t)


def test_exact_tail_of_the_benchmark_case():
    # P{Binomial(400, 1/2) >= 218}, from both sides of the lattice point t = 1.8.
    p = checks.rademacher_tail(400, checks.decimal_threshold(1.8))
    assert p == checks.rademacher_tail(400, checks.decimal_threshold(1.75))
    assert float(p) == pytest.approx(0.03999422712871022, rel=1e-14)


def test_lattice_points():
    assert checks.on_lattice(400, checks.decimal_threshold(1.8))
    assert not checks.on_lattice(400, checks.decimal_threshold(1.75))
    assert checks.on_lattice(400, checks.decimal_threshold(1.7))
    assert not checks.on_lattice(400, checks.decimal_threshold(1.85))  # 37 is odd, sums of 400 signs are even
    assert not checks.on_lattice(2, Fraction(1))


def test_regenerated_inputs_match_the_sampler():
    from randlp.sampling import CostVectorKind, EntryDistribution, SeedSpec, sample_cost_vector, sample_matrix

    A, c = checks.instance({**RESTORE, "master_seed": 7}, 1, 2)
    stream = checks.stream_index(1, 2, checks.LANE_MATRIX)
    assert (A == sample_matrix(EntryDistribution.gaussian(), 300, 20, SeedSpec(7, stream))).all()
    cost_stream = checks.stream_index(1, 2, checks.LANE_COST)
    assert (c == sample_cost_vector(CostVectorKind.uniform_sphere(), 20, SeedSpec(7, cost_stream))).all()


def test_distribution_study_accepted_then_perturbed_z_star_rejected(tmp_path):
    out = _emitted(DIST, tmp_path)
    verdict = checks.check_campaign(DIST, out, probe=False)
    assert verdict.problems == [] and verdict.attempted == 12 and verdict.failed == 0
    _edit_record(out, 3, "z_star", lambda z: z + 1e-6)
    problems = checks.check_campaign(DIST, out, probe=False).problems
    assert any("HiGHS" in p for p in problems), problems


def test_z_star_below_the_feasible_point_rejected(tmp_path):
    out = _emitted(DIST, tmp_path)
    _edit_record(out, 0, "z_star", lambda z: 0.01)
    problems = checks.check_campaign(DIST, out, probe=False).problems
    assert any("below the feasible point" in p for p in problems), problems


def test_perturbed_histogram_and_sigma_rejected(tmp_path):
    out = _emitted(DIST, tmp_path)
    _edit_csv(os.path.join(out, "histogram.csv"), 0, "count", lambda k: k + 1)
    assert any("histogram" in p for p in checks.check_campaign(DIST, out, probe=False).problems)

    out = _emitted(STDDEV, tmp_path)
    assert checks.check_campaign(STDDEV, out, probe=False).problems == []
    _edit_csv(os.path.join(out, "stddev_table.csv"), 1, "sigma_hat", lambda s: s * (1 + 1e-9))
    assert any("sigma_hat" in p for p in checks.check_campaign(STDDEV, out, probe=False).problems)


def test_algorithm_table_accepted_then_perturbed_z_x_rejected(tmp_path):
    out = _emitted(RESTORE, tmp_path)
    verdict = checks.check_campaign(RESTORE, out, probe=False)
    assert verdict.problems == [] and verdict.attempted == 6
    _edit_csv(os.path.join(out, "algorithm_table.csv"), 4, "z_x", lambda z: z + 1e-8)
    problems = checks.check_campaign(RESTORE, out, probe=False).problems
    assert any("z_x" in p for p in problems), problems


def test_tail_check_accepted_then_perturbed_p_hat_rejected(tmp_path):
    out = _emitted(TAIL, tmp_path)
    verdict = checks.check_campaign(TAIL, out, probe=False)
    assert verdict.problems == [] and verdict.attempted == 2 and verdict.failed == 0
    se = math.sqrt(0.25 / 20000)
    path = os.path.join(out, "tail_check.csv")
    _edit_csv(path, 0, "p_hat", lambda p: p + 10 * se)
    assert any("n=16 t=1.1" in p for p in checks.check_campaign(TAIL, out, probe=False).problems)


def test_tail_miss_on_the_lattice_is_the_named_fault_only_in_a_probe(tmp_path):
    out = _emitted(TAIL, tmp_path)
    _edit_csv(os.path.join(out, "tail_check.csv"), 1, "p_hat", lambda p: p - 10 * math.sqrt(0.25 / 20000))
    probe = checks.check_campaign(TAIL, out, probe=True)
    assert probe.problems == [] and probe.failed == 1 and probe.tallies == {"tail_lattice_tie": 1}
    seeded = checks.check_campaign(TAIL, out, probe=False)
    assert seeded.failed == 0 and len(seeded.problems) == 1


def test_rounds_that_differ_are_reported(tmp_path):
    a = _emitted(DIST, tmp_path / "a")
    b = _emitted(DIST, tmp_path / "b")
    assert checks.same_outputs(a, b) == []
    _edit_record(b, 2, "z_star", lambda z: z * (1 + 1e-15))
    assert checks.same_outputs(a, b) == ["records.jsonl differs between rounds"]
