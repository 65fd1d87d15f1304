"""The metrics run.py prints are the ones BENCHMARK.json declares, with the same units."""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_end_to_end_metrics_and_units():
    declared = {m["name"]: m["unit"] for m in _manifest()["end_to_end"]}
    assert declared == run.END_TO_END


def test_per_layer_metrics_and_units():
    declared = {m["name"]: m["unit"] for m in _manifest()["per_layer"]}
    printed = [*spans.layer_metrics([], 1, 1.0), "trace.replicates_per_s"]
    assert sorted(printed) == sorted(declared)
    assert {name: run._unit(name) for name in printed} == declared


def test_workloads():
    assert [w["name"] for w in _manifest()["workloads"]] == list(WORKLOADS)
    for campaigns in WORKLOADS.values():
        for camp in campaigns:
            assert os.path.isfile(camp.path)
