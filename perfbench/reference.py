"""Reference figures: ten runs per workload, each on another seed, summarised.

    python3 perfbench/reference.py --seeds 100-109 [--workload restore_grid ...]

Runs `run.py --trace 0` once per seed and workload, one after the other, and
prints for each end-to-end metric the median of the runs and the distance
between their first and third quartiles as a share of the median, which is
how the benchmark's bounds are judged.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("100-109"))
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    print("| workload | metric | median | IQR / median | failed share |")
    print("|---|---|---|---|---|")
    for workload in args.workload or list(WORKLOADS):
        values, shares = {}, set()
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: outputs failed their checks")
            shares.add(str(Fraction(result["failed"], result["attempted"])))
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            print(f"| {workload} | {name} | {med:.4g} | {(q3 - q1) / med:.3f} | {', '.join(sorted(shares))} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
