"""Campaign benchmark for randlp.

    python3 perfbench/run.py --workload dist_small --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

One run measures one workload (see workloads.py and README.md). It starts
one fresh process that runs whole rounds of the workload's campaigns for
--seconds seconds, and, before and after it, SETUP_PROBES fresh processes
each that stop when set-up is done. setup_s is the median of all their
set-up times. Every process has single-threaded BLAS pinned in its
environment. Afterwards it checks every emitted output (checks.py) and prints, as its last
line, one JSON object with the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
is traced (spans.py) and the metrics are the per-layer ones.

Run outputs go to perfbench/out/<workload>/: each round's emitted files and a
run.json with the rounds, set-up samples, machine facts and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

from workloads import MAX_SEED, THREAD_VARS, WORKLOADS  # noqa: E402

SETUP_PROBES = 5
CHILD_TIMEOUT_S = 120  # beyond --seconds
SMOKE_SECONDS = 1

END_TO_END = {"replicates_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {"calls": "count", "s": "s", "mb": "MB", "p50_ms": "ms", "p95_ms": "ms", "bytes": "B"}


def _unit(name: str) -> str:
    special = {
        "solver.pivots": "count",
        "solver.pivots_per_solve": "count",
        "solver.us_per_pivot": "us",
        "restore.sweeps": "count",
        "restore.sweeps_max": "count",
        "restore.converged_ratio": "ratio",
        "trace.replicates_per_s": "1/s",
        "trace.span_coverage": "ratio",
    }
    return special.get(name) or PER_LAYER_UNITS[name.rsplit(".", 1)[1]]


def _child(args: list, timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Run measure.py in a fresh process and return the JSON it printed."""
    cmd = [sys.executable, os.path.join(HERE, "measure.py"), *args, "--t0"]
    env = dict(os.environ, PYTHONPATH=SRC)
    # --t0 is taken last, just before the process starts.
    proc = subprocess.run([*cmd, repr(time.monotonic())], env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"measure.py {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check(workload: str, seed: int, out: str, rounds: int) -> dict:
    import yaml

    import checks

    attempted = failed = 0
    problems, tallies = [], {}
    for camp in WORKLOADS[workload]:
        with open(camp.path, encoding="utf-8") as fh:
            cfg = yaml.safe_load(fh)
        if camp.seeded:
            cfg["master_seed"] = seed
        first = os.path.join(out, "r0", camp.name)
        verdict = checks.check_campaign(cfg, first, probe=not camp.seeded)
        problems += [f"{camp.name}: {p}" for p in verdict.problems]
        for r in range(1, rounds):
            problems += [f"{camp.name} round {r}: {p}" for p in checks.same_outputs(first, os.path.join(out, f"r{r}", camp.name))]
        # Every round repeats the same operations, so the verdict scales.
        attempted += verdict.attempted * rounds
        failed += verdict.failed * rounds
        for key, k in verdict.tallies.items():
            tallies[key] = tallies.get(key, 0) + k * rounds
    return {"attempted": attempted, "failed": failed, "problems": problems, "tallies": tallies}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not os.path.isfile(os.path.join(SRC, "randlp", "__init__.py")):
        raise SystemExit(f"no randlp sources under {SRC}")
    out = os.path.join(HERE, "out", workload)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    common = ["--workload", workload, "--seed", str(seed), "--out", out]
    probes = 0 if trace else SETUP_PROBES
    setups = [_child([*common, "--setup-only"])["setup_s"] for _ in range(probes)]
    main = _child([*common, "--seconds", str(seconds), *(["--trace"] if trace else [])], CHILD_TIMEOUT_S + seconds)
    setups += [main["setup_s"]] + [_child([*common, "--setup-only"])["setup_s"] for _ in range(probes)]
    blas_threads = main["machine"]["blas_threads"]
    if blas_threads not in (None, 1):
        raise SystemExit(f"BLAS ran {blas_threads} threads despite the pinned environment")
    verdict = _check(workload, seed, out, main["rounds"])
    if trace:
        values = {**main["layers"], "trace.replicates_per_s": main["replicates_per_s"]}
        metrics = {name: {"value": v, "unit": _unit(name)} for name, v in values.items()}
    else:
        values = {
            "replicates_per_s": main["replicates_per_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": main["peak_rss_mb"],
        }
        metrics = {name: {"value": v, "unit": END_TO_END[name]} for name, v in values.items()}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "setup_samples": setups, **main, **verdict, "metrics": metrics}
    with open(os.path.join(out, "run.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for problem in verdict["problems"]:
        print(f"CHECK FAILED {workload}: {problem}")
    print(f"machine: {json.dumps(main['machine'], sort_keys=True)}")
    print(f"rounds: {main['rounds']} x {main['replicates_per_round']} replicates; tallies: {verdict['tallies']}")
    return {"correct": not verdict["problems"], "attempted": verdict["attempted"], "failed": verdict["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="randlp campaign benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="master seed of the seeded campaigns")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one short round of every workload, with all checks")
    args = parser.parse_args(argv)
    # Children inherit this environment; it is set before anything loads numpy.
    os.environ.update({var: "1" for var in THREAD_VARS})
    if not 0 <= args.seed <= MAX_SEED:
        parser.error(f"--seed must lie in [0, {MAX_SEED}]")
    if args.smoke:
        ok = True
        for workload in sorted(WORKLOADS):
            result = run(workload, args.seed, SMOKE_SECONDS, bool(args.trace))
            ok = ok and result["correct"]
            print(f"smoke {workload}: {json.dumps(result)}")
        return 0 if ok else 1
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
