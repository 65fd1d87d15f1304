"""Run one workload in this process and print its measurements as JSON.

run.py starts this script in a fresh process whose environment already pins
OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and MKL_NUM_THREADS to 1, before numpy
loads. The script drives randlp in-process as `randlp table|dist|tailcheck`
do: load_config, then run_campaign and emit per config, in a closed loop with
one caller and `workers: 1`.

    python3 perfbench/measure.py --workload dist_small --seed 0 --seconds 25 \
        --t0 <time.monotonic() of the parent> --out <dir> [--trace] [--setup-only]

setup_s runs from --t0, taken by the parent just before it started this
process, to the point where the first replicate is about to run.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import glob
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time

from workloads import THREAD_VARS, WORKLOADS


def _blas_threads():
    """The thread count OpenBLAS actually uses, read back from the library."""
    import numpy as np

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process since it started its program.

    VmHWM belongs to the process's own address space. ru_maxrss is only the
    fallback: Linux carries the parent's peak over a vfork and exec into it.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _replicates(config) -> int:
    """Replicates one campaign completes: solves, restorations, or MC trial rows."""
    if config.experiment_kind == "TailCheck":
        return sum(case.trials for case in config.tail_cases)
    return len(config.grid) * config.sample_size


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    config_mod = importlib.import_module("randlp.config")
    harness = importlib.import_module("randlp.harness")
    tracer = None
    if args.trace:
        from spans import Tracer, install, layer_metrics

        tracer = Tracer()
        install(tracer)

    campaigns = WORKLOADS[args.workload]
    configs = []
    for camp in campaigns:
        config = config_mod.load_config(camp.path)
        if config.workers != 1:
            raise SystemExit(f"{camp.path}: the benchmark measures one caller with workers: 1")
        if camp.seeded:
            config = dataclasses.replace(config, master_seed=args.seed)
        configs.append(config)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    per_round = sum(_replicates(config) for config in configs)
    round_s = []
    while True:
        t = time.perf_counter()
        for camp, config in zip(campaigns, configs):
            result = harness.run_campaign(config)
            harness.emit(config, result, os.path.join(args.out, f"r{len(round_s)}", camp.name))
        round_s.append(time.perf_counter() - t)
        # Only whole rounds run; stop before a round that would overrun.
        if sum(round_s) + statistics.fmean(round_s) > args.seconds:
            break

    report = {
        "setup_s": setup_s,
        "rounds": len(round_s),
        "round_s": round_s,
        "replicates_per_round": per_round,
        "replicates_per_s": statistics.median(per_round / s for s in round_s),
        "peak_rss_mb": peak_rss_mb(),
        "machine": machine_facts(),
    }
    if tracer is not None:
        report["layers"] = layer_metrics(tracer.spans, len(round_s), sum(round_s))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
