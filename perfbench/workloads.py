"""The benchmark's workloads: which campaign configs make up one round.

A round runs every config of its workload once, through `run_campaign` and
`emit`, in a fixed order. Seeded configs take the benchmark's `--seed` as
their master seed. Fault probes keep the master seed written in their file,
so the operations they fail are the same in every run, whatever the seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Tuple

CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "configs")


@dataclass(frozen=True)
class Campaign:
    name: str
    seeded: bool

    @property
    def path(self) -> str:
        return os.path.join(CONFIG_DIR, self.name + ".yaml")


WORKLOADS: Dict[str, Tuple[Campaign, ...]] = {
    "dist_small": (Campaign("dist_small", True),),
    "stddev_tall": (Campaign("stddev_tall", True),),
    "restore_grid": (Campaign("restore_grid", True), Campaign("restore_probe", False)),
    "tail_rademacher": (Campaign("tail_rademacher", True), Campaign("tail_probe", False)),
}

# Master seeds are 64-bit; the benchmark seed is used as one directly.
MAX_SEED = 2**64 - 1

# Pinned to 1 in every benchmark process, so BLAS runs single-threaded.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
