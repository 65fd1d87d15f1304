"""Print one SHA-256 digest per file that a fixed set of campaigns emits.

Usage:
    python3 scripts/emit_digests.py [--root CHECKOUT] > digests.txt
    python3 scripts/emit_digests.py [--root CHECKOUT] --against OTHER

The campaigns are every config in CHECKOUT/perfbench/configs, read in place
and never written, plus one small config per kind in CHECKOUT's
randlp.harness.KINDS. Then the instance commands run on the small
AlgorithmTable config, in process through randlp.cli.main: `randlp generate`
writes an instance, and `randlp solve --out` and `randlp restore --out` write
its solution and its restoration. randlp is imported from CHECKOUT/src. Each
output line reads `<campaign>/<file> <sha256>`, with `instance` as the
campaign of the instance commands; records.jsonl is digested with its
wall_time fields dropped, the only field that may differ between identical
runs. BLAS runs on one thread, pinned by CHECKOUT's randlp.cli.cap_blas_threads
as under the randlp command.

With --against, the script also digests OTHER, in a subprocess running this
script with --root OTHER, and prints only the lines that differ: "- " before
OTHER's, "+ " before CHECKOUT's. It exits 1 when any do, so whether a change
moved an emitted byte is one command with an exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import yaml

# One small campaign per experiment kind, at instances no larger than 100 x 10.
SMALL_CONFIGS = {
    "ObjectiveTable": {"grid": [[60, 8]], "sample_size": 4},
    "StdDevTable": {"grid": [[50, 5], [80, 10]], "sample_size": 3, "distribution": {"kind": "rademacher"}},
    "SparseCostTable": {"grid": [[40, 6]], "sample_size": 3, "k_values": [1, 2], "baseline_mu": 0.5},
    "DistributionStudy": {"grid": [[30, 5]], "sample_size": 16, "svg": True},
    "AlgorithmTable": {"grid": [[100, 10]], "sample_size": 3, "cost": {"kind": "uniform_sphere"}},
    # (6, 5) has an unbounded direction, so one point emits a NaN row.
    "MeanWidth": {"grid": [[40, 4], [6, 5]], "trials": 32},
    "TailCheck": {
        "distribution": {"kind": "rademacher"},
        "tail_cases": [
            {"n": 400, "delta": 0.01, "eps": 0.1, "trials": 2000, "t": 1.8},
            {"n": 100, "delta": 0.04, "eps": 0.0, "trials": 2000},
        ],
    },
}


def file_digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "records.jsonl":
        lines = []
        for line in data.decode("utf-8").splitlines():
            payload = json.loads(line)
            payload.pop("wall_time", None)
            lines.append(json.dumps(payload, sort_keys=True) + "\n")
        data = "".join(lines).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def instance_files(scratch: Path):
    """Run the instance commands in scratch/instance; return the files they wrote."""
    from randlp.cli import main as randlp

    out = scratch / "instance"
    out.mkdir()
    config = scratch / "instance.yaml"
    raw = dict(SMALL_CONFIGS["AlgorithmTable"], experiment="AlgorithmTable", master_seed=11)
    config.write_text(yaml.safe_dump(raw))
    inst = str(out / "instance.npz")
    runs = [
        ["generate", "--config", str(config), "--out", inst],
        ["solve", inst, "--out", str(out / "solve.json")],
        ["restore", inst, "--config", str(config), "--out", str(out / "restore.json")],
    ]
    # The commands print the paths they write; only the digests go to stdout.
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in runs:
            if randlp(argv) == 1:
                raise SystemExit(f"randlp {' '.join(argv)} failed")
    return sorted(out.iterdir())


def digest_lines(root: Path):
    """Yield one `<campaign>/<file> <sha256>` line per file that root's
    campaigns and instance commands write."""
    sys.path.insert(0, str(root / "src"))
    from randlp.cli import cap_blas_threads

    # randlp.cli loads no numpy, so BLAS is pinned before randlp.harness loads it.
    cap_blas_threads()
    from randlp.config import config_from_mapping, load_config
    from randlp.harness import KINDS, emit, run_campaign

    if set(SMALL_CONFIGS) != set(KINDS):
        raise SystemExit(f"small configs cover {sorted(SMALL_CONFIGS)}, but the kinds are {sorted(KINDS)}")
    campaigns = [(path.stem, load_config(str(path))) for path in sorted((root / "perfbench" / "configs").glob("*.yaml"))]
    for kind, raw in sorted(SMALL_CONFIGS.items()):
        campaigns.append((f"small_{kind}", config_from_mapping(dict(raw, experiment=kind, master_seed=11))))
    with tempfile.TemporaryDirectory() as scratch:
        for name, config in campaigns:
            out = Path(scratch) / name
            emit(config, run_campaign(config), output_dir=str(out))
            for path in sorted(out.iterdir()):
                yield f"{name}/{path.name} {file_digest(path)}"
        for path in instance_files(Path(scratch)):
            yield f"instance/{path.name} {file_digest(path)}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1], help="checkout to run")
    parser.add_argument("--against", type=Path, help="checkout to compare with; print only the lines that differ")
    args = parser.parse_args()
    if args.against is None:
        for line in digest_lines(args.root.resolve()):
            print(line, flush=True)
        return 0
    other = subprocess.Popen(
        [sys.executable, __file__, "--root", str(args.against.resolve())], stdout=subprocess.PIPE, text=True
    )
    ours = list(digest_lines(args.root.resolve()))
    theirs = other.communicate()[0].splitlines()
    if other.returncode != 0:
        raise SystemExit(f"digesting {args.against} failed with exit code {other.returncode}")
    differ = [f"- {line}" for line in theirs if line not in ours] + [f"+ {line}" for line in ours if line not in theirs]
    for line in differ:
        print(line)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
