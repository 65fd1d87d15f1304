"""Command-line front end.

Subcommands mirror the experiment kinds: `table`, `dist`, `meanwidth`, and
`tailcheck` run campaigns from a YAML config and take --config, --seed,
--workers, and --out; `generate` (--config, --seed, --out), `solve` (--out),
and `restore` (--config, --out) work on single .npz instances. Exit codes: 0
full success, 2 partial success (some replicates errored or a restoration did
not converge), 1 bad configuration or usage.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Iterable, List, Optional, Union


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


_FLAGS = {
    "--config": {"help": "YAML campaign/instance configuration"},
    "--seed": {"type": int, "help": "override the config's master_seed"},
    "--workers": {"type": int, "help": "override the config's worker count"},
    "--out": {"help": "output file (instance commands) or directory (campaigns)"},
}


def _add_command(subs, name: str, run, flags, blurb: str, instance: bool = False) -> None:
    sub = subs.add_parser(name, help=blurb)
    if instance:
        sub.add_argument("instance", help="path to an .npz instance")
    for flag in flags:
        sub.add_argument(flag, **_FLAGS[flag])
    sub.set_defaults(run=run)


def _kinds(command: str) -> List[str]:
    """The experiment kinds that a campaign command runs."""
    from .harness import KINDS

    return [kind for kind, (runs_it, _, _) in KINDS.items() if runs_it == command]


def build_parser() -> argparse.ArgumentParser:
    from .harness import KINDS

    parser = _Parser(prog="randlp", description="Random linear program experiments")
    subs = parser.add_subparsers(dest="command", required=True)
    _add_command(subs, "generate", _cmd_generate, ("--config", "--seed", "--out"), "sample one instance to an .npz file")
    _add_command(subs, "solve", _cmd_solve, ("--out",), "solve an .npz instance exactly", instance=True)
    _add_command(
        subs, "restore", _cmd_restore, ("--config", "--out"), "run feasibility restoration on an .npz instance", instance=True
    )
    for command in dict.fromkeys(runs_it for runs_it, _, _ in KINDS.values()):
        _add_command(subs, command, _run_campaign, _FLAGS, f"run a campaign of kind {' or '.join(_kinds(command))}")
    return parser


def _load_config(args) -> "object":
    from .config import ConfigError, load_config

    if not args.config:
        raise ConfigError("this command needs --config")
    config = load_config(args.config)
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["master_seed"] = args.seed
    if getattr(args, "workers", None) is not None:
        overrides["workers"] = args.workers
    env_dir = os.environ.get("RANDLP_OUTPUT_DIR")
    if args.out:
        overrides["output_dir"] = args.out
    elif env_dir:
        overrides["output_dir"] = env_dir
    if overrides:
        from dataclasses import replace

        config = replace(config, **overrides)
    return config


def _run_campaign(args) -> int:
    from .config import ConfigError
    from .harness import emit, run_campaign

    config = _load_config(args)
    allowed = _kinds(args.command)
    if config.experiment_kind not in allowed:
        raise ConfigError(
            f"experiment kind {config.experiment_kind!r} does not belong to `{args.command}` "
            f"(expected one of {', '.join(allowed)})"
        )
    result = run_campaign(config)
    files = emit(config, result)
    for path in files:
        print(path)
    return 2 if result.partial else 0


def _cmd_generate(args) -> int:
    import numpy as np

    from .config import ConfigError
    from .harness import LANE_COST, LANE_MATRIX, sample_instance, stream_index

    config = _load_config(args)
    if not config.grid:
        raise ConfigError("generate needs a non-empty grid; the first entry is used")
    # The campaign's first replicate: replicate 0 of grid point 0.
    A, c = sample_instance(config, 0, 0, config.cost_kind)
    out = args.out or "instance.npz"
    if not out.endswith(".npz"):
        out += ".npz"
    np.savez(
        out,
        A=A,
        c=c,
        dist_kind=np.array(config.dist.kind),
        master_seed=np.array(config.master_seed, dtype=np.uint64),
        matrix_stream=np.array(stream_index(0, 0, LANE_MATRIX), dtype=np.int64),
        cost_stream=np.array(stream_index(0, 0, LANE_COST), dtype=np.int64),
    )
    print(out)
    return 0


def _load_instance(path: str):
    import numpy as np

    with np.load(path) as data:
        return np.array(data["A"], dtype=float), np.array(data["c"], dtype=float)


def write_text(path: str, text: Union[str, Iterable[str]]) -> None:
    """Write text to the file path as UTF-8 with LF line ends, on every
    platform. Every text file randlp writes goes through here. text is one
    string, or strings to write in turn, so that a large file need not be
    held whole."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines([text] if isinstance(text, str) else text)


def _write_json(payload: dict, out: Optional[str]) -> None:
    """Write payload as indented JSON to the file out, or to stdout. Arrays
    are written as lists."""
    text = json.dumps(payload, sort_keys=True, indent=2, default=lambda array: array.tolist()) + "\n"
    if out:
        write_text(out, text)
        print(out)
    else:
        sys.stdout.write(text)


def _cmd_solve(args) -> int:
    from dataclasses import asdict

    from .solver import LPInstance, solve

    A, c = _load_instance(args.instance)
    outcome = solve(LPInstance(A, c))
    _write_json(asdict(outcome), args.out)
    return 0 if outcome.status in ("optimal", "unbounded") else 2


def _cmd_restore(args) -> int:
    from dataclasses import asdict

    from .restore import RestoreOptions, restore

    A, c = _load_instance(args.instance)
    opts = _load_config(args).restore if args.config else RestoreOptions()
    trace = restore(A, c, opts)
    payload = dict(
        asdict(trace), converged=trace.converged, iterations=trace.iterations, objective=float(c @ trace.final_x)
    )
    _write_json(payload, args.out)
    return 0 if trace.converged else 2


def cap_blas_threads() -> None:
    """Default BLAS to one thread in this process's environment.

    BLAS reads these variables once, when numpy loads, so this only takes
    effect before that; processes spawned later inherit the setting. This
    module imports no numpy at import time so that main can call it first.
    """
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")


def main(argv: Optional[List[str]] = None) -> int:
    cap_blas_threads()
    parser = build_parser()
    args = parser.parse_args(argv)
    from .config import ConfigError

    try:
        return args.run(args)
    except ConfigError as exc:
        print(f"randlp: config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"randlp: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
