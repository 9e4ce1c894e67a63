"""Benchmark of the mwconsensus package, run from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...   # every workload, one process each

The package is imported from ``src/`` of the checkout this file sits in, and
nothing is built or installed.  Scratch files go to ``.perfbench/`` in the
same checkout.  All load stays in this one process, whose BLAS threads are
capped at the number of CPUs it may use.  The last line of standard output
is the result document (``correct``, ``attempted``, ``failed``,
``metrics``).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="minimum measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a child process, so no peak memory leaks across."""
    worst = 0
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], check=False)
        worst = max(worst, child.returncode)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mwconsensus" / "__init__.py").is_file():
        print(f"perfbench: package source {SRC / 'mwconsensus'} not found",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path.insert(0, str(SRC))
    import mwconsensus
    if Path(mwconsensus.__file__).resolve().parent != SRC / "mwconsensus":
        print(f"perfbench: imported {mwconsensus.__file__}, not the checkout's",
              file=sys.stderr)
        return 2
    import bench
    return bench.main(args.workload, args.seed, args.seconds, bool(args.trace),
                      ROOT)


if __name__ == "__main__":
    sys.exit(main())
