"""Benchmark of the crdiff command line, one workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  With --trace 0 it times tasks for S
seconds and prints the end-to-end metrics; with --trace 1 it times pairs
of untraced and traced tasks and prints the per-layer metrics.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Workloads are listed in workloads.py and
explained in README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")
# One BLAS thread per process: the widest workload runs two pool threads
# on two CPUs, so workers x BLAS threads never exceeds nproc.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> None:
    """Pin BLAS threads and make the checkout's crdiff importable.

    Must run before numpy is imported.  Exits with code 2 when the
    checkout holds no crdiff source, so an installed copy is never timed.
    """
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    if not os.path.isfile(os.path.join(SRC, "crdiff", "cli.py")):
        sys.exit(f"bench: no crdiff source under {SRC}")
    sys.path.insert(0, SRC)
    import crdiff
    if os.path.dirname(os.path.abspath(crdiff.__file__)) != os.path.join(SRC, "crdiff"):
        sys.exit(f"bench: crdiff imported from {crdiff.__file__}, not {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    prepare()
    from harness import measure
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload}; one of {sorted(WORKLOADS)}")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
