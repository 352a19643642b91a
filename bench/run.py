"""Benchmark entry point for the affinegames package.

    python3 bench/run.py --workload tree-shared --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout against the package in src/.
BLAS is pinned to one thread before numpy loads. The last line of stdout
is one JSON object {"correct", "attempted", "failed", "metrics"}; see
bench/README.md. Exits 2 without a result line when an argument is
invalid or the package sources are missing.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a name from BENCHMARK.json")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "affinegames" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import affinegames

    if Path(affinegames.__file__).resolve().parent != SRC / "affinegames":
        print(f"error: imported affinegames from {affinegames.__file__}", file=sys.stderr)
        return 2
    import harness

    return harness.run(args, ROOT)


if __name__ == "__main__":
    sys.exit(main())
