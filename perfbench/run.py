"""Run one workload of the mgtlab benchmark and print its metrics.

    python3 perfbench/run.py --workload interval-long --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout; it imports mgtlab from ./src.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  Lines before it repeat
every metric by name and unit, with the workload-specific extras.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# One BLAS/OpenMP thread: the benchmark host has 2 cores, and one thread
# keeps reductions in a fixed order, so outputs repeat bit for bit.
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


def prepare() -> None:
    """Pin threads and put ./src first on sys.path, before numpy is imported.

    Exits with status 2 when the checkout holds no mgtlab source.
    """
    if not (SRC / "mgtlab" / "__init__.py").is_file():
        print(f"error: no mgtlab source under {SRC}; run from a source checkout",
              file=sys.stderr)
        sys.exit(2)
    os.environ.update(THREAD_ENV)
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    prepare()
    import bench

    return bench.main(args)


if __name__ == "__main__":
    sys.exit(main())
