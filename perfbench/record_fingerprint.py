"""Record the per-item output fingerprint of every workload.

    python3 perfbench/record_fingerprint.py

Runs the first items of each workload at the fingerprint seed, plus the
Lopatinskii sweeps of probe-many-small, and writes their outputs with full
float precision to perfbench/fingerprint.json.  Benchmark runs compare
against that file at 1e-12.
"""

import json
import sys

from run import BENCH_DIR, prepare


def main() -> int:
    prepare()
    import workloads as W

    record = {name: W.record_fingerprint(wl) for name, wl in W.WORKLOADS.items()}
    with open(BENCH_DIR / "fingerprint.json", "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
