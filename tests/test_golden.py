"""Golden CSV bodies of every runner at toy sizes.

The recorded files under tests/golden/ pin what each subcommand writes, so a
refactor that changes a float operation shows here even when both runs of the
new code agree with each other.  Label and status cells must match exactly;
numeric cells must agree to math.isclose(rel_tol=1e-12, abs_tol=1e-12).

Re-record (only when an output is meant to change) with
    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import math
import shutil
import sys
from pathlib import Path

import pytest

from mgtlab.harness import (
    ScenarioConfig,
    run_compare_oracle,
    run_convergence,
    run_regularity_witness,
    run_solve,
    run_symbol_suite,
)

GOLDEN = Path(__file__).parent / "golden"

BASE = dict(grid_points_per_axis=128, horizon=0.5, steps=100, seed=0,
            scenario={"active_modes": 3})

CASES = {
    "solve": (run_solve, dict(modes=[8])),
    "witness": (run_regularity_witness, dict(modes=[6, 12])),
    "witness_kink": (run_regularity_witness,
                     dict(modes=[6, 12], scenario={"g_family": "ramp_kink"})),
    "convergence": (run_convergence, dict(modes=[4, 8], steps=64)),
    "symbols": (run_symbol_suite,
                dict(modes=[6, 12], symbol={"b_grid": [0.25, 1.0], "samples": 1000,
                                            "probe_scenarios": 8, "probe_modes": 4,
                                            "probe_steps": 40})),
    "compare-oracle": (run_compare_oracle, dict(modes=[6], steps=400, n_scenarios=2)),
}


def run_case(name: str, out_dir: Path) -> list[Path]:
    runner, overrides = CASES[name]
    runner(ScenarioConfig.from_dict({**BASE, **overrides}), out_dir)
    return sorted(out_dir.glob("*.csv"))


def cells_match(got: str, want: str) -> bool:
    if got == want:
        return True
    try:
        return math.isclose(float(got), float(want), rel_tol=1e-12, abs_tol=1e-12)
    except ValueError:
        return False


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_bodies_match_golden(name, tmp_path):
    produced = run_case(name, tmp_path)
    recorded = sorted((GOLDEN / name).glob("*.csv"))
    assert [p.name for p in produced] == [p.name for p in recorded]
    for got_path, want_path in zip(produced, recorded):
        got, want = (list(csv.reader(path.read_text().splitlines()))
                     for path in (got_path, want_path))
        assert len(got) == len(want), got_path.name
        for i, (row_got, row_want) in enumerate(zip(got, want)):
            assert len(row_got) == len(row_want), (got_path.name, i)
            bad = [(g, w) for g, w in zip(row_got, row_want) if not cells_match(g, w)]
            assert not bad, (got_path.name, i, bad)


if __name__ == "__main__":
    for case in (sys.argv[1:] or sorted(CASES)):
        target = GOLDEN / case
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        run_case(case, target)
        for extra in target.glob("*.json"):
            extra.unlink()
        print(f"recorded {case}: {', '.join(p.name for p in sorted(target.iterdir()))}")
