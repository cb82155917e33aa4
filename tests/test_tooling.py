"""The test tooling: the pytest configuration, the digest tool and the line count."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mgtlab.generators import make_scenario
from mgtlab.reduction import solve_mgt
from mgtlab.spectral import TimeGrid, build_basis
from test_acceptance import DOMAIN, PARAMS, SCENARIOS

ROOT = Path(__file__).parents[1]
PYTEST_INI = ROOT / "pytest.ini"

FAILING = """
from hypothesis import given, settings, strategies as st


@settings(max_examples=20)
@given(st.integers(0, 100))
def test_fails(x):
    assert x < 50


def test_after():
    assert True
"""


def test_a_failing_property_test_does_not_stop_the_run(tmp_path):
    # hypothesis writes a failure patch through libcst, which imports a
    # deprecated mypy_extensions name; under filterwarnings = error that
    # warning must not end the run with an INTERNALERROR
    (tmp_path / "test_failing.py").write_text(FAILING)
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-c", str(PYTEST_INI), "--rootdir", str(tmp_path),
                          str(tmp_path / "test_failing.py")],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout


def test_digest_tool_imports_and_parses_its_options():
    # pytest does not collect tests/digest.py; --help imports everything it
    # runs (test_acceptance's cases among them) and solves nothing
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, str(ROOT / "tests" / "digest.py"), "--help"],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert "--against" in run.stdout


def test_digest_check_exits_at_the_first_line_that_differs(tmp_path):
    # the first case's first line is compared as soon as it is printed, so
    # a wrong first line ends the run there, naming line 1
    saved = tmp_path / "parent.txt"
    saved.write_text("interval-seed0 solve_mgt w 0\nnext line\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, str(ROOT / "tests" / "digest.py"), "--check", str(saved)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 1, run.stderr
    assert "first at line 1: expected 'interval-seed0 solve_mgt w 0'" in run.stderr
    assert len(run.stdout.splitlines()) == 1


@pytest.mark.parametrize("shift, message", [
    (2e-12, "passes 1e-12 at 'interval-seed0 solve_mgt w 2.000e-12'"),
    (5e-13, "interval-seed0 solve_mgt wt is not saved in"),
])
def test_digest_against_exits_at_a_drift_or_a_missing_key(tmp_path, shift, message):
    # a doctored archive holds the first case's first output alone, one
    # entry moved by shift of its sup: past 1e-12 the run ends at that
    # line; within it, at the next output, whose key is not saved.  The
    # move rounds to the entry's ulp, a few 1e-4 of shift, so the printed
    # drift is read off the doctored entry
    data = make_scenario(build_basis(DOMAIN, 32), SCENARIOS[0])
    w = solve_mgt(data, PARAMS, TimeGrid(1.0, 10000)).total("w")
    peak = np.unravel_index(np.argmax(np.abs(w)), w.shape)
    moved = w.copy()
    moved[peak] += shift * np.max(np.abs(w))
    line = f"interval-seed0 solve_mgt w {abs(moved[peak] - w[peak]) / np.max(np.abs(moved)):.3e}"
    doctored = tmp_path / "doctored.npz"
    np.savez(doctored, **{"interval-seed0 solve_mgt w": moved})
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, str(ROOT / "tests" / "digest.py"),
                          "--against", str(doctored)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 1, run.stderr
    assert message in run.stderr
    assert run.stdout.splitlines() == [line]


def test_linecount_leaves_out_blanks_comments_and_docstrings(tmp_path):
    # pytest does not collect tests/linecount.py; 7 lines, of which 2 hold code
    (tmp_path / "mod.py").write_text('"""Doc\nstring."""\n\n# comment\n'
                                     'def f():\n    """Doc."""\n    return 1  # one\n')
    run = subprocess.run([sys.executable, str(ROOT / "tests" / "linecount.py"), str(tmp_path)],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[1:] == [f"{'mod.py':<20} {7:>6} {2:>6}",
                                           f"{'total':<20} {7:>6} {2:>6}"]
