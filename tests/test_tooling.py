"""The test configuration: a failing property test is reported, not fatal."""

import subprocess
import sys
from pathlib import Path

PYTEST_INI = Path(__file__).parents[1] / "pytest.ini"

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
