"""The repository's pytest settings: a failing hypothesis test is reported
as a failure, and the session goes on to the next test."""

import os
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

TWO_TESTS = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    assert True
"""


def test_failing_given_test_does_not_stop_the_session(tmp_path):
    # with every warning an error, hypothesis's report hook on a failing
    # @given test raised a DeprecationWarning, and pytest ended the session
    # with INTERNALERROR (exit 3) before the second test ran
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    env = {key: value for key, value in os.environ.items() if key != "PYTEST_ADDOPTS"}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_two.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout, done.stdout
