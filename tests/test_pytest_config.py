"""The suite's pytest configuration reports a failing hypothesis test as a
failure and goes on to run the tests after it."""
import shutil
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_THEN_PASSING = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(n):
    assert n < 10


def test_passes():
    assert True
'''


def test_failing_given_test_does_not_stop_the_session(tmp_path):
    # on a failure hypothesis explains it with libcst, whose import warns
    # through mypy_extensions; under filterwarnings = error that warning
    # once crashed pytest (INTERNALERROR, exit 3) before the next test ran
    shutil.copy(PYPROJECT, tmp_path / "pyproject.toml")
    (tmp_path / "test_sample.py").write_text(FAILING_THEN_PASSING)
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "test_sample.py"], cwd=tmp_path, capture_output=True, text=True)
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert "1 failed, 1 passed" in out.stdout
    assert out.returncode == 1
