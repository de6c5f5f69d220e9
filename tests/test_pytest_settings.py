"""The suite's pytest settings: a failing property test reports its
falsifying example, and the tests after it still run.

``pytest.ini`` turns every warning into an error. Hypothesis imports more
modules while it reports a failure, and a warning raised by one of those
imports must not turn the report into an INTERNALERROR that ends the
session.
"""

import subprocess
import sys
from pathlib import Path

PYTEST_INI = Path(__file__).resolve().parent.parent / "pytest.ini"

PROBE = """\
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_a_failing_given_test_reports_and_the_session_goes_on(tmp_path):
    probe = tmp_path / "test_probe.py"
    probe.write_text(PROBE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYTEST_INI),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", str(probe)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out, out
    assert run.returncode == 1, out
    assert "Falsifying example" in out and "1 failed, 1 passed" in out, out
