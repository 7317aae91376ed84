"""The suite's pytest settings report a failing hypothesis test as a failure.

``filterwarnings = ["error"]`` turns every warning into an error, also
inside pytest's own hooks.  To report a failing ``@given`` example,
hypothesis imports ``libcst``, which imports ``mypy_extensions`` and so
warns that its ``TypedDict`` is deprecated.  Without the filter that
ignores this one warning, the session would end in INTERNALERROR, and the
tests after the failing one would not run.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TWO_TESTS = '''
from hypothesis import given, settings, strategies as st


@settings(max_examples=5, database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x != x


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_is_reported_and_the_rest_run(tmp_path):
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", str(tmp_path / "test_two.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert "1 failed, 1 passed" in out.stdout, out.stdout[-2000:]
