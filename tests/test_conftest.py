"""The shared conftest reports a failing property instead of aborting.

A failing ``@given`` example makes hypothesis import its patch writer,
whose import can raise a ``DeprecationWarning`` that the conftest's
error-on-deprecation policy would turn into an INTERNALERROR: the
falsifying example would never print and later tests would never run.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@given(st.integers())
@settings(max_examples=20, deadline=None, database=None)
def test_fails(value):
    assert value < 5


def test_runs_after_the_failure():
    assert True
'''


def test_failing_property_reports_its_example(tmp_path):
    shutil.copy(ROOT / "tests" / "conftest.py", tmp_path / "conftest.py")
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    completed = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        capture_output=True,
        text=True,
        timeout=100,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    output = completed.stdout + completed.stderr
    assert "INTERNALERROR" not in output, output[-2000:]
    assert "Falsifying example" in output, output[-2000:]
    assert "1 failed, 1 passed" in output, output[-2000:]
