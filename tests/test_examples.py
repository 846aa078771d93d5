"""The scripts in ``examples/`` run end to end, free of deprecations.

Each example runs in a fresh interpreter with ``DeprecationWarning`` turned
into an error, so an example that still calls a removed or deprecated entry
point fails here instead of going stale unnoticed.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_examples_exist():
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs_cleanly(script):
    completed = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", str(script)],
        capture_output=True,
        text=True,
        timeout=110,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip()
