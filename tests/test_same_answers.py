"""The engine's answers on the benchmark workloads are pinned.

``benchmarks/answers.py`` prints, without timings, the result document and
final precision of every paper-suite task and every pinned-corpus task.
Solver counters follow set iteration order, so under a fixed
``PYTHONHASHSEED`` its output is fixed, and one SHA-256 pins every verdict,
precision and counter at once.  A change that moves an answer on purpose
re-pins :data:`DIGEST` and says why; a change that claims "no answer moved"
keeps it.  The digest is the same on Python 3.11 and 3.12.
"""

import hashlib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

DIGEST = "f6ac448c969dac08671d973ad95485c9bc97ab321bfd1fb6636fb239aca7acd2"


def test_answers_match_the_pinned_digest():
    completed = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "answers.py")],
        capture_output=True, check=True,
        env={"PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "1", "PATH": "/usr/bin:/bin"},
    )
    assert hashlib.sha256(completed.stdout).hexdigest() == DIGEST
