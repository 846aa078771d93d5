"""Interned terms and formulas hash alike in every process under one hash seed.

Each hash-consing constructor hashes a name tag, never its class object: a
class hashes by its address, which moves between processes, and set
iteration orders — hence which simplex checks the solver makes — would move
with it.  One sample per constructor is hashed in separate interpreters
started with the same ``PYTHONHASHSEED``; every sample must agree.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC_ROOT = str(Path(__file__).resolve().parents[2] / "src")

_SAMPLES = """
import json
from repro.logic import (
    And, ArrayRead, Atom, BoolConst, Forall, Not, Or, Relation, Var, var, const,
)

i, n = Var("i"), Var("n")
atom = Atom(var("i") - var("n"), Relation.LE)
other = Atom(const(3) - var("i"), Relation.LT)
samples = {
    "Var": n,
    "ArrayRead": ArrayRead("a", var("i")),
    "BoolConst": BoolConst(True),
    "Atom": atom,
    "And": And((atom, other)),
    "Or": Or((atom, other)),
    "Not": Not(atom),
    "Forall": Forall(i, atom),
}
print(json.dumps({name: hash(value) for name, value in samples.items()}))
"""

CONSTRUCTORS = ("Var", "ArrayRead", "BoolConst", "Atom", "And", "Or", "Not", "Forall")


@pytest.fixture(scope="module")
def hashes_per_process():
    """The sample hashes from three fresh interpreters, all with seed 1."""
    runs = []
    for _ in range(3):
        completed = subprocess.run(
            [sys.executable, "-c", _SAMPLES],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": SRC_ROOT, "PYTHONHASHSEED": "1", "PATH": "/usr/bin:/bin"},
        )
        runs.append(json.loads(completed.stdout))
    return runs


@pytest.mark.parametrize("constructor", CONSTRUCTORS)
def test_interned_hash_repeats_across_processes(hashes_per_process, constructor):
    values = [run[constructor] for run in hashes_per_process]
    assert len(set(values)) == 1, f"{constructor} hashes differ between processes: {values}"
