"""A1 — Ablation: refinement strategy.

Compares the two refiners on the same programs: outcome, number of
refinements and number of predicates.  This quantifies the paper's core
claim — generalising counterexamples to path programs is what makes the
loop-coupling programs provable.
"""

import pytest

from common import record, run_once
from repro.core import Verdict, VerifierOptions, verify
from repro.lang import get_program

PROGRAMS_UNDER_TEST = ["forward", "double_counter", "lock_step"]

#: Whether the path-formula baseline proves the program within the budget.
#: The baseline tracks the atoms of the negated assertion (as BLAST does), so
#: a program whose inductive invariant *is* an assertion atom — lock_step's
#: ``i = j`` — is legitimately proved in one refinement.  The baseline only
#: diverges when the invariant relates variables in a way no path atom does
#: (``a + b = 3i`` for forward, ``a = 2i`` for double_counter): those loops
#: are unrolled one counterexample at a time.
BASELINE_PROVES = {"forward": False, "double_counter": False, "lock_step": True}


@pytest.mark.parametrize("name", PROGRAMS_UNDER_TEST)
@pytest.mark.parametrize("refiner", ["path-invariant", "path-formula"])
def test_refiner_ablation(benchmark, name, refiner):
    options = VerifierOptions(refiner=refiner, max_refinements=3)
    result = run_once(benchmark, verify, get_program(name), options=options)
    record(
        benchmark,
        verdict=result.verdict,
        refinements=result.num_refinements,
        predicates=result.total_predicates(),
    )
    if refiner == "path-invariant" or BASELINE_PROVES[name]:
        assert result.verdict == Verdict.SAFE
    else:
        assert result.verdict != Verdict.SAFE
