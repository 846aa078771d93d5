"""E1 — Figure 1 / Section 2.1: FORWARD under both refinement strategies.

The paper's claim: classic path-formula refinement keeps unrolling the loop
(predicates ``i=k, a=k, b=2k`` per unwinding, never terminating), while
path-invariant refinement proves the program after discovering ``a+b = 3i``
and ``a+b <= 3n`` at the loop head.
"""

import pytest

from common import record, run_once
from repro.core import Verdict, VerifierOptions, verify
from repro.lang import get_program


def test_forward_with_path_invariants(benchmark):
    program = get_program("forward")
    options = VerifierOptions(refiner="path-invariant", max_refinements=4)
    result = run_once(benchmark, verify, program, options=options)
    record(
        benchmark,
        verdict=result.verdict,
        refinements=result.num_refinements,
        predicates=result.total_predicates(),
    )
    assert result.verdict == Verdict.SAFE


def test_forward_with_path_formula_baseline(benchmark):
    program = get_program("forward")
    options = VerifierOptions(refiner="path-formula", max_refinements=4)
    result = run_once(benchmark, verify, program, options=options)
    lengths = [r.counterexample_length for r in result.iterations if r.counterexample_length]
    record(
        benchmark,
        verdict=result.verdict,
        counterexample_lengths=lengths,
        predicates=result.total_predicates(),
    )
    # The baseline does not converge: counterexamples keep growing and the
    # refinement budget is exhausted.
    assert result.verdict == Verdict.UNKNOWN
    assert lengths[-1] > lengths[0]
