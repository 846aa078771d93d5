"""E7 — Section 6: the program suite and the buggy INITCHECK variant.

The paper states that a suite of array-manipulating programs (including the
Section 2 examples) could be proved automatically with path invariants, while
plain BLAST could not prove any of them, and discusses the buggy INITCHECK
variant on which path programs do not help (the error is real and the CEGAR
loop keeps producing longer traces).  This benchmark runs a representative
fast subset of the suite under both refiners and reports who proves what.
"""

import pytest

from common import record, run_once
from repro.core import Verdict, VerifierOptions, verify
from repro.lang import PROGRAMS, get_program

OPTIONS = VerifierOptions(max_refinements=4)

#: A fast, representative subset of the suite (the full list is in
#: repro.lang.programs; the heavier array programs are exercised by E3-E5).
SUITE = ["forward", "double_counter", "up_down", "lock_step", "simple_safe", "diamond_safe"]
BUGGY = ["simple_unsafe", "array_init_buggy"]


@pytest.mark.parametrize("name", SUITE)
def test_suite_safe_programs(benchmark, name):
    result = run_once(benchmark, verify, get_program(name), options=OPTIONS)
    record(benchmark, verdict=result.verdict, refinements=result.num_refinements)
    assert result.verdict == Verdict.SAFE
    assert PROGRAMS[name].expected_safe


@pytest.mark.parametrize("name", BUGGY)
def test_suite_buggy_programs(benchmark, name):
    result = run_once(benchmark, verify, get_program(name), options=OPTIONS)
    record(benchmark, verdict=result.verdict)
    assert result.verdict == Verdict.UNSAFE
    assert not PROGRAMS[name].expected_safe


def test_baseline_on_suite(benchmark):
    """The path-formula baseline on the loop-coupling programs.

    The baseline diverges exactly when the coupling invariant is *not* an
    atom of the program text: forward needs ``a + b = 3i`` and double_counter
    needs ``a = 2i``, neither of which appears in any guard or assertion, so
    the loops are unrolled one counterexample at a time.  up_down's invariant
    ``x + y = n`` is literally the asserted formula; the baseline tracks the
    atoms of the negated assertion (as BLAST does) and therefore proves it in
    one refinement — expecting divergence there was a stale assumption.
    """
    expected_divergent = {"forward": True, "double_counter": True, "up_down": False}

    def run_all():
        verdicts = {}
        for name in expected_divergent:
            verdicts[name] = verify(
                get_program(name),
                options=VerifierOptions(refiner="path-formula", max_refinements=3),
            ).verdict
        return verdicts

    verdicts = run_once(benchmark, run_all)
    record(benchmark, verdicts=verdicts)
    for name, diverges in expected_divergent.items():
        if diverges:
            assert verdicts[name] != Verdict.SAFE, name
        else:
            assert verdicts[name] == Verdict.SAFE, name
