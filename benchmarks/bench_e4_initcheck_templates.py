"""E4 — Section 5 "Example INITCHECK": quantified template instantiation.

On the path program of the INITCHECK counterexample, the synthesizer must
instantiate quantified templates at the two cut-points without any template
refinement; the paper reports the invariants
``forall k: 0 <= k <= i-1 -> a[k] = 0`` (initialisation loop, as derived in
Section 4.2) and ``forall k: i <= k <= n-1 -> a[k] = 0`` (checking loop).
"""

import pytest

from common import first_counterexample, record, run_once
from repro.core import PathInvariantRefiner, Precision, build_path_program
from repro.core.predabs import Art
from repro.invgen import PathInvariantSynthesizer
from repro.invgen.postcond import make_range_forall
from repro.lang import get_program
from repro.logic.formulas import eq
from repro.logic.terms import Var, const, read, var
from repro.smt.vcgen import VcChecker


def _initcheck_path_program():
    program = get_program("initcheck")
    checker = VcChecker()
    precision = Precision()
    refiner = PathInvariantRefiner(checker)
    # The first counterexample skips the loops; refine once to obtain the
    # counterexample that traverses both loops (the one shown in Figure 2(b)).
    first = Art(program, checker).explore(precision, 4000).counterexample
    refiner.refine(program, first, precision)
    path = Art(program, checker).explore(precision, 4000).counterexample
    return build_path_program(program, path).program


def test_initcheck_quantified_synthesis(benchmark):
    path_program = _initcheck_path_program()
    synthesizer = PathInvariantSynthesizer()
    result = run_once(benchmark, synthesizer.synthesize, path_program)
    record(
        benchmark,
        success=result.success,
        candidates_proposed=result.candidates_proposed,
        candidates_surviving=result.candidates_surviving,
        houdini_iterations=result.houdini_iterations,
        assertions={str(k): str(v) for k, v in result.cutpoint_assertions.items()},
    )
    assert result.success
    # The initialisation-loop invariant of Section 4.2 must be implied by one
    # of the cut-point assertions.
    checker = VcChecker()
    target = make_range_forall(
        Var("__k"), const(0), var("i") - const(1), eq(read("a", var("__k")), 0)
    )
    assert any(
        checker.check_entailment(formula, target)
        for formula in result.cutpoint_assertions.values()
    )
