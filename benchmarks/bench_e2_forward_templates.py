"""E2 — Section 5 "Example FORWARD": template instantiation on the path program.

The paper reports that the equality template
``c_i i + c_n n + c_a a + c_b b + c = 0`` cannot be instantiated (failure
reported in 40 ms on their machine) and that conjoining an inequality
template yields ``a+b = 3i  /\\  a+b <= 3n`` (130 ms).  We reproduce the
fail/succeed pattern and the resulting invariant with our Farkas engine.
"""

import pytest

from common import looping_counterexample, record, run_once
from repro.core import PathFormulaRefiner, build_path_program
from repro.invgen import FarkasEngine, cutpoints, equality_template
from repro.lang import get_program
from repro.logic.formulas import eq
from repro.logic.terms import Var, var
from repro.smt.vcgen import VcChecker


def _forward_path_program():
    program = get_program("forward")
    path, _ = looping_counterexample(program, PathFormulaRefiner())
    return build_path_program(program, path).program


VARIABLES = [Var(name) for name in ("a", "b", "i", "n")]


def test_equality_template_fails(benchmark):
    path_program = _forward_path_program()
    engine = FarkasEngine()
    templates = {
        cut: equality_template(VARIABLES, f"c{k}")
        for k, cut in enumerate(sorted(cutpoints(path_program)))
    }
    result = run_once(benchmark, engine.synthesize, path_program, templates)
    record(benchmark, success=result.success, lp_calls=result.lp_calls, reason=result.reason)
    assert not result.success


def test_refined_template_succeeds(benchmark):
    path_program = _forward_path_program()
    engine = FarkasEngine()
    templates = {
        cut: equality_template(VARIABLES, f"c{k}").with_extra_inequality(VARIABLES, f"d{k}")
        for k, cut in enumerate(sorted(cutpoints(path_program)))
    }
    result = run_once(benchmark, engine.synthesize, path_program, templates)
    record(
        benchmark,
        success=result.success,
        lp_calls=result.lp_calls,
        invariants={str(k): str(v) for k, v in result.assertions.items()},
    )
    assert result.success
    checker = VcChecker()
    target = eq(var("a") + var("b"), var("i") * 3)
    assert any(
        checker.check_entailment(formula, target) for formula in result.assertions.values()
    )
