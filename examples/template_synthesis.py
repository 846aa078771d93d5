#!/usr/bin/env python3
"""The Section 5 FORWARD template experiment, step by step.

First the equality template ``c_i i + c_n n + c_a a + c_b b + c = 0`` is
tried on the FORWARD path program and fails; then an inequality conjunct is
added (the paper's template refinement) and the instantiation succeeds with
``a + b = 3i  /\\  a + b <= 3n``.

Run with:  python examples/template_synthesis.py
"""

import time

from repro.core import Art, PathFormulaRefiner, Precision, build_path_program
from repro.invgen import FarkasEngine, cutpoints, equality_template
from repro.lang import get_program
from repro.logic.terms import Var
from repro.smt.vcgen import VcChecker


def forward_path_program():
    program = get_program("forward")
    checker = VcChecker()
    precision = Precision()
    refiner = PathFormulaRefiner()
    while True:
        outcome = Art(program, checker).explore(precision, 4000)
        assert outcome.counterexample is not None
        path = outcome.counterexample
        visited = [path[0].source] + [t.target for t in path]
        if len(set(visited)) < len(visited):
            return build_path_program(program, path).program
        refiner.refine(program, path, precision)


def main() -> None:
    path_program = forward_path_program()
    variables = [Var(name) for name in ("a", "b", "i", "n")]
    engine = FarkasEngine()
    cuts = sorted(cutpoints(path_program))

    print("=== Attempt 1: equality template only ===")
    start = time.perf_counter()
    templates = {c: equality_template(variables, f"c{k}") for k, c in enumerate(cuts)}
    result = engine.synthesize(path_program, templates)
    print(f"success: {result.success}   ({time.perf_counter() - start:.3f}s, "
          f"{result.lp_calls} LP calls)   reason: {result.reason}")

    print("\n=== Attempt 2: equality template conjoined with an inequality ===")
    start = time.perf_counter()
    templates = {
        c: equality_template(variables, f"c{k}").with_extra_inequality(variables, f"d{k}")
        for k, c in enumerate(cuts)
    }
    result = engine.synthesize(path_program, templates)
    print(f"success: {result.success}   ({time.perf_counter() - start:.3f}s, "
          f"{result.lp_calls} LP calls)")
    for location, formula in result.assertions.items():
        print(f"  eta({location}) = {formula}")


if __name__ == "__main__":
    main()
