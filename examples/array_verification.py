#!/usr/bin/env python3
"""Verify array-manipulating programs (universally quantified invariants).

Reproduces the INITCHECK narrative of Section 2.2 on a couple of programs of
the built-in suite: the proof requires universally quantified predicates,
which the path-invariant refiner synthesizes from the path program.

Run with:  python examples/array_verification.py  [program ...]
"""

import sys

from repro import VerifierOptions, verify
from repro.lang import get_program, list_programs

DEFAULT_PROGRAMS = ["initcheck", "array_init_const", "array_init_buggy"]


def main() -> None:
    names = sys.argv[1:] or DEFAULT_PROGRAMS
    for name in names:
        if name not in list_programs():
            print(f"unknown program {name!r}; available: {', '.join(list_programs())}")
            continue
        print(f"=== {name} ===")
        result = verify(get_program(name), options=VerifierOptions(max_refinements=4))
        print(result.summary())
        if result.is_unsafe and result.counterexample is not None:
            inputs = result.counterexample.witness_inputs(result.program.variables)
            print("bug witness (initial values):",
                  {k: str(v) for k, v in inputs.items()})
        elif result.is_safe and result.precision is not None:
            quantified = [
                str(predicate)
                for location in result.precision.locations()
                for predicate in result.precision.predicates_at(location)
                if predicate.has_quantifier()
            ]
            print("quantified predicates used in the proof:")
            for predicate in sorted(set(quantified)):
                print("  ", predicate)
        print()


if __name__ == "__main__":
    main()
