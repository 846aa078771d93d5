#!/usr/bin/env python3
"""Explore the central objects of the paper on the FORWARD example.

The script builds the FORWARD program from Figure 1(a), extracts the first
spurious counterexample, constructs its path program (Figure 1(c)), runs the
path-invariant synthesizer on it, and prints the resulting invariant map.

Run with:  python examples/path_program_exploration.py
"""

from repro.core import Art, Precision, build_path_program
from repro.invgen import PathInvariantSynthesizer
from repro.lang import format_path, format_program, get_program
from repro.smt.vcgen import VcChecker


def main() -> None:
    program = get_program("forward")
    print("=== The FORWARD program (Figure 1a) as a transition system ===")
    print(format_program(program))

    checker = VcChecker()
    outcome = Art(program, checker).explore(Precision(), 4000)
    assert outcome.counterexample is not None
    print("\n=== First abstract counterexample (cf. Figure 1b) ===")
    print(format_path(outcome.counterexample))

    path_program = build_path_program(program, outcome.counterexample)
    print("\n=== Its path program (cf. Figure 1c) ===")
    print("nested blocks:")
    for block in path_program.blocks:
        print("  ", block)
    print(format_program(path_program.program))

    print("\n=== Path invariant synthesis ===")
    synthesizer = PathInvariantSynthesizer(checker)
    result = synthesizer.synthesize(path_program.program)
    print(f"success: {result.success}  (candidates: {result.candidates_proposed} proposed, "
          f"{result.candidates_surviving} inductive, {result.houdini_iterations} Houdini sweeps)")
    if result.invariant_map is not None:
        print("invariant map:")
        print(result.invariant_map)


if __name__ == "__main__":
    main()
