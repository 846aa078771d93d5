"""E3 — Figure 2 / Section 2.2: INITCHECK needs a quantified path invariant.

Path-invariant refinement discovers a universally quantified invariant and
proves the program; the path-formula baseline can only learn one ``a[j] = 0``
fact per unwinding and keeps producing longer counterexamples.
"""

import pytest

from common import record, run_once
from repro.core import Verdict, VerifierOptions, verify
from repro.lang import get_program


def test_initcheck_with_path_invariants(benchmark):
    program = get_program("initcheck")
    result = run_once(
        benchmark, verify, program,
        options=VerifierOptions(refiner="path-invariant", max_refinements=3, max_nodes=80),
    )
    quantified = sum(
        1
        for location in result.precision.locations()
        for predicate in result.precision.predicates_at(location)
        if predicate.has_quantifier()
    )
    record(
        benchmark,
        verdict=result.verdict,
        refinements=result.num_refinements,
        quantified_predicates=quantified,
    )
    # The quantified predicates must have been discovered; whether the
    # bounded ART budget suffices for the full end-to-end proof is recorded
    # in EXPERIMENTS.md (the synthesis-level reproduction is E4).
    assert result.verdict != Verdict.UNSAFE
    assert quantified > 0


def test_initcheck_with_path_formula_baseline(benchmark):
    program = get_program("initcheck")
    result = run_once(
        benchmark, verify, program,
        options=VerifierOptions(refiner="path-formula", max_refinements=3, max_nodes=80),
    )
    lengths = [r.counterexample_length for r in result.iterations if r.counterexample_length]
    record(benchmark, verdict=result.verdict, counterexample_lengths=lengths)
    assert result.verdict == Verdict.UNKNOWN
