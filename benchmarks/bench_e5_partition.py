"""E5 — Figure 3 / Section 2.3: PARTITION needs two path programs.

Each of the two assertion loops produces its own spurious counterexample and
its own path program; each path program contributes one universally
quantified conjunct (over ``ge`` and over ``lt`` respectively).  The paper's
point is that the disjunctive structure is handled lazily by the CEGAR loop
rather than by a single global invariant-synthesis query.
"""

import pytest

from common import record, run_once
from repro.core import Verdict, VerifierOptions, verify
from repro.lang import get_program


def test_partition_with_path_invariants(benchmark):
    program = get_program("partition")
    result = run_once(
        benchmark, verify, program,
        options=VerifierOptions(refiner="path-invariant", max_refinements=4, max_nodes=80),
    )
    synthesis_calls = [
        record_.refinement.synthesis
        for record_ in result.iterations
        if record_.refinement is not None and record_.refinement.synthesis is not None
    ]
    arrays_with_invariants = set()
    if result.precision is not None:
        for location in result.precision.locations():
            for predicate in result.precision.predicates_at(location):
                if predicate.has_quantifier():
                    arrays_with_invariants |= predicate.arrays()
    record(
        benchmark,
        verdict=result.verdict,
        refinements=result.num_refinements,
        path_programs=len(synthesis_calls),
        quantified_arrays=sorted(arrays_with_invariants),
    )
    # The verification needs at least two refinement rounds (one per branch /
    # assertion loop), mirroring the lazy disjunctive reasoning of the paper.
    assert result.verdict != Verdict.UNSAFE
    assert result.num_refinements >= 2
