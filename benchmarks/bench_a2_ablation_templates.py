"""A2 — Ablation: template language of the candidate space.

Measures what the synthesizer can establish on the FORWARD path program when
the candidate space is restricted: equality templates only (the paper's first
FORWARD attempt), equality plus inequality templates (the refined attempt),
and the full candidate space used by the CEGAR refiner.
"""

import pytest

from common import looping_counterexample, record, run_once
from repro.core import PathFormulaRefiner, build_path_program
from repro.invgen import (
    FarkasEngine,
    PathInvariantSynthesizer,
    SynthesisOptions,
    cutpoints,
    equality_template,
)
from repro.lang import get_program
from repro.logic.terms import Var


def _forward_path_program():
    program = get_program("forward")
    path, _ = looping_counterexample(program, PathFormulaRefiner())
    return build_path_program(program, path).program


VARIABLES = [Var(name) for name in ("a", "b", "i", "n")]


def test_equality_only_templates(benchmark):
    path_program = _forward_path_program()
    engine = FarkasEngine()
    templates = {
        cut: equality_template(VARIABLES, f"c{k}")
        for k, cut in enumerate(sorted(cutpoints(path_program)))
    }
    result = run_once(benchmark, engine.synthesize, path_program, templates)
    record(benchmark, success=result.success)
    assert not result.success


def test_equality_plus_inequality_templates(benchmark):
    path_program = _forward_path_program()
    engine = FarkasEngine()
    templates = {
        cut: equality_template(VARIABLES, f"c{k}").with_extra_inequality(VARIABLES, f"d{k}")
        for k, cut in enumerate(sorted(cutpoints(path_program)))
    }
    result = run_once(benchmark, engine.synthesize, path_program, templates)
    record(benchmark, success=result.success)
    assert result.success


def test_full_candidate_space(benchmark):
    path_program = _forward_path_program()
    synthesizer = PathInvariantSynthesizer(options=SynthesisOptions(use_farkas=False))
    result = run_once(benchmark, synthesizer.synthesize, path_program)
    record(
        benchmark,
        success=result.success,
        candidates_proposed=result.candidates_proposed,
        candidates_surviving=result.candidates_surviving,
    )
    assert result.success
