"""S2 — the batched abstract-post oracle vs the scalar baseline.

The abstract-post oracle is the innermost loop of the lazy-abstraction
engine: every ART expansion asks all precision predicates of the target
location against one ``(state, transition)`` pair.  The scalar oracle pays
``ssa_translate`` + skolemisation + store resolution + a cold ``check_sat``
once per predicate; the batched oracle (``VcChecker.post_all_predicates``)
prepares the edge once, asserts the ``pre ∧ trans`` core into an incremental
``SolverContext`` and decides each predicate with a push/check/pop of its
negated renamed form.

Two regression bars are enforced over the engine equivalence suite:

* **preparation work** — the batched oracle must run ``ssa_translate`` (and
  the pipeline hanging off it) at least 2x less often than the scalar
  oracle, summed over the suite;
* **verdict fidelity** — both oracles must produce identical verdicts,
  precisions and post-decision counts on every program (the differential
  test corpus lives in ``tests/smt/test_batched_post.py``; the bench
  re-checks it on the full runs it measures anyway).

Wall-clock reductions are recorded in ``extra_info`` for the BENCH_pr*.json
trajectory but not asserted (CI runners are noisy); the deterministic
preparation counters are the enforced signal.
"""

from __future__ import annotations

import time

import pytest

from common import record, run_once
from repro.core.engine import Budget, VerificationEngine
from repro.lang import get_program
from repro.smt.vcgen import VcChecker

#: Programs of the engine suite that exercise the oracle in both its pure
#: scalar-arithmetic shape and the array/quantifier fallback shape.
SUITE = [
    "forward",
    "initcheck",
    "double_counter",
    "up_down",
    "lock_step",
    "diamond_safe",
    "simple_safe",
    "simple_unsafe",
    "array_init_buggy",
]

MAX_REFINEMENTS = 8


def run_suite(batched: bool) -> dict:
    totals = {
        "seconds": 0.0,
        "ssa_translations": 0,
        "prepare_calls": 0,
        "context_reuses": 0,
        "batched_posts": 0,
        "scalar_fallbacks": 0,
        "frame_answers": 0,
        "model_answers": 0,
    }
    per_program = {}
    for name in SUITE:
        checker = VcChecker(batched_posts=batched)
        engine = VerificationEngine(
            get_program(name), checker=checker,
            budget=Budget(max_refinements=MAX_REFINEMENTS),
        )
        started = time.perf_counter()
        result = engine.run()
        seconds = time.perf_counter() - started
        stats = checker.statistics()
        per_program[name] = {
            "verdict": result.verdict,
            "precision": result.precision.snapshot(),
            "post_decisions": result.post_decisions(),
            "seconds": seconds,
            "ssa_translations": stats["ssa_translations"],
        }
        totals["seconds"] += seconds
        for key in ("ssa_translations", "prepare_calls", "context_reuses",
                    "batched_posts", "scalar_fallbacks", "frame_answers",
                    "model_answers"):
            totals[key] += stats[key]
    totals["per_program"] = per_program
    return totals


def test_batched_oracle_halves_preparation_work(benchmark):
    batched = run_once(benchmark, run_suite, True)
    scalar = run_suite(False)

    # Verdict fidelity on the full runs: identical verdicts, precisions and
    # post-decision counts, program by program.
    for name in SUITE:
        b, s = batched["per_program"][name], scalar["per_program"][name]
        assert b["verdict"] == s["verdict"], name
        assert b["precision"] == s["precision"], name
        assert b["post_decisions"] == s["post_decisions"], name

    record(
        benchmark,
        batched_ssa_translations=batched["ssa_translations"],
        scalar_ssa_translations=scalar["ssa_translations"],
        translation_reduction=round(
            scalar["ssa_translations"] / batched["ssa_translations"], 2
        ),
        prepare_calls=batched["prepare_calls"],
        context_reuses=batched["context_reuses"],
        batched_posts=batched["batched_posts"],
        scalar_fallbacks=batched["scalar_fallbacks"],
        frame_answers=batched["frame_answers"],
        model_answers=batched["model_answers"],
        batched_seconds=round(batched["seconds"], 3),
        scalar_seconds=round(scalar["seconds"], 3),
    )
    # Posts the batched oracle answered before any solver check.
    print(
        f"batched posts: {batched['batched_posts']} decided in a context, "
        f"{batched['frame_answers']} by the frame rule, "
        f"{batched['model_answers']} by the core's model"
    )

    # Acceptance bar: >= 2x fewer pipeline preparations than the scalar
    # oracle over the suite.  (Locally the ratio is ~3x; the bar leaves
    # room for corpus drift without letting the batching rot away.)
    assert batched["ssa_translations"] * 2 <= scalar["ssa_translations"], (
        f"batched={batched['ssa_translations']} "
        f"scalar={scalar['ssa_translations']} translations"
    )
    # The context must actually be reused across batches of the same edge
    # (the delta-recheck path), not just built once per predicate.
    assert batched["context_reuses"] > 0
    assert batched["batched_posts"] > 0


def test_prepared_context_amortises_across_refinements(benchmark):
    """On FORWARD the repair wave re-asks edges: reuses must be substantial."""
    def run():
        checker = VcChecker()
        VerificationEngine(
            get_program("forward"), checker=checker,
            budget=Budget(max_refinements=MAX_REFINEMENTS),
        ).run()
        return checker.statistics()

    stats = run_once(benchmark, run)
    record(
        benchmark,
        prepare_calls=stats["prepare_calls"],
        context_reuses=stats["context_reuses"],
        prepare_seconds=stats["prepare_seconds"],
        post_solve_seconds=stats["post_solve_seconds"],
    )
    # Every reuse is a full pipeline run the scalar oracle would pay again.
    assert stats["context_reuses"] >= stats["prepare_calls"] * 0.5
