"""Shared helpers for the experiment benchmarks.

Each ``bench_e*.py`` module reproduces one artifact of the paper's evaluation
(see DESIGN.md section 3 and EXPERIMENTS.md for the mapping).  The benchmarks
use pytest-benchmark in *pedantic* mode with a single round, because a single
CEGAR run already takes seconds and the quantity of interest is the shape of
the result (who proves what, with how many refinements), not micro-timings.
"""

from __future__ import annotations

from repro.core import Art, Precision, VerificationEngine, build_path_program, make_refiner
from repro.lang import get_program
from repro.smt.vcgen import VcChecker

#: The fast-deciding verdict suite shared by the session benchmarks
#: (bench_e10) and run_all.py's session section — one definition so the CI
#: assertion and the BENCH_pr*.json trajectory always measure the same
#: corpus.  Covers safe, unsafe and array workloads under both refiners'
#: default engine.
SESSION_SUITE = [
    "forward", "initcheck", "double_counter", "up_down", "lock_step",
    "simple_safe", "diamond_safe", "simple_unsafe", "array_init_buggy",
]

#: Refinement budget the session benchmarks run the suite under.
SESSION_MAX_REFINEMENTS = 8


def run_once(benchmark, function, *args, **kwargs):
    """Run ``function`` exactly once under pytest-benchmark."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)


def restart_run(name, options):
    """Run the restart-the-world reference engine (a fresh ART after every
    refinement) on a built-in under ``options``, on a fresh checker."""
    checker = VcChecker()
    return VerificationEngine(
        get_program(name),
        refiner=make_refiner(options.refiner, checker),
        checker=checker,
        strategy=options.strategy,
        budget=options.budget(),
        incremental=False,
    ).run()


def first_counterexample(program, precision=None, checker=None):
    """The first abstract counterexample under the given precision."""
    checker = checker or VcChecker()
    outcome = Art(program, checker).explore(precision or Precision(), 4000)
    assert outcome.counterexample is not None
    return outcome.counterexample


def looping_counterexample(program, refiner, checker=None, max_rounds=4):
    """Refine until the abstract counterexample traverses a loop, and return it."""
    checker = checker or VcChecker()
    precision = Precision()
    for _ in range(max_rounds):
        outcome = Art(program, checker).explore(precision, 4000)
        assert outcome.counterexample is not None
        path = outcome.counterexample
        visited = [path[0].source] + [t.target for t in path]
        if len(set(visited)) < len(visited):
            return path, precision
        refiner.refine(program, path, precision)
    raise AssertionError("no looping counterexample found")


def record(benchmark, **info):
    """Attach experiment outcomes to the benchmark record."""
    for key, value in info.items():
        benchmark.extra_info[key] = value
