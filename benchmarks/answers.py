#!/usr/bin/env python3
"""Print what the engine answers on the benchmark workloads, without timings.

Two task sets, each task run in a cold :class:`repro.Session`, as
perfbench's in-process workloads run them:

* ``paper-suite`` — every built-in program but ``partition``, at 8
  refinements (``initcheck_buggy`` at 5), without warm start;
* ``generated`` — the pinned corpus ``generate_corpus(2, 100)`` under
  :func:`repro.testgen.fuzz_options`.

Each task's result document is printed on one line with every key that ends
in ``seconds`` removed at any depth, next to its final precision (the
predicates at each location, in the order they were added), so two
checkouts print the same lines exactly when their verdicts, precisions and
counters agree.  Solver counters follow set iteration order, so fix the
hash seed.  ``PYTHONPATH`` picks the checkout that answers (this one when it
names none), so one command compares two checkouts, e.g. from the root of
this one::

    diff <(PYTHONHASHSEED=1 PYTHONPATH=../parent/src python benchmarks/answers.py) \\
         <(PYTHONHASHSEED=1 PYTHONPATH=src python benchmarks/answers.py)
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))

from repro import Session, VerifierOptions  # noqa: E402  (path set up above)
from repro.lang.programs import PROGRAMS  # noqa: E402
from repro.testgen import fuzz_options, generate_corpus  # noqa: E402

#: ``paper-suite``: refinement budgets per built-in (8 unless named).
PAPER_EXCLUDED = ("partition",)
PAPER_BUDGETS = {"initcheck_buggy": 5}
PAPER_DEFAULT_BUDGET = 8
#: ``generated``: the pinned corpus.
CORPUS_SEED = 2
CORPUS_COUNT = 100


def tasks():
    """``(workload, name, source, options)`` of every task, in a fixed order."""
    for name, program in sorted(PROGRAMS.items()):
        if name not in PAPER_EXCLUDED:
            budget = PAPER_BUDGETS.get(name, PAPER_DEFAULT_BUDGET)
            options = VerifierOptions(max_refinements=budget, warm_start=False)
            yield "paper-suite", name, program.source, options
    for program in generate_corpus(CORPUS_SEED, CORPUS_COUNT):
        yield "generated", program.name, program.source, fuzz_options()


def untimed(value):
    """``value`` with every mapping key that ends in ``seconds`` removed."""
    if isinstance(value, dict):
        return {
            key: untimed(item) for key, item in value.items() if not key.endswith("seconds")
        }
    if isinstance(value, list):
        return [untimed(item) for item in value]
    return value


def main() -> None:
    for workload, name, source, options in tasks():
        result = Session(options).run(source, name=name)
        precision = {
            location: [str(predicate) for predicate in predicates]
            for location, predicates in result.precision.by_location_name().items()
        }
        line = {"workload": workload, "doc": untimed(result.to_json(name=name)),
                "precision": precision}
        print(json.dumps(line, sort_keys=True))


if __name__ == "__main__":
    main()
