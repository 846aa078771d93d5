"""E13 — Chaos bar: the daemon under injected worker crashes.

The acceptance bar for crash isolation (ISSUE 10): with ~20% of the suite's
programs drawing a *real* ``SIGKILL`` of their worker process on the first
attempt, the daemon still answers every request (zero lost requests), every
verdict matches the fault-free run, and the whole suite finishes within
**1.5x** the fault-free wall-clock.

The schedule is seeded so the victim set — and therefore the measured
overhead — is reproducible run to run.  The fault rows this produces are
marked ``fault_injected`` downstream so trend tooling never treats the
deliberately-slowed run as a regression.
"""

import random
import time

import pytest

from common import record, run_once
from repro.core.faults import FaultPlan, FaultSpec, installed
from repro.serve import ServiceClient, ServiceConfig, VerificationService

#: The 12-program suite with per-program refinement budgets (mirrors
#: benchmarks/run_all.py and tests/serve/test_chaos.py).
SUITE = [
    ("forward", 8),
    ("initcheck", 8),
    ("double_counter", 8),
    ("up_down", 8),
    ("lock_step", 8),
    ("diamond_safe", 8),
    ("simple_safe", 8),
    ("simple_unsafe", 8),
    ("array_init_const", 8),
    ("array_copy", 8),
    ("array_init_buggy", 8),
    ("initcheck_buggy", 5),
]

SEED = 2027

#: Fraction of the suite whose first attempt SIGKILLs its worker process.
CRASH_RATE = 0.2


def crash_plan():
    rng = random.Random(SEED)
    count = max(1, round(CRASH_RATE * len(SUITE)))
    victims = rng.sample([name for name, _ in SUITE], count)
    plan = FaultPlan(
        [
            FaultSpec(kind="kill-worker", key=name, attempts=(0,))
            for name in victims
        ]
    )
    return plan, victims


def run_suite():
    service = VerificationService(
        ServiceConfig(workers=4, max_queue=32)
    ).start()
    try:
        started = time.perf_counter()
        with ServiceClient(port=service.port, timeout=300.0) as client:
            docs = client.submit_many(
                [
                    {
                        "source": name,
                        "name": name,
                        "options": {"max_refinements": budget},
                    }
                    for name, budget in SUITE
                ]
            )
        seconds = time.perf_counter() - started
        stats = service.statistics()["service"]
    finally:
        service.stop()
    return docs, seconds, stats


def test_crashy_suite_within_1p5x_of_faultfree(benchmark):
    clean_docs, clean_seconds, _ = run_suite()
    plan, victims = crash_plan()

    def run():
        with installed(plan):
            return run_suite()

    docs, faulted_seconds, stats = run_once(benchmark, run)
    record(
        benchmark,
        clean_seconds=round(clean_seconds, 4),
        faulted_seconds=round(faulted_seconds, 4),
        ratio=round(faulted_seconds / clean_seconds, 4),
        victims=sorted(victims),
        crashes=stats["supervision"]["crashes"],
        tasks_recovered=stats["supervision"]["tasks_recovered"],
    )
    # Zero lost requests: every submission came back, with the verdict the
    # fault-free run produced.
    assert len(docs) == len(SUITE)
    assert {d["name"]: d["verdict"] for d in docs} == {
        d["name"]: d["verdict"] for d in clean_docs
    }
    # The kills genuinely happened — and every one was recovered.
    assert stats["supervision"]["crashes"] >= len(victims)
    assert stats["supervision"]["tasks_failed"] == 0
    # The bar: injected worker crashes cost at most 1.5x the fault-free wall.
    assert faulted_seconds <= 1.5 * clean_seconds, (
        faulted_seconds,
        clean_seconds,
    )
