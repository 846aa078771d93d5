"""Chaos soak (ISSUE 10 satellite): a seeded randomized fault schedule —
worker crashes, SIGKILLed worker processes, hangs, slowdowns, dropped
connections — against a live daemon running the full
12-program suite twice.

The bar is total: **every request is answered** (zero hangs, zero
exceptions, zero lost requests), the final verdicts are **identical to a
fault-free run**, the request journal drains to zero lag, and the precision
store comes back uncorrupted.  The schedule is seeded, so a failure here
replays exactly.
"""

import random
from pathlib import Path

import pytest

from repro.core.api import PrecisionStore
from repro.core.faults import FaultPlan, FaultSpec, installed
from repro.serve import (
    RequestJournal,
    ServiceClient,
    ServiceConfig,
    VerificationService,
)

#: The 12-program suite with per-program refinement budgets (mirrors the
#: benchmark suite in benchmarks/run_all.py).
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

SEED = 1007

#: First-attempt fault kinds the schedule draws from.  ``None`` means the
#: program is left alone this soak.  Faults fire on attempt 0 only, so the
#: supervisor's retry (or the client's reconnect) recovers every one.
CHAOS_KINDS = ("crash", "kill-worker", "hang", "slow", "drop-connection", None)


def chaos_plan(rng: random.Random) -> FaultPlan:
    specs = []
    for name, _ in SUITE:
        kind = rng.choice(CHAOS_KINDS)
        if kind is None:
            continue
        if kind == "drop-connection":
            # Fires at the serve-response site, once; the client's
            # reconnect-and-resubmit turns it into a second (coalesced or
            # warm) run.
            specs.append(
                FaultSpec(kind=kind, key=name, attempts=(), max_fires=1)
            )
        elif kind == "hang":
            # In a worker process a hang sleeps then dies (never returns a
            # result); keep it short so the soak stays fast.
            specs.append(
                FaultSpec(kind=kind, key=name, attempts=(0,), seconds=1.0)
            )
        elif kind == "slow":
            specs.append(
                FaultSpec(kind=kind, key=name, attempts=(0,), seconds=0.3)
            )
        else:  # crash / kill-worker: hard worker death on the first attempt
            specs.append(FaultSpec(kind=kind, key=name, attempts=(0,)))
    assert specs, "seeded schedule unexpectedly empty"
    return FaultPlan(specs)


def submit_suite(port: int, retries: int = 0) -> list[dict]:
    with ServiceClient(port=port, timeout=300.0, retries=retries) as client:
        return client.submit_many(
            [
                {
                    "source": name,
                    "name": name,
                    "options": {"max_refinements": budget},
                }
                for name, budget in SUITE
            ]
        )


@pytest.mark.timeout(600)
def test_chaos_soak_answers_everything_with_faultfree_verdicts(tmp_path):
    # --- Reference: a fault-free run of the suite. -----------------------
    reference_service = VerificationService(
        ServiceConfig(workers=4, max_queue=32)
    ).start()
    try:
        reference = {
            doc["name"]: doc["verdict"]
            for doc in submit_suite(reference_service.port)
        }
    finally:
        reference_service.stop()
    assert len(reference) == len(SUITE)

    # --- The soak: same suite, twice, under the seeded schedule. ---------
    store_path = tmp_path / "store" / "bank.pkl"
    journal_path = tmp_path / "requests.wal"
    plan = chaos_plan(random.Random(SEED))
    with installed(plan):
        service = VerificationService(
            ServiceConfig(
                workers=4,
                max_queue=32,
                store_path=store_path,
                journal_path=journal_path,
            )
        ).start()
        try:
            first_pass = submit_suite(service.port, retries=4)
            second_pass = submit_suite(service.port, retries=4)
            stats = service.statistics()["service"]
        finally:
            service.stop()

    # Every request answered with a doc — nothing hung, nothing raised.
    assert len(first_pass) == len(SUITE)
    assert len(second_pass) == len(SUITE)
    for doc in first_pass + second_pass:
        assert "verdict" in doc, doc

    # Final verdicts identical to the fault-free run, both passes.
    assert {d["name"]: d["verdict"] for d in first_pass} == reference
    assert {d["name"]: d["verdict"] for d in second_pass} == reference

    # The schedule genuinely exercised the failure machinery.
    supervision = stats["supervision"]
    assert supervision["crashes"] + stats["connections_dropped"] > 0
    assert supervision["tasks_failed"] == 0  # every crash was recovered

    # The journal drained: nothing accepted went unanswered.
    assert stats["journal"]["lag"] == 0
    reopened = RequestJournal(journal_path)
    assert reopened.recovered == []
    reopened.close()

    # The store survived uncorrupted: it loads, and nothing was quarantined.
    store = PrecisionStore(path=store_path)
    assert len(store) > 0
    assert not list(store_path.parent.glob("*.corrupt"))
