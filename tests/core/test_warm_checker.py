"""The worker-side warm checker (:class:`repro.core.engine.WarmChecker`).

A persistent daemon worker keeps one checker across the tasks it serves;
these tests pin that the holder stays bounded however many distinct
programs pass through it, that its recycles keep what recurs warm, that
warm answers equal cold ones, and that in-process callers still get a fresh
checker per task.
"""

import pytest

from repro.core import engine
from repro.core.api import VerifierOptions
from repro.core.engine import WarmChecker, _run_batch_task, task_payload
from repro.lang import get_source


def _payload(name, source, **options):
    return task_payload(
        name, source, VerifierOptions(**{"max_refinements": 8, **options})
    )


def _tiny(k):
    """A distinct one-obligation program per ``k``."""
    return f"void p{k}(int x) {{ assume(x >= {k}); assert(x >= {k}); }}"


@pytest.fixture
def warm(monkeypatch):
    """Install a holder the way the slot initializer does, per test."""
    holder = WarmChecker()
    monkeypatch.setattr(engine, "_WARM_CHECKER", holder)
    return holder


def test_in_process_tasks_get_a_fresh_checker():
    payload = _payload("forward", get_source("forward"))
    first = _run_batch_task(payload)
    second = _run_batch_task(payload)
    assert first["verdict"] == second["verdict"] == "safe"
    counters = {k: v for k, v in first["solver"].items() if not k.endswith("_seconds")}
    assert counters == {k: second["solver"][k] for k in counters}


def test_warm_rerun_matches_the_cold_run_with_fewer_solver_calls(warm):
    payload = _payload("forward", get_source("forward"))
    cold = _run_batch_task(payload)
    again = _run_batch_task(payload)
    for key in ("verdict", "reason", "post_decisions", "predicates", "iterations"):
        assert again[key] == cold[key], key
    assert again["solver"]["sat_queries"] < cold["solver"]["sat_queries"]
    assert warm.recycles == 0


def test_binding_budget_trips_where_the_cold_run_trips(monkeypatch):
    """Memo hits on entries an earlier task left are charged like the checks
    they save, so a warm run stops exactly where a fresh checker stops."""
    payload = _payload("forward", get_source("forward"))
    full = _run_batch_task(payload)  # fresh checker, no solver budget
    payload["options"]["max_solver_calls"] = full["solver"]["triple_checks"] // 2
    cold = _run_batch_task(payload)
    assert cold["verdict"] == "unknown" and "solver budget" in cold["reason"]
    monkeypatch.setattr(engine, "_WARM_CHECKER", WarmChecker())
    _run_batch_task(_payload("forward", get_source("forward")))  # warm the tables
    warm = _run_batch_task(payload)
    for key in ("verdict", "reason", "post_decisions", "predicates", "iterations"):
        assert warm[key] == cold[key], key
    assert warm["engine"]["nodes_created"] == cold["engine"]["nodes_created"]
    solver = warm["solver"]
    assert solver["carried_hits"] > 0
    assert solver["triple_checks"] + solver["carried_hits"] == (
        cold["solver"]["triple_checks"]
    )
    assert solver["sat_queries"] < cold["solver"]["sat_queries"]


def test_memory_stays_under_the_cap_over_2000_programs(warm, monkeypatch):
    cap = 1000  # small enough to recycle many times in this test
    monkeypatch.setattr(WarmChecker, "CAP", cap)
    peak = 0
    for k in range(2000):
        doc = _run_batch_task(_payload(f"p{k}", _tiny(k), max_refinements=4))
        assert doc["verdict"] == "safe", doc
        peak = max(peak, warm.entries())
        assert warm.entries() <= cap
    assert warm.recycles >= 10
    assert peak > cap // 2  # the tables really filled up between recycles


def test_a_recurring_program_stays_warm_across_recycles(warm, monkeypatch):
    """A recycle carries over the verdicts recent tasks asked for: a program
    resubmitted among one-off ones keeps them however often the tables pass
    the cap, so it is never re-proved cold."""
    forward = _payload("forward", get_source("forward"))
    cold = _run_batch_task(forward)
    first = _run_batch_task(forward)
    assert first["solver"]["triple_checks"] < cold["solver"]["triple_checks"]
    monkeypatch.setattr(WarmChecker, "CAP", 2 * warm.entries())
    for k in range(400):
        _run_batch_task(_payload(f"p{k}", _tiny(k), max_refinements=4))
        if k % 20 == 19:
            again = _run_batch_task(forward)
            assert again["verdict"] == "safe"
            assert again["solver"]["triple_checks"] == first["solver"]["triple_checks"]
    assert warm.recycles >= 3


def test_recycled_holder_keeps_answering_correctly(warm, monkeypatch):
    monkeypatch.setattr(WarmChecker, "CAP", 1)
    for name in ("forward", "simple_unsafe", "forward"):
        doc = _run_batch_task(_payload(name, get_source(name)))
        assert doc["verdict"] == ("unsafe" if name == "simple_unsafe" else "safe")
    assert warm.recycles == 3
    assert warm.entries() == 0
