"""Persistent warm workers of the daemon.

Each daemon executor thread owns one worker slot: a long-lived worker
process that keeps a bounded checker warm across the requests it serves.
These tests pin what that must not change — verdicts equal to cold runs,
per-request failure handling, a clean drain — and what it must deliver:
fewer solver calls on a repeat.
"""

import os
import signal
import threading
import time
from multiprocessing import forkserver

import pytest

from repro.core.api import Session, VerifierOptions
from repro.core.faults import FaultPlan, FaultSpec, installed
from repro.serve import ServiceClient, ServiceConfig, VerificationService
from repro.testgen import shutdown_serve_oracle

pytestmark = pytest.mark.timeout(180)

COLD = {"max_refinements": 8, "warm_start": False}


def process_service(workers, **overrides):
    config = ServiceConfig(workers=workers, **overrides)
    return VerificationService(config).start()


def slot_stats(service):
    return service.statistics()["service"]["worker_slots"]


def wait_until_gone(pid, timeout=10.0):
    """Wait until ``pid`` has exited and been reaped."""
    deadline = time.monotonic() + timeout
    while os.path.exists(f"/proc/{pid}") and time.monotonic() < deadline:
        time.sleep(0.01)
    return not os.path.exists(f"/proc/{pid}")


def test_repeat_on_a_warm_worker_matches_with_fewer_solver_calls():
    service = process_service(workers=1)
    try:
        with ServiceClient(port=service.port, timeout=120.0) as client:
            first, second = (
                client.verify("forward", options=COLD, include_precision=True)
                for _ in range(2)
            )
    finally:
        service.stop()
    assert first["verdict"] == second["verdict"] == "safe"
    assert second["post_decisions"] == first["post_decisions"]
    assert second["precision"] == first["precision"]
    assert not second["engine"]["session"]["warm_started"]  # no store seeding
    assert second["solver"]["sat_queries"] < first["solver"]["sat_queries"]


def test_warm_worker_charges_a_binding_budget_like_a_cold_run():
    # The worker's first request leaves every obligation of the reruns in
    # its memo tables; each rerun must still stop where a fresh checker
    # stops, at half the budget and just below it.
    service = process_service(workers=1)
    try:
        with ServiceClient(port=service.port, timeout=120.0) as client:
            full = client.verify("forward", options=COLD)
            needed = full["solver"]["triple_checks"]
            runs = [
                (budget, client.verify("forward", options=budgeted))
                for budget in (needed // 2, needed - 1)
                for budgeted in [dict(COLD, max_solver_calls=budget)]
            ]
    finally:
        service.stop()
    for budget, warm in runs:
        cold = Session(VerifierOptions(**COLD, max_solver_calls=budget)).run("forward")
        cold = cold.to_json()
        if budget == needed // 2:
            assert cold["verdict"] == "unknown" and "solver budget" in cold["reason"]
        for key in ("verdict", "reason", "post_decisions", "predicates"):
            assert warm[key] == cold[key], (budget, key)
        assert warm["engine"]["nodes_created"] == cold["engine"]["nodes_created"]
        assert warm["solver"]["carried_hits"] > 0
        assert warm["solver"]["sat_queries"] < cold["solver"]["sat_queries"]


def test_idle_worker_killed_between_requests():
    service = process_service(workers=2)
    try:
        with ServiceClient(port=service.port, timeout=120.0) as client:
            assert client.verify("simple_safe", options=COLD)["verdict"] == "safe"
            (victim,) = [s["pid"] for s in slot_stats(service) if s["pid"]]
            os.kill(victim, signal.SIGKILL)
            assert wait_until_gone(victim)
            doc = client.verify("simple_unsafe", options=COLD)
            assert doc["verdict"] == "unsafe"
            # And the daemon keeps serving.
            assert client.verify("lock_step", options=COLD)["verdict"] == "safe"
        pids = [s["pid"] for s in slot_stats(service)]
        assert victim not in pids
        assert service.statistics()["service"]["supervision"]["tasks_failed"] == 0
    finally:
        service.stop()


def test_hang_timeout_rebuilds_only_its_own_slot():
    plan = FaultPlan(
        [FaultSpec(kind="hang", key="victim", attempts=(0,), seconds=60.0)]
    )
    with installed(plan):
        service = process_service(workers=2, request_timeout=2.0)
        try:
            victim_doc = {}

            def submit_victim():
                with ServiceClient(port=service.port, timeout=120.0) as client:
                    victim_doc.update(
                        client.verify("simple_safe", name="victim", options=COLD)
                    )

            thread = threading.Thread(target=submit_victim)
            thread.start()
            bystanders = []
            with ServiceClient(port=service.port, timeout=120.0) as client:
                # Keep the other slot busy for the victim's whole life,
                # across its timeout kill and retry.
                while thread.is_alive() or not bystanders:
                    bystanders.append(client.verify("lock_step", options=COLD))
            thread.join()
            slots = slot_stats(service)
            totals = service.statistics()["service"]["supervision"]
        finally:
            service.stop()
    assert victim_doc["verdict"] == "safe"
    assert victim_doc["attempts"] == 2
    assert victim_doc["failures"][0]["kind"] == "timeout"
    assert len(bystanders) >= 2
    assert all(doc["verdict"] == "safe" for doc in bystanders)
    assert all(doc["attempts"] == 1 for doc in bystanders)
    assert sorted(slot["starts"] for slot in slots) == [1, 2]
    assert totals["timeouts"] == 1


def test_stop_leaves_no_worker_or_forkserver_process():
    # The fork server is shared by every live daemon in the
    # process; stop the fuzz oracle's, should an earlier test have left it.
    shutdown_serve_oracle()
    service = process_service(workers=2)
    try:
        docs = {}

        def submit(name):
            with ServiceClient(port=service.port, timeout=120.0) as client:
                docs[name] = client.verify(name, options=COLD)

        threads = [
            threading.Thread(target=submit, args=(name,))
            for name in ("forward", "lock_step")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        workers = [slot["pid"] for slot in slot_stats(service) if slot["pid"]]
        server_pid = forkserver._forkserver._forkserver_pid
    finally:
        service.stop()
    assert {doc["verdict"] for doc in docs.values()} == {"safe"}
    assert workers and server_pid is not None
    for pid in workers + [server_pid]:
        assert wait_until_gone(pid), f"process {pid} outlived stop()"
