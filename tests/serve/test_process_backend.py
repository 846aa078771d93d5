"""The daemon's worker processes: crash isolation, kill-worker recovery,
and journal-driven restart recovery."""

import threading
import time

import pytest

from repro.core.faults import FAULT_KINDS, FAULT_SITES, FaultPlan, FaultSpec, installed
from repro.serve import (
    RequestJournal,
    ServiceClient,
    ServiceConfig,
    VerificationService,
)


def process_service(**overrides):
    config = ServiceConfig(workers=2, **overrides)
    return VerificationService(config).start()


def test_kill_worker_fault_registered():
    assert "kill-worker" in FAULT_KINDS
    assert "kill-worker" in FAULT_SITES["task"]
    assert FaultSpec(kind="kill-worker").site == "task"


def test_config_validation():
    with pytest.raises(ValueError):
        ServiceConfig(recover=True)  # recover needs a journal


class TestProcessBackendParity:
    def test_worker_processes_decide_the_suite(self):
        service = process_service()
        try:
            with ServiceClient(port=service.port, timeout=180.0) as client:
                docs = client.submit_many(
                    ["simple_safe", "simple_unsafe", "forward"],
                    options={"max_refinements": 8},
                )
            assert [d["verdict"] for d in docs] == ["safe", "unsafe", "safe"]
            stats = service.statistics()["service"]
            assert "worker_backend" not in stats
            assert stats["engine_runs"] == 3
            assert sum(slot["starts"] for slot in stats["worker_slots"]) >= 1
        finally:
            service.stop()

    def test_health_exposes_worker_and_journal_state(self):
        service = process_service()
        try:
            with ServiceClient(port=service.port) as client:
                health = client.health()
            assert health["workers"] == 2
            assert "worker_backend" not in health
            assert health["journal_lag"] is None  # no journal configured
        finally:
            service.stop()

    def test_warmth_flows_between_worker_processes(self):
        service = process_service()
        try:
            with ServiceClient(port=service.port, timeout=180.0) as client:
                cold = client.verify("forward", options={"max_refinements": 8})
                warm = client.verify("forward", options={"max_refinements": 8})
            assert cold["verdict"] == warm["verdict"] == "safe"
            assert not cold["engine"]["session"]["warm_started"]
            assert warm["engine"]["session"]["warm_started"]
        finally:
            service.stop()


class TestKillWorkerMidRequest:
    """Acceptance: kill -9 of a daemon worker mid-request.

    The ``kill-worker`` fault is a *real* ``SIGKILL`` of the slot's worker
    process (``os.kill(os.getpid(), SIGKILL)`` inside the worker) —
    uncatchable, no exit handlers — not a simulated exception.
    """

    def test_killed_worker_becomes_a_retried_verdict(self):
        plan = FaultPlan(
            [FaultSpec(kind="kill-worker", key="simple_safe", attempts=(0,))]
        )
        with installed(plan):
            service = process_service()
            try:
                with ServiceClient(port=service.port, timeout=180.0) as client:
                    doc = client.verify("simple_safe")
                assert doc["verdict"] == "safe"
                assert doc["attempts"] == 2
                assert doc["failures"][0]["kind"] == "crash"
                totals = service.statistics()["service"]["supervision"]
                assert totals["crashes"] == 1
                assert totals["tasks_recovered"] == 1
            finally:
                service.stop()

    def test_engine_never_runs_in_the_daemon_process(self):
        """A worker killed on every attempt is retried in worker processes
        until the request's own retry budget runs out — never by running
        the engine inside the daemon, where an injected crash would raise
        ``InjectedCrash`` and a real one would take the daemon down."""
        plan = FaultPlan(
            [FaultSpec(kind="kill-worker", key="simple_safe", attempts=())]
        )
        with installed(plan):
            service = VerificationService(ServiceConfig(workers=1)).start()
            try:
                with ServiceClient(port=service.port, timeout=180.0) as client:
                    doc = client.verify("simple_safe", options={"task_retries": 5})
            finally:
                service.stop()
        assert doc["verdict"] == "unknown"
        assert doc["attempts"] == 6
        assert [f["kind"] for f in doc["failures"]] == ["crash"] * 6
        assert not any("InjectedCrash" in f["message"] for f in doc["failures"])

    def test_unrecoverable_kill_is_a_structured_failure_doc(self):
        plan = FaultPlan(
            [FaultSpec(kind="kill-worker", key="simple_safe", attempts=())]
        )
        with installed(plan):
            service = process_service()
            try:
                with ServiceClient(port=service.port, timeout=180.0) as client:
                    doc = client.verify("simple_safe")
                assert doc["verdict"] == "unknown"
                assert doc["schema_version"] == 2
                assert doc["failure"]["kind"] == "crash"
            finally:
                service.stop()

    def test_concurrent_requests_lose_no_connections(self):
        """A worker dying under one request must not drop anyone's socket:
        every concurrent submission gets its verdict, the victim gets a
        retried verdict, and the daemon keeps serving afterwards."""
        plan = FaultPlan(
            [FaultSpec(kind="kill-worker", key="victim", attempts=(0,))]
        )
        with installed(plan):
            service = process_service()
            try:
                results = {}

                def submit(label, task):
                    with ServiceClient(port=service.port, timeout=180.0) as c:
                        results[label] = c.submit_many(
                            [task], options={"max_refinements": 8}
                        )[0]

                threads = [
                    threading.Thread(
                        target=submit,
                        args=("victim", {"source": "simple_safe", "name": "victim"}),
                    ),
                    threading.Thread(
                        target=submit,
                        args=("bystander1", {"source": "simple_unsafe"}),
                    ),
                    threading.Thread(
                        target=submit, args=("bystander2", {"source": "forward"})
                    ),
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=180)
                assert all(not t.is_alive() for t in threads)
                # Zero dropped connections: every doc is a real verdict.
                assert results["victim"]["verdict"] == "safe"
                assert results["victim"]["attempts"] == 2
                assert results["bystander1"]["verdict"] == "unsafe"
                assert results["bystander2"]["verdict"] == "safe"
                assert service.connections_dropped == 0

                # And an identical resubmission warm-starts from the bank.
                with ServiceClient(port=service.port, timeout=180.0) as client:
                    again = client.submit_many(
                        [{"source": "simple_safe", "name": "victim"}],
                        options={"max_refinements": 8},
                    )[0]
                assert again["verdict"] == "safe"
                assert again["engine"]["session"]["warm_started"]
            finally:
                service.stop()


class TestJournalRecoveryThroughTheService:
    def seed_crashed_journal(self, path):
        """Write what a daemon that died mid-batch leaves behind: one
        answered request, two accepted-but-unanswered ones."""
        journal = RequestJournal(path)
        done = journal.accept("done", "simple_unsafe", None, "fp-done")
        journal.answer(done, "unsafe")
        journal.accept(
            "lost1", "simple_safe", {"max_refinements": 8}, "fp-lost1"
        )
        journal.accept("lost2", "forward", {"max_refinements": 8}, "fp-lost2")
        journal.close()

    def test_restart_reports_unanswered_work(self, tmp_path):
        path = tmp_path / "requests.wal"
        self.seed_crashed_journal(path)
        service = VerificationService(
            ServiceConfig(workers=2, journal_path=path)
        ).start()
        try:
            with ServiceClient(port=service.port) as client:
                stats = client.stats()["service"]
                health = client.health()
            assert stats["journal"]["recovered"] == 2
            assert stats["journal"]["lag"] == 2  # reported, not re-executed
            assert health["journal_lag"] == 2
            assert stats["recovery_runs"] == 0
        finally:
            service.stop()

    def test_recover_pre_warms_the_backlog(self, tmp_path):
        path = tmp_path / "requests.wal"
        self.seed_crashed_journal(path)
        service = VerificationService(
            ServiceConfig(workers=2, journal_path=path, recover=True)
        ).start()
        try:
            with ServiceClient(port=service.port, timeout=180.0) as client:
                deadline = time.monotonic() + 120
                while time.monotonic() < deadline:
                    stats = client.stats()["service"]
                    if stats["journal"]["lag"] == 0:
                        break
                    time.sleep(0.1)
                assert stats["journal"]["lag"] == 0
                assert stats["recovery_runs"] == 2
                # The recovery runs banked precisions: a client resubmitting
                # the lost work gets warm-started verdicts.
                doc = client.verify("forward", options={"max_refinements": 8})
            assert doc["verdict"] == "safe"
            assert doc["engine"]["session"]["warm_started"]
        finally:
            service.stop()
        # After the drain the journal holds nothing outstanding.
        reopened = RequestJournal(path)
        assert reopened.recovered == []
        reopened.close()

    def test_journaled_requests_answered_in_same_life_leave_no_lag(
        self, tmp_path
    ):
        path = tmp_path / "requests.wal"
        service = VerificationService(
            ServiceConfig(workers=2, journal_path=path)
        ).start()
        try:
            with ServiceClient(port=service.port, timeout=180.0) as client:
                docs = client.submit_many(
                    ["simple_safe", "simple_unsafe"],
                    options={"max_refinements": 4},
                )
                stats = client.stats()["service"]
            assert [d["verdict"] for d in docs] == ["safe", "unsafe"]
            assert stats["journal"]["accepted"] == 2
            assert stats["journal"]["answered"] == 2
            assert stats["journal"]["lag"] == 0
        finally:
            service.stop()
        reopened = RequestJournal(path)
        assert reopened.recovered == []
        reopened.close()


class TestClientReconnectRetry:
    def test_retrying_client_survives_injected_drops(self):
        plan = FaultPlan(
            [FaultSpec(kind="drop-connection", key="bumpy", max_fires=1, attempts=())]
        )
        with installed(plan):
            service = VerificationService(ServiceConfig(workers=2)).start()
            try:
                with ServiceClient(
                    port=service.port, timeout=180.0, retries=3
                ) as client:
                    doc = client.verify(
                        "simple_safe", name="bumpy", options={"max_refinements": 4}
                    )
                assert doc["verdict"] == "safe"
                trail = doc["transport"]
                assert trail["attempts"] == 2
                assert trail["failures"][0]["kind"] == "connection-lost"
            finally:
                service.stop()

    def test_exhausted_retries_still_return_a_structured_doc(self):
        plan = FaultPlan(
            [FaultSpec(kind="drop-connection", key="doomed", attempts=())]
        )
        with installed(plan):
            service = VerificationService(ServiceConfig(workers=2)).start()
            try:
                with ServiceClient(
                    port=service.port, timeout=180.0, retries=2
                ) as client:
                    doc = client.verify(
                        "simple_safe", name="doomed", options={"max_refinements": 4}
                    )
                assert doc["verdict"] == "unknown"
                assert doc["failure"]["kind"] == "connection-lost"
            finally:
                service.stop()

    def test_zero_retries_preserves_single_shot_behaviour(self):
        plan = FaultPlan(
            [FaultSpec(kind="drop-connection", key="oneshot", attempts=(0,))]
        )
        with installed(plan):
            service = VerificationService(ServiceConfig(workers=2)).start()
            try:
                client = ServiceClient(port=service.port)
                doc = client.verify("simple_safe", name="oneshot")
                client.close()
                assert doc["failure"]["kind"] == "connection-lost"
                assert "transport" not in doc
            finally:
                service.stop()
