"""Behavioural tests of the verification daemon: coalescing, warm-starting,
admission, budget isolation, endpoints, and graceful drain."""

import threading
import time

import pytest

from repro.core.api import Session, VerifierOptions
from repro.core.faults import FaultPlan, FaultSpec, installed
from repro.serve import (
    ServiceClient,
    ServiceConfig,
    ServiceError,
    VerificationService,
    wait_until_ready,
)


@pytest.fixture
def service():
    service = VerificationService(ServiceConfig(workers=2)).start()
    yield service
    service.stop()


@pytest.fixture
def client(service):
    with ServiceClient("127.0.0.1", service.port, timeout=120.0) as client:
        yield client


def test_health_endpoint(service, client):
    health = client.health()
    assert health["status"] == "ready"
    assert health["protocol"] == 1
    assert health["workers"] == 2
    assert wait_until_ready("127.0.0.1", service.port)["status"] == "ready"


def test_verify_round_trip_matches_in_process(service, client):
    doc = client.verify("simple_unsafe")
    expected = Session().run("simple_unsafe").to_json()
    assert doc["verdict"] == "unsafe"
    assert doc["verdict"] == expected["verdict"]
    assert doc["post_decisions"] == expected["post_decisions"]
    assert doc["schema_version"] == 2
    assert doc["coalesced"] is False


def test_verify_accepts_source_text_and_options(service, client):
    source = """
    int main() {
      int x;
      x = 0;
      while (x < 3) { x = x + 1; }
      assert(x == 3);
    }
    """
    doc = client.verify(
        source, name="tiny", options=VerifierOptions(max_refinements=8)
    )
    assert doc["verdict"] == "safe"
    assert doc["name"] == "tiny"


def test_malformed_source_is_a_structured_error_doc(service, client):
    doc = client.verify("int main() { this is not mini-C }", name="broken")
    assert doc["verdict"] == "error"
    assert doc["schema_version"] == 2


def test_bad_options_rejected_as_structured_doc(service, client):
    doc = client.verify("simple_safe", options={"no_such_knob": 1})
    assert doc["verdict"] == "unknown"
    assert doc["failure"]["kind"] == "bad-request"
    assert doc["error"]["status"] == 400


def test_unknown_op_is_a_protocol_error(service, client):
    response = client.request({"op": "frobnicate"})
    assert response["ok"] is False
    assert response["error"]["code"] == "unsupported-op"


def test_include_precision_ships_rendered_bank(service, client):
    doc = client.verify("forward", include_precision=True)
    assert doc["verdict"] == "safe"
    assert doc["precision"]  # forward refines: non-empty bank
    assert all(
        isinstance(preds, list) and all(isinstance(p, str) for p in preds)
        for preds in doc["precision"].values()
    )


def test_stats_and_cache_endpoints(service, client):
    client.verify("simple_safe")
    stats = client.stats()
    assert stats["service"]["engine_runs"] == 1
    assert stats["service"]["verify_requests"] == 1
    assert stats["session"]["tasks_run"] == 1
    assert stats["store"]["programs"] == 1
    assert "queue_depth" in stats["service"]
    cache = client.cache()
    assert len(cache["store"]["fingerprints"]) == 1
    # No request runs on the daemon session's checker: nothing to report.
    assert "checker_caches" not in cache
    assert "checker_caches" not in stats["session"]


class TestCoalescing:
    def test_n_concurrent_identical_one_engine_run(self, service, client):
        n = 6
        docs = client.submit_many([("forward", "forward")] * n)
        stats = client.stats()["service"]
        # Exactly one engine run: the other N-1 attached to it in flight.
        assert stats["engine_runs"] == 1
        assert stats["coalesce_hits"] == n - 1
        verdicts = {doc["verdict"] for doc in docs}
        posts = {doc["post_decisions"] for doc in docs}
        assert verdicts == {"safe"}
        assert len(posts) == 1  # N identical responses from the one run
        assert sum(1 for doc in docs if doc["coalesced"]) == n - 1

    def test_different_options_do_not_coalesce(self, service, client):
        docs = client.submit_many(
            [
                {"source": "simple_safe"},
                {"source": "simple_safe", "options": {"strategy": "dfs"}},
            ]
        )
        assert [doc["verdict"] for doc in docs] == ["safe", "safe"]
        assert client.stats()["service"]["engine_runs"] == 2


class TestWarmStart:
    def test_repeat_fingerprint_does_strictly_fewer_posts(self, service, client):
        cold = client.verify("forward")
        warm = client.verify("forward")
        assert cold["verdict"] == warm["verdict"] == "safe"
        assert not cold["engine"]["session"]["warm_started"]
        assert warm["engine"]["session"]["warm_started"]
        assert warm["engine"]["session"]["seeded_predicates"] > 0
        assert warm["post_decisions"] < cold["post_decisions"]
        stats = client.stats()["service"]
        assert stats["warm_hits"] == 1

    def test_warm_start_spans_connections(self, service):
        with ServiceClient(port=service.port) as first:
            first.verify("forward")
        with ServiceClient(port=service.port) as second:
            warm = second.verify("forward")
        assert warm["engine"]["session"]["warm_started"]


class TestIsolation:
    def test_overload_rejected_as_429_doc(self):
        service = VerificationService(
            ServiceConfig(workers=1, max_queue=0)
        ).start()
        try:
            plan = FaultPlan(
                [FaultSpec(kind="slow", key="lock_step", attempts=(), seconds=1.5)]
            )
            with installed(plan):
                results = {}

                def occupy():
                    with ServiceClient(port=service.port) as client:
                        results["slow"] = client.verify("lock_step")

                thread = threading.Thread(target=occupy)
                thread.start()
                deadline = time.monotonic() + 5.0
                while (
                    service.admission.pending == 0
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.02)
                with ServiceClient(port=service.port) as client:
                    rejected = client.verify("up_down")
                thread.join()
            assert rejected["verdict"] == "unknown"
            assert rejected["failure"]["kind"] == "overloaded"
            assert rejected["error"]["status"] == 429
            assert results["slow"]["verdict"] == "safe"  # unharmed by the reject
            assert service.admission.rejections == 1
        finally:
            service.stop()

    def test_budget_exhausting_request_cannot_starve_small_one(self, service):
        # The pathological request burns only its own (tiny) budget and
        # settles unknown; the small request on the other worker decides.
        pathological = {
            "source": "double_counter",
            "name": "pathological",
            "options": {"max_solver_calls": 5},
        }
        small = {"source": "simple_safe", "name": "small"}
        with ServiceClient(port=service.port) as client:
            heavy, light = client.submit_many([pathological, small])
        assert heavy["verdict"] == "unknown"
        assert light["verdict"] == "safe"

    def test_request_timeout_clamps_wall_clock(self):
        # Each request ends on its clamped wall-clock budget, on its first
        # attempt: none is killed, so none strikes the circuit breaker.
        # partition needs seconds of solving, so the memo entries each
        # clamped run leaves on the warm worker cannot add up to a decided
        # run within four clamps.
        service = VerificationService(
            ServiceConfig(workers=1, request_timeout=0.05)
        ).start()
        try:
            with ServiceClient(port=service.port) as client:
                docs = [client.verify("partition") for _ in range(4)]
        finally:
            service.stop()
        for doc in docs:
            assert doc["verdict"] == "unknown", doc
            assert "wall-clock budget exhausted" in doc["reason"]
            assert doc.get("attempts", 1) == 1
            assert "failure" not in doc and "failures" not in doc

    def test_request_timeout_lets_the_engine_use_its_budget(self):
        # A request still running refinements at its clamped max_seconds
        # is stopped by the engine, not killed by the supervisor.
        service = VerificationService(
            ServiceConfig(workers=1, request_timeout=2.0)
        ).start()
        try:
            with ServiceClient(port=service.port, timeout=120.0) as client:
                doc = client.verify(
                    "initcheck_buggy", options={"max_refinements": 30}
                )
            totals = service.statistics()["service"]["supervision"]
        finally:
            service.stop()
        assert doc["verdict"] == "unknown", doc
        assert "wall-clock" in doc["reason"]
        assert doc.get("attempts", 1) == 1
        assert "failures" not in doc
        assert totals["timeouts"] == 0


class TestDrain:
    def test_shutdown_finishes_in_flight_work(self, service):
        plan = FaultPlan(
            [FaultSpec(kind="slow", key="lock_step", attempts=(), seconds=1.0)]
        )
        results = {}
        with installed(plan):

            def submit():
                with ServiceClient(port=service.port) as client:
                    results["doc"] = client.verify("lock_step")

            thread = threading.Thread(target=submit)
            thread.start()
            deadline = time.monotonic() + 5.0
            while service.admission.pending == 0 and time.monotonic() < deadline:
                time.sleep(0.02)
            with ServiceClient(port=service.port) as control:
                control.shutdown()
            thread.join()
        assert results["doc"]["verdict"] == "safe"  # in-flight work completed
        service.stop()  # loop exits because the drain ran to completion
        assert service.draining

    def test_drained_daemon_refuses_new_connections(self, service):
        with ServiceClient(port=service.port) as client:
            client.verify("simple_safe")
            client.shutdown()
        service.stop()
        with pytest.raises((ServiceError, ConnectionError, OSError)):
            ServiceClient(port=service.port, connect_timeout=0.5).health()

    def test_drain_flushes_store_to_disk(self, tmp_path):
        store_path = tmp_path / "bank.pkl"
        service = VerificationService(
            ServiceConfig(workers=1, store_path=store_path)
        ).start()
        with ServiceClient(port=service.port) as client:
            client.verify("forward")
            client.shutdown()
        service.stop()
        assert store_path.exists()
        # A fresh daemon over the same store warm-starts immediately.
        revived = VerificationService(
            ServiceConfig(workers=1, store_path=store_path)
        ).start()
        try:
            with ServiceClient(port=revived.port) as client:
                doc = client.verify("forward")
            assert doc["engine"]["session"]["warm_started"]
        finally:
            revived.stop()
