"""Behavioural tests of the verification daemon: coalescing, warm-starting,
admission, budget isolation, endpoints, and graceful drain."""

import sys
import threading
import time

import pytest

from repro.core import api
from repro.core.api import Session, VerifierOptions
from repro.core.faults import FaultPlan, FaultSpec, installed
from repro.logic.formulas import ge
from repro.logic.terms import const, var
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


@pytest.mark.parametrize(
    "key", ["task_timeout", "max_cache_entries", "max_predicates_per_location"]
)
def test_removed_option_keys_are_bad_requests(service, client, key):
    doc = client.verify("simple_safe", options={key: 16})
    assert doc["failure"]["kind"] == "bad-request"
    assert doc["error"]["status"] == 400
    assert f"unknown option keys ['{key}']" in doc["reason"]


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


def test_banking_does_not_race_store_reads():
    """Executor threads settle runs while another seeds its own and
    summarises the store.  Settling and every store read hold the session
    lock, so no read sees the bank change size mid-iteration (unlocked, a
    seed read or a ``stats`` summary raised ``RuntimeError: dictionary
    changed size during iteration`` within a few reads) and no count is
    lost."""
    service = VerificationService(ServiceConfig(workers=1))  # never started
    session = service.session
    task = session.task("simple_safe")
    task.resolved()
    predicate = ge(var("x"), const(0))
    merges = 2_000

    def bank(thread):
        # What a settling executor thread does: merge new predicates.
        for n in range(merges):
            with session._lock:
                session._settle(
                    task.fingerprint, False, 0, "safe",
                    {f"T{thread}L{n}": (predicate,)}, {},
                )

    # More threads than the two cores CI boxes have.
    bankers = [threading.Thread(target=bank, args=(k,)) for k in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    reads = 0
    try:
        for banker in bankers:
            banker.start()
        while any(banker.is_alive() for banker in bankers):
            # In-process supervision: seeds from the store being banked.
            docs, _, _ = session.supervise([task])
            assert docs[0]["verdict"] == "safe"
            service.statistics()
            reads += 1
    finally:
        sys.setswitchinterval(interval)
        for banker in bankers:
            banker.join(timeout=60)
    assert not any(banker.is_alive() for banker in bankers)
    assert reads > 0
    assert session.tasks_run == 3 * merges + reads
    store = service.statistics()["store"]
    assert store["predicates"] == session.predicates_banked >= 3 * merges


def test_daemon_settles_like_a_run_many_pool(service, client):
    """One task lifecycle: the same two submissions of a two-program batch,
    to the daemon and to a ``run_many`` pool, give the same
    ``engine.session`` stamps, warm starts and banked predicates."""
    batch = ["forward", "lock_step"]
    served = [client.submit_many(batch) for _ in range(2)]
    session = Session()
    pooled = [session.run_many(batch, jobs=2) for _ in range(2)]

    def stamps(rounds):
        return [[doc["engine"]["session"] for doc in docs] for docs in rounds]

    assert stamps(served) == stamps(pooled)
    assert [s["warm_started"] for s in stamps(served)[1]] == [True, True]
    stats = client.stats()
    assert stats["session"]["warm_starts"] == session.warm_starts == 2
    assert stats["service"]["warm_hits"] == 2
    banked = service.session.store_summary()
    assert banked == session.store_summary()
    for fingerprint in banked["fingerprints"]:
        assert service.session.store.payload(fingerprint) == session.store.payload(
            fingerprint
        )


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


class TestParseMemo:
    """The daemon fingerprints a source text it has seen without parsing it
    again (``Session.identify``); the counters are in ``stats.session``."""

    @pytest.fixture
    def parses(self, monkeypatch):
        """The daemon process's front-end runs (workers are other processes)."""
        calls = []
        real = api.program_from_source

        def counting(source, *args, **kwargs):
            calls.append(source)
            return real(source, *args, **kwargs)

        monkeypatch.setattr(api, "program_from_source", counting)
        return calls

    def test_a_repeat_source_is_parsed_once(self, service, client, parses):
        docs = [
            client.verify("forward", options={"warm_start": False}, include_precision=True)
            for _ in range(3)
        ]
        assert len(parses) == 1
        assert docs[0]["verdict"] == "safe" and docs[0]["precision"]
        for doc in docs[1:]:
            for key in ("verdict", "precision", "post_decisions"):
                assert doc[key] == docs[0][key], key
        session = client.stats()["session"]
        assert session["parse_hits"] == 2 and session["parsed_sources"] == 1

    def test_a_source_that_does_not_parse_is_never_remembered(
        self, service, client, parses
    ):
        for _ in range(2):
            doc = client.verify("int main() { this is not mini-C }", name="broken")
            assert doc["verdict"] == "error"
        assert len(parses) == 2
        session = client.stats()["session"]
        assert session["parse_hits"] == 0 and session["parsed_sources"] == 0

    def test_the_memo_stays_at_its_cap(self, monkeypatch, service, client):
        monkeypatch.setattr(Session, "PARSED_SOURCES", 3)
        for k in range(5):
            doc = client.verify(
                f"void p{k}(int x) {{ assume(x >= {k}); assert(x >= {k}); }}"
            )
            assert doc["verdict"] == "safe"
        assert client.stats()["session"]["parsed_sources"] == 3


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
        # initcheck_buggy keeps refining past any clamp (its refinement cap
        # is out of reach), so the memo entries each clamped run leaves on
        # the warm worker cannot add up to a decided run within four clamps.
        service = VerificationService(
            ServiceConfig(workers=1, request_timeout=0.05)
        ).start()
        try:
            with ServiceClient(port=service.port) as client:
                docs = [
                    client.verify("initcheck_buggy", options={"max_refinements": 200})
                    for _ in range(4)
                ]
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
                    "initcheck_buggy", options={"max_refinements": 200}
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
