"""E12 — The verification daemon: warm-start over the wire and coalescing.

Two acceptance bars for verification-as-a-service (ISSUE 9):

* **Warm second submission** — a repeat submission of the same program over
  the wire warm-starts from the precision the daemon banked for the first
  one and performs *strictly fewer* abstract-post decisions.
* **Coalesce bar** — 8 identical concurrent requests attach to (nearly) one
  in-flight engine run: the daemon's total posts for all 8 must be ≤ 1.25×
  the posts of a single request.  (The slack covers the benign race where a
  late request arrives just after the shared run finished and starts a
  second — warm-started, so cheap — run.)

Both measure the *service*, not the engine: the engine-side warm-start bars
live in bench_e10_session.py; here the requests cross a real TCP socket into
a live daemon.
"""

import pytest

from common import record, run_once
from repro.serve import ServiceClient, ServiceConfig, VerificationService

#: Programs that refine on the cold run (so warm-starting has predicates to
#: transfer) without dominating wall-clock.
WARM_PROGRAMS = ["forward", "initcheck", "double_counter"]

OPTIONS = {"max_refinements": 8}


@pytest.fixture
def service():
    service = VerificationService(ServiceConfig(workers=4, max_queue=32)).start()
    yield service
    service.stop()


@pytest.mark.parametrize("name", WARM_PROGRAMS)
def test_warm_second_submission_strictly_fewer_posts(benchmark, service, name):
    def run():
        with ServiceClient(port=service.port) as client:
            cold = client.verify(name, options=OPTIONS)
            warm = client.verify(name, options=OPTIONS)
        return cold, warm

    cold, warm = run_once(benchmark, run)
    record(
        benchmark,
        cold_posts=cold["post_decisions"],
        warm_posts=warm["post_decisions"],
        reduction=round(1 - warm["post_decisions"] / cold["post_decisions"], 4),
        warm_hits=service.statistics()["service"]["warm_hits"],
    )
    assert cold["verdict"] == warm["verdict"]
    assert cold["verdict"] in ("safe", "unsafe")
    assert not cold["engine"]["session"]["warm_started"]
    assert warm["engine"]["session"]["warm_started"]
    # The bar: a repeat fingerprint does strictly fewer abstract posts.
    assert warm["post_decisions"] < cold["post_decisions"]


def test_eight_identical_concurrent_requests_coalesce(benchmark, service):
    """8 identical concurrent requests cost ≤ 1.25× one request's posts."""

    def single_run_posts():
        # One isolated request for the same work the 8 will ask for, on a
        # daemon with an empty store (a true cold single-request cost).
        probe = VerificationService(ServiceConfig(workers=1)).start()
        try:
            with ServiceClient(port=probe.port) as client:
                return client.verify("forward", options=OPTIONS)["post_decisions"]
        finally:
            probe.stop()

    def run():
        posts_before = service.posts_executed
        with ServiceClient(port=service.port) as client:
            docs = client.submit_many([("forward", "forward")] * 8, options=OPTIONS)
        return docs, service.posts_executed - posts_before

    one = single_run_posts()
    docs, batch_posts = run_once(benchmark, run)
    stats = service.statistics()["service"]
    record(
        benchmark,
        single_request_posts=one,
        eight_request_posts=batch_posts,
        ratio=round(batch_posts / one, 4),
        coalesce_hits=stats["coalesce_hits"],
        engine_runs=stats["engine_runs"],
    )
    assert len(docs) == 8
    assert {doc["verdict"] for doc in docs} == {"safe"}
    assert stats["coalesce_hits"] >= 1  # the batch genuinely coalesced
    assert stats["engine_runs"] + stats["coalesce_hits"] == 8
    # The coalesce bar: 8 identical concurrent requests must not cost more
    # than 1.25x one request's abstract posts.
    assert batch_posts <= 1.25 * one, (batch_posts, one)
