"""E10 — Reusable sessions and warm-start precision transfer.

The session API banks every task's discovered precision under the program's
fingerprint and seeds later tasks on the same program from it.  A seeded run
skips the refinement rounds a previous run already paid for and goes
straight to (re)building the proof tree, so a warm-started rerun performs
*strictly fewer* abstract-post decisions than its cold counterpart whenever
the cold run refined at all — that strict reduction is the acceptance bar
here, per program and for a whole suite batch.

The transfer also works across process boundaries: pool workers ship
their predicates home (formulas pickle and re-intern), and a portfolio's
winning arm banks its predicates like a single engine does.  Soundness is
asserted alongside every comparison: a seed never changes a decided verdict
(predicates only refine the abstraction).
"""

import pytest

from common import SESSION_MAX_REFINEMENTS, SESSION_SUITE, record, run_once
from repro import Session, VerifierOptions
from repro.core import Verdict

SUITE = SESSION_SUITE

OPTIONS = VerifierOptions(max_refinements=SESSION_MAX_REFINEMENTS)


def run_batch(warm_start):
    session = Session(OPTIONS.replace(warm_start=warm_start))
    docs = session.run_many(SUITE * 2, jobs=1)  # two epochs over the suite
    return session, docs


def test_session_batch_warm_start_beats_cold(benchmark):
    """A warm-started suite batch does fewer total posts than cold reruns."""
    (warm_session, warm_docs), (_, cold_docs) = run_once(
        benchmark, lambda: (run_batch(True), run_batch(False))
    )
    warm_total = sum(doc["post_decisions"] for doc in warm_docs)
    cold_total = sum(doc["post_decisions"] for doc in cold_docs)
    record(
        benchmark,
        warm_posts=warm_total,
        cold_posts=cold_total,
        reduction=round(1 - warm_total / cold_total, 4),
        warm_starts=warm_session.warm_starts,
        predicates_banked=warm_session.predicates_banked,
    )
    # Identical verdicts task for task: the seed never changes an answer.
    assert [d["verdict"] for d in warm_docs] == [d["verdict"] for d in cold_docs]
    assert all(d["verdict"] in (Verdict.SAFE, Verdict.UNSAFE) for d in warm_docs)
    # The whole batch is strictly cheaper warm than cold...
    assert warm_total < cold_total
    # ...and every second-epoch task whose first epoch refined is strictly
    # cheaper individually (a program needing no refinement has nothing to
    # transfer, so its rerun legitimately costs the same).
    epoch = len(SUITE)
    for first, again in zip(warm_docs[:epoch], warm_docs[epoch:]):
        assert again["engine"]["session"]["warm_started"] == (
            first["predicates"] > 0
        ), first["name"]
        if first["refinements"] > 0:
            assert again["post_decisions"] < first["post_decisions"], first["name"]


@pytest.mark.parametrize("name", ["forward", "initcheck", "double_counter"])
def test_warm_rerun_strictly_fewer_posts(benchmark, name):
    """A warm-started rerun of one program strictly reduces abstract posts."""

    def run():
        session = Session(OPTIONS)
        return session.run(name), session.run(name)

    cold, warm = run_once(benchmark, run)
    record(
        benchmark,
        cold_posts=cold.post_decisions(),
        warm_posts=warm.post_decisions(),
        reduction=round(1 - warm.post_decisions() / cold.post_decisions(), 4),
    )
    assert cold.verdict == warm.verdict == Verdict.SAFE
    assert warm.engine_stats["session"]["warm_started"] is True
    assert warm.post_decisions() < cold.post_decisions()
    # The warm run needed no refinement: the seed already proves the program.
    assert warm.num_refinements == 0


def test_portfolio_winner_precision_warm_starts(benchmark):
    """The portfolio's winning arm banks its predicates for warm starts.

    The session banks the winner's precision, and the follow-up run on the
    same program is strictly cheaper than the cold single-refiner baseline.
    """

    def run():
        session = Session(OPTIONS)
        portfolio = session.run(
            session.task(
                "forward",
                options=OPTIONS.replace(refiner="portfolio", max_seconds=60.0),
            )
        )
        cold = Session(OPTIONS).run("forward")
        warm = session.run("forward")
        return portfolio, cold, warm

    portfolio, cold, warm = run_once(benchmark, run)
    record(
        benchmark,
        portfolio_winner=portfolio.winner,
        cold_posts=cold.post_decisions(),
        warm_posts=warm.post_decisions(),
    )
    assert portfolio.verdict == Verdict.SAFE
    # The winner's discovered precision made it back to the session.
    assert portfolio.precision is not None
    assert portfolio.precision.total_predicates() > 0
    assert cold.verdict == warm.verdict == Verdict.SAFE
    assert warm.engine_stats["session"]["warm_started"] is True
    assert warm.post_decisions() < cold.post_decisions()
