"""E9 — The refiner portfolio on the divergent corpus.

The paper's empirical claim is a *complementarity* claim: path-invariant
refinement succeeds exactly where path-formula refinement diverges (FORWARD,
DOUBLE_COUNTER — their loop invariants ``a+b = 3i`` / ``a = 2i`` are not
atoms of any finite path), while the cheap path-formula refiner is perfectly
adequate on programs whose proofs need no loop invariant.  The portfolio
layer exploits that automatically: it runs both refiners round-robin under
one budget, demotes a diverging arm on monitor evidence (stale pivots +
growing counterexamples + a non-shrinking frontier) and hands its remaining
budget to the survivors.

What this benchmark pins down, per divergent program:

* the portfolio proves the program SAFE although path-formula alone diverges
  (``verify --refiner portfolio`` needs no flag-picking by the user);
* **bounded overhead** — with the paper's refiner ordered first, the
  round-robin portfolio costs the *same* abstract-post decisions as the best
  single refiner (+25% bar; measured 0% because the winner finishes inside
  its first slices and arms share one memoised checker), and wall time stays
  within 1.25x + a small scheduling constant;
* **bounded waste under adversarial ordering** — with the diverging refiner
  scheduled first, the extra refinements are capped by the slice size (the
  monitor demotes the staller no later than ``window`` observed
  refinements), so the portfolio still proves the program within
  ``winner + slice`` refinements here.
"""

import time

import pytest

from common import record, run_once
from repro.core import Budget, PortfolioEngine, Verdict, VerifierOptions, verify
from repro.lang import get_program, get_source

#: The divergent corpus: path-formula alone diverges on these (one loop
#: unrolling per refinement), path-invariant proves them in two refinements.
DIVERGENT = ["forward", "double_counter"]

#: Relative overhead bar of the acceptance criterion.
OVERHEAD = 1.25
#: Absolute wall-clock slack for scheduling noise (seconds).
WALL_SLACK = 0.75


def run_single(name, refiner, max_refinements=25):
    started = time.perf_counter()
    result = verify(
        get_program(name),
        options=VerifierOptions(refiner=refiner, max_refinements=max_refinements),
    )
    return result, time.perf_counter() - started


@pytest.mark.parametrize("name", DIVERGENT)
def test_portfolio_within_best_single_budget(benchmark, name):
    """Portfolio <= best single refiner + 25% on the divergent corpus."""

    def run_both():
        single, single_seconds = run_single(name, "path-invariant")
        started = time.perf_counter()
        portfolio = PortfolioEngine(get_source(name)).run()
        return single, single_seconds, portfolio, time.perf_counter() - started

    single, single_seconds, portfolio, portfolio_seconds = run_once(benchmark, run_both)
    portfolio_posts = sum(arm["post_decisions"] for arm in portfolio.arms)
    record(
        benchmark,
        verdict=portfolio.verdict,
        winner=portfolio.winner,
        single_posts=single.post_decisions(),
        portfolio_posts=portfolio_posts,
        single_seconds=round(single_seconds, 4),
        portfolio_seconds=round(portfolio_seconds, 4),
        arms={arm["refiner"]: arm["status"] for arm in portfolio.arms},
    )
    # Path-formula alone diverges here; the portfolio proves it regardless.
    assert portfolio.verdict == Verdict.SAFE
    assert portfolio.winner == "path-invariant"
    # Total budget consumed: abstract-post decisions across every arm, and
    # wall clock, both within the acceptance bar of best-single + 25%.
    assert portfolio_posts <= single.post_decisions() * OVERHEAD
    assert portfolio_seconds <= single_seconds * OVERHEAD + WALL_SLACK


@pytest.mark.parametrize("name", DIVERGENT)
def test_divergent_refiner_alone_fails(benchmark, name):
    """The honesty baseline: path-formula really does diverge here."""
    result, seconds = run_once(benchmark, run_single, name, "path-formula", 12)
    lengths = [r.counterexample_length for r in result.iterations if r.refinement]
    record(benchmark, verdict=result.verdict, seconds=round(seconds, 4),
           counterexample_lengths=lengths)
    assert result.verdict == Verdict.UNKNOWN
    # One loop unrolling per refinement: monotonically growing spurious
    # counterexamples (the signature the divergence monitor keys on).
    assert max(lengths) > min(lengths)


@pytest.mark.parametrize("name", DIVERGENT)
def test_adversarial_order_waste_is_bounded(benchmark, name):
    """Even with the diverging refiner scheduled first, waste <= one slice.

    The staller gets `slice_refinements` refinements per sweep and the
    winner decides inside its own first slices, so the portfolio spends at
    most `winner + slice` refinements in total.
    """
    slice_refinements = 2

    def run_adversarial():
        single, _ = run_single(name, "path-invariant")
        portfolio = PortfolioEngine(
            get_source(name),
            refiners=("path-formula", "path-invariant"),
            slice_refinements=slice_refinements,
        ).run()
        return single, portfolio

    single, portfolio = run_once(benchmark, run_adversarial)
    total_refinements = sum(arm["refinements"] for arm in portfolio.arms)
    record(
        benchmark,
        verdict=portfolio.verdict,
        winner=portfolio.winner,
        total_refinements=total_refinements,
        single_refinements=single.num_refinements,
        arms={arm["refiner"]: arm["status"] for arm in portfolio.arms},
    )
    assert portfolio.verdict == Verdict.SAFE
    assert portfolio.winner == "path-invariant"
    assert total_refinements <= single.num_refinements + slice_refinements


def test_tight_shared_pool_still_proves(benchmark):
    """A tight shared refinement pool (8 for both arms together) suffices:
    slicing caps what the diverging arm can burn before the winner decides,
    so the proof fits where an unsupervised path-formula run would have
    drained the whole pool alone.

    (Monitor-driven demotion proper needs the winner to be slower than the
    monitor window; that scenario is asserted with a synthetically delayed
    winner in ``tests/core/test_portfolio.py``.)
    """

    def run_tight():
        return PortfolioEngine(
            get_source("double_counter"),
            refiners=("path-formula", "path-invariant"),
            slice_refinements=1,
            budget=Budget(max_refinements=8),
        ).run()

    portfolio = run_once(benchmark, run_tight)
    by_name = {arm["refiner"]: arm for arm in portfolio.arms}
    record(
        benchmark,
        verdict=portfolio.verdict,
        arms={name: (arm["status"], arm["refinements"]) for name, arm in by_name.items()},
    )
    assert portfolio.verdict == Verdict.SAFE
    assert by_name["path-invariant"]["status"] == "won"
    # The diverging arm consumed at most its per-sweep slices, leaving the
    # pool (which path-formula alone exhausts without a verdict) intact.
    assert by_name["path-formula"]["refinements"] < 8 - by_name["path-invariant"]["refinements"]
