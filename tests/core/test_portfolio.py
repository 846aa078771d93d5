"""Tests for the portfolio engine and divergence detection.

Three load-bearing properties:

* the :class:`DivergenceMonitor` recognises the loop-unrolling stall
  signature (and nothing else) from per-iteration records;
* the portfolio demotes a stalling refiner and hands its budget to the
  others, so programs on which one refiner diverges are still proved within
  the shared budget; and
* portfolio verdicts always equal the winning single refiner's verdict on
  the equivalence corpus (scheduling never changes an answer).

The resumable-engine semantics the portfolio is built on are covered at the
bottom: a budget trip with an analysed-but-unrefined counterexample must
re-enqueue the error obligation (leaving it dangling would let coverage
drain the frontier into an unchecked SAFE verdict), and a solver budget
that trips in any layer must leave the engine resumable.
"""

import json
from types import SimpleNamespace

import pytest

from repro.core import (
    Budget,
    DivergenceMonitor,
    PathFormulaRefiner,
    PathInvariantRefiner,
    PortfolioEngine,
    PortfolioResult,
    Session,
    Verdict,
    VerificationEngine,
    VerifierOptions,
    make_refiner,
    verify,
)
from repro.core import supervision
from repro.core.refiners import RefinementOutcome
from repro.lang import PROGRAMS, get_program, get_source
from repro.logic.formulas import eq
from repro.logic.terms import LinExpr

from test_engine import EQUIVALENCE_CORPUS

PORTFOLIO = VerifierOptions(refiner="portfolio")


def _monitor_of(result, window=3):
    """A monitor fed every iteration record of a finished run."""
    monitor = DivergenceMonitor(window)
    for record in result.iterations:
        monitor.observe(record)
    return monitor


def _record(cex_length, pivots, predicates_total, frontier_size, progress=True):
    """A synthetic engine iteration record (duck-typed for the monitor)."""
    return SimpleNamespace(
        refinement=SimpleNamespace(
            progress=progress, pivot_locations=frozenset(pivots)
        ),
        counterexample_length=cex_length,
        predicates_total=predicates_total,
        frontier_size=frontier_size,
    )


class TestDivergenceMonitor:
    def test_unrolling_signature_is_diverging(self):
        """Growing counterexamples at stale pivots with a steady frontier."""
        monitor = DivergenceMonitor(window=3)
        for step, length in enumerate([3, 4, 5, 6]):
            monitor.observe(_record(length, {"L1", "L2"}, 6 * (step + 1), 2 + step))
        verdict = monitor.verdict()
        assert verdict.diverging
        assert verdict.signals["stale_pivots"]
        assert verdict.signals["unrolling"]
        assert "unrolling" in verdict.reason
        assert monitor.classify_budget_trip() == "diverging"

    def test_new_pivot_locations_are_progress(self):
        """A refiner opening new locations (second loop) is never demoted."""
        monitor = DivergenceMonitor(window=3)
        pivot_sets = [{"L1"}, {"L1", "L2"}, {"L2", "L3"}, {"L4"}]
        for step, (length, pivots) in enumerate(zip([3, 6, 9, 12], pivot_sets)):
            monitor.observe(_record(length, pivots, 4 * (step + 1), 3 + step))
        verdict = monitor.verdict()
        assert not verdict.diverging
        assert not verdict.signals["stale_pivots"]
        assert monitor.classify_budget_trip() == "under-resourced"

    def test_constant_counterexample_lengths_are_not_unrolling(self):
        monitor = DivergenceMonitor(window=3)
        for step in range(4):
            monitor.observe(_record(5, {"L1"}, 2 * (step + 1), 4))
        verdict = monitor.verdict()
        assert not verdict.diverging
        assert not verdict.signals["unrolling"]

    def test_shrinking_frontier_is_progress(self):
        monitor = DivergenceMonitor(window=3)
        for step, frontier in enumerate([9, 6, 3, 1]):
            monitor.observe(_record(3 + step, {"L1"}, 2 * (step + 1), frontier))
        assert not monitor.verdict().diverging

    def test_too_few_observations_never_diverge(self):
        monitor = DivergenceMonitor(window=3)
        monitor.observe(_record(3, {"L1"}, 5, 2))
        monitor.observe(_record(4, {"L1"}, 10, 3))
        verdict = monitor.verdict()
        assert not verdict.diverging
        assert "window" in verdict.reason

    def test_records_without_refinement_are_ignored(self):
        monitor = DivergenceMonitor(window=2)
        monitor.observe(SimpleNamespace(refinement=None))
        monitor.observe(_record(3, {"L1"}, 5, 2, progress=False))
        assert monitor.refinements_observed == 0

    def test_window_validation(self):
        with pytest.raises(ValueError, match="window"):
            DivergenceMonitor(window=1)

    def test_analyze_real_divergent_run(self):
        """The real path-formula divergence on DOUBLE_COUNTER is flagged."""
        result = verify(
            get_program("double_counter"),
            options=VerifierOptions(refiner="path-formula", max_refinements=6),
        )
        assert result.verdict == Verdict.UNKNOWN
        assert _monitor_of(result).verdict().diverging

    def test_analyze_real_convergent_run(self):
        """The successful path-invariant proof is left alone."""
        result = verify(get_program("forward"), refiner="path-invariant")
        assert result.verdict == Verdict.SAFE
        assert not _monitor_of(result).verdict().diverging


class _StallingRefiner(PathInvariantRefiner):
    """Synthetically stalls for ``delay`` refinements, then works for real.

    While stalling it mimics a diverging refiner's useful-looking progress:
    each call adds one fresh (useless) predicate at the same pivot location,
    so the engine keeps looping on ever-longer counterexamples.
    """

    name = "stalling"

    def __init__(self, delay):
        super().__init__()
        self.delay = delay
        self.calls = 0

    def refine(self, program, path, precision):
        self.calls += 1
        if self.calls <= self.delay:
            location = path[0].target
            junk = eq(LinExpr.variable("i"), LinExpr.constant(-1000 - self.calls))
            added = precision.add(location, junk)
            return RefinementOutcome(
                progress=added,
                new_predicates=int(added),
                description="stalling on purpose",
                pivot_locations=frozenset([location]),
            )
        return super().refine(program, path, precision)


class TestDivergenceDemotion:
    def test_stalling_refiner_is_demoted(self):
        """A synthetically stalling refiner loses its slices to the rival.

        path-formula genuinely diverges on DOUBLE_COUNTER (one refinement
        per unrolling); the rival stalls long enough that the portfolio must
        demote path-formula on monitor evidence rather than just win first.
        """
        portfolio = PortfolioEngine(
            get_source("double_counter"),
            refiners=(PathFormulaRefiner(), _StallingRefiner(delay=4)),
            slice_refinements=2,
            monitor_window=3,
        )
        result = portfolio.run()
        assert result.verdict == Verdict.SAFE
        assert result.winner == "stalling"
        by_name = {arm["refiner"]: arm for arm in result.arms}
        assert by_name["path-formula"]["status"] == "demoted"
        assert by_name["path-formula"]["divergence"]["diverging"]
        assert by_name["path-formula"]["budget_class"] == "diverging"
        assert by_name["stalling"]["status"] == "won"

    def test_portfolio_rescues_divergent_programs(self):
        """FORWARD/DOUBLE_COUNTER are proved although path-formula diverges,
        within the same shared refinement budget a single refiner would get."""
        for name in ("forward", "double_counter"):
            result = verify(get_source(name), options=PORTFOLIO)
            assert result.verdict == Verdict.SAFE, name
            assert result.winner == "path-invariant"

    def test_demotion_never_strands_the_last_arm(self):
        """With every arm diverging, the portfolio reports honestly instead
        of demoting everyone (the last active arm is never demoted)."""
        portfolio = PortfolioEngine(
            get_source("double_counter"),
            refiners=("path-formula",),
            budget=Budget(max_refinements=8),
        )
        result = portfolio.run()
        assert result.verdict == Verdict.UNKNOWN
        (arm,) = result.arms
        assert arm["status"] in ("exhausted", "no-progress")
        assert arm["budget_class"] == "diverging"
        assert "path-formula" in result.reason


class TestPortfolioEquivalence:
    #: Distinct programs of the 16-combo incremental-vs-restart corpus.
    PROGRAMS_UNDER_TEST = sorted({name for name, _ in EQUIVALENCE_CORPUS})

    @pytest.mark.parametrize("name", PROGRAMS_UNDER_TEST)
    def test_portfolio_verdict_equals_winning_refiner(self, name):
        result = PortfolioEngine(get_source(name)).run()
        assert result.winner is not None, result.reason
        single = verify(get_program(name), refiner=result.winner)
        assert result.verdict == single.verdict
        expected_safe = PROGRAMS[name].expected_safe
        assert (result.verdict == Verdict.SAFE) == expected_safe

    def test_unsafe_witness_is_preserved(self):
        result = verify(get_source("simple_unsafe"), options=PORTFOLIO)
        assert result.verdict == Verdict.UNSAFE
        assert result.counterexample is not None
        payload = result.to_json()
        assert payload["witness"]
        assert payload["portfolio"]["winner"] == result.winner
        json.dumps(payload)


class TestPortfolioSurface:
    def test_refiner_instances_are_accepted(self):
        portfolio = PortfolioEngine(
            get_source("lock_step"),
            refiners=(PathInvariantRefiner(), "path-formula"),
        )
        result = portfolio.run()
        assert result.verdict == Verdict.SAFE
        assert result.to_json()["portfolio"]["mode"] == "round-robin"

    def test_single_refiner_portfolio(self):
        result = PortfolioEngine(
            get_source("lock_step"), refiners=("path-invariant",)
        ).run()
        assert result.verdict == Verdict.SAFE
        assert result.winner == "path-invariant"

    def test_unknown_refiner_rejected(self):
        with pytest.raises(ValueError, match="unknown refiner"):
            PortfolioEngine(get_source("lock_step"), refiners=("alchemy",))
        with pytest.raises(ValueError, match="at least one refiner"):
            PortfolioEngine(get_source("lock_step"), refiners=())
        with pytest.raises(ValueError, match="engine-level"):
            make_refiner("portfolio")

    def test_portfolio_never_starts_a_worker(self, monkeypatch):
        """The arms run in-process, round-robin: the engine never starts a
        process, even with the source text at hand and a wall budget."""

        def refuse(slot):
            raise AssertionError("the portfolio started a worker process")

        monkeypatch.setattr(supervision.WorkerSlot, "acquire", refuse)
        session = Session(PORTFOLIO.replace(max_seconds=60.0, warm_start=False))
        result = session.run("forward")
        assert result.verdict == Verdict.SAFE
        assert result.winner == "path-invariant"

    def test_verify_threads_portfolio(self):
        result = verify(get_program("lock_step"), options=PORTFOLIO)
        assert isinstance(result, PortfolioResult)
        assert result.verdict == Verdict.SAFE

    def test_batch_supports_portfolio(self):
        session = Session(VerifierOptions(refiner="portfolio", warm_start=False))
        results = session.run_many(["lock_step", "simple_unsafe"], jobs=1)
        assert [r["verdict"] for r in results] == ["safe", "unsafe"]
        assert all(r["portfolio"]["winner"] for r in results)
        json.dumps(results)


#: A bug reachable only after several loop unrollings.
DEEP_BUG = """
void deep_bug(int n) {
  int i, a;
  assume(n >= 3);
  i = 0;
  a = 0;
  while (i < n) {
    a = a + 2;
    i = i + 1;
  }
  assert(a != 2 * n);
}
"""


class TestResumableEngine:
    def test_slice_resume_reaches_verdict(self):
        """Refinement slices plus resume accumulate into the same proof."""
        engine = VerificationEngine(
            get_program("forward"), budget=Budget(max_refinements=0)
        )
        result = engine.run()
        for _ in range(4):
            if result.verdict != Verdict.UNKNOWN:
                break
            engine.budget.max_refinements = engine.refinements_done + 1
            result = engine.run(resume=True)
        assert result.verdict == Verdict.SAFE
        assert engine.refinements_done == 2

    def test_sliced_divergence_stays_divergent(self):
        """Slicing must not change the path-formula divergence on
        DOUBLE_COUNTER: the budget-tripped counterexample is re-derived and
        refined on resume instead of dangling in the tree (where coverage
        would drain the frontier into an unchecked SAFE)."""
        checker_engine = VerificationEngine(
            get_program("double_counter"), budget=Budget(max_refinements=0)
        )
        checker_engine.refiner = make_refiner("path-formula", checker_engine.checker)
        result = checker_engine.run()
        for _ in range(4):
            checker_engine.budget.max_refinements = (
                checker_engine.refinements_done + 2
            )
            result = checker_engine.run(resume=True)
            assert result.verdict == Verdict.UNKNOWN
            assert "refinement budget" in result.reason
        # Same trajectory as the unsliced run: one unrolling per refinement.
        lengths = [
            r.counterexample_length for r in result.iterations if r.refinement
        ]
        assert lengths == sorted(lengths)
        assert len(set(lengths)) == len(lengths)

    def test_sliced_run_still_finds_deep_bugs(self):
        """Regression guard for the dangling-error-node unsoundness: a bug
        reachable only after several unrollings must still be found when
        every earlier (infeasible) counterexample hit a budget boundary."""
        engine = VerificationEngine(DEEP_BUG, budget=Budget(max_refinements=0))
        engine.refiner = make_refiner("path-formula", engine.checker)
        result = engine.run()
        for _ in range(12):
            if result.verdict != Verdict.UNKNOWN:
                break
            engine.budget.max_refinements = engine.refinements_done + 1
            result = engine.run(resume=True)
        assert result.verdict == Verdict.UNSAFE

    @pytest.mark.parametrize("name, expected", [("forward", Verdict.SAFE),
                                                ("deep_bug", Verdict.UNSAFE)])
    def test_solver_budget_trips_in_every_layer_and_resume(self, name, expected):
        """Stepped solver budgets trip in exploration, refinement and repair;
        each trip leaves the engine resumable, and resuming without a budget
        reaches the unbudgeted verdict.  The cap doubles per step, so every
        step grants more than the previous attempt spent."""
        source = DEEP_BUG if name == "deep_bug" else get_source(name)
        unbudgeted = VerificationEngine(source).run()
        assert unbudgeted.verdict == expected
        engine = VerificationEngine(source, budget=Budget(max_solver_calls=5))
        reasons = []
        cap = 5
        while True:
            engine.budget.max_solver_calls = cap
            result = engine.run(resume=True)
            if result.verdict != Verdict.UNKNOWN:
                break
            charged = result.iterations[-1].solver_stats
            assert charged["triple_checks"] + charged["carried_hits"] <= cap
            assert f"solver budget of {cap} triple checks exhausted" in result.reason
            reasons.append(result.reason.split(" stopped: ")[0])
            cap *= 2
        assert set(reasons) <= {"abstract reachability", "refinement", "ART repair"}
        assert "refinement" in reasons
        engine.budget.max_solver_calls = None
        assert engine.run(resume=True).verdict == expected

    def test_resume_after_decision_is_final(self):
        engine = VerificationEngine(get_program("simple_unsafe"))
        result = engine.run()
        assert result.verdict == Verdict.UNSAFE
        assert engine.run(resume=True) is result

    def test_fresh_run_still_resets(self):
        engine = VerificationEngine(get_program("lock_step"))
        first = engine.run()
        second = engine.run()
        assert first.verdict == second.verdict == Verdict.SAFE
        assert second is not first
