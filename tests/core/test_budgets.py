"""Budgets hold in every layer of a run.

The wall-clock deadline and the solver-call cap live on the run's
:class:`~repro.smt.vcgen.VcChecker`, which checks them wherever the work
happens — every charged triple check, path-feasibility entry, store
resolution and the solver's case splitter — and raises
:class:`~repro.smt.budget.BudgetExhausted`.  The engine turns a trip into
UNKNOWN with a reason naming the layer, from any layer, and stays
resumable.  ``initcheck_buggy`` never runs out of refinements to try and
each one costs more than the last, so under a refinement cap it cannot
reach it is the program a budget checked only between ART expansions
overruns.
"""

import time

import pytest

from repro.core import (
    Budget,
    Session,
    Verdict,
    VerificationEngine,
    VerifierOptions,
)
from repro.core import engine as engine_module
from repro.lang import get_program
from repro.lang.cfg import Location, Transition
from repro.lang.commands import Assign
from repro.logic.formulas import FALSE, TRUE, conjoin, disjoin, eq, le
from repro.logic.terms import ArrayRead, LinExpr
from repro.smt import SmtSolver, VcChecker
from repro.smt.arrays import Store, resolve_stores
from repro.smt.budget import BudgetExhausted


def _x(name="x"):
    return LinExpr.variable(name)


def _c(value):
    return LinExpr.constant(value)


#: One basic path and five candidate posts, the shape of a synthesizer
#: batch: the third post repeats the first (a triple-memo hit).
_PRE = le(_x(), _c(0))
_COMMANDS = (Assign("x", _x() + _c(1)),)
_POSTS = (le(_x(), _c(1)), le(_x(), _c(0)), le(_x(), _c(1)), le(_x(), _c(2)), TRUE)
#: A batch whose first post holds by the frame rule (a conjunct of the
#: pre-condition over an unwritten variable) and whose third is falsified by
#: the model the second one's check leaves: both are answered before any
#: solver check.
_FRAMED_PRE = conjoin([le(_x(), _c(0)), eq(_x("y"), _c(5))])
_SHORTCUT_POSTS = (
    eq(_x("y"), _c(5)), le(_x(), _c(0)), le(_x(), _c(-1)), le(_x(), _c(1)), TRUE
)


def _tripped(cap, decide):
    """A fresh checker after ``decide`` ran into a solver cap of ``cap``."""
    checker = VcChecker()
    checker.begin_run()
    checker.set_budget(None, cap)
    with pytest.raises(BudgetExhausted, match=f"solver budget of {cap} triple checks"):
        decide(checker)
    assert checker.charged_checks == cap
    return checker


class TestCheckerBudget:
    def test_no_charge_passes_the_cap(self):
        checker = VcChecker()
        checker.begin_run()
        checker.set_budget(None, 3)
        for bound in range(3):
            checker.check_triple(le(_x(), _c(bound)), (), le(_x(), _c(bound + 1)))
        with pytest.raises(BudgetExhausted, match="solver budget of 3 triple checks"):
            checker.check_triple(TRUE, (), TRUE)
        assert checker.charged_checks == 3
        checker.set_budget(None, None)
        assert checker.check_triple(TRUE, (), TRUE)
        # A batch trips on the same post as the per-post loop, and the memo
        # holds exactly the posts decided before the trip.
        # Posts answered before the solver are charged like decided ones.
        for pre, posts in ((_PRE, _POSTS), (_FRAMED_PRE, _SHORTCUT_POSTS)):
            for cap in range(len(posts)):
                batch = _tripped(cap, lambda c: c.check_triples(pre, _COMMANDS, posts))
                loop = _tripped(
                    cap, lambda c: [c.check_triple(pre, _COMMANDS, p) for p in posts]
                )
                decided = {(pre, _COMMANDS, p) for p in posts[:cap] if p != TRUE}
                assert set(batch._triple_cache) == decided
                assert batch._triple_cache == loop._triple_cache
        checker = VcChecker()
        assert checker.check_triples(_FRAMED_PRE, _COMMANDS, _SHORTCUT_POSTS) == [
            True, False, False, True, True
        ]
        stats = checker.statistics()
        assert (stats["frame_answers"], stats["model_answers"]) == (1, 1)

    def test_the_cap_counts_from_the_run_start(self):
        checker = VcChecker()
        checker.check_triple(TRUE, (), TRUE)
        checker.check_triple(TRUE, (), TRUE)
        checker.begin_run()
        checker.set_budget(None, 1)
        checker.check_triple(TRUE, (), TRUE)
        with pytest.raises(BudgetExhausted):
            checker.check_triple(TRUE, (), TRUE)

    def test_a_trip_on_a_carried_hit_stops_where_a_cold_checker_stops(self):
        """A warm run whose cap trips on a memo hit an earlier run left
        charges it as the cold run charges the check it saves: not before
        the trip, and once when the run goes on, so both spend the same."""
        transition = Transition(Location("A"), _COMMANDS, Location("B"))
        state = frozenset({_PRE})
        posts = (_POSTS[0], _POSTS[1], _POSTS[3])
        warm = VcChecker()
        expected = warm.post_all_predicates(state, transition, posts)
        for checker in (warm, VcChecker()):
            checker.begin_run()
            start = checker.charged_checks
            checker.set_budget(None, 1)
            with pytest.raises(BudgetExhausted, match="solver budget of 1"):
                checker.post_all_predicates(state, transition, posts)
            assert checker.charged_checks - start == 1
            checker.set_budget(None, None)
            assert checker.post_all_predicates(state, transition, posts) == expected
            assert checker.charged_checks - start == len(posts)
        assert warm.num_carried_hits == len(posts)
        assert len(warm.asked_keys()) == len(posts)

    def test_passed_deadline_trips_every_checked_layer(self):
        checker = VcChecker()
        checker.set_budget(time.perf_counter() - 1.0, None)
        with pytest.raises(BudgetExhausted, match="wall-clock budget exhausted"):
            checker.is_feasible(())
        with pytest.raises(BudgetExhausted, match="wall-clock"):
            checker.check_triple(TRUE, (), FALSE)
        with pytest.raises(BudgetExhausted, match="wall-clock"):
            checker.check_triples(_PRE, _COMMANDS, _POSTS)
        assert checker.num_ssa_translations == 0  # no core was prepared
        assert checker.solver.num_contexts == 0
        stores = {"a@1": Store("a@0", _x("i"), _c(1))}
        read = LinExpr.make({ArrayRead("a@1", _x("j")): 1})
        with pytest.raises(BudgetExhausted):
            resolve_stores(eq(read, _c(2)), stores, checker.solver.deadline)
        assert resolve_stores(eq(read, _c(2)), stores) is not None

    def test_split_loop_trip_leaves_the_solver_usable(self):
        solver = SmtSolver()
        formula = conjoin(
            [
                disjoin([eq(_x(f"v{k}"), _c(0)), eq(_x(f"v{k}"), _c(1))])
                for k in range(4)
            ]
            + [le(_x("v0") + _x("v1"), _c(-1))]
        )
        context = solver.context()
        context.assert_base(TRUE)
        solver.deadline = time.perf_counter() - 1.0
        with pytest.raises(BudgetExhausted):
            solver.check_sat(formula)
        with pytest.raises(BudgetExhausted):
            context.check(formula)
        solver.deadline = None
        assert not solver.check_sat(formula).satisfiable
        assert not context.check(formula).satisfiable
        assert context.check(disjoin([eq(_x(), _c(0)), eq(_x(), _c(1))])).satisfiable


class TestEngineBudget:
    @pytest.mark.parametrize("refiner", ["path-invariant", "portfolio"])
    def test_wall_clock_holds_inside_refinement(self, refiner):
        options = VerifierOptions(
            refiner=refiner, max_refinements=200, max_seconds=1.0, warm_start=False
        )
        started = time.perf_counter()
        result = Session(options).run("initcheck_buggy")
        assert time.perf_counter() - started < 2.0
        assert result.verdict == Verdict.UNKNOWN
        assert "wall-clock budget exhausted" in result.reason

    def test_solver_budget_stops_at_exactly_its_cap(self):
        options = VerifierOptions(max_solver_calls=100, warm_start=False)
        result = Session(options).run("partition")
        solver = result.to_json()["solver"]
        assert result.verdict == Verdict.UNKNOWN
        assert result.reason == (
            "refinement stopped: solver budget of 100 triple checks exhausted"
        )
        assert solver["triple_checks"] + solver["carried_hits"] == 100

    def test_counterexample_analysis_trip_is_unknown_and_resumable(self, monkeypatch):
        analyze = engine_module.analyze_counterexample

        def tripped(path, checker):
            raise BudgetExhausted()

        engine = VerificationEngine(get_program("simple_unsafe"))
        monkeypatch.setattr(engine_module, "analyze_counterexample", tripped)
        result = engine.run()
        assert result.verdict == Verdict.UNKNOWN
        assert result.reason == (
            "counterexample analysis stopped: wall-clock budget exhausted"
        )
        monkeypatch.setattr(engine_module, "analyze_counterexample", analyze)
        assert engine.run(resume=True).verdict == Verdict.UNSAFE

    def test_the_run_lifts_its_budget_when_it_returns(self):
        engine = VerificationEngine(
            get_program("partition"), budget=Budget(max_seconds=0.2, max_solver_calls=50)
        )
        assert engine.run().verdict == Verdict.UNKNOWN
        assert engine.checker.solver.deadline is None
        assert engine.checker.charged_checks >= 50
        engine.checker.check_triple(TRUE, (), TRUE)  # no cap left behind
        decided = VerificationEngine(get_program("forward"), budget=Budget(max_seconds=60.0))
        assert decided.run().verdict == Verdict.SAFE
        assert decided.checker.solver.deadline is None
