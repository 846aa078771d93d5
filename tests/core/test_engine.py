"""Tests for the incremental verification engine.

The load-bearing property is *incremental-vs-restart equivalence*: the
persistent-ART engine must reach the same verdict — and, on this corpus, the
same discovered precision — as a from-scratch rebuild after every
refinement, while strictly reusing work.  The repair wave maintains the
invariant that every node's state is exactly the Cartesian post of its
parent under the current precision, which :meth:`Art.validate` re-checks
structurally.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Budget,
    Precision,
    Session,
    Verdict,
    VerificationEngine,
    VerifierOptions,
    make_frontier,
    verify,
)
from repro.core.verifier import make_refiner
from repro.lang import get_program
from repro.smt.vcgen import VcChecker

#: (program, refiner) pairs that complete quickly under both engines.  The
#: path-formula refiner is excluded on array programs: it floods the
#: precision with array predicates and both engines (and the seed) take
#: minutes there.
EQUIVALENCE_CORPUS = [
    ("forward", "path-invariant"),
    ("forward", "path-formula"),
    ("initcheck", "path-invariant"),
    ("double_counter", "path-invariant"),
    ("double_counter", "path-formula"),
    ("up_down", "path-formula"),
    ("lock_step", "path-invariant"),
    ("lock_step", "path-formula"),
    ("simple_safe", "path-invariant"),
    ("simple_unsafe", "path-invariant"),
    ("simple_unsafe", "path-formula"),
    ("diamond_safe", "path-invariant"),
    ("forward_buggy", "path-invariant"),
    ("array_init_buggy", "path-invariant"),
    ("array_init_const", "path-invariant"),
    ("array_copy", "path-invariant"),
]


def restart_engine(name, options):
    """The restart-the-world reference: a fresh tree after every refinement."""
    checker = VcChecker()
    return VerificationEngine(
        get_program(name),
        refiner=make_refiner(options.refiner, checker),
        checker=checker,
        strategy=options.strategy,
        budget=options.budget(),
        incremental=False,
    )


def run_both(name, refiner="path-invariant", max_refinements=4, strategy="bfs"):
    options = VerifierOptions(
        refiner=refiner, max_refinements=max_refinements, strategy=strategy
    )
    incremental = verify(get_program(name), options=options)
    restart = restart_engine(name, options).run()
    return incremental, restart


class TestIncrementalRestartEquivalence:
    @pytest.mark.parametrize("name,refiner", EQUIVALENCE_CORPUS)
    def test_verdict_and_precision_equivalence(self, name, refiner):
        incremental, restart = run_both(name, refiner)
        assert incremental.verdict == restart.verdict
        assert incremental.precision.snapshot() == restart.precision.snapshot()

    @settings(max_examples=15, deadline=None)
    @given(
        name=st.sampled_from(
            ["forward", "lock_step", "double_counter", "simple_safe", "simple_unsafe"]
        ),
        refiner=st.sampled_from(["path-invariant", "path-formula"]),
        strategy=st.sampled_from(["bfs", "dfs", "error-distance"]),
        max_refinements=st.integers(min_value=0, max_value=4),
    )
    def test_equivalence_property(self, name, refiner, strategy, max_refinements):
        incremental, restart = run_both(name, refiner, max_refinements, strategy)
        assert incremental.verdict == restart.verdict
        assert incremental.precision.snapshot() == restart.precision.snapshot()

    @pytest.mark.parametrize("name", ["forward", "initcheck", "lock_step"])
    def test_repaired_tree_validates(self, name):
        engine = VerificationEngine(get_program(name))
        result = engine.run()
        assert result.verdict == Verdict.SAFE
        assert engine.art is not None
        assert engine.art.validate(result.precision) == []

    def test_restart_mode_never_repairs(self):
        result = restart_engine("forward", VerifierOptions()).run()
        assert all(record.repair is None for record in result.iterations)
        assert result.engine_stats["incremental"] is False


class TestIncrementalReuse:
    @pytest.mark.parametrize("name", ["forward", "initcheck"])
    def test_refinement_reuses_nodes(self, name):
        """Post-refinement repair must retain ART nodes instead of rebuilding."""
        result = verify(get_program(name))
        assert result.verdict == Verdict.SAFE
        assert result.num_refinements > 0
        assert result.nodes_reused() > 0

    @pytest.mark.parametrize("name", ["forward", "initcheck"])
    def test_strictly_fewer_post_decisions_than_restart(self, name):
        incremental, restart = run_both(name, max_refinements=8)
        assert incremental.verdict == restart.verdict == Verdict.SAFE
        assert incremental.post_decisions() < restart.post_decisions()

    def test_abstract_post_memo_serves_reexpansion(self):
        """Re-deriving an identical (state, transition, predicate) triple is a hit."""
        checker = VcChecker()
        verify(get_program("lock_step"), checker=checker)
        stats = checker.statistics()
        assert stats["post_queries"] > 0
        # Run the same program again through the same checker: the ART-level
        # memo answers every abstract-post question without a triple check.
        before = checker.statistics()
        verify(get_program("lock_step"), checker=checker)
        after = checker.statistics()
        new_queries = after["post_queries"] - before["post_queries"]
        new_hits = after["post_cache_hits"] - before["post_cache_hits"]
        assert new_queries > 0
        assert new_hits == new_queries


class TestBudgets:
    def test_node_budget_yields_unknown(self):
        result = verify(get_program("forward"), options=VerifierOptions(max_nodes=3))
        assert result.verdict == Verdict.UNKNOWN
        assert "node budget" in result.reason

    def test_wallclock_budget_yields_unknown(self):
        result = verify(get_program("initcheck"), options=VerifierOptions(max_seconds=0.0))
        assert result.verdict == Verdict.UNKNOWN
        assert "wall-clock" in result.reason

    def test_solver_budget_yields_unknown(self):
        result = verify(
            get_program("forward"), options=VerifierOptions(max_solver_calls=5)
        )
        assert result.verdict == Verdict.UNKNOWN
        assert "solver budget" in result.reason

    def test_refinement_budget_yields_unknown(self):
        result = verify(
            get_program("forward"),
            options=VerifierOptions(refiner="path-formula", max_refinements=2),
        )
        assert result.verdict == Verdict.UNKNOWN
        assert "budget" in result.reason

    def test_rerun_after_exhaustion(self):
        """A budget trip leaves the engine reusable: raising the budget and
        re-running the same engine (fresh tree, shared memoised checker)
        reaches the verdict."""
        engine = VerificationEngine(
            get_program("forward"), budget=Budget(max_nodes=3)
        )
        result = engine.run()
        assert result.verdict == Verdict.UNKNOWN
        engine.budget.max_nodes = 4000
        resumed = engine.run()
        assert resumed.verdict == Verdict.SAFE


class TestStrategies:
    @pytest.mark.parametrize("strategy", ["bfs", "dfs", "error-distance"])
    @pytest.mark.parametrize("name", ["forward", "lock_step", "simple_unsafe"])
    def test_strategies_agree_on_verdicts(self, strategy, name):
        result = verify(get_program(name), options=VerifierOptions(strategy=strategy))
        expected = Verdict.UNSAFE if name.endswith("unsafe") else Verdict.SAFE
        assert result.verdict == expected
        assert result.engine_stats["strategy"] == strategy

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown exploration strategy"):
            verify(get_program("forward"), options=VerifierOptions(strategy="a-star"))

    def test_frontier_instance_accepted(self):
        frontier = make_frontier("dfs", get_program("lock_step"))
        engine = VerificationEngine(get_program("lock_step"), strategy=frontier)
        assert engine.run().verdict == Verdict.SAFE


class TestVerifySignature:
    """``verify(program, refiner, *, options, checker, initial_precision)``."""

    def test_refiner_instance_and_checker(self):
        checker = VcChecker()
        refiner = make_refiner("path-invariant", checker)
        result = verify(get_program("lock_step"), refiner, checker=checker)
        assert result.verdict == Verdict.SAFE

    def test_source_text_and_initial_precision(self):
        source = "void f(int x) { assume(x >= 1); assert(x >= 0); }"
        result = verify(source)
        assert result.verdict == Verdict.SAFE
        seeded = verify(get_program("lock_step"), initial_precision=Precision())
        assert seeded.verdict == Verdict.SAFE


class TestBatch:
    TASKS = ["lock_step", "simple_unsafe", ("inline", "void f(int x) { assert(x == x); }")]

    def _check(self, results):
        assert [r["name"] for r in results] == ["lock_step", "simple_unsafe", "inline"]
        assert [r["verdict"] for r in results] == ["safe", "unsafe", "safe"]
        json.dumps(results)  # the whole payload must be JSON-serialisable

    def test_sequential(self):
        self._check(Session().run_many(self.TASKS, jobs=1))

    def test_process_pool(self):
        self._check(Session().run_many(self.TASKS, jobs=2))

    def test_per_task_budgets(self):
        session = Session(VerifierOptions(max_refinements=0))
        results = session.run_many(["forward"], jobs=1)
        assert results[0]["verdict"] == "unknown"

    def test_result_to_json_shape(self):
        result = verify(get_program("simple_unsafe"))
        payload = result.to_json()
        assert payload["verdict"] == "unsafe"
        assert payload["witness"]
        assert payload["per_iteration"][0]["counterexample_feasible"] is True
        json.dumps(payload)
