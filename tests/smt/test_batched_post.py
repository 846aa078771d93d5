"""The batched oracle vs the scalar differential baseline.

``VcChecker.post_all_predicates`` prepares one ``(state, transition)`` core
and decides every predicate inside a shared incremental solver context; the
scalar ``post_predicate_holds`` runs the full pipeline per predicate and is
kept as the differential oracle.  ``VcChecker.check_triples`` does the same
for a synthesizer's candidates on one basic path, against ``check_triple``.
The load-bearing property is **verdict identity**: on any query the two
paths must return the same verdicts, and an engine driven by either must
discover the same precision and verdict.

The corpus reuses the engine equivalence programs (scalar shapes, array
shapes, unsafe shapes); a hypothesis property throws randomly assembled
states and predicate families at both oracles.  A regression test pins the
memo-hit fast path: a batch whose answers are all cached must never build or
fetch a solver context.  Posts the frame rule or the core's last exact model
answer before any solver check must get the scalar reference's verdicts.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import VerificationEngine, PortfolioEngine, Budget
from repro.core.predabs import Precision
from repro.lang import get_program, get_source
from repro.lang.commands import ArrayAssign, Assign, Assume
from repro.logic.formulas import (
    FALSE, TRUE, Forall, conjoin, disjoin, eq, ge, gt, le, lt, ne,
)
from repro.logic.terms import Var, read, var
from repro.smt.solver import SmtSolver, SolverContext
from repro.smt.vcgen import VcChecker

#: (program, refiner) pairs shared with tests/core/test_engine.py — the
#: equivalence corpus both engine modes must agree on.
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


def run_engine(name, refiner, batched, incremental=True, max_refinements=4):
    from repro.core.verifier import make_refiner

    checker = VcChecker(batched_posts=batched)
    engine = VerificationEngine(
        get_program(name),
        refiner=make_refiner(refiner, checker),
        checker=checker,
        budget=Budget(max_refinements=max_refinements),
        incremental=incremental,
    )
    return engine.run(), checker


class TestEngineEquivalence:
    @pytest.mark.parametrize("name,refiner", EQUIVALENCE_CORPUS)
    @pytest.mark.parametrize("incremental", [True, False], ids=["incremental", "restart"])
    def test_batched_matches_scalar(self, name, refiner, incremental):
        """Same verdict, same precision, same post-decision count — both modes."""
        batched, batched_checker = run_engine(name, refiner, True, incremental)
        scalar, scalar_checker = run_engine(name, refiner, False, incremental)
        assert batched.verdict == scalar.verdict
        assert batched.precision.snapshot() == scalar.precision.snapshot()
        assert batched.post_decisions() == scalar.post_decisions()
        # The scalar baseline must never have touched a context, and the
        # batched run must have done the same Hoare-triple budget accounting.
        assert scalar_checker.statistics()["prepare_calls"] == 0
        assert (
            batched_checker.statistics()["triple_checks"]
            == scalar_checker.statistics()["triple_checks"]
        )

    def test_portfolio_batched_matches_scalar(self):
        results = {}
        for batched in (True, False):
            checker = VcChecker(batched_posts=batched)
            portfolio = PortfolioEngine(
                get_source("forward"),
                    budget=Budget(max_refinements=8),
                checker=checker,
            )
            results[batched] = portfolio.run()
        assert results[True].verdict == results[False].verdict == "safe"
        assert results[True].winner == results[False].winner
        assert (
            results[True].precision.snapshot() == results[False].precision.snapshot()
        )


def _collect_batches(name, max_refinements=3):
    """Every Houdini and abstract-post batch a run asked, in call order, as
    ``(method name, pre or state, commands or transition, posts)``."""
    batches = []
    checker = VcChecker()
    for method in ("check_triples", "post_all_predicates"):
        original = getattr(checker, method)

        def recording(first, second, posts, method=method, original=original):
            posts = tuple(posts)
            batches.append((method, first, second, posts))
            return original(first, second, posts)

        setattr(checker, method, recording)
    VerificationEngine(
        get_program(name), checker=checker, budget=Budget(max_refinements=max_refinements)
    ).run()
    return batches


def _collect_queries(name, max_refinements=3):
    """Real (state, transition, predicates) batches from an engine run."""
    return [
        batch[1:]
        for batch in _collect_batches(name, max_refinements)
        if batch[0] == "post_all_predicates"
    ]


def _collect_triple_batches(name, max_refinements=3):
    """Real (pre, commands, posts) batches the synthesizer asked in a run."""
    return [
        batch[1:]
        for batch in _collect_batches(name, max_refinements)
        if batch[0] == "check_triples"
    ]


class TestOracleDifferential:
    @pytest.mark.parametrize(
        "name",
        ["forward", "lock_step", "array_init_buggy", "initcheck", "array_init_nonneg"],
    )
    def test_recorded_queries_agree(self, name):
        """Replay an engine run's real batches against both fresh oracles."""
        queries = _collect_queries(name)
        assert queries, "the engine should have asked at least one batch"
        batched = VcChecker(batched_posts=True)
        scalar = VcChecker(batched_posts=False)
        for state, transition, predicates in queries:
            expected = {
                p: scalar.post_predicate_holds(state, transition, p)
                for p in predicates
            }
            assert batched.post_all_predicates(state, transition, predicates) == expected

    @pytest.mark.parametrize("name", ["forward", "initcheck", "array_init_nonneg"])
    def test_recorded_triple_batches_agree(self, name):
        """Replay a run's synthesizer batches against per-post check_triple."""
        batches = _collect_triple_batches(name)
        assert batches, "the synthesizer should have asked at least one batch"
        batched = VcChecker()
        scalar = VcChecker(batched_posts=False)
        for pre, commands, posts in batches:
            expected = [scalar.check_triple(pre, commands, post) for post in posts]
            assert batched.check_triples(pre, commands, posts) == expected
        assert batched.num_triple_checks == scalar.num_triple_checks
        assert batched.statistics()["batched_posts"] > 0

    @pytest.mark.parametrize("name", ["forward", "initcheck", "array_init_nonneg"])
    def test_recorded_batches_answer_posts_before_the_solver(self, name):
        """Replay a run's Houdini and abstract-post batches in order: the
        frame rule and the core's model answer posts, and every verdict and
        charge is the scalar reference's."""
        batched = VcChecker()
        scalar = VcChecker(batched_posts=False)
        for method, first, second, posts in _collect_batches(name):
            expected = getattr(scalar, method)(first, second, posts)
            assert getattr(batched, method)(first, second, posts) == expected
        assert batched.num_triple_checks == scalar.num_triple_checks
        stats = batched.statistics()
        assert stats["frame_answers"] > 0
        assert stats["model_answers"] > 0

    def test_edge_feasibility_agrees(self):
        queries = _collect_queries("forward")
        batched = VcChecker(batched_posts=True)
        scalar = VcChecker(batched_posts=False)
        for state, transition, _ in queries:
            assert batched.edge_feasible(state, transition) == scalar.edge_feasible(
                state, transition
            )


#: A pool of small predicates over the FORWARD program's variables, from
#: which hypothesis assembles abstract states and predicate families.
def _predicate_pool():
    a, b, i, n = (var(name) for name in "abin")
    return [
        eq(a + b, 3 * i),
        le(i, n),
        lt(i, n),
        ge(i, 0),
        eq(a, 2 * i),
        eq(b, i),
        ne(a, b),
        le(a + b, 3 * n),
        eq(i, 0),
        TRUE,
    ]


@settings(max_examples=25, deadline=None)
@given(
    state_picks=st.lists(st.integers(min_value=0, max_value=8), max_size=4),
    predicate_picks=st.lists(
        st.integers(min_value=0, max_value=9), min_size=1, max_size=6
    ),
    transition_index=st.integers(min_value=0, max_value=7),
)
def test_random_batches_agree(state_picks, predicate_picks, transition_index):
    """Random states x random predicate families: identical verdict maps."""
    pool = _predicate_pool()
    transitions = sorted(get_program("forward").transitions, key=str)
    transition = transitions[transition_index % len(transitions)]
    state = frozenset(pool[i] for i in state_picks)
    predicates = [pool[i] for i in predicate_picks]
    batched = VcChecker(batched_posts=True)
    scalar = VcChecker(batched_posts=False)
    expected = {
        p: scalar.post_predicate_holds(state, transition, p) for p in predicates
    }
    assert batched.post_all_predicates(state, transition, predicates) == expected


class TestMemoFastPath:
    def test_full_memo_hit_builds_no_context(self):
        """A batch answered entirely from the post cache touches no solver."""
        checker = VcChecker()
        queries = _collect_queries("lock_step")
        state, transition, predicates = next(q for q in queries if q[2])
        first = checker.post_all_predicates(state, transition, predicates)
        prepared_before = checker.num_prepare_calls
        reuses_before = checker.num_context_reuses

        def forbidden(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("memo-hit batch built a solver context")

        checker._prepare_edge = forbidden
        again = checker.post_all_predicates(state, transition, predicates)
        assert again == first
        assert checker.num_prepare_calls == prepared_before
        assert checker.num_context_reuses == reuses_before
        assert checker.post_cache_hits >= len(predicates)

    def test_repeated_batch_reuses_the_context(self):
        """A second batch on the same edge with new predicates reuses the core."""
        pool = _predicate_pool()
        transition = sorted(get_program("forward").transitions, key=str)[0]
        checker = VcChecker()
        checker.post_all_predicates(frozenset(), transition, pool[:3])
        assert checker.num_prepare_calls == 1
        checker.post_all_predicates(frozenset(), transition, pool[3:6])
        assert checker.num_prepare_calls == 1
        assert checker.num_context_reuses == 1


def _range_forall(index, lower, upper, body):
    """forall index: lower <= index <= upper -> body."""
    k = var(index)
    return Forall(Var(index), disjoin([lt(k, lower), gt(k, upper), body]))


class TestPreSolverAnswers:
    """Posts a batch answers without a solver check: valid by the frame
    rule, or invalid under the core's last exact model."""

    def test_framed_post_needs_no_context_check(self):
        x, i = var("x"), var("i")
        nonneg = _range_forall("k", 0, var("n") - 1, ge(read("a", var("k")), 0))
        pre = conjoin([ge(x, 0), nonneg])
        checker = VcChecker()
        assert checker.check_triples(pre, (Assign("i", i + 1),), [ge(x, 0), nonneg]) == [
            True,
            True,
        ]
        stats = checker.statistics()
        assert stats["frame_answers"] == 2
        assert stats["context_checks"] == stats["contexts_created"] == 0
        # A conjunct of pre whose array the commands write is decided.
        store = (ArrayAssign("a", i, var("x") - 1),)
        reference = VcChecker(batched_posts=False).check_triple(pre, store, nonneg)
        assert checker.check_triples(pre, store, [nonneg]) == [reference] == [False]
        assert checker.statistics()["frame_answers"] == 2

    def test_reads_and_quantifiers_never_use_the_model(self):
        x = var("x")
        commands = (Assign("x", x + 1),)
        # The first post is invalid and leaves the model x@1 = 1, which
        # falsifies every later post; only the read-free, quantifier-free
        # one may be answered from it.
        posts = [
            le(x, 0),
            le(x, -1),
            le(read("a", x), x - 2),
            Forall(Var("k"), le(var("k"), x - 2)),
        ]
        checker = VcChecker()
        scalar = VcChecker(batched_posts=False)
        expected = [scalar.check_triple(ge(x, 0), commands, post) for post in posts]
        assert checker.check_triples(ge(x, 0), commands, posts) == expected
        stats = checker.statistics()
        assert stats["model_answers"] == 1
        assert stats["batched_posts"] == 3

    def test_approximate_model_is_never_kept(self):
        # With no branch-and-bound budget, x + y = 1 /\ x = y is "satisfied"
        # by the rational x = y = 1/2; that model falsifies x <= 0 \/ x >= 1,
        # which holds for every integer x.
        x, y = var("x"), var("y")
        pre = eq(x + y, 1)
        posts = [ne(x, y), disjoin([le(x, 0), ge(x, 1)])]
        scalar = VcChecker(bb_limit=0, batched_posts=False)
        expected = [scalar.check_triple(pre, (), post) for post in posts]
        assert expected == [False, True]
        checker = VcChecker(bb_limit=0)
        assert checker.check_triples(pre, (), posts) == expected
        assert checker.statistics()["model_answers"] == 0


class TestQuantifiedCores:
    """Cores with ∀ hypotheses are decided in the context, not the scalar
    pipeline, with the instances the whole obligation would get."""

    def test_post_terms_instantiate_the_core_hypotheses(self):
        # The core reads no array; the post's read a[j] is the only term
        # the hypothesis can be instantiated at.
        pre = _range_forall("k", 0, var("n") - 1, ge(read("a", var("k")), 0))
        commands = (Assume(ge(var("j"), 0)), Assume(lt(var("j"), var("n"))))
        posts = [ge(read("a", var("j")), 0), ge(read("a", var("j")), 1), TRUE]
        batched = VcChecker()
        scalar = VcChecker(batched_posts=False)
        expected = [scalar.check_triple(pre, commands, post) for post in posts]
        assert expected == [True, False, True]
        assert batched.check_triples(pre, commands, posts) == expected
        stats = batched.statistics()
        assert stats["scalar_fallbacks"] == 0
        assert stats["batched_posts"] == 2
        assert stats["sat_queries"] == 0

    def test_core_terms_instantiate_in_the_base(self):
        pre = _range_forall("k", 0, var("n") - 1, eq(read("a", var("k")), 0))
        error = (
            Assume(ge(var("i"), 0)),
            Assume(lt(var("i"), var("n"))),
            Assume(ne(read("a", var("i")), 0)),
        )
        checker = VcChecker()
        assert checker.check_triples(pre, error, (FALSE,)) == [True]
        assert checker.check_triples(TRUE, error, (FALSE,)) == [False]
        assert checker.statistics()["scalar_fallbacks"] == 0

    def test_nested_quantifier_takes_the_scalar_pipeline(self):
        a_m, a_k = read("a", var("m")), read("a", var("k"))
        inner = _range_forall("m", 0, var("k"), le(a_m, a_k))
        pre = Forall(Var("k"), disjoin([lt(var("k"), 0), inner]))
        commands = (Assume(ge(var("j"), 0)),)
        post = le(read("a", 0), read("a", var("j")))
        checker = VcChecker()
        reference = VcChecker(batched_posts=False)
        assert checker.check_triples(pre, commands, [post]) == [
            reference.check_triple(pre, commands, post)
        ]
        assert checker.statistics()["scalar_fallbacks"] == 1


class TestSolverContext:
    def test_context_agrees_with_check_sat(self):
        x, y = var("x"), var("y")

        solver = SmtSolver()
        context = solver.context()
        assert context.assert_base(conjoin([le(x, y), le(y, 10)]))
        cases = [le(x, 10), ge(x, 11), eq(x, y), conjoin([ge(x, 5), le(y, 4)])]
        for assumption in cases:
            expected = solver.check_sat(
                conjoin([le(x, y), le(y, 10), assumption])
            ).satisfiable
            assert context.check(assumption).satisfiable == expected
        # The context survives its own UNSAT answers (push/pop scoping).
        assert context.check(le(x, 10)).satisfiable

    def test_many_assumptions_keep_the_tableau_bounded(self):
        """Every assumption brings a new linear form; the context rebuilds
        from its base instead of pivoting over all of them."""
        x, y, z = var("x"), var("y"), var("z")
        base = conjoin([le(x + y, 10), ge(x - y, -4), le(z, x + 2 * y)])
        solver = SmtSolver()
        context = solver.context()
        assert context.assert_base(base)
        base_rows = context.tableau_rows
        bound = 2 * base_rows + 8
        for k in range(1, 40):
            assumption = conjoin([ge(k * x + y, k), ge(x + k * z, 3 * k)])
            expected = solver.check_sat(conjoin([base, assumption])).satisfiable
            assert context.check(assumption).satisfiable == expected, k
            assert context.tableau_rows <= bound + 2, (k, context.tableau_rows)

    def test_unsat_base_short_circuits(self):
        x = var("x")

        solver = SmtSolver()
        context = solver.context()
        assert not context.assert_base(conjoin([le(x, 0), ge(x, 1)]))
        assert context.base_failed
        assert not context.check(TRUE).satisfiable

    def test_disequality_base_splits_lazily(self):
        x = var("x")

        solver = SmtSolver()
        context = solver.context()
        assert context.assert_base(conjoin([ne(x, 0), ge(x, 0)]))
        assert context.check(le(x, 5)).satisfiable
        assert not context.check(le(x, 0)).satisfiable
