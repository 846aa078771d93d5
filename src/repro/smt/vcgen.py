"""Verification-condition generation and checking.

:class:`VcChecker` is the single entry point the rest of the library uses for
semantic questions about straight-line code:

* ``check_triple(pre, commands, post)`` — validity of the Hoare triple
  ``{pre} commands {post}`` (this is the Inductiveness condition I1 of the
  paper applied to a basic path), and ``check_triples(pre, commands,
  posts)`` — the same for many posts on one basic path (the synthesizer's
  candidates),
* ``is_feasible(commands)`` — satisfiability of the path formula, used
  by the counterexample-analysis phase, and
* ``check_entailment(lhs, rhs)`` — implication between two state formulas
  (used by predicate abstraction for covering checks),
* ``edge_feasible(state, transition)`` / ``post_predicate_holds(state,
  transition, predicate)`` / ``post_all_predicates(state, transition,
  predicates)`` — the abstract-post oracle used by the (persistent) abstract
  reachability tree, memoised on ``(source-state, transition[, predicate])``
  so that re-expanding an untouched ART region after a refinement is pure
  cache hits.

Both ``pre`` and ``post`` may contain universally quantified conjuncts of the
array-property fragment.  The pipeline follows Section 4.2 of the paper:
skolemise the negated post-condition, resolve array writes by read-over-write
definitions, instantiate quantified hypotheses at the read index terms, and
discharge the resulting quantifier-free obligation with the SMT solver.

The batched oracle
------------------

Both the abstract post and the synthesizer ask many posts of one ``pre``
and one command sequence: an ART expansion asks every precision predicate
of the target location after one ``(state, transition)`` pair, and Houdini
asks every candidate of a cut-point after one basic path.  ``check_triple``
pays the full pipeline — ``ssa_translate``, renaming, skolemisation, store
resolution, instantiation and a cold ``check_sat`` — once **per post**.  The
batched oracle prepares the core once and decides the whole family inside
one incremental solver context::

    (pre, commands)  ──prepare once──►  core = pre_ssa ∧ commands_ssa
                                        │  skolemise + resolve stores
                                        │  instantiate ∀ hypotheses at the
                                        │  core's own read terms
                                        │  assert into SolverContext
                                        ▼
    p₁, p₂, …, pₙ    ──per post──────►  ¬pᵢ' skolemised + resolved, plus the
                                        hypotheses' instances at the terms
                                        it introduces: push / check / pop

Resolving the core and a post apart gives each read the same value variable
(``sel#a@k[t]``), so the base's instances and a post's together are the
instances ``check_triple`` builds over the whole obligation.  Every post is
charged, shortcut and memoised exactly as ``check_triple`` does it, so
budgets trip at the same post.  Only shapes the context cannot host take the
scalar pipeline (counted in ``scalar_fallbacks``): a quantifier nested in a
hypothesis or under a disjunction or negation, or a post that stays
quantified after skolemisation.

Two answers need no solver check at all, and each is the verdict the
solver would give:

* **frame** (``frame_answers``): a post that is a conjunct of ``pre`` and
  touches no variable or array the commands write is valid — ``¬p′`` is the
  negation of a conjunct of the base, so the check could only be UNSAT.
  Checked before the core is prepared, so a batch answered whole this way
  prepares none.
* **model** (``model_answers``): the core keeps the model of its latest
  satisfiable, exact context check, which satisfies the base.  A renamed
  post that is quantifier-free and read-free draws no instances (they come
  from reads only), so its check would be exactly ``base ∧ ¬p′``; when the
  model falsifies ``p′`` that is satisfiable and the post is invalid.  A
  branch-and-bound approximation is never kept: its rational model need not
  satisfy the base over the integers.

An abstract-post core is memoised per ``(state, transition)`` in an
LRU-bounded table, so the delta-recheck wave after a refinement — which
re-asks the *same* edge about the newly added predicates — reuses the
context instead of re-preparing (counted in ``context_reuses``).
Memo-hit predicates are answered from the post cache before any context is
built.  A synthesizer core serves one ``check_triples`` call and stays out
of that table.  ``check_triple`` and ``post_predicate_holds`` are kept as
the differential references, and ``VcChecker(batched_posts=False)`` routes
every batch through them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from ..lang.commands import Command, written_names
from ..logic.formulas import FALSE, Forall, Formula, TRUE, conjoin, conjuncts, negate
from ..logic.terms import LinExpr, Rat, Var
from ..logic.transform import FreshNames, quantifier_free
from .arrays import resolve_stores
from .budget import BudgetExhausted
from .quant import (
    instantiate_positive,
    instantiation_terms,
    skolemize_negative,
    split_hypotheses,
)
from .solver import SmtSolver, SolverContext
from .ssa import SsaTranslation, rename_to_versions, ssa_translate

__all__ = ["VcChecker", "PathFeasibility"]


@dataclass
class PathFeasibility:
    """Outcome of a path-feasibility query."""

    feasible: bool
    model: Optional[dict[Var, Rat]] = None
    approximate: bool = False


@dataclass
class _PreparedCore:
    """``pre ∧ commands`` prepared once for every post decided against it."""

    translation: SsaTranslation
    pre_ssa: Formula
    #: The core's top-level ∀ hypotheses, each with the index terms the
    #: asserted base already instantiates it at; a post adds the instances
    #: at the terms it introduces.
    hypotheses: tuple[tuple[Forall, frozenset[LinExpr]], ...]
    #: The incremental solver context with the instantiated core asserted;
    #: ``None`` when the core has a quantifier the context cannot host
    #: (nested, or under a disjunction or negation), so that every post
    #: takes the scalar pipeline.
    context: Optional[SolverContext]
    #: The model of the context's latest satisfiable check, kept only when
    #: exact (never a branch-and-bound approximation): it satisfies the
    #: base, so a read-free post it falsifies is invalid.
    model: Optional[dict[Var, Rat]] = None


class VcChecker:
    """Checks Hoare triples, path feasibility, entailments and abstract posts.

    The verdict memo tables (triple, edge, post) are plain dicts: a
    long-lived holder bounds them by recycling the whole checker
    (:class:`~repro.core.engine.WarmChecker`).  The prepared-edge table is
    always capped at :attr:`PREPARED_EDGE_CAP`, evicting least-recently-used,
    because each entry pins a live solver context — a simplex tableau, not a
    boolean.
    """

    #: LRU bound of the prepared-edge table.  Far above any single run's
    #: distinct-edge count (the default node budget is 4000), so eviction
    #: only kicks in for long sessions.
    PREPARED_EDGE_CAP = 2048

    def __init__(self, bb_limit: int = 40, batched_posts: bool = True) -> None:
        self.solver = SmtSolver(bb_limit=bb_limit)
        self._fresh = FreshNames("vc")
        #: Route batched queries through the shared solver context.
        #: ``False`` degrades :meth:`post_all_predicates` to one scalar
        #: :meth:`post_predicate_holds` per predicate, :meth:`edge_feasible`
        #: and :meth:`check_triples` to :meth:`check_triple` — the
        #: differential baseline the batched path is tested and benchmarked
        #: against.
        self.batched_posts = batched_posts
        self.num_triple_checks = 0
        #: The charge count the current run's next charge may not reach, and
        #: the reason it trips with (see :meth:`set_budget`).
        self._charge_limit: Optional[int] = None
        self._limit_reason = ""
        #: :attr:`charged_checks` when the current run began.
        self._run_base = 0
        #: Edge/post memo hits on entries an earlier run left: the triple
        #: checks a fresh checker would have made for them, charged to the
        #: run's solver budget all the same (see :meth:`begin_run`).
        self.num_carried_hits = 0
        #: The edge/post obligations the current run has asked, kept only
        #: while the run started on populated memo tables (see
        #: :meth:`begin_run`).
        self._run_asked: Optional[set] = None
        self.num_feasibility_checks = 0
        self.cache_hits = 0
        #: Memoised triple verdicts.  CEGAR re-checks the same (state, edge,
        #: predicate) obligations many times across ART nodes and refinement
        #: rounds; the inputs are immutable and hash-consed, so the keys are
        #: cheap and caching is safe.  A second memo level lives inside the
        #: solver itself (normalised-query cache), which also catches
        #: obligations that differ as triples but normalise to the same
        #: quantifier-free formula.
        self._triple_cache: dict[tuple, bool] = {}
        #: Abstract-post memo (the ART-facing layer).  Keys are
        #: ``(source-state, transition)`` for edge feasibility and
        #: ``(source-state, transition, predicate)`` for per-predicate posts.
        #: Neither verdict depends on the precision, so entries stay valid
        #: across refinements and across engine instances sharing a checker.
        self._edge_cache: dict[tuple, bool] = {}
        self._post_cache: dict[tuple, bool] = {}
        self._state_formulas: dict[frozenset, Formula] = {}
        #: Prepared cores of the batched oracle, keyed like the edge cache.
        #: Entries hold a live :class:`SolverContext` (a simplex tableau), so
        #: this table is bounded even though the verdict caches are not: an
        #: LRU cap, and eviction just means re-preparing the edge if its
        #: batch ever recurs.
        self._prepared_edges: dict[tuple, _PreparedCore] = {}
        self.num_edge_queries = 0
        self.edge_cache_hits = 0
        self.num_post_queries = 0
        self.post_cache_hits = 0
        #: Batched-oracle counters: edge cores prepared / served from the
        #: prepared-edge cache, posts (of edges and of synthesizer batches)
        #: decided inside a context vs through the scalar pipeline, and
        #: abstract-post batches the post cache did not answer whole.
        self.num_prepare_calls = 0
        self.num_context_reuses = 0
        self.num_batched_posts = 0
        self.num_scalar_fallbacks = 0
        #: Posts of a batch answered before any solver check: valid by the
        #: frame rule, or invalid under the core's last exact model.
        self.num_frame_answers = 0
        self.num_model_answers = 0
        self.num_batch_calls = 0
        self.num_ssa_translations = 0
        self.cache_evictions = 0
        #: Per-phase wall clock of the batched oracle (seconds): core
        #: preparation (translate + skolemise + resolve + instantiate + base
        #: assert) vs per-post context checks.
        self.prepare_seconds = 0.0
        self.post_solve_seconds = 0.0

    # ------------------------------------------------------------------
    def statistics(self) -> dict[str, float]:
        """Counter snapshot across the checker and its solver.

        Keys: ``triple_checks``, ``carried_hits`` (see :meth:`begin_run`),
        ``feasibility_checks``, ``triple_cache_hits``,
        the abstract-post counters (``edge_queries``/``post_queries`` and
        their cache hits), the batched-oracle counters (``prepare_calls``,
        ``context_reuses``, ``batched_posts``, ``scalar_fallbacks``,
        ``frame_answers``, ``model_answers``, ``batch_calls``,
        ``ssa_translations``, ``cache_evictions``), the
        per-phase timings (``prepare_seconds``, ``post_solve_seconds``) plus
        the solver counters (``sat_queries``, ``entailment_queries``) and the
        lazy-engine statistics from
        :meth:`~repro.smt.solver.SmtSolver.cache_info`.
        """
        stats = {
            "triple_checks": self.num_triple_checks,
            "carried_hits": self.num_carried_hits,
            "feasibility_checks": self.num_feasibility_checks,
            "triple_cache_hits": self.cache_hits,
            "edge_queries": self.num_edge_queries,
            "edge_cache_hits": self.edge_cache_hits,
            "post_queries": self.num_post_queries,
            "post_cache_hits": self.post_cache_hits,
            "prepare_calls": self.num_prepare_calls,
            "context_reuses": self.num_context_reuses,
            "batched_posts": self.num_batched_posts,
            "scalar_fallbacks": self.num_scalar_fallbacks,
            "frame_answers": self.num_frame_answers,
            "model_answers": self.num_model_answers,
            "batch_calls": self.num_batch_calls,
            "ssa_translations": self.num_ssa_translations,
            "cache_evictions": self.cache_evictions,
            "prepare_seconds": round(self.prepare_seconds, 6),
            "post_solve_seconds": round(self.post_solve_seconds, 6),
            "sat_queries": self.solver.num_sat_queries,
            "entailment_queries": self.solver.num_entailment_queries,
        }
        stats.update(self.solver.cache_info())
        return stats

    def cache_sizes(self) -> dict[str, int]:
        """Entry counts of the checker's and its solver's memo tables.

        Long-lived sessions (:class:`repro.core.api.Session`) and daemon
        workers share one checker across many tasks; these sizes are the
        memory-side of that bargain and feed :meth:`Session.statistics` so a
        service can watch cache growth and decide when to recycle a checker.
        ``evictions`` counts prepared edges dropped by their LRU cap
        (:attr:`PREPARED_EDGE_CAP`); no other table has one.
        """
        return {
            "triple_cache": len(self._triple_cache),
            "edge_cache": len(self._edge_cache),
            "post_cache": len(self._post_cache),
            "state_formulas": len(self._state_formulas),
            "prepared_edges": len(self._prepared_edges),
            "sat_cache": len(self.solver._sat_cache),
            "normal_forms": len(self.solver._normal_form),
            "evictions": self.cache_evictions,
        }

    def delta_since(self, snapshot: dict[str, float]) -> dict[str, float]:
        """Per-counter growth since ``snapshot``, an earlier :meth:`statistics`.

        The engine takes the statistics when a run starts and reports the
        run's own work with this delta — the counters themselves are
        cumulative and shared by every run using this checker (a session, a
        portfolio's arms, a daemon worker serving many requests).
        Counters absent from the snapshot (none today, but the solver's
        cache-info keys may grow) are reported at their full current value.
        Timings are re-rounded like :meth:`statistics` rounds them, so the
        delta from an all-zero snapshot equals the statistics themselves.
        """
        current = self.statistics()
        return {
            key: round(value - snapshot.get(key, 0), 6)
            for key, value in current.items()
        }

    # ------------------------------------------------------------------
    # Per-run charging
    # ------------------------------------------------------------------
    @property
    def charged_checks(self) -> int:
        """The count solver budgets charge: triple checks made plus carried
        memo hits (the checks a fresh checker would have made instead)."""
        return self.num_triple_checks + self.num_carried_hits

    def begin_run(self) -> None:
        """Start charging a new run as if it ran on a fresh checker.

        A fresh checker charges each edge/post obligation once per run: the
        first ask is decided (one triple check), later asks hit the memo
        entry the run itself paid for.  On memo tables an earlier run left,
        the first ask of an obligation may hit instead; it is then counted as
        a carried hit, so ``max_solver_calls`` trips at the same point and a
        warm checker changes how fast a run goes, never where it stops.  The
        ledger this needs is only kept when the tables are already
        populated.
        """
        self._run_asked = set() if (self._edge_cache or self._post_cache) else None
        self._run_base = self.charged_checks

    def set_budget(
        self, deadline: Optional[float], max_solver_calls: Optional[int]
    ) -> None:
        """Hold the current run to a wall-clock ``deadline`` (an absolute
        ``time.perf_counter()`` value) and to ``max_solver_calls`` charges
        counted from :meth:`begin_run`; ``None`` lifts either limit.

        From then on every charge (:meth:`_charge`) checks both, and every
        :meth:`is_feasible`, every new definition of store resolution, every
        new formula the solver normalises and every round of its case splitter
        checks the deadline; a trip raises
        :class:`~repro.smt.budget.BudgetExhausted`.  The engine sets the
        budget when a run starts and lifts it when the run returns.
        """
        self.solver.deadline = deadline
        if max_solver_calls is None:
            self._charge_limit = None
        else:
            self._charge_limit = self._run_base + max_solver_calls
            self._limit_reason = (
                f"solver budget of {max_solver_calls} triple checks exhausted"
            )

    def _charge(self, carried: bool = False) -> None:
        """Charge the run one triple check, or one carried memo hit.

        Raises instead when the charge would pass the solver-call cap or the
        deadline has passed, so no run is ever charged past its cap.
        """
        limit = self._charge_limit
        if limit is not None and self.num_triple_checks + self.num_carried_hits >= limit:
            raise BudgetExhausted(self._limit_reason)
        self._check_deadline()
        if carried:
            self.num_carried_hits += 1
        else:
            self.num_triple_checks += 1

    def _check_deadline(self) -> None:
        deadline = self.solver.deadline
        if deadline is not None and time.perf_counter() > deadline:
            raise BudgetExhausted()

    def _ask(self, key, hit: bool) -> None:
        """Ledger step of a run on populated tables: charge a hit on an
        entry the run has not asked before (a miss is charged where it is
        decided).

        One set operation records the key: the size tells whether it was
        new.  A carried charge that raises takes the key back out, so if
        the run goes on (a resumed slice) it is charged when asked again,
        where a cold run would decide it.
        """
        asked = self._run_asked
        size = len(asked)
        asked.add(key)
        if hit and len(asked) > size:
            try:
                self._charge(carried=True)
            except BudgetExhausted:
                asked.discard(key)
                raise

    def asked_keys(self) -> set:
        """The edge/post memo keys the current run has asked so far (empty
        for a run that started on empty tables: it keeps no ledger)."""
        return self._run_asked or set()

    def memo_verdicts(self, keys: Iterable[tuple]) -> tuple[dict, dict]:
        """The edge and post verdicts memoised under ``keys``, as ``(edges,
        posts)``: edge keys are ``(state, transition)`` pairs, post keys
        ``(state, transition, predicate)`` triples (see :meth:`asked_keys`)."""
        edges: dict[tuple, bool] = {}
        posts: dict[tuple, bool] = {}
        for key in keys:
            table, found = (
                (self._edge_cache, edges) if len(key) == 2 else (self._post_cache, posts)
            )
            verdict = table.get(key)
            if verdict is not None:
                found[key] = verdict
        return edges, posts

    def install_verdicts(self, edges: dict, posts: dict) -> None:
        """Seed the edge and post memo tables with verdicts another checker
        decided (:meth:`memo_verdicts`); they hold for any checker."""
        self._edge_cache.update(edges)
        self._post_cache.update(posts)

    # ------------------------------------------------------------------
    # Hoare triples / inductiveness conditions
    # ------------------------------------------------------------------
    def check_triple(
        self, pre: Formula, commands: Sequence[Command], post: Formula
    ) -> bool:
        """Validity of ``{pre} commands {post}``.

        One run of the whole pipeline over the obligation; the reference
        :meth:`check_triples` is tested against.
        """
        self._charge()
        if isinstance(post, type(TRUE)) and post == TRUE:
            return True
        key = (pre, tuple(commands), post)
        cached = self._triple_cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        translation = self._translate(commands)
        pre_ssa = rename_to_versions(pre, {}, {})
        post_ssa = rename_to_versions(
            post, translation.var_versions, translation.array_versions
        )
        obligation = conjoin(
            [pre_ssa, translation.formula(), negate(post_ssa)]
        )
        verdict = self._is_unsat_obligation(obligation, translation)
        self._triple_cache[key] = verdict
        return verdict

    def check_triples(
        self, pre: Formula, commands: Sequence[Command], posts: Iterable[Formula]
    ) -> list[bool]:
        """Validity of ``{pre} commands {post}`` for each of ``posts``, in order.

        Each post is charged, shortcut and memoised exactly as by
        :meth:`check_triple`; the posts the triple memo does not answer are
        decided against one ``pre ∧ commands`` core, prepared when the first
        of them needs it.  Used for a synthesizer's candidates on one basic
        path.  These one-shot cores stay out of the prepared-edge table.
        With ``batched_posts`` off, one :meth:`check_triple` per post.
        """
        if not self.batched_posts:
            return [self.check_triple(pre, commands, post) for post in posts]
        return list(self._decide_posts(pre, tuple(commands), posts))

    # ------------------------------------------------------------------
    # Abstract-post oracle (memoised on ART-level keys)
    # ------------------------------------------------------------------
    def state_formula(self, state: frozenset) -> Formula:
        """The conjunction of an abstract state's predicates (cached).

        Abstract states are small frozensets of hash-consed formulas; the
        same state recurs across thousands of post queries, so the sorted
        conjunction is built once per distinct state.
        """
        formula = self._state_formulas.get(state)
        if formula is None:
            formula = conjoin(sorted(state, key=str))
            self._state_formulas[state] = formula
        return formula

    def edge_feasible(self, state: frozenset, transition) -> bool:
        """May ``transition`` fire from the abstract state?

        ``transition`` is any hashable object with a ``commands`` tuple (a
        :class:`~repro.lang.cfg.Transition`).  The verdict only depends on the
        state and the commands, never on the precision, so the memo survives
        refinements unchanged.  Decided through the prepared-edge context
        (one satisfiability check of the asserted core); the context then
        stays cached for the post batch that typically follows.
        """
        self.num_edge_queries += 1
        key = (state, transition)
        cached = self._edge_cache.get(key)
        if self._run_asked is not None:
            self._ask(key, cached is not None)
        if cached is not None:
            self.edge_cache_hits += 1
            return cached
        pre = self.state_formula(state)
        if not self.batched_posts:
            verdict = not self.check_triple(pre, transition.commands, FALSE)
        else:
            # One Hoare-triple check, {pre} commands {false}, against the
            # edge's prepared core.
            edge = self._prepare_edge(state, transition)
            (unsat,) = self._decide_posts(pre, transition.commands, (FALSE,), edge)
            verdict = not unsat
        self._edge_cache[key] = verdict
        return verdict

    def post_predicate_holds(self, state: frozenset, transition, predicate: Formula) -> bool:
        """Does ``predicate`` hold after firing ``transition`` from ``state``?

        The scalar oracle: one full pipeline run per predicate.  Kept as the
        differential baseline of :meth:`post_all_predicates` (and used by it
        when ``batched_posts`` is off); verdicts of the two paths are
        identical and land in the same memo tables.
        """
        self.num_post_queries += 1
        key = (state, transition, predicate)
        cached = self._post_cache.get(key)
        if self._run_asked is not None:
            self._ask(key, cached is not None)
        if cached is not None:
            self.post_cache_hits += 1
            return cached
        pre = self.state_formula(state)
        verdict = self.check_triple(pre, transition.commands, predicate)
        self._post_cache[key] = verdict
        return verdict

    def post_all_predicates(
        self, state: frozenset, transition, predicates: Iterable[Formula]
    ) -> dict[Formula, bool]:
        """Decide every predicate of one edge in a single batched query.

        Memo-hit predicates are answered from the post cache first — if the
        whole batch hits, no solver context is built or fetched.  The rest
        share one prepared core (cached per ``(state, transition)``) and are
        decided by push/check/pop of their negated renamed form inside its
        :class:`~repro.smt.solver.SolverContext`.  Verdicts and memo effects
        are identical to calling :meth:`post_predicate_holds` per predicate.
        """
        verdicts: dict[Formula, bool] = {}
        remaining: list[Formula] = []
        for predicate in predicates:
            self.num_post_queries += 1
            key = (state, transition, predicate)
            cached = self._post_cache.get(key)
            if self._run_asked is not None:
                self._ask(key, cached is not None)
            if cached is not None:
                self.post_cache_hits += 1
                verdicts[predicate] = cached
            else:
                remaining.append(predicate)
        if not remaining:
            return verdicts
        if not self.batched_posts:
            # Differential baseline: the scalar oracle per predicate (undo
            # the query count above — post_predicate_holds re-counts).
            for predicate in remaining:
                self.num_post_queries -= 1
                verdicts[predicate] = self.post_predicate_holds(
                    state, transition, predicate
                )
            return verdicts
        self.num_batch_calls += 1
        edge = self._prepare_edge(state, transition)
        pre = self.state_formula(state)
        decided = self._decide_posts(pre, transition.commands, remaining, edge)
        for predicate, verdict in zip(remaining, decided):
            self._post_cache[(state, transition, predicate)] = verdict
            verdicts[predicate] = verdict
        return verdicts

    # ------------------------------------------------------------------
    # Batched-oracle internals
    # ------------------------------------------------------------------
    def _prepare_edge(self, state: frozenset, transition) -> _PreparedCore:
        """The prepared core for ``(state, transition)`` (LRU-cached)."""
        key = (state, transition)
        edges = self._prepared_edges
        edge = edges.pop(key, None)
        if edge is not None:
            # Dicts iterate in insertion order: re-inserting marks the entry
            # most-recently-used, so eviction drops the coldest one.
            edges[key] = edge
            self.num_context_reuses += 1
            return edge
        self.num_prepare_calls += 1
        edge = edges[key] = self._prepare_core(
            self.state_formula(state), transition.commands
        )
        if len(edges) > self.PREPARED_EDGE_CAP:
            del edges[next(iter(edges))]
            self.cache_evictions += 1
        return edge

    def _prepare_core(
        self, pre: Formula, commands: Sequence[Command]
    ) -> _PreparedCore:
        """Translate, skolemise, resolve and instantiate ``pre ∧ commands``
        and assert it as the base of a fresh solver context."""
        started = time.perf_counter()
        translation = self._translate(commands)
        pre_ssa = rename_to_versions(pre, {}, {})
        core = conjoin([pre_ssa, translation.formula()])
        core = skolemize_negative(core, self._fresh)
        core = resolve_stores(core, translation.stores, self.solver.deadline)
        split = split_hypotheses(core)
        hypotheses: tuple[tuple[Forall, frozenset[LinExpr]], ...] = ()
        context: Optional[SolverContext] = None
        if split is not None:
            foralls, rest = split
            terms = [(forall, instantiation_terms(forall, core)) for forall in foralls]
            hypotheses = tuple((forall, frozenset(ts)) for forall, ts in terms)
            instances = [forall.instantiate(t) for forall, ts in terms for t in ts]
            context = self.solver.context()
            context.assert_base(conjoin([rest, *instances]))
        self.prepare_seconds += time.perf_counter() - started
        return _PreparedCore(translation, pre_ssa, hypotheses, context)

    def _decide_posts(
        self,
        pre: Formula,
        commands: tuple,
        posts: Iterable[Formula],
        core: Optional[_PreparedCore] = None,
    ) -> Iterator[bool]:
        """Each post's verdict, with :meth:`check_triple`'s charge, shortcut
        and memo, decided against ``core`` (prepared here when the first post
        reaches the solver if not given).  Lazy: a caller's own bookkeeping
        for one post happens before the next post is charged.

        A memo miss that is a conjunct of ``pre`` and touches no name the
        commands write is valid by the frame rule and needs no core.
        """
        # Built at the first memo miss: pre's conjuncts, the written names.
        framed: Optional[frozenset[Formula]] = None
        written: set[str] = set()
        for post in posts:
            # Budget fidelity: every post is one Hoare-triple check, and
            # every path reads and writes the same triple memo.
            self._charge()
            if isinstance(post, type(TRUE)) and post == TRUE:
                yield True
                continue
            key = (pre, commands, post)
            cached = self._triple_cache.get(key)
            if cached is not None:
                self.cache_hits += 1
                yield cached
                continue
            if framed is None:
                framed, written = frozenset(conjuncts(pre)), written_names(commands)
            if post in framed and post.touched_names().isdisjoint(written):
                self.num_frame_answers += 1
                verdict = True
            else:
                if core is None:
                    core = self._prepare_core(pre, commands)
                verdict = self._decide(core, post)
            self._triple_cache[key] = verdict
            yield verdict

    def _decide(self, core: _PreparedCore, post: Formula) -> bool:
        """Validity of ``{pre} commands {post}`` against the prepared core.

        The negated post is skolemised and resolved on its own; the core's
        hypotheses add their instances at the terms it introduces, which
        together with the base's instances are the instances the scalar
        pipeline builds over the whole obligation.  Shapes the context
        cannot host — a core without a context, a post that stays
        quantified — take that scalar pipeline instead.

        A renamed post that is quantifier-free and read-free adds no
        instances, so the context would decide exactly ``base ∧ ¬post``;
        when the core's last exact model falsifies it, that check is
        satisfiable and the post is invalid without it.
        """
        translation = core.translation
        renamed = rename_to_versions(
            post, translation.var_versions, translation.array_versions
        )
        negated = negate(renamed)
        context = core.context
        if context is not None:
            if context.base_failed:
                # The commands cannot run from pre: the triple holds vacuously.
                return True
            model = core.model
            if (
                model is not None
                and quantifier_free(renamed)
                and not renamed.array_reads()
                and model.keys() >= renamed.variables()
                and not renamed.evaluate(model)
            ):
                self.num_model_answers += 1
                return False
            assumption = resolve_stores(
                skolemize_negative(negated, self._fresh),
                translation.stores,
                self.solver.deadline,
            )
            if quantifier_free(assumption):
                instances = [
                    forall.instantiate(term)
                    for forall, done in core.hypotheses
                    for term in instantiation_terms(forall, assumption)
                    if term not in done
                ]
                started = time.perf_counter()
                self.num_batched_posts += 1
                result = context.check(conjoin([assumption, *instances]))
                self.post_solve_seconds += time.perf_counter() - started
                if result.satisfiable and not result.approximate:
                    core.model = result.model
                return not result.satisfiable
        self.num_scalar_fallbacks += 1
        obligation = conjoin([core.pre_ssa, translation.formula(), negated])
        return self._is_unsat_obligation(obligation, translation)

    def check_entailment(self, lhs: Formula, rhs: Formula) -> bool:
        """``lhs |= rhs`` for state formulas (no commands involved)."""
        return self.check_triple(lhs, (), rhs)

    def holds_initially(self, formula: Formula) -> bool:
        """Does ``formula`` hold in every state (i.e. is it valid)?"""
        return self.check_triple(TRUE, (), formula)

    # ------------------------------------------------------------------
    # Path feasibility
    # ------------------------------------------------------------------
    def is_feasible(self, commands: Sequence[Command]) -> PathFeasibility:
        """Is there a concrete execution of ``commands``?"""
        self._check_deadline()
        self.num_feasibility_checks += 1
        translation = self._translate(commands)
        prepared = self._prepare(translation.formula(), translation)
        result = self.solver.check_sat(prepared)
        return PathFeasibility(result.satisfiable, result.model, result.approximate)

    # ------------------------------------------------------------------
    # Shared pipeline
    # ------------------------------------------------------------------
    def _translate(self, commands: Sequence[Command]) -> SsaTranslation:
        self.num_ssa_translations += 1
        return ssa_translate(commands)

    def _prepare(self, obligation: Formula, translation: SsaTranslation) -> Formula:
        """Skolemise, resolve stores and instantiate quantifiers."""
        skolemized = skolemize_negative(obligation, self._fresh)
        resolved = resolve_stores(skolemized, translation.stores, self.solver.deadline)
        instantiated = instantiate_positive(resolved)
        return instantiated

    def _is_unsat_obligation(
        self, obligation: Formula, translation: SsaTranslation
    ) -> bool:
        prepared = self._prepare(obligation, translation)
        return self.solver.is_unsat(prepared)
