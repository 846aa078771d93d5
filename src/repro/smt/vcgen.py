"""Verification-condition generation and checking.

:class:`VcChecker` is the single entry point the rest of the library uses for
semantic questions about straight-line code:

* ``check_triple(pre, commands, post)`` — validity of the Hoare triple
  ``{pre} commands {post}`` (this is the Inductiveness condition I1 of the
  paper applied to a basic path),
* ``is_feasible(commands, pre)`` — satisfiability of the path formula, used
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
case splits, instantiate quantified hypotheses at the read index terms, and
discharge the resulting quantifier-free obligation with the SMT solver.

The batched abstract-post oracle
--------------------------------

An ART expansion asks *every* precision predicate of the target location
against the same ``(state, transition)`` pair.  The scalar oracle pays the
full pipeline — ``ssa_translate``, renaming, skolemisation, store resolution
and a cold ``check_sat`` — once **per predicate**.  The batched oracle
prepares the edge once and decides the whole family inside one incremental
solver context::

    (state, transition)  ──prepare once──►  core = pre_ssa ∧ trans_ssa
                                            │  skolemise + resolve stores
                                            │  assert into SolverContext
                                            ▼
    p₁, p₂, …, pₙ        ──per predicate──► push ¬pᵢ' / check / pop
                                            (shared tableau, shared unit
                                             store, shared read flattening)

The prepared core (SSA translation + solver context) is memoised per
``(state, transition)`` in an LRU-bounded table, so the delta-recheck wave
after a refinement — which re-asks the *same* edge about the newly added
predicates — reuses the context instead of re-preparing (counted in
``context_reuses``).  Memo-hit predicates are answered from the post cache
before any context is built; edges or predicates with quantifiers fall back
to the scalar pipeline, whose verdicts the context path matches exactly
(``post_predicate_holds`` is kept as the differential oracle).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from ..core import faults
from ..lang.commands import Command
from ..logic.formulas import FALSE, Formula, TRUE, conjoin, negate
from ..logic.terms import Var
from ..logic.transform import FreshNames, quantifier_free
from .arrays import resolve_stores
from .quant import instantiate_positive, skolemize_negative
from .solver import SatResult, SmtSolver, SolverContext
from .ssa import SsaTranslation, rename_to_versions, ssa_translate

__all__ = ["VcChecker", "PathFeasibility"]


@dataclass
class PathFeasibility:
    """Outcome of a path-feasibility query."""

    feasible: bool
    model: Optional[dict[Var, Fraction]] = None
    approximate: bool = False


@dataclass
class _PreparedEdge:
    """The once-per-``(state, transition)`` core of the batched post oracle."""

    translation: SsaTranslation
    pre_ssa: Formula
    #: ``pre_ssa ∧ trans_ssa`` after skolemisation and store resolution (not
    #: yet instantiated: hypothesis instantiation is per-predicate, because
    #: the predicate contributes instantiation terms).
    core: Formula
    #: True when the resolved core still contains a quantifier — the context
    #: path cannot host it, so every predicate falls back to the scalar
    #: pipeline (which instantiates against the full obligation).
    quantified: bool
    #: The incremental solver context with the core asserted; ``None`` for
    #: quantified cores.
    context: Optional[SolverContext]
    #: True when the core itself is unsatisfiable: the edge cannot fire and
    #: every predicate trivially holds after it.
    base_failed: bool


class VcChecker:
    """Checks Hoare triples, path feasibility, entailments and abstract posts.

    ``max_cache_entries`` optionally bounds the checker-level memo tables
    (triple, edge, post and prepared-edge caches) with least-recently-used
    eviction, so a long-lived :class:`~repro.core.api.Session` sharing one
    checker across many tasks cannot grow without bound.  ``None`` (the
    default) keeps the verdict caches unbounded; the prepared-edge table is
    *always* capped (at ``max_cache_entries`` when set, else
    ``PREPARED_EDGE_CAP``) because each entry pins a live solver context —
    a simplex tableau, not a boolean.
    """

    #: Default LRU bound of the prepared-edge table when ``max_cache_entries``
    #: is unset.  Far above any single run's distinct-edge count (the default
    #: node budget is 4000), so eviction only kicks in for long sessions.
    PREPARED_EDGE_CAP = 2048

    def __init__(
        self,
        integer_mode: bool = True,
        bb_limit: int = 40,
        max_cache_entries: Optional[int] = None,
        batched_posts: bool = True,
    ) -> None:
        if max_cache_entries is not None and max_cache_entries < 1:
            raise ValueError(
                f"max_cache_entries must be >= 1 or None, got {max_cache_entries}"
            )
        self.solver = SmtSolver(integer_mode=integer_mode, bb_limit=bb_limit)
        self._fresh = FreshNames("vc")
        self.max_cache_entries = max_cache_entries
        #: Route batched post queries through the shared solver context.
        #: ``False`` degrades :meth:`post_all_predicates` to one scalar
        #: :meth:`post_predicate_holds` per predicate — the differential
        #: baseline the batched path is tested and benchmarked against.
        self.batched_posts = batched_posts
        self.num_triple_checks = 0
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
        #: this table is bounded even when the verdict caches are not: it
        #: gets its own LRU cap, and eviction just means re-preparing the
        #: edge if its batch ever recurs.
        self._prepared_edges: dict[tuple, _PreparedEdge] = {}
        self.num_edge_queries = 0
        self.edge_cache_hits = 0
        self.num_post_queries = 0
        self.post_cache_hits = 0
        #: Batched-oracle counters: cores prepared / served from the
        #: prepared-edge cache, predicates decided inside a context vs
        #: through the scalar fallback, and edges whose whole batch was
        #: answered from the post cache (no context ever touched).
        self.num_prepare_calls = 0
        self.num_context_reuses = 0
        self.num_batched_posts = 0
        self.num_scalar_fallbacks = 0
        self.num_batch_calls = 0
        self.num_ssa_translations = 0
        #: Verdicts installed by :meth:`install_speculated` — work a parallel
        #: worker shard decided ahead of time that the commit path then
        #: consumed as cache hits.
        self.num_speculated_installs = 0
        self.cache_evictions = 0
        #: Per-phase wall clock of the batched oracle (seconds): edge
        #: preparation (translate + skolemise + resolve + base assert) vs
        #: per-predicate context checks.
        self.prepare_seconds = 0.0
        self.post_solve_seconds = 0.0

    # ------------------------------------------------------------------
    # LRU plumbing (active only when a cap applies: max_cache_entries for
    # the verdict caches, always for the prepared-edge table)
    # ------------------------------------------------------------------
    @property
    def _prepared_edge_cap(self) -> int:
        # Tracks max_cache_entries dynamically: pool workers set the
        # attribute after construction.
        if self.max_cache_entries is not None:
            return self.max_cache_entries
        return self.PREPARED_EDGE_CAP

    def _cache_get(self, cache: dict, key, cap: Optional[int] = None):
        value = cache.get(key)
        if value is None:
            return None
        if (cap if cap is not None else self.max_cache_entries) is not None:
            # Python dicts iterate in insertion order; re-inserting marks the
            # entry most-recently-used so eviction drops the coldest one.
            del cache[key]
            cache[key] = value
        return value

    def _cache_put(self, cache: dict, key, value, cap: Optional[int] = None) -> None:
        cache[key] = value
        cap = cap if cap is not None else self.max_cache_entries
        if cap is not None and len(cache) > cap:
            del cache[next(iter(cache))]
            self.cache_evictions += 1

    # ------------------------------------------------------------------
    def statistics(self) -> dict[str, float]:
        """Counter snapshot across the checker and its solver.

        Keys: ``triple_checks``, ``carried_hits`` (see :meth:`begin_run`),
        ``feasibility_checks``, ``triple_cache_hits``,
        the abstract-post counters (``edge_queries``/``post_queries`` and
        their cache hits), the batched-oracle counters (``prepare_calls``,
        ``context_reuses``, ``batched_posts``, ``scalar_fallbacks``,
        ``batch_calls``, ``ssa_translations``, ``cache_evictions``), the
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
            "batch_calls": self.num_batch_calls,
            "ssa_translations": self.num_ssa_translations,
            "speculated_installs": self.num_speculated_installs,
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
        ``evictions`` counts entries dropped by the LRU cap
        (``max_cache_entries``); the solver's tables have no LRU.
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

    def snapshot(self) -> dict[str, float]:
        """A frozen copy of :meth:`statistics`, for later delta computation.

        The engine snapshots the checker when a run starts and reports the
        run's own work with :meth:`delta_since` — the counters themselves are
        cumulative and shared by every run using this checker (a session, a
        portfolio's arms, a daemon worker serving many requests).
        """
        return dict(self.statistics())

    def delta_since(self, snapshot: dict[str, float]) -> dict[str, float]:
        """Per-counter growth since a :meth:`snapshot` was taken.

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
        populated.  (An LRU cap, ``max_cache_entries``, can still evict an
        entry mid-run on one checker and not on the other.)
        """
        self._run_asked = set() if (self._edge_cache or self._post_cache) else None

    def _ask(self, key, hit: bool) -> None:
        """Ledger step of a run on populated tables: charge a hit on an
        entry the run has not asked before (a miss is charged where it is
        decided)."""
        asked = self._run_asked
        if key not in asked:
            asked.add(key)
            if hit:
                self.num_carried_hits += 1

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
        """Validity of ``{pre} commands {post}``."""
        self.num_triple_checks += 1
        if isinstance(post, type(TRUE)) and post == TRUE:
            return True
        key = (pre, tuple(commands), post)
        cached = self._cache_get(self._triple_cache, key)
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
        self._cache_put(self._triple_cache, key, verdict)
        return verdict

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
        cached = self._cache_get(self._edge_cache, key)
        if self._run_asked is not None:
            self._ask(key, cached is not None)
        if cached is not None:
            self.edge_cache_hits += 1
            return cached
        pre = self.state_formula(state)
        if not self.batched_posts:
            verdict = not self.check_triple(pre, transition.commands, FALSE)
        else:
            edge = self._prepare_edge(state, transition)
            # Mirrors check_triple(pre, commands, FALSE) — one Hoare-triple
            # check against the memo both oracles share.
            self.num_triple_checks += 1
            triple_key = (pre, tuple(transition.commands), FALSE)
            unsat = self._cache_get(self._triple_cache, triple_key)
            if unsat is not None:
                self.cache_hits += 1
            else:
                if edge.quantified:
                    unsat = self._is_unsat_obligation(edge.core, edge.translation)
                elif edge.base_failed:
                    unsat = True
                else:
                    started = time.perf_counter()
                    self.num_batched_posts += 1
                    unsat = not edge.context.check(TRUE).satisfiable
                    self.post_solve_seconds += time.perf_counter() - started
                self._cache_put(self._triple_cache, triple_key, unsat)
            verdict = not unsat
        self._cache_put(self._edge_cache, key, verdict)
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
        cached = self._cache_get(self._post_cache, key)
        if self._run_asked is not None:
            self._ask(key, cached is not None)
        if cached is not None:
            self.post_cache_hits += 1
            return cached
        pre = self.state_formula(state)
        verdict = self.check_triple(pre, transition.commands, predicate)
        self._cache_put(self._post_cache, key, verdict)
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
            cached = self._cache_get(self._post_cache, key)
            if self._run_asked is not None:
                self._ask(key, cached is not None)
            if cached is not None:
                self.post_cache_hits += 1
                verdicts[predicate] = cached
            else:
                remaining.append(predicate)
        if not remaining:
            return verdicts
        # Fault-injection hook: a ``slow-post`` spec keyed by the edge's
        # location names stalls every undecided predicate of this batch —
        # one straggling solver query per triple, so a batch split across
        # worker shards straggles proportionally to its share.
        fault_key = (
            f"{getattr(transition.source, 'name', transition.source)}"
            f"->{getattr(transition.target, 'name', transition.target)}",
            str(getattr(transition.target, "name", transition.target)),
        )
        for _ in remaining:
            faults.fire("post", fault_key)
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
        for predicate in remaining:
            verdict = self._decide_post(edge, pre, transition, predicate)
            self._cache_put(self._post_cache, (state, transition, predicate), verdict)
            verdicts[predicate] = verdict
        return verdicts

    def install_speculated(
        self,
        state: frozenset,
        transition,
        edge_verdict: Optional[bool],
        post_verdicts: Optional[dict[Formula, bool]] = None,
    ) -> int:
        """Merge verdicts a worker shard decided ahead of time into this
        checker's memo tables; returns the number actually installed.

        This is the merge half of parallel exploration
        (:mod:`repro.core.parallel`): worker shards decide ``edge_feasible``
        and per-predicate posts on their own solvers, and the commit path
        installs the results here so :meth:`edge_feasible` /
        :meth:`post_all_predicates` answer from cache.  Both verdicts are
        precision-independent, so a speculated result can never go stale —
        at worst it is wasted work for an obligation the ART pruned.

        Budget fidelity: each *newly* installed verdict counts as one
        ``num_triple_checks``, exactly what the sequential engine would have
        paid to decide it here, so ``max_solver_calls`` budgets behave the
        same with and without workers.  Verdicts already cached (a memo hit
        the worker could not see) install nothing and count nothing, unless
        an earlier run left them (a carried hit, see :meth:`begin_run`).
        """
        installed = 0
        if edge_verdict is not None:
            key = (state, transition)
            cached = self._cache_get(self._edge_cache, key)
            if self._run_asked is not None:
                self._ask(key, cached is not None)
            if cached is None:
                self.num_triple_checks += 1
                self._cache_put(self._edge_cache, key, edge_verdict)
                installed += 1
        for predicate, verdict in (post_verdicts or {}).items():
            key = (state, transition, predicate)
            cached = self._cache_get(self._post_cache, key)
            if self._run_asked is not None:
                self._ask(key, cached is not None)
            if cached is None:
                self.num_triple_checks += 1
                self._cache_put(self._post_cache, key, verdict)
                installed += 1
        self.num_speculated_installs += installed
        return installed

    # ------------------------------------------------------------------
    # Batched-oracle internals
    # ------------------------------------------------------------------
    def _prepare_edge(self, state: frozenset, transition) -> _PreparedEdge:
        """The prepared core for ``(state, transition)`` (LRU-cached)."""
        key = (state, transition)
        edge = self._cache_get(self._prepared_edges, key, cap=self._prepared_edge_cap)
        if edge is not None:
            self.num_context_reuses += 1
            return edge
        started = time.perf_counter()
        self.num_prepare_calls += 1
        translation = self._translate(transition.commands)
        pre_ssa = rename_to_versions(self.state_formula(state), {}, {})
        core = conjoin([pre_ssa, translation.formula()])
        core = skolemize_negative(core, self._fresh)
        core = resolve_stores(core, translation.stores)
        quantified = not quantifier_free(core)
        context: Optional[SolverContext] = None
        base_failed = False
        if not quantified:
            context = self.solver.context()
            base_failed = not context.assert_base(core)
        edge = _PreparedEdge(
            translation=translation,
            pre_ssa=pre_ssa,
            core=core,
            quantified=quantified,
            context=context,
            base_failed=base_failed,
        )
        self._cache_put(self._prepared_edges, key, edge, cap=self._prepared_edge_cap)
        self.prepare_seconds += time.perf_counter() - started
        return edge

    def _decide_post(
        self, edge: _PreparedEdge, pre: Formula, transition, predicate: Formula
    ) -> bool:
        """One predicate of a batch, with scalar-identical memo behaviour."""
        # Budget fidelity: every decided post is one Hoare-triple check, and
        # both oracles read and write the same triple memo.
        self.num_triple_checks += 1
        if isinstance(predicate, type(TRUE)) and predicate == TRUE:
            return True
        triple_key = (pre, tuple(transition.commands), predicate)
        cached = self._cache_get(self._triple_cache, triple_key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        translation = edge.translation
        post_ssa = rename_to_versions(
            predicate, translation.var_versions, translation.array_versions
        )
        negated = negate(post_ssa)
        if edge.quantified:
            verdict = self._scalar_fallback(edge, negated)
        elif edge.base_failed:
            # The edge cannot fire: {pre} commands {p} holds vacuously.
            verdict = True
        else:
            assumption = resolve_stores(
                skolemize_negative(negated, self._fresh), translation.stores
            )
            if not quantifier_free(assumption):
                verdict = self._scalar_fallback(edge, negated)
            else:
                started = time.perf_counter()
                self.num_batched_posts += 1
                verdict = not edge.context.check(assumption).satisfiable
                self.post_solve_seconds += time.perf_counter() - started
        self._cache_put(self._triple_cache, triple_key, verdict)
        return verdict

    def _scalar_fallback(self, edge: _PreparedEdge, negated: Formula) -> bool:
        """The full quantifier pipeline over the whole obligation.

        Used whenever the core or the (negated) predicate still carries a
        quantifier: hypothesis instantiation draws its index terms from the
        *combined* obligation, so splitting it across the context would
        weaken the check.  The prepared translation is still reused.
        """
        self.num_scalar_fallbacks += 1
        obligation = conjoin(
            [edge.pre_ssa, edge.translation.formula(), negated]
        )
        return self._is_unsat_obligation(obligation, edge.translation)

    def check_entailment(self, lhs: Formula, rhs: Formula) -> bool:
        """``lhs |= rhs`` for state formulas (no commands involved)."""
        return self.check_triple(lhs, (), rhs)

    def holds_initially(self, formula: Formula) -> bool:
        """Does ``formula`` hold in every state (i.e. is it valid)?"""
        return self.check_triple(TRUE, (), formula)

    # ------------------------------------------------------------------
    # Path feasibility
    # ------------------------------------------------------------------
    def is_feasible(
        self, commands: Sequence[Command], pre: Formula = TRUE
    ) -> PathFeasibility:
        """Is there a concrete execution of ``commands`` from a ``pre`` state?"""
        self.num_feasibility_checks += 1
        translation = self._translate(commands)
        pre_ssa = rename_to_versions(pre, {}, {})
        obligation = conjoin([pre_ssa, translation.formula()])
        prepared = self._prepare(obligation, translation)
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
        resolved = resolve_stores(skolemized, translation.stores)
        instantiated = instantiate_positive(resolved)
        return instantiated

    def _is_unsat_obligation(
        self, obligation: Formula, translation: SsaTranslation
    ) -> bool:
        prepared = self._prepare(obligation, translation)
        return self.solver.is_unsat(prepared)
