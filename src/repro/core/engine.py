"""The incremental lazy-abstraction verification engine.

:class:`VerificationEngine` owns everything one verification task needs — the
program, the growing precision, the persistent abstract reachability tree,
the refiner, the exploration strategy and the budgets — and drives the CEGAR
loop through them:

1. *Explore*: advance the persistent ART's frontier under the current
   precision (:meth:`~repro.core.predabs.Art.explore`).
2. *Analyse*: decide feasibility of the abstract counterexample.
3. *Refine*: ask the refiner for new predicates, then *repair* the ART with
   :meth:`~repro.core.predabs.Art.apply_refinement` instead of discarding it
   (pass ``incremental=False`` for the restart-the-world baseline).

Per-iteration statistics record how much work was reused versus recomputed
(`nodes reused`, `post decisions`, repair counters), which is what the
``bench_e8`` benchmark tracks over time.

The module also hosts the worker side of batch runs: :func:`task_payload` is
the one wire format of a task shipped to a worker slot,
:func:`_run_batch_task` runs one there and returns its machine-readable
result document, and :func:`run_engine` is the one place options become an
engine (in-process sessions use it too).
"""

from __future__ import annotations

import pickle
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional, Sequence, Union

from ..lang.ast import FunctionDef
from ..lang.cfg import Program, build_program, program_from_source
from ..logic.formulas import Formula
from ..smt.budget import BudgetExhausted
from ..smt.vcgen import VcChecker
from .cex import CounterexampleAnalysis, analyze_counterexample
from .predabs import Art, Frontier, Precision, make_frontier
from .refiners import PathInvariantRefiner, Refiner, RefinementOutcome

if TYPE_CHECKING:
    from .api import VerifierOptions

__all__ = [
    "Verdict",
    "Budget",
    "IterationRecord",
    "Result",
    "RESULT_SCHEMA_VERSION",
    "VerificationEngine",
    "PortfolioEngine",
    "PortfolioResult",
    "PORTFOLIO_REFINERS",
]

#: Version of the JSON document produced by :meth:`Result.to_json`.  Bump on
#: any breaking change to the key set or value semantics; additive keys keep
#: the version.  The schema itself is documented on :meth:`Result.to_json`.
#: Version 2 adds the optional supervision keys: ``attempts`` (supervised
#: execution count when > 1), ``failure`` (terminal structured failure of a
#: task that exhausted its retries) and ``failures`` (per-attempt history).
RESULT_SCHEMA_VERSION = 2


class Verdict:
    SAFE = "safe"
    UNSAFE = "unsafe"
    UNKNOWN = "unknown"


@dataclass
class Budget:
    """Resource limits of one verification task.

    ``max_refinements`` bounds CEGAR iterations (the problem is undecidable,
    so a bound is required; the baseline refiner in particular diverges by
    design on the paper's examples).  ``max_nodes`` bounds cumulative ART
    nodes, ``max_seconds`` the wall clock, and ``max_solver_calls`` the
    Hoare-triple checks of the run itself, counted from the run's start and
    charged as on a fresh checker: a checker shared with earlier runs
    neither charges their work to this one nor lets their memo entries make
    this one cheaper (:meth:`repro.smt.vcgen.VcChecker.begin_run`).

    The last two are enforced by the checker in every layer
    (:meth:`repro.smt.vcgen.VcChecker.set_budget`): exploration,
    counterexample analysis and refinement all stop where the budget runs
    out, so a run ends within a fraction of a second of ``max_seconds`` and
    never charges more than ``max_solver_calls``.  A trip always ends in
    UNKNOWN with a reason naming the layer it stopped in.
    """

    max_refinements: int = 25
    max_nodes: Optional[int] = 4000
    max_seconds: Optional[float] = None
    max_solver_calls: Optional[int] = None


@dataclass
class IterationRecord:
    """Statistics of one CEGAR iteration."""

    iteration: int
    counterexample_length: int = 0
    counterexample_feasible: Optional[bool] = None
    refinement: Optional[RefinementOutcome] = None
    seconds: float = 0.0
    #: Checker/solver counters of the run up to the end of the iteration,
    #: counted from the run's start (the VcChecker memoises queries across
    #: iterations and may have served earlier runs; deltas between
    #: consecutive records show what each round actually cost).
    solver_stats: Optional[dict[str, int]] = None
    #: Abstract-post decisions requested by reachability this iteration.
    post_decisions: int = 0
    #: ART nodes created this iteration.
    nodes_created: int = 0
    #: Repair counters of the refinement closing this iteration
    #: (``rechecked`` / ``reused`` / ``strengthened`` / ``invalidated``);
    #: None on the restart baseline and on iterations without a refinement.
    repair: Optional[dict[str, int]] = None
    #: Pending frontier obligations when the iteration was sealed — the
    #: divergence monitor's "is the abstract frontier shrinking?" signal.
    frontier_size: int = 0
    #: Total predicates tracked across all locations at the end of the
    #: iteration (cumulative precision size).
    predicates_total: int = 0


@dataclass
class Result:
    """Final outcome of a verification run (the unified result type).

    Every entry point — :func:`repro.verify`, :class:`VerificationEngine`,
    :class:`PortfolioEngine`, :class:`repro.core.api.Session` — produces a
    ``Result`` (or its :class:`PortfolioResult` subclass).  :meth:`to_json`
    renders the versioned machine-readable document shared by the CLI,
    :meth:`~repro.core.api.Session.run_many`, the daemon and the benchmark
    harness.
    """

    verdict: str
    program: Program
    iterations: list[IterationRecord] = field(default_factory=list)
    precision: Optional[Precision] = None
    counterexample: Optional[CounterexampleAnalysis] = None
    reason: str = ""
    total_seconds: float = 0.0
    #: Engine-level reuse counters (strategy, incremental flag, cumulative
    #: ART statistics); None for results not produced by the engine.
    engine_stats: Optional[dict[str, Any]] = None
    #: Supervised execution count (1 = first attempt succeeded; > 1 means
    #: the task was retried after worker crashes/hangs).
    attempts: int = 1
    #: Terminal structured failure record of a supervised task that
    #: exhausted its retries (see :func:`repro.core.supervision.failure_doc`).
    failure: Optional[dict[str, Any]] = None

    @property
    def is_safe(self) -> bool:
        return self.verdict == Verdict.SAFE

    @property
    def is_unsafe(self) -> bool:
        return self.verdict == Verdict.UNSAFE

    @property
    def num_refinements(self) -> int:
        return sum(1 for record in self.iterations if record.refinement is not None)

    def total_predicates(self) -> int:
        return self.precision.total_predicates() if self.precision else 0

    def post_decisions(self) -> int:
        """Abstract-post decisions requested across the whole run."""
        return sum(record.post_decisions for record in self.iterations)

    def nodes_reused(self) -> int:
        """ART nodes that survived a repair (work a restart would redo).

        Summed over all repairs: a node retained across ``k`` refinements
        counts ``k`` times, because a restart engine would re-derive it
        ``k`` times.
        """
        return sum(
            record.repair.get("retained", 0)
            for record in self.iterations
            if record.repair is not None
        )

    def summary(self) -> str:
        lines = [
            f"program:      {self.program.name}",
            f"verdict:      {self.verdict}",
            f"iterations:   {len(self.iterations)}",
            f"refinements:  {self.num_refinements}",
            f"predicates:   {self.total_predicates()}",
            f"time:         {self.total_seconds:.2f}s",
        ]
        if self.engine_stats:
            lines.append(
                "art:          "
                f"{self.engine_stats.get('nodes_created', 0)} nodes created, "
                f"{self.engine_stats.get('nodes_reused', 0)} reused, "
                f"{self.engine_stats.get('nodes_invalidated', 0)} invalidated, "
                f"{self.post_decisions()} post decisions "
                f"({self.engine_stats.get('strategy', '?')}, "
                f"{'incremental' if self.engine_stats.get('incremental') else 'restart'})"
            )
        if self.iterations and self.iterations[-1].solver_stats:
            stats = self.iterations[-1].solver_stats
            lines.append(
                "solver:       "
                f"{stats.get('sat_queries', 0)} sat queries, "
                f"{stats.get('cache_hits', 0)} cache hits, "
                f"{stats.get('splits', 0)} splits, "
                f"{stats.get('triple_cache_hits', 0)} triple cache hits"
            )
            if stats.get("prepare_calls") or stats.get("context_checks"):
                lines.append(
                    "post oracle:  "
                    f"{stats.get('prepare_calls', 0)} edges prepared, "
                    f"{stats.get('context_reuses', 0)} context reuses, "
                    f"{stats.get('batched_posts', 0)} batched checks, "
                    f"{stats.get('scalar_fallbacks', 0)} scalar fallbacks"
                )
        if self.reason:
            lines.append(f"reason:       {self.reason}")
        return "\n".join(lines)

    def to_json(self, name: Optional[str] = None) -> dict[str, Any]:
        """The versioned JSON-serialisable view of this result.

        Schema (version ``RESULT_SCHEMA_VERSION``):

        ======================  ================================================
        key                     value
        ======================  ================================================
        ``schema_version``      integer schema version (currently 2)
        ``name``                task name (defaults to the program name)
        ``verdict``             ``safe`` / ``unsafe`` / ``unknown`` / ``error``
        ``reason``              human-readable reason for non-decided verdicts
        ``iterations``          number of CEGAR iterations
        ``refinements``         iterations that ended in a refinement
        ``predicates``          total predicates in the final precision
        ``seconds``             wall-clock time of the run
        ``post_decisions``      abstract-post decisions requested
        ``nodes_reused``        ART nodes retained across refinement repairs
        ``engine``              engine counters (strategy, incremental, ART
                                statistics, warm-start provenance when run
                                through a :class:`~repro.core.api.Session`)
        ``per_iteration``       one record per iteration (nodes, posts,
                                counterexample length/feasibility, repair)
        ``witness``             (unsafe only) the counterexample's model of
                                the program's (SSA) variables as strings;
                                ``{}`` when the failing path needs no input
                                values
        ``solver``              solver/checker counters of this run
        ``portfolio``           (portfolio only) mode (always
                                ``round-robin``), winner, per-arm reports
        ``attempts``            (supervised, optional) execution count when
                                the task was retried (> 1)
        ``failure``             (supervised, optional) terminal structured
                                failure record of a task that exhausted its
                                retries: kind / message / attempt / elapsed
        ``failures``            (supervised, optional) per-attempt failure
                                history of a retried task
        ======================  ================================================
        """
        payload: dict[str, Any] = {
            "schema_version": RESULT_SCHEMA_VERSION,
            "name": name or self.program.name,
            "verdict": self.verdict,
            "reason": self.reason,
            "iterations": len(self.iterations),
            "refinements": self.num_refinements,
            "predicates": self.total_predicates(),
            "seconds": round(self.total_seconds, 6),
            "post_decisions": self.post_decisions(),
            "nodes_reused": self.nodes_reused(),
            "engine": self.engine_stats,
            "per_iteration": [
                {
                    "iteration": record.iteration,
                    "nodes_created": record.nodes_created,
                    "post_decisions": record.post_decisions,
                    "counterexample_length": record.counterexample_length,
                    "counterexample_feasible": record.counterexample_feasible,
                    "new_predicates": (
                        record.refinement.new_predicates if record.refinement else 0
                    ),
                    "repair": record.repair,
                    "seconds": round(record.seconds, 6),
                }
                for record in self.iterations
            ],
        }
        if self.attempts != 1:
            payload["attempts"] = self.attempts
        if self.failure is not None:
            payload["failure"] = self.failure
        if self.counterexample is not None and self.counterexample.model is not None:
            # Solver-made names (read values, flattened reads) carry a '#',
            # which the lexer rejects: they are never program variables.
            payload["witness"] = {
                str(var): str(value)
                for var, value in self.counterexample.model.items()
                if "#" not in var.name
            }
        if self.iterations and self.iterations[-1].solver_stats:
            payload["solver"] = self.iterations[-1].solver_stats
        if isinstance(self, PortfolioResult):
            payload["portfolio"] = {
                "mode": "round-robin",
                "winner": self.winner,
                "arms": self.arms,
            }
        return payload


class VerificationEngine:
    """Counterexample-guided abstraction refinement over a persistent ART."""

    def __init__(
        self,
        program: Union[str, FunctionDef, Program],
        refiner: Optional[Refiner] = None,
        checker: Optional[VcChecker] = None,
        strategy: Union[str, Frontier] = "bfs",
        budget: Optional[Budget] = None,
        incremental: bool = True,
    ) -> None:
        if isinstance(program, str):
            program = program_from_source(program)
        elif isinstance(program, FunctionDef):
            program = build_program(program)
        self.program = program
        self.checker = checker or VcChecker()
        self.refiner = refiner if refiner is not None else PathInvariantRefiner(self.checker)
        self.budget = budget or Budget()
        self.incremental = incremental
        #: Checker statistics the solver budget and each record's
        #: ``solver_stats`` count from.  ``None`` starts a run on the checker
        #: and snapshots it at every fresh run; the portfolio starts the run
        #: and pins one snapshot for all its arms, so they share one budget
        #: from the portfolio's start.
        self.counters_origin: Optional[dict[str, float]] = None
        self._origin: dict[str, float] = {}
        if isinstance(strategy, Frontier):
            # A frontier instance is consumed by the first tree only; later
            # fresh trees (restart mode, repeated run()) get a new frontier —
            # sharing one would leak obligations of a discarded tree.
            self.strategy_name = strategy.name
            self._given_frontier: Optional[Frontier] = strategy
        else:
            self.strategy_name = strategy
            self._given_frontier = None
            make_frontier(strategy, self.program)  # fail fast on unknown names
        self.art: Optional[Art] = None
        self._precision: Optional[Precision] = None
        self._iterations: list[IterationRecord] = []
        self._elapsed = 0.0
        self._last_result: Optional[Result] = None

    # ------------------------------------------------------------------
    @property
    def refinements_done(self) -> int:
        """Refinements performed so far (across resumed runs)."""
        return sum(1 for record in self._iterations if record.refinement is not None)

    @property
    def elapsed_seconds(self) -> float:
        """Wall-clock time consumed so far (across resumed runs)."""
        return self._elapsed

    def run(
        self, initial_precision: Optional[Precision] = None, resume: bool = False
    ) -> Result:
        """Drive the CEGAR loop to a verdict (or a tripped budget).

        With ``resume=True`` the engine continues from its previous state —
        the persistent ART, the grown precision and the iteration history all
        carry over, and the budget counts *cumulative* consumption (raise a
        budget field between calls to grant more).  This is how the portfolio
        layer runs each refiner in time slices.  Without prior state (or with
        ``resume=False``, the default) a fresh run starts.
        """
        start = time.perf_counter()
        if resume and self._last_result is not None and self._last_result.verdict in (
            Verdict.SAFE,
            Verdict.UNSAFE,
        ):
            return self._last_result  # the verdict is final; nothing to resume
        if not (resume and self.art is not None):
            if initial_precision is None:
                self._precision = Precision()
            else:
                self._precision = initial_precision.copy()
            self._iterations = []
            self._elapsed = 0.0
            if self.counters_origin is not None:
                self._origin = self.counters_origin
            else:
                self.checker.begin_run()
                self._origin = self.checker.statistics()
            self.art = self._fresh_art()
        precision = self._precision
        iterations = self._iterations
        deadline = None
        if self.budget.max_seconds is not None:
            deadline = start + max(self.budget.max_seconds - self._elapsed, 0.0)
        max_calls = self.budget.max_solver_calls
        self.checker.set_budget(deadline, max_calls)
        try:
            while True:
                iteration_start = time.perf_counter()
                posts_before = self.art.post_decisions
                created_before = self.art.nodes_created
                outcome = self.art.explore(precision, self.budget.max_nodes)
                record = IterationRecord(len(iterations))
                iterations.append(record)

                def seal(
                    record: IterationRecord = record,
                    started: float = iteration_start,
                    art: Art = self.art,
                    posts_before: int = posts_before,
                    created_before: int = created_before,
                ) -> None:
                    record.seconds = time.perf_counter() - started
                    record.solver_stats = self.checker.delta_since(self._origin)
                    record.post_decisions = art.post_decisions - posts_before
                    record.nodes_created = art.nodes_created - created_before
                    record.frontier_size = len(art.frontier)
                    record.predicates_total = precision.total_predicates()

                def unknown(reason: str) -> Result:
                    # An analysed-but-unrefined counterexample goes back on
                    # the frontier so a resumed run re-derives and refines
                    # it (leaving the error node would let coverage drain
                    # the frontier around it, which is unsound).
                    self.art.drop_error_node()
                    seal()
                    return self._finish(
                        Verdict.UNKNOWN, precision, iterations, start, reason=reason
                    )

                if outcome.exhausted:
                    return unknown(
                        f"abstract reachability stopped: {outcome.exhausted_reason}"
                    )
                if outcome.counterexample is None:
                    seal()
                    return self._finish(Verdict.SAFE, precision, iterations, start)

                path = outcome.counterexample
                record.counterexample_length = len(path)
                try:
                    analysis = analyze_counterexample(path, self.checker)
                except BudgetExhausted as trip:
                    return unknown(f"counterexample analysis stopped: {trip.reason}")
                record.counterexample_feasible = analysis.feasible
                if analysis.feasible:
                    seal()
                    result = self._finish(Verdict.UNSAFE, precision, iterations, start)
                    result.counterexample = analysis
                    if analysis.approximate:
                        result.reason = "feasibility decided with an approximate integer check"
                    return result

                if self.refinements_done >= self.budget.max_refinements:
                    return unknown(
                        f"refinement budget of {self.budget.max_refinements} exhausted"
                    )

                mark = precision.mark()
                try:
                    # Refiners add predicates only once synthesis is done, so
                    # a trip leaves the precision untouched.
                    refinement = self.refiner.refine(self.program, path, precision)
                except BudgetExhausted as trip:
                    return unknown(f"refinement stopped: {trip.reason}")
                record.refinement = refinement
                if not refinement.progress:
                    return unknown(
                        f"refinement made no progress: {refinement.description}"
                    )
                if self.incremental:
                    # Repair ignores the wall clock, so the tree stays
                    # consistent: its cost is bounded by max_nodes, and the
                    # next explore trips.  A solver-call trip cannot be
                    # waited out, so it replaces the half-repaired tree with
                    # a fresh one, as restart mode would.
                    self.checker.set_budget(None, max_calls)
                    try:
                        record.repair = self.art.apply_refinement(
                            precision, precision.added_since(mark)
                        )
                    except BudgetExhausted as trip:
                        result = unknown(f"ART repair stopped: {trip.reason}")
                        self.art = self._fresh_art()
                        return result
                    finally:
                        self.checker.set_budget(deadline, max_calls)
                else:
                    self.art = self._fresh_art()
                seal()
        finally:
            self.checker.set_budget(None, None)

    # ------------------------------------------------------------------
    def _fresh_art(self) -> Art:
        frontier, self._given_frontier = self._given_frontier, None
        if frontier is None:
            try:
                frontier = make_frontier(self.strategy_name, self.program)
            except ValueError:
                raise ValueError(
                    f"cannot build a fresh {self.strategy_name!r} frontier for a new "
                    "tree; custom Frontier instances support a single tree only"
                ) from None
        return Art(self.program, self.checker, frontier)

    def _finish(
        self,
        verdict: str,
        precision: Precision,
        iterations: list[IterationRecord],
        start: float,
        reason: str = "",
    ) -> Result:
        engine_stats: dict[str, Any] = {
            "strategy": self.strategy_name,
            "incremental": self.incremental,
        }
        if self.art is not None:
            art_stats = self.art.statistics()
            engine_stats.update(art_stats)
            # Normalise reuse to the result-level definition: nodes retained
            # across repairs (each retention is work a restart would redo).
            engine_stats["nodes_reused"] = sum(
                r.repair.get("retained", 0) for r in iterations if r.repair is not None
            )
            if not self.incremental:
                # The restart baseline discards trees; report run-wide totals
                # instead of the last tree's counters.
                engine_stats["nodes_created"] = sum(r.nodes_created for r in iterations)
                engine_stats["post_decisions"] = sum(r.post_decisions for r in iterations)
        self._elapsed += time.perf_counter() - start
        result = Result(
            verdict=verdict,
            program=self.program,
            iterations=iterations,
            precision=precision,
            reason=reason,
            total_seconds=self._elapsed,
            engine_stats=engine_stats,
        )
        self._last_result = result
        return result


# ----------------------------------------------------------------------
# The portfolio layer: refiners sharing one budget, with divergence detection
# ----------------------------------------------------------------------
#: The refiners the portfolio runs by default: the paper's path-invariant
#: refinement first, the classic path-formula baseline as the complement.
PORTFOLIO_REFINERS = ("path-invariant", "path-formula")


@dataclass
class PortfolioResult(Result):
    """A :class:`Result` plus the portfolio's per-refiner breakdown.

    The base fields describe the *winning* arm.  ``arms`` holds one report
    per refiner: verdict, resource consumption, divergence verdict and the
    scheduling status (``won`` / ``lost`` / ``demoted`` / ``no-progress`` /
    ``exhausted`` / ``idle``).
    """

    winner: Optional[str] = None
    arms: list[dict[str, Any]] = field(default_factory=list)

    def summary(self) -> str:
        lines = [super().summary(), f"portfolio:    winner={self.winner or '-'}"]
        for arm in self.arms:
            divergence = arm.get("divergence") or {}
            marker = "diverging" if divergence.get("diverging") else arm.get("budget_class", "")
            lines.append(
                f"  {arm['refiner']:15s} {arm.get('status', '?'):11s} "
                f"{arm.get('verdict', '?'):8s} {arm.get('refinements', 0):2d} refinements "
                f"{arm.get('seconds', 0.0):6.2f}s"
                + (f"  [{marker}]" if marker else "")
            )
        return "\n".join(lines)


class _PortfolioArm:
    """Round-robin bookkeeping for one refiner's engine."""

    def __init__(self, name: str, engine: VerificationEngine, monitor) -> None:
        self.name = name
        self.engine = engine
        self.monitor = monitor
        self.status = "active"
        self.result: Optional[Result] = None
        self._observed = 0

    def feed_monitor(self) -> None:
        """Digest iteration records produced since the last slice."""
        records = self.engine._iterations
        for record in records[self._observed:]:
            self.monitor.observe(record)
        self._observed = len(records)


class PortfolioEngine:
    """Runs several refiners over the same program under one budget.

    The portfolio exploits refiner *complementarity*: path-invariant
    refinement succeeds exactly where path-formula refinement diverges (and
    the cheap path-formula refiner wins on programs whose proofs need no loop
    invariant), so running both under one budget removes the need for the
    user to pick a ``--refiner`` flag.

    The arms run in-process, round-robin: each refiner keeps a resumable
    :class:`VerificationEngine` (all sharing one memoised checker, so arms
    reuse each other's abstract-post verdicts) and receives budget slices in
    turn — ``slice_refinements`` refinements each, and with ``max_seconds``
    an even share of the wall clock left.  A per-arm
    :class:`~repro.core.refiners.DivergenceMonitor` watches refinement
    trajectories; a stalling arm is *demoted* and its remaining budget flows
    to the surviving arms.  The budget is a *total* across arms
    (``max_refinements``, ``max_seconds`` and ``max_solver_calls`` are shared
    pools; ``max_nodes`` bounds each arm's own tree), and the checker
    enforces the wall clock and the solver calls inside every slice, so the
    portfolio ends within ``max_seconds`` like a single engine.
    """

    def __init__(
        self,
        program: Union[str, FunctionDef, Program],
        refiners: Sequence[Union[str, Refiner]] = PORTFOLIO_REFINERS,
        strategy: str = "bfs",
        budget: Optional[Budget] = None,
        checker: Optional[VcChecker] = None,
        slice_refinements: int = 2,
        monitor_window: int = 3,
        initial_precision: Optional[Precision] = None,
    ) -> None:
        if isinstance(program, str):
            program = program_from_source(program)
        elif isinstance(program, FunctionDef):
            program = build_program(program)
        self.program = program
        if not refiners:
            raise ValueError("a portfolio needs at least one refiner")
        from .verifier import make_refiner

        for entry in refiners:  # fail fast on unknown refiner names
            if isinstance(entry, str):
                make_refiner(entry)
        self.refiners = tuple(refiners)
        self.refiner_names = tuple(
            entry if isinstance(entry, str) else entry.name for entry in refiners
        )
        self.strategy_name = strategy
        make_frontier(strategy, self.program)  # fail fast on unknown names
        self.budget = budget or Budget()
        self.checker = checker or VcChecker()
        self.slice_refinements = max(1, slice_refinements)
        self.monitor_window = monitor_window
        #: Optional seed precision every arm warm-starts from (each arm still
        #: grows its own copy).  Seeding never changes a decided verdict —
        #: predicates only refine the abstraction — it just lets an arm skip
        #: refinement rounds a previous run already paid for.
        self.initial_precision = initial_precision

    # ------------------------------------------------------------------
    def run(self) -> PortfolioResult:
        """Round-robin the arms until one decides or the shared pools drain."""
        from .refiners import DivergenceMonitor
        from .verifier import make_refiner

        start = time.perf_counter()
        deadline = (
            start + self.budget.max_seconds if self.budget.max_seconds is not None else None
        )
        # Every arm counts its solver budget and statistics from here: the
        # pools are portfolio totals, not per-arm or per-checker-lifetime.
        self.checker.begin_run()
        origin = self.checker.statistics()
        arms = []
        for name, entry in zip(self.refiner_names, self.refiners):
            engine = VerificationEngine(
                self.program,
                refiner=entry if isinstance(entry, Refiner) else make_refiner(entry, self.checker),
                checker=self.checker,
                strategy=self.strategy_name,
                budget=Budget(
                    max_refinements=0,  # granted slice by slice below
                    max_nodes=self.budget.max_nodes,
                    max_seconds=None,
                    # The checker is shared, so this is a portfolio-total pool.
                    max_solver_calls=self.budget.max_solver_calls,
                ),
            )
            engine.counters_origin = origin
            arms.append(_PortfolioArm(name, engine, DivergenceMonitor(self.monitor_window)))

        winner: Optional[_PortfolioArm] = None
        while winner is None:
            active = [arm for arm in arms if arm.status == "active"]
            if not active:
                break
            if deadline is not None and time.perf_counter() >= deadline:
                break
            progressed = False
            for arm in active:
                if arm.status != "active":
                    continue
                rivals = any(a is not arm and a.status == "active" for a in arms)
                remaining = max(
                    self.budget.max_refinements
                    - sum(a.engine.refinements_done for a in arms),
                    0,
                )
                slice_r = remaining if not rivals else min(self.slice_refinements, remaining)
                arm.engine.budget.max_refinements = (
                    arm.engine.refinements_done + slice_r
                )
                if deadline is not None:
                    remaining_wall = max(deadline - time.perf_counter(), 0.0)
                    slice_wall = (
                        remaining_wall if not rivals else remaining_wall / len(active)
                    )
                    arm.engine.budget.max_seconds = (
                        arm.engine.elapsed_seconds + slice_wall
                    )
                before = arm.engine.refinements_done
                work_before = self.checker.charged_checks
                # initial_precision only takes effect on the arm's first
                # slice (before its tree exists); resumed slices ignore it.
                arm.result = arm.engine.run(
                    initial_precision=self.initial_precision, resume=True
                )
                arm.feed_monitor()
                # Progress is either a refinement or genuine new solver work
                # (a wall-sliced arm mid-exploration).  Cache-hit-only sweeps
                # (re-deriving the same counterexample against drained
                # budgets) count as no progress, which terminates the loop.
                if (
                    arm.engine.refinements_done > before
                    or self.checker.charged_checks > work_before
                ):
                    progressed = True
                if arm.result.verdict in (Verdict.SAFE, Verdict.UNSAFE):
                    arm.status = "won"
                    winner = arm
                    break
                if "no progress" in arm.result.reason:
                    arm.status = "no-progress"
                    progressed = True
                    continue
                # A tripped budget: demote a diverging arm (its remaining
                # budget flows to the rivals via the shared pools), retire an
                # arm whose non-replenishable budget (nodes, solver) is gone.
                if arm.monitor.verdict().diverging and rivals:
                    arm.status = "demoted"
                    progressed = True
                elif "node budget" in arm.result.reason or "solver budget" in arm.result.reason:
                    arm.status = "exhausted"
                    progressed = True
            if winner is None and not progressed:
                break

        total_seconds = time.perf_counter() - start
        for arm in arms:
            if arm.status != "active":
                continue
            # The loop ended with this arm intact: it never got a slice, a
            # rival won first, or the shared pools drained.
            if arm.result is None:
                arm.status = "idle"
            elif winner is not None:
                arm.status = "lost"
            else:
                arm.status = "exhausted"
        reports = [self._arm_report(arm) for arm in arms]
        if winner is not None:
            base = winner.result
            result = PortfolioResult(
                verdict=base.verdict,
                program=self.program,
                iterations=base.iterations,
                precision=base.precision,
                counterexample=base.counterexample,
                reason=base.reason,
                total_seconds=total_seconds,
                engine_stats=dict(base.engine_stats or {}),
                winner=winner.name,
                arms=reports,
            )
        else:
            result = PortfolioResult(
                verdict=Verdict.UNKNOWN,
                program=self.program,
                total_seconds=total_seconds,
                reason="portfolio exhausted: " + "; ".join(
                    f"{report['refiner']}: {report.get('reason') or report['status']}"
                    f" [{report['budget_class']}]"
                    for report in reports
                ),
                engine_stats={"strategy": self.strategy_name, "incremental": True},
                winner=None,
                arms=reports,
            )
        result.engine_stats["winner"] = result.winner
        return result

    def _arm_report(self, arm: _PortfolioArm) -> dict[str, Any]:
        engine = arm.engine
        divergence = arm.monitor.verdict()
        decided = arm.result is not None and arm.result.verdict in (
            Verdict.SAFE,
            Verdict.UNSAFE,
        )
        report = {
            "refiner": arm.name,
            "status": arm.status,
            "verdict": arm.result.verdict if arm.result is not None else Verdict.UNKNOWN,
            "reason": arm.result.reason if arm.result is not None else "never scheduled",
            "seconds": round(engine.elapsed_seconds, 6),
            "iterations": len(engine._iterations),
            "refinements": engine.refinements_done,
            "predicates": (
                engine._precision.total_predicates() if engine._precision else 0
            ),
            "post_decisions": (
                arm.result.post_decisions() if arm.result is not None else 0
            ),
            "divergence": divergence.to_dict(),
            "budget_class": "decided" if decided else arm.monitor.classify_budget_trip(),
        }
        return report


# ----------------------------------------------------------------------
# Batch verification
# ----------------------------------------------------------------------
def error_doc(name: str, error: Exception) -> dict[str, Any]:
    """A schema-conformant error document for a task that never produced a
    :class:`Result` (parse failure, worker crash); keeps ``schema_version``
    uniform across every doc a batch returns."""
    return {
        "schema_version": RESULT_SCHEMA_VERSION,
        "name": name,
        "verdict": "error",
        "reason": repr(error),
    }


class WarmChecker:
    """The one :class:`VcChecker` a persistent worker process keeps across
    the tasks it serves (see :class:`repro.core.supervision.WorkerSlot`).

    Obligations that recur across tasks served by the same worker — a
    resubmitted program, programs sharing edges and predicates — are then
    answered from the checker's memo tables instead of re-proved.  Worker
    memory stays bounded by a fixed cap rather than an option: after a task,
    once the checker's memo tables plus its solver's hold more than
    :attr:`CAP` entries, the holder starts over with a fresh checker and
    clears the hash-consing tables the old one kept alive — but carries over
    the edge and post verdicts that the most recent tasks asked for, at most
    ``CAP // 2`` of them (the run ledger,
    :meth:`~repro.smt.vcgen.VcChecker.asked_keys`, names them at no cost per
    query).  Obligations that keep recurring therefore survive every
    recycle: a worker does not go cold again after its first requests, and
    its speed does not swing with how long ago it last recycled.  Within one
    task the tables grow only as far as that task's budget lets them,
    exactly as on a fresh checker.

    The holder also keeps the :class:`~repro.lang.cfg.Program` it built for
    each of its :attr:`PROGRAMS` most recently run sources (:meth:`program`),
    so a resubmitted source is not parsed again and its memo lookups find
    the very same transition objects.  One program thus serves many runs:
    nothing may mutate a :class:`~repro.lang.cfg.Program`.  A kept program
    holds terms of the current hash-consing tables, so a recycle drops the
    kept programs in the same step that clears those tables.
    """

    #: Memo-table entries a warm checker may carry from one task to the next
    #: (on a half-repeat, half-fresh request stream a worker adds ~16 per
    #: request, so it recycles about every 1,000 requests and peaks near
    #: 63 MB resident).
    CAP = 20_000
    #: Programs kept for the most recently run distinct sources (a program
    #: of the daemon benchmark's size costs ~5 KB beyond its source text).
    PROGRAMS = 64

    def __init__(self) -> None:
        #: Times the holder started over with a fresh checker.
        self.recycles = 0
        self.checker = VcChecker()
        #: The edge/post keys recent tasks asked for, newest last, at most
        #: ``CAP // 2`` in all: what a recycle carries over.
        self._recent: deque[set] = deque()
        self._recent_keys = 0
        #: Source text -> the program built from it, least recently run first.
        self._programs: dict[str, Program] = {}

    def program(self, source: str) -> Program:
        """The program of ``source``: the one built for an earlier task while
        ``source`` is among the :attr:`PROGRAMS` most recent, else a new one."""
        program = self._programs.pop(source, None)
        if program is None:
            program = program_from_source(source)
        self._programs[source] = program
        if len(self._programs) > self.PROGRAMS:
            del self._programs[next(iter(self._programs))]
        return program

    def entries(self) -> int:
        """Entries across the checker's and its solver's memo tables."""
        sizes = self.checker.cache_sizes()
        sizes.pop("evictions")
        return sum(sizes.values())

    def release(self) -> None:
        """End of a task: note what it asked; recycle if past the cap."""
        asked = self.checker.asked_keys()
        if asked:
            self._recent.append(asked)
            self._recent_keys += len(asked)
            while self._recent_keys > self.CAP // 2:
                self._recent_keys -= len(self._recent.popleft())
        if self.entries() > self.CAP:
            from ..logic import clear_intern_caches

            carried = self.checker.memo_verdicts(set().union(*self._recent))
            clear_intern_caches()
            self._programs.clear()
            # The round trip re-interns the carried keys into the fresh
            # tables, so later tasks hit them by identity, not by structure.
            self.checker = VcChecker()
            self.checker.install_verdicts(*pickle.loads(pickle.dumps(carried)))
            self.recycles += 1


#: The worker-process checker holder; ``None`` (a fresh checker per task)
#: unless this process is a persistent worker (:func:`install_warm_checker`).
_WARM_CHECKER: Optional[WarmChecker] = None


def install_warm_checker() -> None:
    """Initializer of the daemon's slot workers: keep one bounded checker
    warm for every task this process runs.  Nothing else runs it, so batch
    workers and in-process ``jobs=1`` batches keep a fresh checker per
    task."""
    global _WARM_CHECKER
    _WARM_CHECKER = WarmChecker()


def run_engine(
    program: Program,
    options: "VerifierOptions",
    checker: VcChecker,
    seed: Optional[Precision] = None,
    refiner: Optional[Refiner] = None,
) -> Result:
    """Run ``program`` under ``options`` on ``checker`` — the one place a
    :class:`~repro.core.api.VerifierOptions` becomes an engine.

    ``seed`` is a warm-start precision bound to ``program``'s locations.
    ``refiner`` pins a concrete refiner instance (which bypasses the
    portfolio).
    """
    if refiner is None and options.refiner == "portfolio":
        return PortfolioEngine(
            program,
            strategy=options.strategy,
            budget=options.budget(),
            checker=checker,
            initial_precision=seed,
        ).run()
    if refiner is None:
        from .verifier import make_refiner

        refiner = make_refiner(options.refiner, checker)
    engine = VerificationEngine(
        program,
        refiner=refiner,
        checker=checker,
        strategy=options.strategy,
        budget=options.budget(),
    )
    return engine.run(initial_precision=seed)


def task_payload(
    name: str,
    source: str,
    options: "VerifierOptions",
    seed: Optional[dict[str, Sequence[Formula]]] = None,
) -> dict[str, Any]:
    """The one wire format of a task shipped to a worker.

    ``seed`` is a warm-start precision keyed by location name (formulas
    pickle and re-intern on load).  :func:`_run_batch_task` reads it back.
    """
    return {"name": name, "source": source, "options": options.to_dict(), "seed": seed}


def _run_batch_task(payload: dict[str, Any]) -> dict[str, Any]:
    """Slot worker: verify one :func:`task_payload` and return its doc.

    Module-level so it pickles; builds everything from primitives because
    Program/VcChecker instances do not cross process boundaries.  Runs on
    the worker's warm checker when it has one, reusing the program it built
    for an earlier task on the same source (:meth:`WarmChecker.program`),
    else parses the source and runs on a fresh checker.  The doc carries
    the discovered precision home under ``_precision``.
    """
    from .api import VerifierOptions

    warm = _WARM_CHECKER
    checker = warm.checker if warm is not None else VcChecker()
    try:
        options = VerifierOptions.from_dict(payload["options"])
        source = payload["source"]
        program = (
            warm.program(source) if warm is not None else program_from_source(source)
        )
        seed = None
        if payload["seed"]:
            seed = Precision.from_location_names(program, payload["seed"])
        result = run_engine(program, options, checker, seed)
        doc = result.to_json(name=payload["name"])
        if result.precision is not None and result.verdict in (
            Verdict.SAFE,
            Verdict.UNSAFE,
        ):
            # Pickled formulas, not JSON: the receiver pops this key, rebinds
            # or banks the predicates, and never lets it reach json.dumps.
            # Undecided precisions stay in the worker — the receiver would
            # only drop them, so serialising the flood would be pure waste.
            doc["_precision"] = result.precision.by_location_name()
        return doc
    except Exception as error:  # pragma: no cover - defensive per-task isolation
        return error_doc(payload["name"], error)
    finally:
        if warm is not None:
            warm.release()
