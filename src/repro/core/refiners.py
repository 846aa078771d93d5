"""Abstraction refinement strategies.

Two refiners are provided:

* :class:`PathFormulaRefiner` — the baseline the paper argues against.  It
  derives new predicates from the infeasible path itself: atoms of the guards
  along the path plus the constant valuations obtained by propagating the
  assignments of the path ("a possible set of such predicates is
  ``{i=0, i=1, a=0, a=1, b=0, b=2}``", Section 2.1).  Each refinement
  eliminates the current counterexample, but loops are unrolled one
  counterexample at a time, so the loop diverges on FORWARD/INITCHECK.

* :class:`PathInvariantRefiner` — the paper's contribution.  The infeasible
  path is generalised to its path program, the path-invariant synthesizer
  computes an inductive safe invariant map for it, and the per-location
  assertions of the map become the new predicates.  One refinement removes
  every counterexample that stays within the path program (Theorem 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..lang.cfg import Location, Program, Transition
from ..lang.commands import Assign, Assume, Command, Havoc
from ..logic.formulas import Atom, Formula, Relation, conjuncts, eq
from ..logic.terms import LinExpr, Rat, Var
from ..invgen.synthesize import PathInvariantSynthesizer, SynthesisResult
from ..smt.vcgen import VcChecker
from .pathprogram import PathProgram, build_path_program
from .predabs import Precision

__all__ = [
    "RefinementOutcome",
    "Refiner",
    "PathFormulaRefiner",
    "PathInvariantRefiner",
    "DivergenceVerdict",
    "DivergenceMonitor",
]


@dataclass
class RefinementOutcome:
    """New predicates discovered by a refinement step."""

    progress: bool
    new_predicates: int = 0
    description: str = ""
    path_program: Optional[PathProgram] = None
    synthesis: Optional[SynthesisResult] = None
    #: Locations that actually gained a predicate (the pivots of the repair);
    #: the divergence monitor watches whether these keep repeating.
    pivot_locations: frozenset[Location] = frozenset()


class Refiner:
    """Interface of refinement strategies."""

    name = "abstract"

    def refine(
        self, program: Program, path: Sequence[Transition], precision: Precision
    ) -> RefinementOutcome:
        raise NotImplementedError


# ----------------------------------------------------------------------
# Baseline: predicates from the finite path
# ----------------------------------------------------------------------
class PathFormulaRefiner(Refiner):
    """Classic CEGAR refinement from the path formula of the counterexample."""

    name = "path-formula"

    def refine(
        self, program: Program, path: Sequence[Transition], precision: Precision
    ) -> RefinementOutcome:
        # Collect predicates from the path formula: constant valuations
        # obtained by propagating the assignments of the path, guard atoms
        # with the known constants substituted in (the atoms of the
        # unsatisfiability proof of the path formula), and the assertion
        # atoms.  As in BLAST, the predicates are tracked at every location
        # touched by the path rather than point-wise.
        predicates: list[Formula] = []
        constants: dict[str, Rat] = {}
        for transition in path:
            for command in transition.commands:
                if isinstance(command, Assume):
                    substitution = {
                        Var(name): LinExpr.constant(value)
                        for name, value in constants.items()
                    }
                    for atom in command.cond.atoms():
                        if atom.rel is Relation.NE:
                            atom = Atom(atom.expr, Relation.EQ)
                        specialised = atom.substitute(substitution)
                        if isinstance(specialised, Atom) and not specialised.is_trivially_true():
                            predicates.append(specialised)
                        predicates.append(atom)
                constants = _propagate_constants(constants, command)
            for name, value in constants.items():
                if not name.startswith("__"):
                    predicates.append(eq(LinExpr.variable(name), LinExpr.constant(value)))

        locations = {transition.source for transition in path} | {
            transition.target for transition in path
        }
        locations.discard(program.error)
        added = 0
        pivots: set[Location] = set()
        for location in locations:
            for predicate in predicates:
                if precision.add(location, predicate):
                    added += 1
                    pivots.add(location)
        return RefinementOutcome(
            progress=added > 0,
            new_predicates=added,
            description=f"{added} predicates from the path formula",
            pivot_locations=frozenset(pivots),
        )


def _propagate_constants(
    constants: dict[str, Rat], command: Command
) -> dict[str, Rat]:
    result = dict(constants)
    if isinstance(command, Assign):
        value = _evaluate_constant(command.expr, constants)
        if value is None:
            result.pop(command.var, None)
        else:
            result[command.var] = value
    elif isinstance(command, Havoc):
        for name in command.vars:
            result.pop(name, None)
    return result


def _evaluate_constant(expr: LinExpr, constants: dict[str, Rat]) -> Optional[Rat]:
    if expr.array_reads():
        return None
    total = expr.const
    for atom, coeff in expr.terms:
        assert isinstance(atom, Var)
        if atom.name not in constants:
            return None
        total += coeff * constants[atom.name]
    return total


# ----------------------------------------------------------------------
# The paper's refiner: path programs + path invariants
# ----------------------------------------------------------------------
class PathInvariantRefiner(Refiner):
    """Refinement through path programs and path-invariant synthesis."""

    name = "path-invariant"

    def __init__(self, checker: Optional[VcChecker] = None) -> None:
        self.checker = checker or VcChecker()
        self.synthesizer = PathInvariantSynthesizer(self.checker)

    def refine(
        self, program: Program, path: Sequence[Transition], precision: Precision
    ) -> RefinementOutcome:
        path_program = build_path_program(program, path)
        synthesis = self.synthesizer.synthesize(path_program.program)

        if not synthesis.success or synthesis.invariant_map is None:
            # Fall back to path-formula predicates, so that the CEGAR loop
            # still makes progress on the current counterexample.
            outcome = PathFormulaRefiner().refine(program, path, precision)
            outcome.description = (
                "path-invariant synthesis failed "
                f"({synthesis.reason}); fell back to path-formula predicates"
            )
            outcome.path_program = path_program
            outcome.synthesis = synthesis
            return outcome

        added = 0
        pivots: set[Location] = set()
        invariant_map = synthesis.invariant_map
        for pp_location, original in path_program.origin.items():
            if original in (program.error,):
                continue
            formula = invariant_map.get(pp_location)
            for predicate in conjuncts(formula):
                if precision.add(original, predicate):
                    added += 1
                    pivots.add(original)
        return RefinementOutcome(
            progress=added > 0,
            new_predicates=added,
            description=f"{added} predicates from the path invariant",
            path_program=path_program,
            synthesis=synthesis,
            pivot_locations=frozenset(pivots),
        )


# ----------------------------------------------------------------------
# Divergence detection
# ----------------------------------------------------------------------
@dataclass
class DivergenceVerdict:
    """The monitor's classification of a refinement loop's trajectory."""

    diverging: bool
    reason: str = ""
    #: The raw signals behind the verdict (``stale_pivots``, ``unrolling``,
    #: ``frontier_growth``, ``refinements_observed``, ...), for reporting.
    signals: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "diverging": self.diverging,
            "reason": self.reason,
            "signals": dict(self.signals),
        }


class DivergenceMonitor:
    """Per-refiner progress monitor for the portfolio engine.

    The classic path-formula refiner *diverges* on programs whose proofs need
    genuine loop invariants: every refinement refutes only the current loop
    unrolling, so counterexamples keep getting longer, the same pivot
    locations gain ever more constant predicates, and the abstract frontier
    never shrinks.  The monitor watches exactly those three signatures over a
    sliding window of ``window`` refinements:

    * **stale pivots** — no refinement in the window added a predicate at a
      location that had not been refined before (new pivots mean the refiner
      is still opening new proof territory, e.g. a second loop);
    * **unrolling** — the counterexample length reached a new record inside
      the window and grew within it (the one-more-iteration signature);
    * **no frontier shrinkage** — predicates grew every round while the
      tree's pending-obligation frontier did not shrink across the window.

    Divergence is reported only when all three hold, so a refiner that proves
    its program within ``window`` refinements can never be demoted, and one
    that keeps discovering new pivot locations (multi-loop proofs) is left
    alone.  Demotion is a *scheduling* decision, never a soundness one: a
    demoted refiner's remaining budget is handed to the other portfolio arms.

    ``observe`` digests the engine's per-iteration records (duck-typed:
    ``refinement`` with ``progress``/``pivot_locations``,
    ``counterexample_length``, ``predicates_total``, ``frontier_size``);
    ``verdict`` classifies the trajectory so far, and
    :meth:`classify_budget_trip` labels an exhausted budget as ``diverging``
    versus ``under-resourced``.
    """

    def __init__(self, window: int = 3) -> None:
        if window < 2:
            raise ValueError(f"divergence window must be at least 2, got {window}")
        self.window = window
        self.cex_lengths: list[int] = []
        self.predicate_totals: list[int] = []
        self.frontier_sizes: list[int] = []
        self.new_pivot_flags: list[bool] = []
        self._seen_pivots: set = set()

    # ------------------------------------------------------------------
    @property
    def refinements_observed(self) -> int:
        return len(self.cex_lengths)

    def observe(self, record) -> None:
        """Digest one engine iteration record that ended in a refinement."""
        refinement = getattr(record, "refinement", None)
        if refinement is None or not refinement.progress:
            return
        self.cex_lengths.append(record.counterexample_length)
        self.predicate_totals.append(record.predicates_total)
        self.frontier_sizes.append(record.frontier_size)
        pivots = set(getattr(refinement, "pivot_locations", ()) or ())
        self.new_pivot_flags.append(bool(pivots - self._seen_pivots))
        self._seen_pivots |= pivots

    def verdict(self) -> DivergenceVerdict:
        """Classify the trajectory observed so far."""
        observed = self.refinements_observed
        window = self.window
        if observed < window:
            return DivergenceVerdict(
                False,
                f"only {observed} refinements observed (window is {window})",
                signals={"refinements_observed": observed},
            )
        stale_pivots = not any(self.new_pivot_flags[-window:])
        recent = self.cex_lengths[-window:]
        unrolling = (
            max(recent) > max(self.cex_lengths[:-window], default=0)
            and max(recent) > min(recent)
        )
        # Predicate totals need no signal of their own: every observed
        # refinement made progress, so they grow strictly by construction.
        frontier_growth = self.frontier_sizes[-1] >= self.frontier_sizes[-window]
        signals = {
            "refinements_observed": observed,
            "stale_pivots": stale_pivots,
            "unrolling": unrolling,
            "frontier_growth": frontier_growth,
            "recent_counterexample_lengths": list(recent),
            "predicates_total": self.predicate_totals[-1],
        }
        diverging = stale_pivots and unrolling and frontier_growth
        if diverging:
            reason = (
                f"no new pivot location in {window} refinements while "
                f"counterexamples grew to length {max(recent)} and the frontier "
                "did not shrink (loop-unrolling signature)"
            )
        else:
            holding = [name for name in ("stale_pivots", "unrolling", "frontier_growth")
                       if not signals[name]]
            reason = f"progressing ({', '.join(holding) or 'window'} signal absent)"
        return DivergenceVerdict(diverging, reason, signals)

    def classify_budget_trip(self) -> str:
        """Label an exhausted budget: was the refiner stalling or starved?"""
        return "diverging" if self.verdict().diverging else "under-resourced"
