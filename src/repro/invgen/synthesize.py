"""The path-invariant synthesizer.

Given a path program, the synthesizer produces an inductive, *safe* invariant
map (Section 3: I0/I1/I2) or reports failure.  It is the component the
CEGAR loop calls during abstraction refinement (Section 4.1).

The synthesizer works at the cut-point level, in one attempt over one
candidate grid:

1. propose candidate assertions for the cut-points — linear candidates mined
   from the path program plus the paper's assertion-parameterisation
   heuristic, universally quantified candidates following the Section 4.2
   template shape (:func:`~repro.invgen.candidates.quantified_candidates`),
   and (optionally) instantiations produced by the Farkas template engine;
2. prune the candidates to their greatest inductive subset with a
   Houdini-style fixed point (every surviving assertion is established by
   every basic path into its cut-point, assuming the surviving assertions at
   the source cut-point) — this is the "sound and complete relative to the
   candidate space" counterpart of the paper's constraint solving;
3. check safety: every basic path into the error location must be refuted by
   the surviving assertions;
4. propagate the cut-point assertions to the remaining locations of the path
   program by strongest postconditions (as the paper's tool does), yielding
   the full path-invariant map.

Houdini (step 2) and the safety check (step 3) decide the cut-point
assertions exactly with the VC checker.  The assertions that step 4 fills in
at the other locations are not re-checked.  The refiner only takes their
conjuncts as predicates, and predicates only shape the abstraction, so
soundness does not depend on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..lang.cfg import Location, Program
from ..logic.formulas import FALSE, Formula, TRUE, conjoin, conjuncts
from ..logic.terms import Var
from ..smt.vcgen import VcChecker
from .candidates import mine_linear_candidates, quantified_candidates
from .cutset import BasicPath, basic_paths, cutpoints
from .farkas import FarkasEngine
from .invariant_map import InvariantMap
from .postcond import strongest_post_path
from .templates import equality_template

__all__ = ["SynthesisResult", "PathInvariantSynthesizer", "SynthesisOptions"]

#: Upper bound on Houdini candidates per cut-point (safety valve).
MAX_CANDIDATES = 250


@dataclass
class SynthesisOptions:
    """Tuning knobs of the synthesizer."""

    #: Try the Farkas template engine for numeric (array-free) path programs.
    use_farkas: bool = True


@dataclass
class SynthesisResult:
    """Outcome of path-invariant synthesis."""

    success: bool
    invariant_map: Optional[InvariantMap] = None
    cutpoint_assertions: dict[Location, Formula] = field(default_factory=dict)
    reason: str = ""
    candidates_proposed: int = 0
    candidates_surviving: int = 0
    houdini_iterations: int = 0


class PathInvariantSynthesizer:
    """Synthesizes inductive safe invariant maps for path programs."""

    def __init__(
        self,
        checker: Optional[VcChecker] = None,
        options: Optional[SynthesisOptions] = None,
    ) -> None:
        self.checker = checker or VcChecker()
        self.options = options or SynthesisOptions()
        self.farkas = FarkasEngine(self.checker)

    # ------------------------------------------------------------------
    def synthesize(self, program: Program) -> SynthesisResult:
        """Compute a safe invariant map of ``program`` (a path program)."""
        paths = basic_paths(program)
        cuts = sorted(cutpoints(program), key=lambda l: l.name)
        candidates = self._propose_candidates(program, cuts)
        proposed = sum(len(v) for v in candidates.values())

        for location, formula in self._farkas_candidates(program, cuts).items():
            for part in conjuncts(formula):
                if part not in candidates.setdefault(location, []):
                    candidates[location].append(part)

        surviving, iterations = self._houdini(program, paths, candidates)
        assertions = {loc: conjoin(parts) for loc, parts in surviving.items()}

        if not self._safety_holds(program, paths, assertions):
            return SynthesisResult(
                False,
                cutpoint_assertions=assertions,
                reason="inductive candidates do not refute the error paths",
                candidates_proposed=proposed,
                candidates_surviving=sum(len(v) for v in surviving.values()),
                houdini_iterations=iterations,
            )

        invariant_map = self._fill_in(program, paths, assertions)
        return SynthesisResult(
            True,
            invariant_map=invariant_map,
            cutpoint_assertions=assertions,
            candidates_proposed=proposed,
            candidates_surviving=sum(len(v) for v in surviving.values()),
            houdini_iterations=iterations,
        )

    # ------------------------------------------------------------------
    # Candidate generation
    # ------------------------------------------------------------------
    def _propose_candidates(
        self, program: Program, cuts: Sequence[Location]
    ) -> dict[Location, list[Formula]]:
        linear = mine_linear_candidates(program)
        quantified = quantified_candidates(program)
        pool = (linear + quantified)[:MAX_CANDIDATES]
        return {cut: list(pool) for cut in cuts}

    def _farkas_candidates(
        self, program: Program, cuts: Sequence[Location]
    ) -> dict[Location, Formula]:
        """Equality invariants from the Farkas template engine (numeric only)."""
        if not self.options.use_farkas or program.arrays or not cuts:
            return {}
        variables = [Var(name) for name in program.variables if not name.startswith("__")]
        template_map = {
            cut: equality_template(variables, f"c{k}") for k, cut in enumerate(cuts)
        }
        outcome = self.farkas.synthesize(program, template_map)
        return outcome.assertions if outcome.success else {}

    # ------------------------------------------------------------------
    # Houdini pruning
    # ------------------------------------------------------------------
    def _houdini(
        self,
        program: Program,
        paths: Sequence[BasicPath],
        candidates: dict[Location, list[Formula]],
    ) -> tuple[dict[Location, list[Formula]], int]:
        surviving = {loc: list(parts) for loc, parts in candidates.items()}
        iterations = 0
        relevant = [p for p in paths if p.target in surviving]
        # Locations whose assertion set shrank in the previous sweep; a path
        # only needs re-checking when its source shrank (its hypotheses got
        # weaker) — the first sweep checks everything.
        dirty: Optional[set[Location]] = None
        while True:
            iterations += 1
            changed_locations: set[Location] = set()
            for path in relevant:
                if dirty is not None and path.source not in dirty:
                    continue
                targets = surviving.get(path.target, [])
                if not targets:
                    continue
                pre = conjoin(surviving.get(path.source, [])) if path.source in surviving else TRUE
                verdicts = self.checker.check_triples(pre, path.commands, targets)
                kept = [c for c, holds in zip(targets, verdicts) if holds]
                if len(kept) < len(targets):
                    changed_locations.add(path.target)
                surviving[path.target] = kept
            if not changed_locations:
                break
            dirty = changed_locations
        return surviving, iterations

    def _safety_holds(
        self,
        program: Program,
        paths: Sequence[BasicPath],
        assertions: dict[Location, Formula],
    ) -> bool:
        for path in paths:
            if path.target != program.error:
                continue
            pre = assertions.get(path.source, TRUE)
            if not self.checker.check_triples(pre, path.commands, (FALSE,))[0]:
                return False
        return True

    # ------------------------------------------------------------------
    # Fill-in of non-cut-point locations
    # ------------------------------------------------------------------
    def _fill_in(
        self,
        program: Program,
        paths: Sequence[BasicPath],
        assertions: dict[Location, Formula],
    ) -> InvariantMap:
        invariant_map = InvariantMap(program)
        for location, formula in assertions.items():
            invariant_map.set(location, formula)
        invariant_map.set(program.initial, TRUE)

        # Propagate along every basic path, recording the strongest
        # postcondition at each intermediate location.
        intermediate: dict[Location, list[Formula]] = {}
        for path in paths:
            current = assertions.get(path.source, TRUE)
            for transition in path.transitions[:-1]:
                current = strongest_post_path(current, transition.commands)
                intermediate.setdefault(transition.target, []).append(current)
        for location, formulas in intermediate.items():
            if location in assertions or location == program.initial:
                continue
            if location == program.error:
                continue
            # Different basic paths may reach the same intermediate location;
            # the invariant is the disjunction, but for predicate extraction a
            # common-conjunct approximation is sufficient and keeps formulas
            # conjunctive.  (Locations of a path program have a single
            # incoming edge in almost all cases, so this rarely matters.)
            invariant_map.set(location, _common_conjuncts(formulas))
        return invariant_map


def _common_conjuncts(formulas: Sequence[Formula]) -> Formula:
    """Conjuncts shared by all formulas (an over-approximation of their disjunction)."""
    if not formulas:
        return TRUE
    common = set(conjuncts(formulas[0]))
    for formula in formulas[1:]:
        common &= set(conjuncts(formula))
    if not common:
        return TRUE
    return conjoin(sorted(common, key=str))
