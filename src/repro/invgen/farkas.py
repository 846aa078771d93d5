"""Constraint-based instantiation of linear templates (Farkas' lemma).

This is the reproduction of the paper's concrete invariant-generation engine
for numeric path programs (Section 4.2 and the FORWARD experiment of
Section 5).  For every basic path of the path program a verification
condition is generated; Farkas' lemma turns "the conclusion is a non-negative
affine combination of the hypotheses" into constraints over the template
parameters and the combination multipliers.

The paper solves the resulting non-linear (bilinear) constraint system with a
CLP(Q) solver; no such solver exists in this environment, so the bilinearity
is removed in two phases instead (documented as a substitution in DESIGN.md):

1. *Equality conjuncts.*  The only bilinear products involve the multiplier
   attached to the template hypothesis of its own consecution condition; for
   an inductive affine equality that multiplier is ``+1`` (``-1`` for the
   reversed direction), so it is fixed and the system becomes an exact
   rational LP.  Non-trivial solutions are obtained by enumerating a
   normalisation (one template coefficient is pinned to 1).
2. *Inequality conjuncts.*  The equalities found in phase 1 are now concrete
   hypotheses; the remaining bilinear products involve only the inequality
   template's own multiplier in its consecution and safety conditions, which
   is enumerated over a tiny grid.

Every candidate instantiation is re-verified with the exact VC checker before
it is reported, so the search heuristics cannot affect soundness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..lang.cfg import Location, Program
from ..logic.formulas import (
    FALSE,
    TRUE,
    Atom,
    Formula,
    Relation,
    conjoin,
    conjuncts,
)
from ..logic.terms import LinExpr, Rat, Var
from ..smt.linear import LinConstraint, tighten_integer
from ..smt.lra import LraSolver
from ..smt.ssa import ssa_translate, versioned
from ..smt.vcgen import VcChecker
from .cutset import BasicPath, basic_paths
from .templates import LinearTemplate, ParamExpr, TemplateConjunction

__all__ = ["FarkasEngine", "FarkasResult"]


# ----------------------------------------------------------------------
# Data model of one proof obligation
# ----------------------------------------------------------------------
@dataclass
class _Hypothesis:
    expr: ParamExpr
    is_equality: bool
    #: fixed multiplier value (template hypotheses in phase 1/2), or None for
    #: a fresh LP multiplier variable (concrete hypotheses).
    fixed: Optional[Rat]
    #: when the multiplier is enumerated, the index of its slot
    slot: Optional[int] = None


@dataclass
class _Obligation:
    """Raw ingredients of the Farkas systems for one basic path."""

    path: BasicPath
    concrete_eq: list[LinExpr]
    concrete_le_variants: list[list[LinExpr]]
    initial_renaming: dict[str, str]
    final_renaming: dict[str, str]
    is_error: bool


@dataclass
class FarkasResult:
    """Outcome of a template-instantiation attempt."""

    success: bool
    assertions: dict[Location, Formula] = field(default_factory=dict)
    lp_calls: int = 0
    reason: str = ""


class _NotApplicable(Exception):
    """Raised when the linear Farkas engine cannot handle the path program."""


class FarkasEngine:
    """Instantiates linear template maps on array-free path programs."""

    def __init__(self, checker: Optional[VcChecker] = None) -> None:
        self.checker = checker or VcChecker()
        self.lp_calls = 0

    # ------------------------------------------------------------------
    def synthesize(
        self, program: Program, template_map: dict[Location, TemplateConjunction]
    ) -> FarkasResult:
        """Instantiate the templates into an inductive, safe invariant map.

        Each call solves its LPs on a fresh solver: the pivots a persistent
        simplex kept from earlier calls would choose which of several
        solutions a later LP returns, so the answer would depend on what
        the engine solved before.
        """
        self.lp = LraSolver(integer_mode=False)
        self.lp_calls = 0
        try:
            obligations = self._obligations(program, template_map)
        except _NotApplicable as exc:
            return FarkasResult(False, reason=str(exc), lp_calls=self.lp_calls)

        eq_map = {
            loc: [t for t in conj.conjuncts if t.relation is Relation.EQ]
            for loc, conj in template_map.items()
        }
        le_map = {
            loc: [t for t in conj.conjuncts if t.relation is not Relation.EQ]
            for loc, conj in template_map.items()
        }

        equalities = self._phase_one(program, obligations, eq_map)

        if any(le_map.values()):
            result = self._phase_two(program, obligations, eq_map, le_map, equalities)
            if result is not None:
                return FarkasResult(True, result, self.lp_calls)
            return FarkasResult(False, reason="no instantiation found", lp_calls=self.lp_calls)

        # Equality-only template: verify the map (including safety) as is.
        assertions = {loc: conjoin(parts) for loc, parts in equalities.items()}
        if equalities and self._verify(program, assertions):
            return FarkasResult(True, assertions, self.lp_calls)
        return FarkasResult(
            False,
            reason="equality template is not strong enough for safety",
            lp_calls=self.lp_calls,
        )

    # ------------------------------------------------------------------
    # Obligation extraction
    # ------------------------------------------------------------------
    def _obligations(
        self, program: Program, template_map: dict[Location, TemplateConjunction]
    ) -> list[_Obligation]:
        obligations = []
        for path in basic_paths(program):
            is_error = path.target == program.error
            if not is_error and path.target not in template_map:
                continue
            translation = ssa_translate(path.commands)
            if translation.stores:
                raise _NotApplicable("path program writes arrays; linear engine not applicable")
            concrete_eq: list[LinExpr] = []
            concrete_le: list[LinExpr] = []
            disequalities: list[LinExpr] = []
            for _, constraint in translation.constraints:
                for part in conjuncts(constraint):
                    if not isinstance(part, Atom) or part.expr.array_reads():
                        continue
                    if part.rel is Relation.NE:
                        disequalities.append(part.expr)
                    elif part.rel is Relation.EQ:
                        concrete_eq.append(part.expr)
                    else:
                        concrete_le.append(
                            tighten_integer(LinConstraint(part.expr, part.rel)).expr
                        )
            variants = _disequality_variants(disequalities)
            obligations.append(
                _Obligation(
                    path=path,
                    concrete_eq=concrete_eq,
                    concrete_le_variants=[concrete_le + extra for extra in variants],
                    initial_renaming={name: versioned(name, 0) for name in program.variables},
                    final_renaming={
                        name: versioned(name, translation.var_versions.get(name, 0))
                        for name in program.variables
                    },
                    is_error=is_error,
                )
            )
        if not obligations:
            raise _NotApplicable("no proof obligations (no error paths, no templates)")
        return obligations

    # ------------------------------------------------------------------
    # Phase 1: affine equalities
    # ------------------------------------------------------------------
    def _phase_one(
        self,
        program: Program,
        obligations: Sequence[_Obligation],
        eq_map: dict[Location, list[LinearTemplate]],
    ) -> dict[Location, list[Formula]]:
        """Find affine-equality invariants for the cut-point templates."""
        found: dict[Location, list[Formula]] = {loc: [] for loc in eq_map}
        templates = [(loc, t) for loc, ts in eq_map.items() for t in ts]
        if not templates:
            return found

        # Each normalisation pins one template coefficient to 1.  The system
        # does not depend on which, so it is built once for all of them.
        pinned = [t.parameter(v) for _, t in templates for v in t.variables]
        system = self._equality_systems(obligations, eq_map)
        solutions: list[dict[Var, Rat]] = []
        for parameter in pinned:
            constraints = system + [Atom(LinExpr.make({parameter: 1}) - LinExpr.constant(1), Relation.EQ)]
            self.lp_calls += 1
            outcome = self.lp.check(constraints)
            if outcome.satisfiable and outcome.model is not None:
                solutions.append(dict(outcome.model))

        seen: set[tuple[Location, Formula]] = set()
        for solution in solutions:
            candidate = {
                loc: conjoin([t.instantiate(solution) for t in ts]) for loc, ts in eq_map.items()
            }
            if not self._verify(program, candidate, include_error=False):
                continue
            for loc, formula in candidate.items():
                for part in conjuncts(formula):
                    if (loc, part) not in seen and part != TRUE:
                        seen.add((loc, part))
                        found[loc].append(part)
        return found

    def _equality_systems(
        self,
        obligations: Sequence[_Obligation],
        eq_map: dict[Location, list[LinearTemplate]],
    ) -> list[Atom]:
        """LP constraints for initiation/consecution of the equality templates."""
        constraints: list[Atom] = []
        counter = itertools.count()
        for obligation in obligations:
            if obligation.is_error:
                continue
            targets = eq_map.get(obligation.path.target, [])
            if not targets:
                continue
            source_templates = eq_map.get(obligation.path.source, [])
            for variant in obligation.concrete_le_variants:
                for target in targets:
                    for direction in (1, -1):
                        hypotheses = self._hypotheses(
                            obligation, variant, source_templates, [], direction
                        )
                        target_expr = _scale(target.param_expr(obligation.final_renaming), direction)
                        constraints.extend(
                            _farkas_rows(hypotheses, target_expr, counter)
                        )
        return constraints

    # ------------------------------------------------------------------
    # Phase 2: inequality conjuncts
    # ------------------------------------------------------------------
    def _phase_two(
        self,
        program: Program,
        obligations: Sequence[_Obligation],
        eq_map: dict[Location, list[LinearTemplate]],
        le_map: dict[Location, list[LinearTemplate]],
        equalities: dict[Location, list[Formula]],
    ) -> Optional[dict[Location, Formula]]:
        # Enumeration slots: one per (obligation variant, target, source LE template).
        grids: list[tuple[int, ...]] = []
        plans = []  # (obligation, variant, target_expr or None, slot indices per source template)
        counter = itertools.count()

        for obligation in obligations:
            targets: list[Optional[LinearTemplate]]
            if obligation.is_error:
                targets = [None]
            else:
                targets = list(le_map.get(obligation.path.target, []))
                if not targets:
                    continue
            source_le = le_map.get(obligation.path.source, [])
            for variant in obligation.concrete_le_variants:
                for target in targets:
                    slots = []
                    for _ in source_le:
                        slots.append(len(grids))
                        grids.append((1, 0, 2, 3) if target is not None else (0, 1, 2, 3))
                    plans.append((obligation, variant, target, source_le, slots))

        combos = itertools.product(*grids) if grids else iter([()])
        for combo in itertools.islice(combos, 0, 5000):
            constraints: list[Atom] = []
            for obligation, variant, target, source_le, slots in plans:
                extra_eq = [
                    part.expr.rename(obligation.initial_renaming)
                    for part in equalities.get(obligation.path.source, [])
                    if isinstance(part, Atom) and part.rel is Relation.EQ
                ]
                # The equalities found in phase 1 enter as *concrete*
                # hypotheses only.  Passing the symbolic equality template
                # here (as the consecution encoding of phase 1 does) would
                # let the LP instantiate it to a false hypothesis such as
                # ``1 = 0`` — its parameters are not re-established by any
                # phase-2 row — and "refute" every error path, so every
                # grid combination would solve the LP trivially and then
                # fail re-verification.
                hypotheses = self._hypotheses(
                    obligation, variant, [], extra_eq, 1
                )
                for template, slot in zip(source_le, slots):
                    hypotheses.append(
                        _Hypothesis(
                            template.param_expr(obligation.initial_renaming),
                            False,
                            combo[slot],
                        )
                    )
                target_expr = (
                    target.param_expr(obligation.final_renaming) if target is not None else None
                )
                constraints.extend(_farkas_rows(hypotheses, target_expr, counter))
            self.lp_calls += 1
            outcome = self.lp.check(constraints)
            if not outcome.satisfiable or outcome.model is None:
                continue
            solution = dict(outcome.model)
            assertions: dict[Location, Formula] = {}
            for loc in set(eq_map) | set(le_map):
                parts = list(equalities.get(loc, []))
                for template in le_map.get(loc, []):
                    instantiated = template.instantiate(solution)
                    if instantiated != TRUE:
                        parts.append(instantiated)
                assertions[loc] = conjoin(parts)
            if self._verify(program, assertions):
                return assertions
        return None

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _hypotheses(
        self,
        obligation: _Obligation,
        variant: Sequence[LinExpr],
        source_eq_templates: Sequence[LinearTemplate],
        extra_concrete_eq: Sequence[LinExpr],
        direction: Rat,
    ) -> list[_Hypothesis]:
        hypotheses: list[_Hypothesis] = []
        for expr in list(obligation.concrete_eq) + list(extra_concrete_eq):
            hypotheses.append(_Hypothesis(ParamExpr.concrete(expr), True, None))
        for expr in variant:
            hypotheses.append(_Hypothesis(ParamExpr.concrete(expr), False, None))
        for template in source_eq_templates:
            # The inductive equality re-occurs in its own consecution with the
            # same orientation as the conclusion.
            hypotheses.append(
                _Hypothesis(template.param_expr(obligation.initial_renaming), True, direction)
            )
        return hypotheses

    def _verify(
        self,
        program: Program,
        assertions: dict[Location, Formula],
        include_error: bool = True,
    ) -> bool:
        for path in basic_paths(program):
            pre = assertions.get(path.source, TRUE)
            if path.target == program.error:
                if not include_error:
                    continue
                post: Formula = FALSE
            elif path.target in assertions:
                post = assertions[path.target]
            else:
                continue
            if post == TRUE:
                continue
            if not self.checker.check_triple(pre, path.commands, post):
                return False
        return True


# ----------------------------------------------------------------------
# Farkas row construction
# ----------------------------------------------------------------------
def _farkas_rows(
    hypotheses: Sequence[_Hypothesis],
    target: Optional[ParamExpr],
    counter,
) -> list[Atom]:
    """Constraints stating that ``target <= 0`` (or false) follows by Farkas."""
    multipliers: list[tuple[LinExpr, _Hypothesis]] = []
    rows: list[Atom] = []
    for hypothesis in hypotheses:
        if hypothesis.fixed is not None:
            mult = LinExpr.constant(hypothesis.fixed)
        else:
            mult_var = Var(f"lam${next(counter)}")
            mult = LinExpr.make({mult_var: 1})
            if not hypothesis.is_equality:
                rows.append(Atom(-mult, Relation.LE))  # multiplier >= 0
        multipliers.append((mult, hypothesis))

    variables: set[Var] = set()
    for _, hypothesis in multipliers:
        variables |= hypothesis.expr.variables()
    if target is not None:
        variables |= target.variables()

    for variable in sorted(variables):
        combination = LinExpr.constant(0)
        for mult, hypothesis in multipliers:
            combination = combination + _product(mult, hypothesis.expr.coeff(variable))
        goal = target.coeff(variable) if target is not None else LinExpr.constant(0)
        rows.append(Atom(combination - goal, Relation.EQ))

    combination = LinExpr.constant(0)
    for mult, hypothesis in multipliers:
        combination = combination + _product(mult, hypothesis.expr.const)
    if target is None:
        rows.append(Atom(LinExpr.constant(1) - combination, Relation.LE))
    else:
        rows.append(Atom(target.const - combination, Relation.LE))
    return rows


def _product(multiplier: LinExpr, coefficient: LinExpr) -> LinExpr:
    """Product of a multiplier and a coefficient; one factor is constant."""
    if multiplier.is_constant():
        return coefficient.scale(multiplier.const)
    if coefficient.is_constant():
        return multiplier.scale(coefficient.const)
    raise ValueError("bilinear product of two symbolic factors")


def _scale(expr: ParamExpr, factor: Rat) -> ParamExpr:
    return ParamExpr(
        {v: e.scale(factor) for v, e in expr.coeffs.items()}, expr.const.scale(factor)
    )


def _disequality_variants(disequalities: Sequence[LinExpr]) -> list[list[LinExpr]]:
    """Case-split hypotheses ``e != 0`` into ``e <= -1`` / ``e >= 1``; only
    the first three split, so there are at most eight variants."""
    variants: list[list[LinExpr]] = [[]]
    for expr in disequalities[:3]:
        lower = expr + LinExpr.constant(1)   # e + 1 <= 0
        upper = -expr + LinExpr.constant(1)  # -e + 1 <= 0
        variants = [v + [lower] for v in variants] + [v + [upper] for v in variants]
    return variants
