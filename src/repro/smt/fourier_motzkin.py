"""Fourier–Motzkin elimination over exact rationals.

This module provides two operations:

* :func:`project` — existentially quantify a set of variables away, which is
  what the strongest-postcondition engine (:mod:`repro.invgen.postcond`)
  uses it for, and
* :func:`satisfiable` — decide satisfiability of a conjunction of linear
  constraints over the rationals and, when satisfiable, return a witness
  valuation (reconstructed by back-substitution through the elimination
  steps).  No verifier query routes through it: it stays as the independent
  reference that ``tests/smt/test_fourier_motzkin_simplex.py`` checks the
  incremental simplex against.

Fourier–Motzkin has worst-case exponential behaviour, but the constraint
systems produced from path programs are small.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from ..logic.formulas import Relation
from ..logic.terms import LinExpr, Rat, Var, as_rat, exact_div
from .linear import LinConstraint, is_trivial_false, is_trivial_true, normalize_constraint

__all__ = ["satisfiable", "project", "EliminationStep", "eliminate_variable"]


@dataclass
class EliminationStep:
    """Record of one variable elimination, used for model reconstruction."""

    var: Var
    #: ``definition`` is set when the variable was eliminated via an equality.
    definition: Optional[LinExpr]
    #: Lower bounds as (expression, strict) pairs: ``var >= expr`` / ``>``.
    lower: list[tuple[LinExpr, bool]]
    #: Upper bounds as (expression, strict) pairs: ``var <= expr`` / ``<``.
    upper: list[tuple[LinExpr, bool]]


def _split_on_var(
    constraints: Sequence[LinConstraint], var: Var
) -> tuple[list[LinConstraint], list[LinConstraint]]:
    """Split into constraints mentioning / not mentioning ``var``."""
    with_var: list[LinConstraint] = []
    without: list[LinConstraint] = []
    for constraint in constraints:
        if constraint.expr.coeff(var) != 0:
            with_var.append(constraint)
        else:
            without.append(constraint)
    return with_var, without


def eliminate_variable(
    constraints: Sequence[LinConstraint], var: Var
) -> tuple[list[LinConstraint], EliminationStep]:
    """Eliminate ``var`` and return the reduced system plus a replay record."""
    with_var, result = _split_on_var(constraints, var)

    # Prefer elimination through an equality: substitute and keep the result
    # linear in size.
    equality = next((c for c in with_var if c.rel is Relation.EQ), None)
    if equality is not None:
        coeff = equality.expr.coeff(var)
        # coeff * var + rest = 0   =>   var = -rest / coeff
        rest = equality.expr - LinExpr.make({var: coeff})
        definition = rest.scale(exact_div(-1, coeff))
        step = EliminationStep(var, definition, [], [])
        for constraint in with_var:
            if constraint is equality:
                continue
            substituted = constraint.expr.substitute({var: definition})
            result.append(LinConstraint(substituted, constraint.rel))
        return result, step

    lower: list[tuple[LinExpr, bool]] = []
    upper: list[tuple[LinExpr, bool]] = []
    for constraint in with_var:
        coeff = constraint.expr.coeff(var)
        rest = constraint.expr - LinExpr.make({var: coeff})
        bound = rest.scale(exact_div(-1, coeff))
        strict = constraint.rel is Relation.LT
        if coeff > 0:
            # coeff*var + rest <= 0  =>  var <= -rest/coeff
            upper.append((bound, strict))
        else:
            lower.append((bound, strict))

    for low, low_strict in lower:
        for up, up_strict in upper:
            # low <= var <= up  =>  low - up <= 0 (strict if either side strict)
            rel = Relation.LT if (low_strict or up_strict) else Relation.LE
            result.append(normalize_constraint(LinConstraint(low - up, rel)))
    step = EliminationStep(var, None, lower, upper)
    return result, step


def _choose_variable(constraints: Sequence[LinConstraint], candidates: set[Var]) -> Var:
    """Pick the candidate whose elimination creates the fewest new constraints."""
    best_var: Optional[Var] = None
    best_cost: Optional[int] = None
    for var in sorted(candidates):
        lower = upper = 0
        occurs_in_equality = False
        for constraint in constraints:
            coeff = constraint.expr.coeff(var)
            if coeff == 0:
                continue
            if constraint.rel is Relation.EQ:
                occurs_in_equality = True
            elif coeff > 0:
                upper += 1
            else:
                lower += 1
        cost = 0 if occurs_in_equality else lower * upper
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best_var = var
            if cost == 0 and occurs_in_equality:
                break
    assert best_var is not None
    return best_var


def _prune(constraints: Iterable[LinConstraint]) -> Optional[list[LinConstraint]]:
    """Drop trivially-true constraints; return ``None`` on a trivial conflict."""
    pruned: list[LinConstraint] = []
    seen: set[LinConstraint] = set()
    for constraint in constraints:
        constraint = normalize_constraint(constraint)
        if is_trivial_true(constraint):
            continue
        if is_trivial_false(constraint):
            return None
        if constraint in seen:
            continue
        seen.add(constraint)
        pruned.append(constraint)
    return pruned


def satisfiable(
    constraints: Sequence[LinConstraint],
) -> Optional[dict[Var, Rat]]:
    """Rational satisfiability with witness; ``None`` means unsatisfiable."""
    current = _prune(constraints)
    if current is None:
        return None
    steps: list[EliminationStep] = []
    while True:
        variables = {v for c in current for v in c.variables()}
        if not variables:
            break
        var = _choose_variable(current, variables)
        current, step = eliminate_variable(current, var)
        steps.append(step)
        current = _prune(current)
        if current is None:
            return None

    # All remaining constraints are trivially true; rebuild a model.
    model: dict[Var, Rat] = {}
    for step in reversed(steps):
        model[step.var] = _reconstruct_value(step, model)
    return model


def _reconstruct_value(step: EliminationStep, model: dict[Var, Rat]) -> Rat:
    if step.definition is not None:
        return _evaluate(step.definition, model)
    lowers = [(_evaluate(e, model), strict) for e, strict in step.lower]
    uppers = [(_evaluate(e, model), strict) for e, strict in step.upper]
    low = max((v for v, _ in lowers), default=None)
    up = min((v for v, _ in uppers), default=None)
    if low is None and up is None:
        return 0
    if low is None:
        assert up is not None
        return up - 1
    if up is None:
        return low + 1
    if low == up:
        return low
    return exact_div(low + up, 2)


def _evaluate(expr: LinExpr, model: dict[Var, Rat]) -> Rat:
    total = expr.const
    for atom, coeff in expr.terms:
        assert isinstance(atom, Var)
        total += coeff * model.get(atom, 0)
    return as_rat(total)


def project(
    constraints: Sequence[LinConstraint], eliminate: Iterable[Var]
) -> Optional[list[LinConstraint]]:
    """Existentially quantify ``eliminate`` away.

    Returns the projected constraint list, or ``None`` if the system is
    detected to be unsatisfiable during elimination (the projection of an
    empty set of points is "false").
    """
    current = _prune(constraints)
    if current is None:
        return None
    for var in eliminate:
        if all(c.expr.coeff(var) == 0 for c in current):
            continue
        current, _ = eliminate_variable(current, var)
        current = _prune(current)
        if current is None:
            return None
    return current
