"""Pure linear constraints over scalar variables.

The decision procedures (Fourier–Motzkin, simplex) work on conjunctions of
constraints ``expr REL 0`` where ``expr`` mentions only :class:`Var` atoms and
``REL`` is one of ``<=``, ``<`` or ``=``.  Disequalities and array reads are
eliminated by the layers above (:mod:`repro.smt.solver`,
:mod:`repro.smt.arrays`) before constraints reach this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from ..logic.formulas import Relation
from ..logic.terms import LinExpr, Rat, Var, exact_div

__all__ = [
    "LinConstraint",
    "tighten_integer",
    "normalize_constraint",
    "is_trivial_true",
    "is_trivial_false",
]


@dataclass(frozen=True)
class LinConstraint:
    """A constraint ``expr rel 0`` with ``rel`` in ``{<=, <, =}``."""

    expr: LinExpr
    rel: Relation

    def __post_init__(self) -> None:
        if self.rel not in (Relation.LE, Relation.LT, Relation.EQ):
            raise ValueError(f"unsupported relation for LinConstraint: {self.rel}")
        for atom in self.expr.atoms():
            if not isinstance(atom, Var):
                raise ValueError(f"LinConstraint over non-variable atom: {atom}")

    def variables(self) -> set[Var]:
        return self.expr.variables()

    def __str__(self) -> str:
        return f"{self.expr} {self.rel.value} 0"


def normalize_constraint(constraint: LinConstraint) -> LinConstraint:
    """Scale a constraint so that its coefficients are coprime integers."""
    expr = constraint.expr
    if not expr.terms:
        return constraint
    values = [coeff for _, coeff in expr.terms]
    if expr.const != 0:
        values.append(expr.const)
    multiple = lcm(*(value.denominator for value in values))
    divisor = gcd(*((value * multiple).numerator for value in values))
    factor = exact_div(multiple, divisor) if divisor else multiple
    if factor == 1:
        return constraint
    return LinConstraint(expr.scale(factor), constraint.rel)


def tighten_integer(constraint: LinConstraint) -> LinConstraint:
    """Integer tightening of a normalised constraint.

    When every variable of the constraint ranges over the integers and the
    coefficients are integers, ``e < 0`` is equivalent to ``e <= -1`` and a
    fractional constant can be rounded:  ``e + c <= 0`` becomes
    ``e + ceil(c) <= 0``.  The tightening is an *equivalence* over integer
    valuations and a strengthening over rational valuations, so it must only
    be applied when all variables are known to be integral.
    """
    constraint = normalize_constraint(constraint)
    expr = constraint.expr
    if not expr.terms:
        return constraint
    if any(coeff.denominator != 1 for _, coeff in expr.terms):
        return constraint
    if constraint.rel is Relation.EQ:
        return constraint
    # Divide by the gcd of the variable coefficients and round the resulting
    # bound:  sum(a_v * v) REL -const  with all a_v divisible by g becomes
    # sum(a_v/g * v) <= floor(-const/g)  over the integers (with the strict
    # case rounding to the next smaller integer when the bound is integral).
    divisor = gcd(*(coeff.numerator for _, coeff in expr.terms))
    bound = exact_div(-expr.const, divisor)
    if constraint.rel is Relation.LT:
        tightened_bound = bound - 1 if bound.denominator == 1 else _floor(bound)
    else:
        tightened_bound = _floor(bound)
    new_terms = tuple((atom, exact_div(coeff, divisor)) for atom, coeff in expr.terms)
    new_expr = LinExpr(new_terms, -tightened_bound)
    return LinConstraint(new_expr, Relation.LE)


def _floor(value: Rat) -> int:
    return value.numerator // value.denominator


def is_trivial_true(constraint: LinConstraint) -> bool:
    expr = constraint.expr
    if expr.terms:
        return False
    if constraint.rel is Relation.LE:
        return expr.const <= 0
    if constraint.rel is Relation.LT:
        return expr.const < 0
    return expr.const == 0


def is_trivial_false(constraint: LinConstraint) -> bool:
    expr = constraint.expr
    if expr.terms:
        return False
    return not is_trivial_true(constraint)
