"""Invariant templates with symbolic parameters.

A template is a parametric assertion; instantiating its parameters with
rationals yields a candidate invariant.  The linear templates below are the
ones used in the paper's Section 5 experiments: an affine equality
``c_1 x_1 + ... + c_m x_m + c = 0`` over the program variables, optionally
conjoined with an affine inequality (the paper's refinement step for
FORWARD).  The Farkas engine of :mod:`repro.invgen.farkas` instantiates them.

A template's parameters are the variables ``<name>$<variable>`` and
``<name>$const``.  The caller names the templates, uniquely among those it
hands to one :meth:`~repro.invgen.farkas.FarkasEngine.synthesize` call
(``c0``, ``c1``, ... over the cut-points), so a rerun interns no new
parameters and their order in a :class:`LinExpr` does not depend on what
the process ran before.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..logic.formulas import Atom, Formula, Relation, conjoin
from ..logic.terms import LinExpr, Rat, Var

__all__ = [
    "ParamExpr",
    "LinearTemplate",
    "TemplateConjunction",
    "equality_template",
]


@dataclass(frozen=True)
class ParamExpr:
    """A linear expression whose coefficients are linear in the parameters.

    ``coeffs[v]`` and ``const`` are :class:`LinExpr` objects over *parameter*
    variables; a concrete expression is represented with constant
    coefficient expressions.
    """

    coeffs: Mapping[Var, LinExpr]
    const: LinExpr

    @staticmethod
    def concrete(expr: LinExpr) -> "ParamExpr":
        coeffs = {}
        for atom, coeff in expr.terms:
            if not isinstance(atom, Var):
                raise ValueError(f"array read in Farkas constraint: {atom}")
            coeffs[atom] = LinExpr.constant(coeff)
        return ParamExpr(coeffs, LinExpr.constant(expr.const))

    def variables(self) -> set[Var]:
        return set(self.coeffs)

    def coeff(self, var: Var) -> LinExpr:
        return self.coeffs.get(var, LinExpr.constant(0))


@dataclass(frozen=True)
class LinearTemplate:
    """``sum(param_v * v) + param_0  REL  0`` over the given variables."""

    variables: tuple[Var, ...]
    relation: Relation
    name: str

    def parameter(self, variable: Var | None) -> Var:
        suffix = variable.name if variable is not None else "const"
        return Var(f"{self.name}${suffix}")

    def parameters(self) -> list[Var]:
        return [self.parameter(v) for v in self.variables] + [self.parameter(None)]

    def param_expr(self, renaming: Mapping[str, str] | None = None) -> ParamExpr:
        """The template as a parametric expression over (renamed) variables."""
        renaming = renaming or {}
        coeffs: dict[Var, LinExpr] = {}
        for variable in self.variables:
            target = Var(renaming.get(variable.name, variable.name))
            coeffs[target] = LinExpr.make({self.parameter(variable): 1})
        return ParamExpr(coeffs, LinExpr.make({self.parameter(None): 1}))

    def instantiate(self, solution: Mapping[Var, Rat]) -> Formula:
        expr = LinExpr.constant(solution.get(self.parameter(None), 0))
        for variable in self.variables:
            coeff = solution.get(self.parameter(variable), 0)
            expr = expr + LinExpr.make({variable: coeff})
        return Atom(expr, self.relation)

    def is_trivial(self, solution: Mapping[Var, Rat]) -> bool:
        return all(solution.get(self.parameter(v), 0) == 0 for v in self.variables)


@dataclass(frozen=True)
class TemplateConjunction:
    """A conjunction of linear templates placed at one cut-point."""

    conjuncts: tuple[LinearTemplate, ...]

    def parameters(self) -> list[Var]:
        params: list[Var] = []
        for template in self.conjuncts:
            params.extend(template.parameters())
        return params

    def instantiate(self, solution: Mapping[Var, Rat]) -> Formula:
        parts = [
            template.instantiate(solution)
            for template in self.conjuncts
            if not template.is_trivial(solution)
        ]
        return conjoin(parts)

    def with_extra_inequality(
        self, variables: Sequence[Var], name: str
    ) -> "TemplateConjunction":
        """The paper's refinement step: conjoin one more inequality template."""
        extra = LinearTemplate(tuple(variables), Relation.LE, name)
        return TemplateConjunction(self.conjuncts + (extra,))


def equality_template(variables: Sequence[Var], name: str) -> TemplateConjunction:
    """A single affine-equality template (the paper's first FORWARD attempt)."""
    return TemplateConjunction((LinearTemplate(tuple(variables), Relation.EQ, name),))
