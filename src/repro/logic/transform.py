"""Normal-form transformations and fresh-name generation.

The lazy case-splitting solver in :mod:`repro.smt.solver` only needs
negation normal form (:func:`to_nnf`); it explores disjunctions on demand
instead of expanding them.  The disjunctive-normal-form helpers
(:func:`dnf_cubes`, :func:`to_dnf`, :func:`cube_size_of`) are kept for the
eager reference oracle ``SmtSolver.check_sat_eager`` and for tests and
benchmarks that measure how much enumeration laziness avoids; ``limit``
guards their worst-case exponential blow-up.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from .formulas import (
    FALSE,
    TRUE,
    And,
    Atom,
    BoolConst,
    Forall,
    Formula,
    Not,
    Or,
    conjoin,
    disjoin,
)
from .terms import Var

__all__ = [
    "FreshNames",
    "to_nnf",
    "to_dnf",
    "dnf_cubes",
    "cube_size_of",
    "quantifier_free",
]


class FreshNames:
    """A generator of globally fresh variable names with a common prefix.

    Fresh names contain a ``#`` character, which the surface-language lexer
    rejects, so they can never clash with program variables.
    """

    def __init__(self, prefix: str = "tmp") -> None:
        self._prefix = prefix
        self._counter = itertools.count()

    def fresh(self, hint: str = "") -> Var:
        index = next(self._counter)
        if hint:
            return Var(f"{self._prefix}#{hint}#{index}")
        return Var(f"{self._prefix}#{index}")

    def fresh_name(self, hint: str = "") -> str:
        return self.fresh(hint).name


def to_nnf(formula: Formula) -> Formula:
    """Push negations down to atoms (quantifiers are left untouched)."""
    if isinstance(formula, (BoolConst, Atom)):
        return formula
    if isinstance(formula, And):
        return conjoin([to_nnf(arg) for arg in formula.args])
    if isinstance(formula, Or):
        return disjoin([to_nnf(arg) for arg in formula.args])
    if isinstance(formula, Not):
        inner = formula.arg
        if isinstance(inner, BoolConst):
            return FALSE if inner.value else TRUE
        if isinstance(inner, Atom):
            return inner.negated()
        if isinstance(inner, Not):
            return to_nnf(inner.arg)
        if isinstance(inner, And):
            return disjoin([to_nnf(Not(arg)) for arg in inner.args])
        if isinstance(inner, Or):
            return conjoin([to_nnf(Not(arg)) for arg in inner.args])
        if isinstance(inner, Forall):
            return Not(Forall(inner.index, to_nnf(inner.body)))
        raise TypeError(f"unexpected formula {inner!r}")
    if isinstance(formula, Forall):
        return Forall(formula.index, to_nnf(formula.body))
    raise TypeError(f"unexpected formula {formula!r}")


def dnf_cubes(formula: Formula, limit: int = 200_000) -> list[tuple[Formula, ...]]:
    """Expand a formula into a list of cubes (conjunctions of literals).

    Each cube is returned as a tuple of formulas; quantified sub-formulas and
    their negations are kept as opaque literals inside cubes.  ``limit`` bounds
    the number of cubes produced and guards against pathological blow-up.
    """
    nnf = to_nnf(formula)
    cubes = list(_cubes_of(nnf))
    if len(cubes) > limit:
        raise ValueError(f"DNF expansion produced {len(cubes)} cubes (limit {limit})")
    return cubes


def _cubes_of(formula: Formula) -> Iterator[tuple[Formula, ...]]:
    if isinstance(formula, BoolConst):
        if formula.value:
            yield ()
        return
    if isinstance(formula, (Atom, Forall, Not)):
        yield (formula,)
        return
    if isinstance(formula, Or):
        for arg in formula.args:
            yield from _cubes_of(arg)
        return
    if isinstance(formula, And):
        partial: list[tuple[Formula, ...]] = [()]
        for arg in formula.args:
            arg_cubes = list(_cubes_of(arg))
            if not arg_cubes:
                return
            partial = [left + right for left in partial for right in arg_cubes]
        yield from partial
        return
    raise TypeError(f"unexpected formula {formula!r}")


def to_dnf(formula: Formula) -> Formula:
    """Disjunctive normal form as a formula."""
    cubes = dnf_cubes(formula)
    return disjoin([conjoin(cube) for cube in cubes])


def cube_size_of(formula: Formula) -> int:
    """Number of cubes the DNF expansion of ``formula`` would have.

    Useful for tests and for deciding whether an eager expansion is viable.
    """
    return len(dnf_cubes(formula))


def quantifier_free(formula: Formula) -> bool:
    """True iff the formula contains no quantifier (even under negations)."""
    if isinstance(formula, (BoolConst, Atom)):
        return True
    if isinstance(formula, Forall):
        return False
    if isinstance(formula, Not):
        return quantifier_free(formula.arg)
    if isinstance(formula, (And, Or)):
        return all(quantifier_free(arg) for arg in formula.args)
    raise TypeError(f"unexpected formula {formula!r}")
