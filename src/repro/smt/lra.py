"""Conjunction-level linear-arithmetic solving.

This module drives the incremental simplex engine
(:class:`~repro.smt.simplex.IncrementalSimplex`) and adds the
integer-specific reasoning the verifier needs:

* *integer tightening* — for constraints whose variables all range over the
  integers, a strict inequality ``e < 0`` is replaced by ``e <= -1``; this is
  both sound and complete over integer valuations and is what allows e.g.
  ``i < n`` to justify the array-bound ``i <= n - 1``;
* *bounded branch and bound* — when a rational witness assigns a fractional
  value to an integer variable, the solver splits on ``x <= floor(v)`` versus
  ``x >= floor(v)+1``.  The branches are explored with ``push``/``pop`` on a
  shared tableau, so each branch only flips one bound.  Counterexample
  feasibility checks use this to avoid reporting bugs whose path formulas are
  only rationally satisfiable (the FORWARD path formula is the canonical
  example).

The module-level helpers :func:`assert_atoms` and :func:`integer_feasible`
are shared with the lazy case-splitting SMT core in :mod:`repro.smt.solver`,
which keeps one persistent :class:`IncrementalSimplex` across a whole
case-split tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..logic.formulas import Atom, Relation
from ..logic.terms import LinExpr, Rat, Var, register_intern_cache
from .linear import LinConstraint, normalize_constraint, tighten_integer
from .simplex import IncrementalSimplex

__all__ = ["LraSolver", "LraResult", "assert_atoms", "integer_feasible", "prepare_atom"]


@dataclass
class LraResult:
    """Outcome of a conjunction query."""

    satisfiable: bool
    model: Optional[dict[Var, Rat]] = None
    #: True when the answer required giving up (e.g. branch-and-bound budget
    #: exhausted); the reported answer is then the sound over-approximation
    #: "satisfiable".
    approximate: bool = False


#: Memoised atom -> prepared constraint, keyed on the interned atom.  The
#: sentinels are ``True`` (trivially true, skip) and ``False`` (trivially
#: false, conflict).  Hash-consing makes the key a pointer hash, so the hot
#: case-splitting paths re-prepare each distinct atom only once per process.
#: Dropped together with the interning tables by ``clear_intern_caches`` so
#: retired formula generations are not pinned in memory.
_prepared: dict[tuple[Atom, bool], "LinConstraint | bool"] = {}
register_intern_cache(_prepared.clear)


def prepare_atom(atom: Atom, integer_mode: bool) -> "LinConstraint | bool":
    """Normalise (and in integer mode tighten) an atom for the simplex."""
    key = (atom, integer_mode)
    cached = _prepared.get(key)
    if cached is None:
        if atom.is_trivially_true():
            cached = True
        elif atom.is_trivially_false():
            cached = False
        else:
            constraint = normalize_constraint(LinConstraint(atom.expr, atom.rel))
            if integer_mode:
                constraint = tighten_integer(constraint)
            cached = constraint
        _prepared[key] = cached
    return cached


def assert_atoms(
    simplex: IncrementalSimplex, atoms: Sequence[Atom], integer_mode: bool
) -> bool:
    """Assert a conjunction of (read-free) atoms; False on conflict.

    Disequalities must have been split by the caller.  Constraints are
    normalised and, in integer mode, tightened before they reach the
    simplex.
    """
    for atom in atoms:
        if atom.rel is Relation.NE:
            raise ValueError("disequalities must be split before the LRA solver")
        prepared = prepare_atom(atom, integer_mode)
        if prepared is True:
            continue
        if prepared is False:
            return False
        if not simplex.assert_constraint(prepared.expr, prepared.rel):
            return False
    return True


def _fractional_variable(model: dict[Var, Rat]) -> Optional[tuple[Var, Rat]]:
    for variable, value in sorted(model.items()):
        if value.denominator != 1:
            return variable, value
    return None


def integer_feasible(
    simplex: IncrementalSimplex, budget: int, integer_mode: bool = True
) -> LraResult:
    """Feasibility of the simplex's current bounds, with integer refinement.

    Rational feasibility is decided first; in integer mode, fractional
    witnesses are repaired by bounded branch and bound over ``push``/``pop``
    scopes of the shared tableau.  When the budget runs out the result is the
    sound over-approximation "satisfiable" flagged ``approximate`` (proofs
    only rely on UNSAT answers).
    """
    if not simplex.check():
        return LraResult(False)
    model = simplex.model()
    if not integer_mode:
        return LraResult(True, model)
    fractional = _fractional_variable(model)
    if fractional is None:
        return LraResult(True, model)
    if budget <= 0:
        return LraResult(True, model, approximate=True)
    variable, value = fractional
    floor = value.numerator // value.denominator
    branches = (
        LinExpr.variable(variable) - LinExpr.constant(floor),       # x <= floor
        LinExpr.constant(floor + 1) - LinExpr.variable(variable),   # x >= floor + 1
    )
    for branch in branches:
        simplex.push()
        try:
            if simplex.assert_constraint(branch, Relation.LE):
                result = integer_feasible(simplex, budget // 2, integer_mode)
                if result.satisfiable:
                    return result
        finally:
            simplex.pop()
    return LraResult(False)


class LraSolver:
    """Satisfiability of conjunctions of linear atoms over scalar variables.

    One persistent :class:`IncrementalSimplex` serves every query: each
    :meth:`check` runs inside a ``push``/``pop`` scope, so the slack-variable
    interning and the tableau rows built for one conjunction are reused by
    the next (re-asserting a previously seen linear form is a dictionary
    lookup instead of a row construction).
    """

    def __init__(self, integer_mode: bool = True, bb_limit: int = 40) -> None:
        self.integer_mode = integer_mode
        self.bb_limit = bb_limit
        #: Number of conjunction feasibility queries answered.
        self.num_checks = 0
        self._simplex = IncrementalSimplex()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def check(self, atoms: Sequence[Atom]) -> LraResult:
        """Check satisfiability of a conjunction of (read-free) atoms.

        Disequalities must have been split by the caller.  Equalities, strict
        and non-strict inequalities are accepted.
        """
        self.num_checks += 1
        simplex = self._simplex
        simplex.push()
        try:
            if not assert_atoms(simplex, atoms, self.integer_mode):
                return LraResult(False)
            return integer_feasible(simplex, self.bb_limit, self.integer_mode)
        finally:
            simplex.pop()

    def entails(self, antecedent: Sequence[Atom], consequent: Atom) -> bool:
        """Does the conjunction of ``antecedent`` imply ``consequent``?

        Entailment is decided over the rationals (with integer tightening of
        the hypotheses when integer mode is on), which is sound for integer
        semantics.  Disequality consequents are handled by case distinction.
        """
        if consequent.rel is Relation.NE:
            # a != 0  is entailed iff  (a < 0) or (a > 0) is entailed ... which
            # cannot be decided by two separate entailments in general, so fall
            # back to unsatisfiability of the negation (an equality).
            negated = [Atom(consequent.expr, Relation.EQ)]
        elif consequent.rel is Relation.EQ:
            return self.entails(antecedent, Atom(consequent.expr, Relation.LE)) and self.entails(
                antecedent, Atom(-consequent.expr, Relation.LE)
            )
        else:
            negated = [consequent.negated()]
        return not self.check(list(antecedent) + negated).satisfiable
