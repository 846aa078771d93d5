"""Best-effort strongest postconditions.

The synthesizer places templates only at cut-points (as the paper's tool
does: "Invariants for non-cut-point locations are obtained by computing
strongest postconditions from cut-points in a standard way").  This module
implements that propagation.  For scalar assignments the postcondition of the
purely numeric part is exact (computed by renaming and Fourier–Motzkin
projection); universally quantified conjuncts are propagated with two rules:

* if the assigned variable does not occur in the conjunct it is kept
  unchanged, and
* if it occurs only in the index bounds, the bounds are rewritten using the
  bounds on the assigned variable available in the remaining conjuncts (the
  range can only shrink, so the result is implied by the exact
  postcondition).  This is what turns
  ``forall k: 0 <= k <= i-1 -> a[k] = 0   /\\   i >= n`` into
  ``forall k: 0 <= k <= n-1 -> a[k] = 0`` when ``i`` is reassigned.

Everything that cannot be propagated soundly is dropped, so the result is
always an over-approximation of the exact strongest postcondition.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..lang.commands import ArrayAssign, Assign, Assume, Command, Havoc, Skip
from ..logic.formulas import (
    Atom,
    Forall,
    Formula,
    Or,
    Relation,
    conjoin,
    conjuncts,
)
from ..logic.terms import ArrayRead, LinExpr, Var, exact_div
from ..smt.fourier_motzkin import project
from ..smt.linear import LinConstraint

__all__ = ["strongest_post", "strongest_post_path", "forall_range"]


def strongest_post_path(formula: Formula, commands: Sequence[Command]) -> Formula:
    """Propagate a state formula through a sequence of commands."""
    current = formula
    for command in commands:
        current = strongest_post(current, command)
    return current


def strongest_post(formula: Formula, command: Command) -> Formula:
    """Propagate a state formula through a single command."""
    if isinstance(command, (Skip,)):
        return formula
    if isinstance(command, Assume):
        return conjoin([formula, command.cond])
    if isinstance(command, Assign):
        return _post_assign(formula, command)
    if isinstance(command, Havoc):
        return _drop_variables(formula, set(command.vars))
    if isinstance(command, ArrayAssign):
        return _post_array_assign(formula, command)
    raise TypeError(f"unexpected command {command!r}")


# ----------------------------------------------------------------------
# Scalar assignment
# ----------------------------------------------------------------------
def _post_assign(formula: Formula, command: Assign) -> Formula:
    assigned = Var(command.var)
    parts = conjuncts(formula)
    numeric: list[Atom] = []
    others: list[Formula] = []
    for part in parts:
        if isinstance(part, Atom) and not part.expr.array_reads():
            numeric.append(part)
        else:
            others.append(part)

    kept: list[Formula] = []
    # Quantified (and read-containing) conjuncts.
    bounds = _variable_bounds(numeric, assigned)
    for part in others:
        if assigned not in part.variables():
            kept.append(part)
            continue
        kept.extend(_rewrite_quantified_bounds(part, assigned, bounds))
        # non-rewritable conjuncts are dropped (sound weakening)

    # Numeric conjuncts: exact projection.
    kept.extend(_numeric_post(numeric, command))
    return conjoin(kept)


def _post_array_assign(formula: Formula, command: ArrayAssign) -> Formula:
    """Best-effort postcondition of an array write.

    Conjuncts that do not mention the written array are preserved; a
    quantified conjunct over the written array of the canonical range shape
    is extended by one cell when the write lands exactly one past its upper
    bound with the value the conjunct predicts (the initialisation-loop
    pattern); everything else about the written array is dropped.  The result
    is always implied by the exact postcondition.
    """
    kept: list[Formula] = []
    for part in conjuncts(formula):
        if command.array not in part.arrays():
            kept.append(part)
            continue
        if isinstance(part, Forall):
            decomposed = forall_range(part)
            if decomposed is not None:
                lower, upper, body = decomposed
                predicted = body.substitute({part.index: command.index})
                reads_only_written_array = part.arrays() == {command.array}
                if (
                    reads_only_written_array
                    and upper + LinExpr.constant(1) == command.index
                    and predicted == eq_formula(command.array, command.index, command.value)
                ):
                    kept.append(make_range_forall(part.index, lower, command.index, body))
                    continue
        # dropped (sound weakening)
    return conjoin(kept)


def eq_formula(array: str, index: LinExpr, value: LinExpr) -> Formula:
    """The atom ``array[index] = value`` (helper for the extension rule)."""
    from ..logic.formulas import eq as _eq
    from ..logic.terms import ArrayRead

    return _eq(LinExpr.make({ArrayRead(array, index): 1}), value)


def _numeric_post(atoms: Sequence[Atom], command: Assign) -> list[Formula]:
    """Exact postcondition of the numeric conjuncts under an assignment."""
    assigned = Var(command.var)
    old = Var(command.var + "#old")
    constraints: list[LinConstraint] = []
    ok = True
    for atom in atoms:
        renamed = atom.substitute({assigned: LinExpr.make({old: 1})})
        for constraint in _atom_to_constraints(renamed):
            if constraint is None:
                ok = False
                break
            constraints.append(constraint)
    if not ok or command.expr.array_reads():
        # An array read on the right-hand side is not a linear term, so there
        # is no defining equation to project through; treating the assignment
        # as a havoc of the target is the sound weakening.
        return [a for a in atoms if assigned not in a.variables()]
    # x' = e[x -> old]
    rhs = command.expr.substitute({assigned: LinExpr.make({old: 1})})
    defining = LinExpr.make({assigned: 1}) - rhs
    constraints.append(LinConstraint(defining, Relation.EQ))
    constraints.append(LinConstraint(-defining, Relation.EQ))
    projected = project(constraints, [old])
    if projected is None:
        # The precondition was unsatisfiable; the exact post is 'false', but
        # returning the original atoms (minus the assigned variable) is a
        # sound over-approximation and keeps fill-in formulas readable.
        return [a for a in atoms if assigned not in a.variables()]
    return [Atom(c.expr, c.rel) for c in projected]


def _atom_to_constraints(atom: Atom) -> list[Optional[LinConstraint]]:
    if atom.rel is Relation.NE:
        return [None]
    if atom.rel is Relation.EQ:
        return [
            LinConstraint(atom.expr, Relation.LE),
            LinConstraint(-atom.expr, Relation.LE),
        ]
    return [LinConstraint(atom.expr, atom.rel)]


def _drop_variables(formula: Formula, names: set[str]) -> Formula:
    kept = [
        part
        for part in conjuncts(formula)
        if not ({v.name for v in part.variables()} & names)
    ]
    return conjoin(kept)


# ----------------------------------------------------------------------
# Quantified-range rewriting
# ----------------------------------------------------------------------
def forall_range(formula: Forall) -> Optional[tuple[LinExpr, LinExpr, Formula]]:
    """Decompose ``forall k: lo <= k /\\ k <= hi -> body``.

    The quantified candidates produced by this library are represented as
    ``forall k: (k < lo) \\/ (k > hi) \\/ body``; this helper recovers the
    ``(lo, hi, body)`` triple, returning ``None`` for other shapes.
    """
    k = formula.index
    body = formula.body
    if not isinstance(body, Or):
        return None
    lower: Optional[LinExpr] = None
    upper: Optional[LinExpr] = None
    payload: list[Formula] = []
    for arg in body.args:
        handled = False
        if isinstance(arg, Atom) and arg.rel in (Relation.LT, Relation.LE):
            coeff = arg.expr.coeff(k)
            rest = arg.expr - LinExpr.make({k: coeff})
            if coeff == 1 and not rest.variables() & {k}:
                # k + rest < 0  ==  k < -rest : this is the "k < lo" disjunct,
                # i.e. lo = -rest (for LT) or lo = -rest + 1 (for LE).
                bound = -rest if arg.rel is Relation.LT else -rest + LinExpr.constant(1)
                if lower is None:
                    lower = bound
                    handled = True
            elif coeff == -1 and not rest.variables() & {k}:
                # -k + rest < 0  ==  k > rest : the "k > hi" disjunct.
                bound = rest if arg.rel is Relation.LT else rest - LinExpr.constant(1)
                if upper is None:
                    upper = bound
                    handled = True
        if not handled:
            payload.append(arg)
    if lower is None or upper is None or not payload:
        return None
    return lower, upper, conjoin(payload) if len(payload) > 1 else payload[0]


def make_range_forall(index: Var, lower: LinExpr, upper: LinExpr, body: Formula) -> Forall:
    """Build ``forall index: lower <= index <= upper -> body``."""
    below = Atom(LinExpr.make({index: 1}) - lower, Relation.LT)  # index < lower
    above = Atom(upper - LinExpr.make({index: 1}), Relation.LT)  # index > upper
    return Forall(index, Or((below, above, body)))


def _variable_bounds(
    atoms: Sequence[Atom], variable: Var
) -> tuple[list[LinExpr], list[LinExpr]]:
    """Lower/upper bound expressions for ``variable`` found in ``atoms``."""
    lowers: list[LinExpr] = []
    uppers: list[LinExpr] = []
    for atom in atoms:
        coeff = atom.expr.coeff(variable)
        if coeff == 0:
            continue
        rest = atom.expr - LinExpr.make({variable: coeff})
        if variable in rest.variables():
            continue
        bound = rest.scale(exact_div(-1, coeff))
        if atom.rel is Relation.EQ:
            lowers.append(bound)
            uppers.append(bound)
        elif atom.rel in (Relation.LE, Relation.LT):
            if coeff > 0:
                uppers.append(bound)
            else:
                lowers.append(bound)
    return lowers, uppers


def _rewrite_quantified_bounds(
    part: Formula, assigned: Var, bounds: tuple[list[LinExpr], list[LinExpr]]
) -> list[Formula]:
    """Rewrite a quantified conjunct whose range bounds mention ``assigned``.

    Every combination of admissible bound substitutions is returned (they are
    all implied by the exact postcondition; which one is *useful* depends on
    the downstream proof, so all of them are kept as separate conjuncts).
    """
    if not isinstance(part, Forall):
        return []
    decomposed = forall_range(part)
    if decomposed is None:
        return []
    lower, upper, body = decomposed
    if assigned in body.variables():
        return []
    lowers, uppers = bounds
    new_lowers = _substitute_bound(lower, assigned, lowers, uppers, want="max")
    new_uppers = _substitute_bound(upper, assigned, lowers, uppers, want="min")
    results: list[Formula] = []
    for new_lower in new_lowers[:4]:
        for new_upper in new_uppers[:4]:
            results.append(make_range_forall(part.index, new_lower, new_upper, body))
    return results


def _substitute_bound(
    bound: LinExpr,
    assigned: Var,
    lowers: list[LinExpr],
    uppers: list[LinExpr],
    want: str,
) -> list[LinExpr]:
    """Replacements of ``assigned`` inside a range bound that only shrink the range."""
    coeff = bound.coeff(assigned)
    if coeff == 0:
        return [bound]
    # For the new lower bound we need a value >= the old bound for every
    # admissible value of the assigned variable ("max"); for the new upper
    # bound we need "<=" ("min").
    if want == "max":
        replacements = uppers if coeff > 0 else lowers
    else:
        replacements = lowers if coeff > 0 else uppers
    results: list[LinExpr] = []
    for replacement in replacements:
        if assigned in replacement.variables():
            continue
        results.append(bound.substitute({assigned: replacement}))
    return results
