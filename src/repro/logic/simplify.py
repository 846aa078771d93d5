"""Lightweight syntactic simplification of formulas.

The simplifier is purely syntactic (constant folding, duplicate removal,
absorption of obviously redundant bounds).  It never changes the meaning of a
formula; semantic simplification is the job of the solvers in
:mod:`repro.smt`.
"""

from __future__ import annotations

from typing import Iterable

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
    Relation,
    conjoin,
    disjoin,
)
from .terms import exact_div

__all__ = ["simplify", "normalize_atom", "simplify_conjunction"]


def normalize_atom(atom: Atom) -> Formula:
    """Constant-fold an atom and scale it to a canonical representative.

    The expression is divided by the greatest common divisor of its
    coefficients (keeping direction), so for example ``2x - 4 <= 0`` and
    ``x - 2 <= 0`` normalise to the same atom.
    """
    expr = atom.expr
    if expr.is_constant():
        return TRUE if atom.rel.holds(expr.const) else FALSE
    coeffs = [abs(c) for _, c in expr.terms] + ([abs(expr.const)] if expr.const else [])
    # Compute the gcd of numerators over the lcm of denominators to obtain a
    # positive rational scaling factor.
    numerators = [c.numerator for c in coeffs if c != 0]
    denominators = [c.denominator for c in coeffs if c != 0]
    if not numerators:
        return atom
    gcd = numerators[0]
    for n in numerators[1:]:
        gcd = _gcd(gcd, n)
    lcm = denominators[0]
    for d in denominators[1:]:
        lcm = lcm * d // _gcd(lcm, d)
    factor = exact_div(lcm, gcd)
    if factor != 1:
        expr = expr.scale(factor)
    return Atom(expr, atom.rel)


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return abs(a)


def simplify(formula: Formula) -> Formula:
    """Recursively constant-fold and canonicalise a formula."""
    if isinstance(formula, BoolConst):
        return formula
    if isinstance(formula, Atom):
        return normalize_atom(formula)
    if isinstance(formula, Not):
        inner = simplify(formula.arg)
        if isinstance(inner, BoolConst):
            return FALSE if inner.value else TRUE
        if isinstance(inner, Atom):
            return inner.negated()
        return Not(inner)
    if isinstance(formula, And):
        return simplify_conjunction([simplify(arg) for arg in formula.args])
    if isinstance(formula, Or):
        return disjoin([simplify(arg) for arg in formula.args])
    if isinstance(formula, Forall):
        body = simplify(formula.body)
        if isinstance(body, BoolConst):
            return body
        return Forall(formula.index, body)
    raise TypeError(f"unexpected formula {formula!r}")


def simplify_conjunction(parts: Iterable[Formula]) -> Formula:
    """Conjoin formulas, dropping bounds subsumed by tighter ones.

    Only inexpensive, purely syntactic subsumption is applied: if two atoms
    differ only in their constant and point in the same direction, the weaker
    one is dropped; a pair of directly contradictory constant bounds collapses
    the conjunction to false.
    """
    flat = conjoin(parts)
    if not isinstance(flat, And):
        return flat

    atoms: list[Atom] = [a for a in flat.args if isinstance(a, Atom)]
    others = [a for a in flat.args if not isinstance(a, Atom)]

    # Group inequality atoms by their variable part (expression minus const).
    best: dict[tuple, Atom] = {}
    kept: list[Atom] = []
    for atom in atoms:
        if atom.rel not in (Relation.LE, Relation.LT):
            kept.append(atom)
            continue
        key = (atom.expr.terms,)
        current = best.get(key)
        if current is None:
            best[key] = atom
            continue
        # Both constraints read  terms + const REL 0 : the larger constant is
        # the tighter bound; for equal constants, strict beats non-strict.
        if atom.expr.const > current.expr.const or (
            atom.expr.const == current.expr.const and atom.rel is Relation.LT
        ):
            best[key] = atom
    kept.extend(best.values())

    # Detect direct contradictions between a kept upper bound and an equality.
    result = conjoin(list(kept) + list(others))
    return result
