"""Quantifier handling for the array-property fragment.

The verification conditions of the paper contain universal quantifiers in two
positions:

* *negative* occurrences (a quantified assertion that must be established),
  which are skolemised — exactly the step "let ``k*`` be a fresh variable"
  from Section 4.2 — and
* *positive* occurrences (a quantified hypothesis), which are instantiated at
  the finitely many array-read index terms occurring elsewhere in the
  obligation, mirroring the paper's replacement of the quantified conjunct
  ``pi`` by its relevant instances.

Instantiating hypotheses at read terms is sound (it only weakens the
hypothesis) and, by the decidability result for the array property fragment
[Bradley–Manna–Sipma 2006] the paper builds on, sufficient for obligations in
the fragment targeted by the templates.
"""

from __future__ import annotations

from typing import Iterable

from ..logic.formulas import (
    And,
    Atom,
    BoolConst,
    Forall,
    Formula,
    Not,
    Or,
    TRUE,
    conjoin,
    disjoin,
    negate,
)
from ..logic.terms import ArrayRead, LinExpr, Var
from ..logic.transform import FreshNames
from .arrays import ground_reads

__all__ = [
    "skolemize_negative",
    "arrays_under_quantifier",
    "instantiation_terms",
    "instantiate_positive",
]


def skolemize_negative(formula: Formula, fresh: FreshNames) -> Formula:
    """Replace negative universal quantifiers by skolemised instances.

    ``Not(Forall(k, body))`` becomes ``Not(body[k := k_sk])`` for a fresh
    ``k_sk``; the transformation is equisatisfiable.
    """
    if isinstance(formula, (BoolConst, Atom)):
        return formula
    if isinstance(formula, And):
        return conjoin([skolemize_negative(arg, fresh) for arg in formula.args])
    if isinstance(formula, Or):
        return disjoin([skolemize_negative(arg, fresh) for arg in formula.args])
    if isinstance(formula, Forall):
        return Forall(formula.index, skolemize_negative(formula.body, fresh))
    if isinstance(formula, Not):
        inner = formula.arg
        if isinstance(inner, Forall):
            skolem = fresh.fresh(f"sk_{inner.index.name}")
            instance = inner.body.substitute({inner.index: LinExpr.make({skolem: 1})})
            return skolemize_negative(negate(instance), fresh)
        return negate(skolemize_negative(inner, fresh))
    raise TypeError(f"unexpected formula {formula!r}")


def arrays_under_quantifier(forall: Forall) -> set[str]:
    """Arrays read at the quantified index inside the body of ``forall``."""
    arrays: set[str] = set()
    for read in forall.body.array_reads():
        if forall.index in read.index.variables():
            arrays.add(read.array)
    return arrays


def instantiation_terms(
    formula: Formula, arrays: set[str], extra_terms: Iterable[LinExpr] = ()
) -> list[LinExpr]:
    """Candidate index terms for instantiating a hypothesis over ``arrays``.

    The candidates are the index expressions of all ground reads of the same
    base array anywhere in the obligation (base = the name before any ``@``
    version suffix), plus any explicitly supplied extra terms.
    """
    bases = {_base_name(a) for a in arrays}
    terms: list[LinExpr] = []
    seen: set[LinExpr] = set()
    for read in sorted(ground_reads(formula), key=str):
        if _base_name(read.array) not in bases:
            continue
        if read.index not in seen:
            seen.add(read.index)
            terms.append(read.index)
    for term in extra_terms:
        if term not in seen:
            seen.add(term)
            terms.append(term)
    return terms


def _base_name(array: str) -> str:
    return array.split("@", 1)[0]


def instantiate_positive(
    formula: Formula, context: Formula | None = None, rounds: int = 2
) -> Formula:
    """Replace positive universal quantifiers by finite instantiations.

    ``context`` (defaulting to ``formula`` itself) supplies the pool of array
    reads from which instantiation terms are drawn.  The replacement weakens
    the formula, so an UNSAT answer on the result carries over to the
    original formula.
    """
    pool = context if context is not None else formula
    current = formula
    for _ in range(rounds):
        replaced = _instantiate_once(current, pool)
        if replaced == current:
            return current
        current = replaced
        pool = current
    return current


def _instantiate_once(formula: Formula, pool: Formula) -> Formula:
    if isinstance(formula, (BoolConst, Atom)):
        return formula
    if isinstance(formula, And):
        return conjoin([_instantiate_once(arg, pool) for arg in formula.args])
    if isinstance(formula, Or):
        return disjoin([_instantiate_once(arg, pool) for arg in formula.args])
    if isinstance(formula, Not):
        return Not(_instantiate_once(formula.arg, pool))
    if isinstance(formula, Forall):
        arrays = arrays_under_quantifier(formula)
        terms = instantiation_terms(pool, arrays)
        if not terms:
            # No relevant read: the hypothesis contributes nothing (sound
            # weakening for unsatisfiability checking).
            return TRUE
        instances = [formula.instantiate(term) for term in terms]
        return conjoin(instances)
    raise TypeError(f"unexpected formula {formula!r}")

