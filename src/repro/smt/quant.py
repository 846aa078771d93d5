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

A hypothesis is instantiated at the index terms of the ground reads of the
whole obligation.  When every quantifier of a core is a top-level hypothesis
(:func:`split_hypotheses`), that set is the union over the core and each
assumption checked against it, so the core's own instances can be asserted
once and each assumption adds only the instances at terms it introduces.
"""

from __future__ import annotations

from typing import Optional

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
    conjuncts,
    disjoin,
    negate,
)
from ..logic.terms import LinExpr
from ..logic.transform import FreshNames, quantifier_free
from .arrays import ground_reads

__all__ = [
    "skolemize_negative",
    "arrays_under_quantifier",
    "instantiation_terms",
    "instantiate_positive",
    "split_hypotheses",
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


def instantiation_terms(hypothesis: Forall, pool: Formula) -> list[LinExpr]:
    """The index terms at which ``hypothesis`` is instantiated against ``pool``.

    The candidates are the index expressions of all ground reads in ``pool``
    of an array the hypothesis reads at its bound index (compared by base
    name, the name before any ``@`` version suffix), in a fixed order.
    """
    bases = {_base_name(a) for a in arrays_under_quantifier(hypothesis)}
    terms: list[LinExpr] = []
    seen: set[LinExpr] = set()
    for read in sorted(ground_reads(pool), key=str):
        if _base_name(read.array) not in bases:
            continue
        if read.index not in seen:
            seen.add(read.index)
            terms.append(read.index)
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
        terms = instantiation_terms(formula, pool)
        if not terms:
            # No relevant read: the hypothesis contributes nothing (sound
            # weakening for unsatisfiability checking).
            return TRUE
        instances = [formula.instantiate(term) for term in terms]
        return conjoin(instances)
    raise TypeError(f"unexpected formula {formula!r}")


def split_hypotheses(formula: Formula) -> Optional[tuple[tuple[Forall, ...], Formula]]:
    """``formula`` as its top-level ∀ conjuncts and its quantifier-free rest.

    This is the shape whose instantiation can be split across a shared core
    and the assumptions checked against it: a hypothesis is instantiated at
    the terms of every ground read of the whole obligation
    (:func:`instantiation_terms`), and the ground reads of a conjunction are
    those of its conjuncts.  ``None`` when a quantifier sits anywhere else
    — nested in a hypothesis, under a disjunction or under a negation —
    where :func:`instantiate_positive` must see the whole obligation at once.
    """
    hypotheses: list[Forall] = []
    rest: list[Formula] = []
    for part in conjuncts(formula):
        if isinstance(part, Forall):
            if not quantifier_free(part.body):
                return None
            hypotheses.append(part)
        elif quantifier_free(part):
            rest.append(part)
        else:
            return None
    return tuple(hypotheses), conjoin(rest)
