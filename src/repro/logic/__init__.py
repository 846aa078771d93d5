"""Terms, formulas and normal forms used throughout the library."""

from .terms import ArrayRead, Atomic, LinExpr, Rat, Var, as_rat, const, exact_div, read, var
from .terms import clear_intern_caches as _clear_term_intern_caches
from .formulas import clear_formula_intern_caches as _clear_formula_intern_caches
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
    conjuncts,
    disjoin,
    disjuncts,
    eq,
    ge,
    gt,
    implies_formula,
    le,
    lt,
    ne,
    negate,
)
from .transform import FreshNames, dnf_cubes, quantifier_free, to_dnf, to_nnf
from .simplify import normalize_atom, simplify


def clear_intern_caches() -> None:
    """Drop the hash-consing tables of both the term and formula layers.

    Only call this between independent verification problems; see
    :mod:`repro.logic.terms` for the caveats.
    """
    _clear_term_intern_caches()
    _clear_formula_intern_caches()


__all__ = [
    "ArrayRead",
    "Atomic",
    "LinExpr",
    "Rat",
    "Var",
    "as_rat",
    "clear_intern_caches",
    "const",
    "exact_div",
    "read",
    "var",
    "FALSE",
    "TRUE",
    "And",
    "Atom",
    "BoolConst",
    "Forall",
    "Formula",
    "Not",
    "Or",
    "Relation",
    "conjoin",
    "conjuncts",
    "disjoin",
    "disjuncts",
    "eq",
    "ge",
    "gt",
    "implies_formula",
    "le",
    "lt",
    "ne",
    "negate",
    "FreshNames",
    "dnf_cubes",
    "quantifier_free",
    "to_dnf",
    "to_nnf",
    "normalize_atom",
    "simplify",
]
