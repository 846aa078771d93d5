"""Candidate invariant generation (template instantiation space).

The constraint-based synthesizer of the paper instantiates parameters of
invariant templates.  This module enumerates the corresponding *candidate
assertions* over a structured, program-derived grid:

* linear candidates are mined from the guards of the path program, from the
  target assertion (including the paper's heuristic of replacing variables of
  the assertion by other program variables, which is how ``a+b = 3i`` arises
  from ``a+b = 3n``), and from simple bound patterns between variables;
* universally quantified candidates follow the tractable template shape of
  Section 4.2, ``forall k: p1(X) <= k <= p2(X) -> a[k] REL p3(X)``, with the
  bound expressions drawn from index variables (and their ±1 offsets) and the
  right-hand sides drawn from the values written to or compared against the
  array in the path program.

The candidates are then filtered to the greatest inductive subset by the
Houdini-style pruning loop in :mod:`repro.invgen.synthesize`; soundness never
depends on the heuristics here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..lang.cfg import Program
from ..lang.commands import ArrayAssign, Assume
from ..logic.formulas import (
    Atom,
    Formula,
    Relation,
    eq,
    ge,
    le,
)
from ..logic.simplify import normalize_atom
from ..logic.terms import ArrayRead, LinExpr, Var, exact_div
from .postcond import make_range_forall

__all__ = [
    "mine_linear_candidates",
    "quantified_candidates",
    "collect_array_facts",
    "ArrayFacts",
]

#: Bound variable used in every quantified candidate.
_INDEX = Var("__k")
#: Caps on the linear and the quantified candidates mined from one program.
MAX_LINEAR_CANDIDATES = 120
MAX_QUANTIFIED_CANDIDATES = 400


# ----------------------------------------------------------------------
# Linear candidates
# ----------------------------------------------------------------------
def mine_linear_candidates(program: Program) -> list[Formula]:
    """Linear candidate assertions mined from the program text."""
    candidates: list[Atom] = []
    guard_atoms: list[Atom] = []
    assertion_atoms: list[Atom] = []

    for transition in program.transitions:
        into_error = transition.target == program.error
        for command in transition.commands:
            if not isinstance(command, Assume):
                continue
            for atom in command.cond.atoms():
                if into_error:
                    assertion_atoms.append(atom.negated())
                else:
                    guard_atoms.append(atom)

    scalars = [Var(name) for name in program.variables if not name.startswith("__")]

    # 1. Guards and their non-strict relaxations.
    for atom in guard_atoms:
        candidates.extend(_relaxations(atom))

    # 2. Assertion atoms and variable-substituted variants (the paper's
    #    template heuristic: parameterise the target assertion).
    for atom in assertion_atoms:
        candidates.extend(_relaxations(atom))
        mentioned = sorted(atom.expr.variables())
        for original in mentioned:
            for replacement in scalars:
                if replacement == original:
                    continue
                substituted = atom.substitute({original: LinExpr.make({replacement: 1})})
                candidates.extend(_relaxations(substituted))

    # 3. Simple bounds between scalar variables and against small constants.
    for variable in scalars:
        candidates.append(ge(LinExpr.make({variable: 1}), 0))
        candidates.append(ge(LinExpr.make({variable: 1}), 1))
    for left in scalars:
        for right in scalars:
            if left == right:
                continue
            candidates.append(le(LinExpr.make({left: 1}), LinExpr.make({right: 1})))

    # Deduplicate (after normalisation) and drop trivial or read-bearing atoms.
    unique: list[Formula] = []
    seen: set[Formula] = set()
    for atom in candidates:
        if atom.expr.array_reads():
            continue
        normalised = normalize_atom(atom)
        if not isinstance(normalised, Atom):
            continue
        if normalised.rel is Relation.NE:
            continue
        if normalised in seen:
            continue
        seen.add(normalised)
        unique.append(normalised)
        if len(unique) >= MAX_LINEAR_CANDIDATES:
            break
    return unique


def _relaxations(atom: Atom) -> list[Atom]:
    """An atom together with its useful weakenings."""
    results = [atom]
    if atom.rel is Relation.EQ:
        results.append(Atom(atom.expr, Relation.LE))
        results.append(Atom(-atom.expr, Relation.LE))
    elif atom.rel is Relation.LT:
        results.append(Atom(atom.expr, Relation.LE))
    elif atom.rel is Relation.NE:
        results = []
    return results


# ----------------------------------------------------------------------
# Quantified candidates
# ----------------------------------------------------------------------
@dataclass
class ArrayFacts:
    """Syntactic facts about how an array is used by a path program."""

    name: str
    #: Scalar variables used as write indices.
    write_index_vars: set[Var] = field(default_factory=set)
    #: Scalar variables used as read indices (in assumes).
    read_index_vars: set[Var] = field(default_factory=set)
    #: Right-hand sides as (relation-name, expression over the bound
    #: variable) pairs, where the relation name is one of "eq", "le", "ge".
    body_candidates: list[tuple[str, LinExpr]] = field(default_factory=list)
    #: Variables that bound the index variables in guards (e.g. ``n``).
    bound_vars: set[Var] = field(default_factory=set)


def collect_array_facts(program: Program) -> dict[str, ArrayFacts]:
    """Scan the path program and collect per-array template ingredients."""
    facts: dict[str, ArrayFacts] = {name: ArrayFacts(name) for name in program.arrays}
    index_vars: set[Var] = set()

    for transition in program.transitions:
        for command in transition.commands:
            if isinstance(command, ArrayAssign):
                fact = facts.setdefault(command.array, ArrayFacts(command.array))
                idx_vars = command.index.variables()
                fact.write_index_vars |= idx_vars
                index_vars |= idx_vars
                rhs = _generalise_over_index(command.value, command.index)
                _add_body_candidate(fact, "eq", rhs)
            elif isinstance(command, Assume):
                for atom in command.cond.atoms():
                    for read in atom.expr.array_reads():
                        fact = facts.setdefault(read.array, ArrayFacts(read.array))
                        idx_vars = read.index.variables()
                        fact.read_index_vars |= idx_vars
                        index_vars |= idx_vars
                        extracted = _extract_body(atom, read)
                        if extracted is not None:
                            _add_body_candidate(fact, *extracted)

    # Bound variables: scalars compared against index variables in guards.
    for transition in program.transitions:
        for command in transition.commands:
            if not isinstance(command, Assume):
                continue
            for atom in command.cond.atoms():
                if atom.expr.array_reads():
                    continue
                mentioned = atom.expr.variables()
                if mentioned & index_vars:
                    for fact in facts.values():
                        fact.bound_vars |= mentioned - index_vars
    return facts


def _generalise_over_index(value: LinExpr, index: LinExpr) -> LinExpr:
    """Rewrite a written value as a function of the quantified index.

    If the write index is a single variable ``i``, occurrences of ``i`` in the
    value (including inside nested array reads, as in ``b[i] = a[i]``) are
    replaced by the bound variable.
    """
    index_vars = sorted(index.variables())
    if len(index_vars) == 1 and index == LinExpr.make({index_vars[0]: 1}):
        return value.substitute({index_vars[0]: LinExpr.make({_INDEX: 1})})
    return value


def _extract_body(atom: Atom, read: ArrayRead) -> Optional[tuple[str, LinExpr]]:
    """From an atom mentioning ``read``, derive a candidate body ``a[k] REL rhs``."""
    coeff = atom.expr.coeff(read)
    if coeff == 0:
        return None
    rest = atom.expr - LinExpr.make({read: coeff})
    if rest.array_reads():
        return None
    rhs = rest.scale(exact_div(-1, coeff))
    rhs = _generalise_over_index(rhs, read.index)
    if atom.rel is Relation.EQ:
        return "eq", rhs
    if atom.rel in (Relation.LE, Relation.LT):
        # coeff > 0 : read <= rhs ; coeff < 0 : read >= rhs.  Strictness is
        # dropped (the candidate is weaker, hence more likely inductive).
        return ("le" if coeff > 0 else "ge"), rhs
    return None


def _add_body_candidate(fact: ArrayFacts, rel: str, rhs: LinExpr) -> None:
    if (rel, rhs) not in fact.body_candidates:
        fact.body_candidates.append((rel, rhs))


def quantified_candidates(program: Program, wide: bool = False) -> list[Formula]:
    """Universally quantified candidate assertions for every array."""
    facts = collect_array_facts(program)
    candidates: list[Formula] = []
    seen: set[Formula] = set()
    for name in sorted(facts):
        fact = facts[name]
        if not fact.body_candidates:
            continue
        index_vars = sorted(fact.write_index_vars | fact.read_index_vars)
        bound_vars = sorted(fact.bound_vars - set(index_vars))
        lowers, uppers = _bound_expressions(index_vars, bound_vars, wide)
        for rel, rhs in fact.body_candidates:
            body = _body_formula(name, rel, rhs)
            for lower in lowers:
                for upper in uppers:
                    if lower == upper + LinExpr.constant(1):
                        continue  # empty range
                    candidate = make_range_forall(_INDEX, lower, upper, body)
                    if candidate in seen:
                        continue
                    seen.add(candidate)
                    candidates.append(candidate)
                    if len(candidates) >= MAX_QUANTIFIED_CANDIDATES:
                        return candidates
    return candidates


def _body_formula(array: str, rel: str, rhs: LinExpr) -> Formula:
    read = LinExpr.make({ArrayRead(array, LinExpr.make({_INDEX: 1})): 1})
    if rel == "eq":
        return eq(read, rhs)
    if rel == "le":
        return le(read, rhs)
    return ge(read, rhs)


def _bound_expressions(
    index_vars: Sequence[Var], bound_vars: Sequence[Var], wide: bool
) -> tuple[list[LinExpr], list[LinExpr]]:
    """Lower/upper bound expressions for the quantified index."""
    zero = LinExpr.constant(0)
    lowers: list[LinExpr] = [zero]
    uppers: list[LinExpr] = []
    for var in index_vars:
        expr = LinExpr.make({var: 1})
        lowers.append(expr)
        uppers.append(expr - LinExpr.constant(1))
    for var in bound_vars:
        expr = LinExpr.make({var: 1})
        uppers.append(expr - LinExpr.constant(1))
    if wide:
        for var in list(index_vars) + list(bound_vars):
            expr = LinExpr.make({var: 1})
            for offset in (-1, 0, 1):
                shifted = expr + LinExpr.constant(offset)
                if shifted not in lowers:
                    lowers.append(shifted)
                if shifted not in uppers:
                    uppers.append(shifted)
        if LinExpr.constant(1) not in lowers:
            lowers.append(LinExpr.constant(1))
    return lowers, uppers
