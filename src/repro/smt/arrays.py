"""Array reasoning: store resolution and read handling.

Two mechanisms live here.

1. :func:`resolve_stores` performs the *read-over-write* case split of
   Section 4.2 of the paper on the formula level: a read ``a1[t]`` where
   ``a1 = store(a0, i, v)`` becomes a value variable ``r`` with the
   definition ``(t = i ∧ r = v) ∨ (t ≠ i ∧ r = a0[t])`` — either the read
   returns the written value ``v`` or it falls through to ``a0[t]``.  One
   variable per distinct read and one definition per store it passes keep
   the formula linear in reads × stores; copying the formula into a hit and
   a miss branch per read would double it with every read.

2. :class:`CubeSolver` decides conjunctions that still contain reads of
   *base* (store-free) arrays.  Reads are treated as applications of
   uninterpreted functions: each distinct read is replaced by a fresh value
   variable and the functionality axiom ("equal indices give equal values")
   is enforced lazily by splitting on the order of the two indices whenever a
   candidate model violates it.

   The lazy case-splitting solver in :mod:`repro.smt.solver` implements the
   same read flattening and functionality splits natively on its persistent
   constraint store; :class:`CubeSolver` remains as the conjunction-level
   engine behind the eager-DNF reference path (``check_sat_eager``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

from ..logic.formulas import (
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
    eq,
    negate,
)
from ..logic.terms import ArrayRead, LinExpr, Rat, Var
from ..logic.transform import FreshNames
from .budget import BudgetExhausted
from .lra import LraResult, LraSolver

__all__ = [
    "Store",
    "resolve_stores",
    "CubeSolver",
    "ground_reads",
    "flatten_reads",
    "find_functionality_violation",
]


@dataclass(frozen=True)
class Store:
    """A single array write: ``target = store(base, index, value)``."""

    base: str
    index: LinExpr
    value: LinExpr


def ground_reads(formula: Formula) -> set[ArrayRead]:
    """Array reads of a formula that are not under a quantifier.

    Reads whose index mentions a quantified variable are handled during
    instantiation instead, exactly as in the paper's reduction.
    """
    reads: set[ArrayRead] = set()
    _collect_ground_reads(formula, reads)
    return reads


def _collect_ground_reads(formula: Formula, out: set[ArrayRead]) -> None:
    if isinstance(formula, BoolConst):
        return
    if isinstance(formula, Atom):
        out.update(formula.expr.array_reads())
        return
    if isinstance(formula, Not):
        _collect_ground_reads(formula.arg, out)
        return
    if isinstance(formula, (And, Or)):
        for arg in formula.args:
            _collect_ground_reads(arg, out)
        return
    if isinstance(formula, Forall):
        # Skip: reads under the quantifier are not ground.
        return
    raise TypeError(f"unexpected formula {formula!r}")


def resolve_stores(
    formula: Formula, stores: dict[str, Store], deadline: Optional[float] = None
) -> Formula:
    """Eliminate reads of written-to array versions by read-over-write definitions.

    ``stores`` maps an array symbol to the store that defines it; symbols not
    in the map are base arrays.  Each distinct ground read ``a@k[t]`` of a
    written version gets one value variable ``r``, named from the read itself
    (``sel#a@k[t]``: the lexer rejects ``#``, so no program variable clashes,
    and the same read gets the same variable in every formula).  For
    ``a@k = store(a@(k-1), i, v)`` the result conjoins one definition
    ``(t = i ∧ r = v) ∨ (t ≠ i ∧ r = r')``, where ``r'`` is the value of
    ``a@(k-1)[t]``: another value variable, or the base read itself.  When
    ``t = i`` holds or fails syntactically, the read takes ``v`` or ``r'``
    outright.  Read indices, store indices and stored values are resolved
    first, innermost reads first; the SSA store chain is acyclic, so this
    terminates.  The result grows with reads × stores and contains only reads
    of base arrays outside quantifiers.  Quantifier bodies get the read →
    value mapping through ``substitute_reads``; their reads at the bound
    index are expected to target base arrays already.

    With a ``deadline`` (an absolute ``time.perf_counter()`` value) each new
    definition checks it and raises
    :class:`~repro.smt.budget.BudgetExhausted` once it has passed.
    """
    if not stores:
        return formula
    resolver = _StoreResolver(stores, deadline)
    resolved = resolver.formula(formula)
    if resolver.quantified and resolved is not formula:
        resolved = resolved.substitute_reads(resolver.values)
    if not resolver.definitions:
        return resolved
    return conjoin([resolved, *resolver.definitions])


class _StoreResolver:
    """One :func:`resolve_stores` walk, memoised on the interned nodes."""

    def __init__(self, stores: dict[str, Store], deadline: Optional[float]) -> None:
        self.stores = stores
        self.deadline = deadline
        #: read (as written, or with its index resolved) -> its value
        self.values: dict[ArrayRead, LinExpr] = {}
        #: one read-over-write definition per value variable, innermost first
        self.definitions: list[Formula] = []
        #: whether the walk passed a quantifier, whose body it leaves alone
        self.quantified = False
        self._formulas: dict[Formula, Formula] = {}
        self._exprs: dict[LinExpr, LinExpr] = {}

    def formula(self, formula: Formula) -> Formula:
        resolved = self._formulas.get(formula)
        if resolved is not None:
            return resolved
        resolved = formula
        if isinstance(formula, Atom):
            expr = self.expr(formula.expr)
            if expr is not formula.expr:
                resolved = Atom(expr, formula.rel)
        elif isinstance(formula, (And, Or)):
            args = [self.formula(arg) for arg in formula.args]
            if any(new is not old for new, old in zip(args, formula.args)):
                resolved = conjoin(args) if isinstance(formula, And) else disjoin(args)
        elif isinstance(formula, Not):
            arg = self.formula(formula.arg)
            if arg is not formula.arg:
                resolved = negate(arg)
        elif isinstance(formula, Forall):
            self.quantified = True
        self._formulas[formula] = resolved
        return resolved

    def expr(self, expr: LinExpr) -> LinExpr:
        resolved = self._exprs.get(expr)
        if resolved is None:
            resolved = expr
            if expr.array_reads():
                mapping = {
                    atom: self.read(atom)
                    for atom, _ in expr.terms
                    if isinstance(atom, ArrayRead)
                }
                resolved = expr.substitute_reads(mapping)
            self._exprs[expr] = resolved
        return resolved

    def read(self, read: ArrayRead) -> LinExpr:
        """The value of a ground read: its index resolved, then selected."""
        value = self.values.get(read)
        if value is None:
            value = self.select(read.array, self.expr(read.index))
            self.values[read] = value
        return value

    def select(self, array: str, index: LinExpr) -> LinExpr:
        """The value of ``array[index]`` for an already resolved ``index``."""
        # Walk down the store chain (a loop, so a long path cannot exhaust
        # the recursion limit) to a version whose value at ``index`` is
        # known, then define the reads above it, innermost first.
        passed: list[tuple[ArrayRead, Store, Atom]] = []
        while True:
            read = ArrayRead(array, index)
            store = self.stores.get(array)
            if store is None:
                value = LinExpr.make({read: 1})
                break
            value = self.values.get(read)
            if value is not None:
                break
            hit = eq(index, self.expr(store.index))
            if hit.is_trivially_true():
                value = self.expr(store.value)
                self.values[read] = value
                break
            passed.append((read, store, hit))
            array = store.base
        for read, store, hit in reversed(passed):
            if not hit.is_trivially_false():
                if self.deadline is not None and time.perf_counter() > self.deadline:
                    raise BudgetExhausted()
                older = value
                value = LinExpr.make({Var(f"sel#{read}"): 1})
                self.definitions.append(
                    disjoin(
                        [
                            conjoin([hit, eq(value, self.expr(store.value))]),
                            conjoin([hit.negated(), eq(value, older)]),
                        ]
                    )
                )
            self.values[read] = value
        return value


def flatten_reads(
    expr: LinExpr,
    value_var_of,
    triples: list[tuple[Var, str, LinExpr]],
) -> LinExpr:
    """Replace array reads by value variables, innermost indices first.

    ``value_var_of`` maps a canonical (read-flattened) :class:`ArrayRead` to
    its value variable — the caller owns the interning policy.  Every read
    encountered is appended to ``triples`` as ``(value var, array, flattened
    index)``; duplicates are possible and left to the caller to ignore.
    This is the single source of truth for read canonicalisation, shared by
    the eager :class:`CubeSolver` and the lazy engine in
    :mod:`repro.smt.solver`.
    """
    reads = sorted(expr.array_reads(), key=lambda r: len(str(r)))
    if not reads:
        return expr
    substitution: dict[ArrayRead, LinExpr] = {}
    for read in reads:
        flat_index = flatten_reads(read.index, value_var_of, triples)
        canonical = ArrayRead(read.array, flat_index)
        value_var = value_var_of(canonical)
        triples.append((value_var, read.array, flat_index))
        substitution[read] = LinExpr.make({value_var: 1})
    return expr.substitute_reads(substitution)


def _evaluate_flat(expr: LinExpr, model: dict[Var, Rat]) -> Rat:
    total = expr.const
    for atom, coeff in expr.terms:
        assert isinstance(atom, Var)
        total += coeff * model.get(atom, 0)
    return total


def find_functionality_violation(
    reads: Sequence[tuple[Var, str, LinExpr]],
    model: dict[Var, Rat],
    decided,
) -> Optional[tuple[Var, Var, LinExpr, LinExpr]]:
    """First pair of same-array reads whose model violates functionality.

    ``reads`` holds ``(value var, array, flattened index)`` triples; a pair
    violates the axiom when the index expressions evaluate equally under
    ``model`` but the value variables differ.  Pairs recorded in ``decided``
    (as ``frozenset((var_a, var_b))``) are skipped.  Shared by both solver
    engines.
    """
    items = sorted(reads, key=lambda item: item[0].name)
    for position, (var_a, array_a, index_a) in enumerate(items):
        for var_b, array_b, index_b in items[position + 1 :]:
            if array_a != array_b:
                continue
            if frozenset((var_a, var_b)) in decided:
                continue
            value_a = _evaluate_flat(index_a, model)
            value_b = _evaluate_flat(index_b, model)
            if value_a == value_b and model.get(var_a, 0) != model.get(
                var_b, 0
            ):
                return var_a, var_b, index_a, index_b
    return None


class CubeSolver:
    """Decide conjunctions of atoms over integers with base-array reads."""

    def __init__(self, lra: Optional[LraSolver] = None) -> None:
        self.lra = lra or LraSolver()
        self._fresh = FreshNames("rd")

    # ------------------------------------------------------------------
    def check(self, atoms: Sequence[Atom]) -> LraResult:
        """Satisfiability of the conjunction of ``atoms``."""
        # 1. split disequalities
        for position, atom in enumerate(atoms):
            if atom.rel is Relation.NE:
                rest = list(atoms[:position]) + list(atoms[position + 1 :])
                less = self.check(rest + [Atom(atom.expr, Relation.LT)])
                if less.satisfiable:
                    return less
                return self.check(rest + [Atom(-atom.expr, Relation.LT)])

        # 2. flatten array reads into fresh value variables
        flattened, reads = self._flatten(atoms)
        return self._check_functional(flattened, reads, decided=set())

    # ------------------------------------------------------------------
    def _flatten(
        self, atoms: Sequence[Atom]
    ) -> tuple[list[Atom], list[tuple[Var, str, LinExpr]]]:
        mapping: dict[ArrayRead, Var] = {}

        def value_var_of(canonical: ArrayRead) -> Var:
            value_var = mapping.get(canonical)
            if value_var is None:
                value_var = self._fresh.fresh(canonical.array)
                mapping[canonical] = value_var
            return value_var

        triples: list[tuple[Var, str, LinExpr]] = []
        result: list[Atom] = []
        for atom in atoms:
            result.append(Atom(flatten_reads(atom.expr, value_var_of, triples), atom.rel))
        seen: set[Var] = set()
        unique: list[tuple[Var, str, LinExpr]] = []
        for triple in triples:
            if triple[0] not in seen:
                seen.add(triple[0])
                unique.append(triple)
        return result, unique

    # ------------------------------------------------------------------
    def _check_functional(
        self,
        atoms: list[Atom],
        reads: list[tuple[Var, str, LinExpr]],
        decided: frozenset | set,
    ) -> LraResult:
        result = self.lra.check(atoms)
        if not result.satisfiable:
            return result
        assert result.model is not None
        violation = find_functionality_violation(reads, result.model, decided)
        if violation is None:
            return result
        var_a, var_b, index_a, index_b = violation
        decided = set(decided) | {frozenset((var_a, var_b))}
        # Case 1: the indices coincide, so the values must coincide.
        equal_case = atoms + [eq(index_a, index_b), eq(var_a, var_b)]
        outcome = self._check_functional(equal_case, reads, decided)
        if outcome.satisfiable:
            return outcome
        # Cases 2 and 3: the indices are ordered strictly.
        for first, second in ((index_a, index_b), (index_b, index_a)):
            ordered = atoms + [Atom(first - second, Relation.LT)]
            outcome = self._check_functional(ordered, reads, decided)
            if outcome.satisfiable:
                return outcome
        return LraResult(False)
