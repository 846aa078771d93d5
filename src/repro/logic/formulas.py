"""Formulas of linear arithmetic with array reads and restricted quantification.

The formula language mirrors the assertion language of the paper:

* atoms are linear constraints ``e <= 0``, ``e < 0``, ``e = 0`` and ``e != 0``
  where ``e`` is a :class:`~repro.logic.terms.LinExpr` (possibly mentioning
  array reads),
* boolean structure (``And``, ``Or``, ``Not``, ``true``, ``false``), and
* a restricted universal quantifier of the *array property fragment*:
  ``Forall(k, body)`` where the body is typically an implication of the form
  ``lower <= k /\\ k <= upper  ->  a[k] = rhs``.

All formula objects are immutable, hashable and **hash-consed**: constructing
a node returns the unique interned instance for its content, equality is a
pointer comparison in the common case, ``__hash__`` reads a cached field, and
the structural queries (``variables()``, ``array_reads()``, ``atoms()``,
``touched_names()``) are computed once per node and shared as frozensets, as
is the rendering ``str()`` that state formulas and precisions sort by.  This
makes the pervasive set/dict operations of the predicate abstraction
(per-location predicate sets, ART state subsumption, VC memo keys) cheap
regardless of formula size.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Mapping

from .terms import INTERN_LOCK, ArrayRead, Atomic, LinExpr, Rat, Var, coerce_expr

__all__ = [
    "Relation",
    "Formula",
    "Atom",
    "BoolConst",
    "And",
    "Or",
    "Not",
    "Forall",
    "TRUE",
    "FALSE",
    "eq",
    "ne",
    "le",
    "lt",
    "ge",
    "gt",
    "conjoin",
    "disjoin",
    "negate",
    "implies_formula",
]


class Relation(Enum):
    """Relations of normalised atoms ``expr REL 0``."""

    LE = "<="
    LT = "<"
    EQ = "="
    NE = "!="

    def negated(self) -> "Relation":
        return _NEGATIONS[self]

    def holds(self, value: Rat) -> bool:
        if self is Relation.LE:
            return value <= 0
        if self is Relation.LT:
            return value < 0
        if self is Relation.EQ:
            return value == 0
        return value != 0


_NEGATIONS = {
    Relation.LE: Relation.LT,   # not(e <= 0)  ==  -e < 0
    Relation.LT: Relation.LE,   # not(e < 0)   ==  -e <= 0
    Relation.EQ: Relation.NE,
    Relation.NE: Relation.EQ,
}


class Formula:
    """Base class of all formulas.  Subclasses are interned immutable nodes."""

    __slots__ = (
        "_hash", "_variables", "_array_reads", "_atoms", "_touched_names", "_str"
    )

    def _init_caches(self, hash_value: int) -> None:
        self._hash = hash_value
        self._variables = None
        self._array_reads = None
        self._atoms = None
        self._touched_names = None
        self._str = None

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        cached = self._str
        if cached is None:
            cached = self._str = self._render()
        return cached

    def _render(self) -> str:
        raise NotImplementedError

    # -- structural queries -------------------------------------------------
    def variables(self) -> frozenset[Var]:
        cached = self._variables
        if cached is None:
            cached = frozenset(self._compute_variables())
            self._variables = cached
        return cached

    def array_reads(self) -> frozenset[ArrayRead]:
        cached = self._array_reads
        if cached is None:
            cached = frozenset(self._compute_array_reads())
            self._array_reads = cached
        return cached

    def atoms(self) -> frozenset["Atom"]:
        cached = self._atoms
        if cached is None:
            cached = frozenset(self._compute_atoms())
            self._atoms = cached
        return cached

    def arrays(self) -> set[str]:
        return {r.array for r in self.array_reads()}

    def touched_names(self) -> frozenset[str]:
        """Names of the free scalar variables and the arrays the formula
        mentions: what the frame rule checks against the names a command
        sequence writes (:func:`repro.lang.commands.written_names`)."""
        cached = self._touched_names
        if cached is None:
            cached = frozenset({v.name for v in self.variables()} | self.arrays())
            self._touched_names = cached
        return cached

    def _compute_variables(self) -> Iterable[Var]:
        raise NotImplementedError

    def _compute_array_reads(self) -> Iterable[ArrayRead]:
        raise NotImplementedError

    def _compute_atoms(self) -> Iterable["Atom"]:
        raise NotImplementedError

    def has_quantifier(self) -> bool:
        raise NotImplementedError

    # -- transformations ----------------------------------------------------
    def substitute(self, mapping: Mapping[Var, LinExpr]) -> "Formula":
        raise NotImplementedError

    def substitute_reads(self, mapping: Mapping[ArrayRead, LinExpr]) -> "Formula":
        raise NotImplementedError

    def rename(self, renaming: Mapping[str, str]) -> "Formula":
        raise NotImplementedError

    def primed(self) -> "Formula":
        renaming = {v.name: v.name + "'" for v in self.variables()}
        renaming.update({a: a + "'" for a in self.arrays()})
        return self.rename(renaming)

    # -- evaluation ---------------------------------------------------------
    def evaluate(self, valuation: Mapping[Atomic, Rat]) -> bool:
        raise NotImplementedError

    # -- convenience --------------------------------------------------------
    def __and__(self, other: "Formula") -> "Formula":
        return conjoin([self, other])

    def __or__(self, other: "Formula") -> "Formula":
        return disjoin([self, other])

    def __invert__(self) -> "Formula":
        return negate(self)


class BoolConst(Formula):
    """The constants ``true`` and ``false``."""

    __slots__ = ("value",)

    _intern: dict[bool, "BoolConst"] = {}

    def __new__(cls, value: bool) -> "BoolConst":
        cached = cls._intern.get(value)
        if cached is not None:
            return cached
        with INTERN_LOCK:
            cached = cls._intern.get(value)
            if cached is not None:
                return cached
            self = object.__new__(cls)
            self.value = value
            # Tagged by name, not by the class object (which hashes by its
            # address): hashes, and so set orders, must repeat across
            # processes under a fixed PYTHONHASHSEED.
            self._init_caches(hash(("BoolConst", value)))
            cls._intern[value] = self
            return self

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if isinstance(other, BoolConst):
            return self.value == other.value
        return NotImplemented

    __hash__ = Formula.__hash__

    def __reduce__(self):
        # Unpickling re-enters __new__, so loaded formulas re-intern into the
        # receiving process (predicates are shipped across process pools for
        # warm-starting; see repro.core.api).
        return (BoolConst, (self.value,))

    def _compute_variables(self) -> Iterable[Var]:
        return ()

    def _compute_array_reads(self) -> Iterable[ArrayRead]:
        return ()

    def _compute_atoms(self) -> Iterable["Atom"]:
        return ()

    def has_quantifier(self) -> bool:
        return False

    def substitute(self, mapping: Mapping[Var, LinExpr]) -> Formula:
        return self

    def substitute_reads(self, mapping: Mapping[ArrayRead, LinExpr]) -> Formula:
        return self

    def rename(self, renaming: Mapping[str, str]) -> Formula:
        return self

    def evaluate(self, valuation: Mapping[Atomic, Rat]) -> bool:
        return self.value

    def _render(self) -> str:
        return "true" if self.value else "false"

    def __repr__(self) -> str:
        return f"BoolConst({self.value})"


TRUE = BoolConst(True)
FALSE = BoolConst(False)


class Atom(Formula):
    """A normalised linear atom ``expr REL 0``."""

    __slots__ = ("expr", "rel")

    _intern: dict[tuple, "Atom"] = {}

    def __new__(cls, expr: LinExpr, rel: Relation) -> "Atom":
        key = (expr, rel)
        cached = cls._intern.get(key)
        if cached is not None:
            return cached
        with INTERN_LOCK:
            cached = cls._intern.get(key)
            if cached is not None:
                return cached
            self = object.__new__(cls)
            self.expr = expr
            self.rel = rel
            self._init_caches(hash(("Atom", expr, rel)))
            cls._intern[key] = self
            return self

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if isinstance(other, Atom):
            return self.rel is other.rel and self.expr == other.expr
        return NotImplemented

    __hash__ = Formula.__hash__

    def __reduce__(self):
        return (Atom, (self.expr, self.rel))

    def _compute_variables(self) -> Iterable[Var]:
        return self.expr.variables()

    def _compute_array_reads(self) -> Iterable[ArrayRead]:
        return self.expr.array_reads()

    def _compute_atoms(self) -> Iterable["Atom"]:
        return (self,)

    def has_quantifier(self) -> bool:
        return False

    def substitute(self, mapping: Mapping[Var, LinExpr]) -> Formula:
        return Atom(self.expr.substitute(mapping), self.rel)

    def substitute_reads(self, mapping: Mapping[ArrayRead, LinExpr]) -> Formula:
        return Atom(self.expr.substitute_reads(mapping), self.rel)

    def rename(self, renaming: Mapping[str, str]) -> Formula:
        return Atom(self.expr.rename(renaming), self.rel)

    def evaluate(self, valuation: Mapping[Atomic, Rat]) -> bool:
        return self.rel.holds(self.expr.evaluate(valuation))

    def negated(self) -> "Atom":
        """The negation of this atom, again as a single atom."""
        if self.rel in (Relation.EQ, Relation.NE):
            return Atom(self.expr, self.rel.negated())
        # not(e <= 0) == -e < 0 ; not(e < 0) == -e <= 0
        return Atom(-self.expr, self.rel.negated())

    def is_trivially_true(self) -> bool:
        if not self.expr.is_constant():
            return False
        return self.rel.holds(self.expr.const)

    def is_trivially_false(self) -> bool:
        if not self.expr.is_constant():
            return False
        return not self.rel.holds(self.expr.const)

    def _render(self) -> str:
        return f"{self.expr} {self.rel.value} 0"

    def __repr__(self) -> str:
        return f"Atom({self.expr!r}, {self.rel})"


class And(Formula):
    """Conjunction.  Use :func:`conjoin` to build flattened instances."""

    __slots__ = ("args",)

    _intern: dict[tuple, "And"] = {}

    def __new__(cls, args: tuple[Formula, ...]) -> "And":
        cached = cls._intern.get(args)
        if cached is not None:
            return cached
        with INTERN_LOCK:
            cached = cls._intern.get(args)
            if cached is not None:
                return cached
            self = object.__new__(cls)
            self.args = args
            self._init_caches(hash(("And", args)))
            cls._intern[args] = self
            return self

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if isinstance(other, And):
            return self.args == other.args
        return NotImplemented

    __hash__ = Formula.__hash__

    def __reduce__(self):
        return (And, (self.args,))

    def _compute_variables(self) -> Iterable[Var]:
        result: set[Var] = set()
        for arg in self.args:
            result |= arg.variables()
        return result

    def _compute_array_reads(self) -> Iterable[ArrayRead]:
        result: set[ArrayRead] = set()
        for arg in self.args:
            result |= arg.array_reads()
        return result

    def _compute_atoms(self) -> Iterable[Atom]:
        result: set[Atom] = set()
        for arg in self.args:
            result |= arg.atoms()
        return result

    def has_quantifier(self) -> bool:
        return any(arg.has_quantifier() for arg in self.args)

    def substitute(self, mapping: Mapping[Var, LinExpr]) -> Formula:
        return conjoin([arg.substitute(mapping) for arg in self.args])

    def substitute_reads(self, mapping: Mapping[ArrayRead, LinExpr]) -> Formula:
        return conjoin([arg.substitute_reads(mapping) for arg in self.args])

    def rename(self, renaming: Mapping[str, str]) -> Formula:
        return conjoin([arg.rename(renaming) for arg in self.args])

    def evaluate(self, valuation: Mapping[Atomic, Rat]) -> bool:
        return all(arg.evaluate(valuation) for arg in self.args)

    def _render(self) -> str:
        return "(" + " /\\ ".join(str(arg) for arg in self.args) + ")"

    def __repr__(self) -> str:
        return f"And({self.args!r})"


class Or(Formula):
    """Disjunction.  Use :func:`disjoin` to build flattened instances."""

    __slots__ = ("args",)

    _intern: dict[tuple, "Or"] = {}

    def __new__(cls, args: tuple[Formula, ...]) -> "Or":
        cached = cls._intern.get(args)
        if cached is not None:
            return cached
        with INTERN_LOCK:
            cached = cls._intern.get(args)
            if cached is not None:
                return cached
            self = object.__new__(cls)
            self.args = args
            self._init_caches(hash(("Or", args)))
            cls._intern[args] = self
            return self

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if isinstance(other, Or):
            return self.args == other.args
        return NotImplemented

    __hash__ = Formula.__hash__

    def __reduce__(self):
        return (Or, (self.args,))

    def _compute_variables(self) -> Iterable[Var]:
        result: set[Var] = set()
        for arg in self.args:
            result |= arg.variables()
        return result

    def _compute_array_reads(self) -> Iterable[ArrayRead]:
        result: set[ArrayRead] = set()
        for arg in self.args:
            result |= arg.array_reads()
        return result

    def _compute_atoms(self) -> Iterable[Atom]:
        result: set[Atom] = set()
        for arg in self.args:
            result |= arg.atoms()
        return result

    def has_quantifier(self) -> bool:
        return any(arg.has_quantifier() for arg in self.args)

    def substitute(self, mapping: Mapping[Var, LinExpr]) -> Formula:
        return disjoin([arg.substitute(mapping) for arg in self.args])

    def substitute_reads(self, mapping: Mapping[ArrayRead, LinExpr]) -> Formula:
        return disjoin([arg.substitute_reads(mapping) for arg in self.args])

    def rename(self, renaming: Mapping[str, str]) -> Formula:
        return disjoin([arg.rename(renaming) for arg in self.args])

    def evaluate(self, valuation: Mapping[Atomic, Rat]) -> bool:
        return any(arg.evaluate(valuation) for arg in self.args)

    def _render(self) -> str:
        return "(" + " \\/ ".join(str(arg) for arg in self.args) + ")"

    def __repr__(self) -> str:
        return f"Or({self.args!r})"


class Not(Formula):
    """Negation of an arbitrary sub-formula."""

    __slots__ = ("arg",)

    _intern: dict[Formula, "Not"] = {}

    def __new__(cls, arg: Formula) -> "Not":
        cached = cls._intern.get(arg)
        if cached is not None:
            return cached
        with INTERN_LOCK:
            cached = cls._intern.get(arg)
            if cached is not None:
                return cached
            self = object.__new__(cls)
            self.arg = arg
            self._init_caches(hash(("Not", arg)))
            cls._intern[arg] = self
            return self

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if isinstance(other, Not):
            return self.arg == other.arg
        return NotImplemented

    __hash__ = Formula.__hash__

    def __reduce__(self):
        return (Not, (self.arg,))

    def _compute_variables(self) -> Iterable[Var]:
        return self.arg.variables()

    def _compute_array_reads(self) -> Iterable[ArrayRead]:
        return self.arg.array_reads()

    def _compute_atoms(self) -> Iterable[Atom]:
        return self.arg.atoms()

    def has_quantifier(self) -> bool:
        return self.arg.has_quantifier()

    def substitute(self, mapping: Mapping[Var, LinExpr]) -> Formula:
        return negate(self.arg.substitute(mapping))

    def substitute_reads(self, mapping: Mapping[ArrayRead, LinExpr]) -> Formula:
        return negate(self.arg.substitute_reads(mapping))

    def rename(self, renaming: Mapping[str, str]) -> Formula:
        return negate(self.arg.rename(renaming))

    def evaluate(self, valuation: Mapping[Atomic, Rat]) -> bool:
        return not self.arg.evaluate(valuation)

    def _render(self) -> str:
        return f"!({self.arg})"

    def __repr__(self) -> str:
        return f"Not({self.arg!r})"


class Forall(Formula):
    """A universally quantified formula ``forall index: body``.

    The invariant-synthesis pipeline only produces instances in the array
    property fragment (the body is an implication whose hypothesis bounds the
    index variable by linear expressions), but the class itself admits any
    body; the quantifier-instantiation module checks the shape it needs.
    """

    __slots__ = ("index", "body")

    _intern: dict[tuple, "Forall"] = {}

    def __new__(cls, index: Var, body: Formula) -> "Forall":
        key = (index, body)
        cached = cls._intern.get(key)
        if cached is not None:
            return cached
        with INTERN_LOCK:
            cached = cls._intern.get(key)
            if cached is not None:
                return cached
            self = object.__new__(cls)
            self.index = index
            self.body = body
            self._init_caches(hash(("Forall", index, body)))
            cls._intern[key] = self
            return self

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if isinstance(other, Forall):
            return self.index == other.index and self.body == other.body
        return NotImplemented

    __hash__ = Formula.__hash__

    def __reduce__(self):
        return (Forall, (self.index, self.body))

    def _compute_variables(self) -> Iterable[Var]:
        return self.body.variables() - {self.index}

    def bound_variable(self) -> Var:
        return self.index

    def _compute_array_reads(self) -> Iterable[ArrayRead]:
        # Reads whose index mentions the bound variable are reported too;
        # callers that need only "ground" reads filter on variables().
        return self.body.array_reads()

    def _compute_atoms(self) -> Iterable[Atom]:
        return self.body.atoms()

    def has_quantifier(self) -> bool:
        return True

    def substitute(self, mapping: Mapping[Var, LinExpr]) -> Formula:
        safe = {v: e for v, e in mapping.items() if v != self.index}
        return Forall(self.index, self.body.substitute(safe))

    def substitute_reads(self, mapping: Mapping[ArrayRead, LinExpr]) -> Formula:
        return Forall(self.index, self.body.substitute_reads(mapping))

    def rename(self, renaming: Mapping[str, str]) -> Formula:
        safe = {old: new for old, new in renaming.items() if old != self.index.name}
        return Forall(self.index, self.body.rename(safe))

    def instantiate(self, term: LinExpr) -> Formula:
        """Instantiate the bound variable with ``term``."""
        return self.body.substitute({self.index: term})

    def evaluate(self, valuation: Mapping[Atomic, Rat]) -> bool:
        raise NotImplementedError("quantified formulas cannot be evaluated directly")

    def _render(self) -> str:
        return f"(forall {self.index}: {self.body})"

    def __repr__(self) -> str:
        return f"Forall({self.index!r}, {self.body!r})"


def clear_formula_intern_caches() -> None:
    """Drop the hash-consing tables of the formula layer (see terms module).

    The ``TRUE``/``FALSE`` singletons stay interned on purpose.
    """
    with INTERN_LOCK:
        Atom._intern.clear()
        And._intern.clear()
        Or._intern.clear()
        Not._intern.clear()
        Forall._intern.clear()


# ----------------------------------------------------------------------
# Smart constructors
# ----------------------------------------------------------------------
def conjoin(parts: Iterable[Formula]) -> Formula:
    """Flattened, constant-folding conjunction."""
    flat: list[Formula] = []
    seen: set[Formula] = set()
    for part in parts:
        if isinstance(part, BoolConst):
            if not part.value:
                return FALSE
            continue
        if isinstance(part, Atom):
            if part.is_trivially_true():
                continue
            if part.is_trivially_false():
                return FALSE
        if isinstance(part, And):
            for sub in part.args:
                if sub not in seen:
                    seen.add(sub)
                    flat.append(sub)
            continue
        if part not in seen:
            seen.add(part)
            flat.append(part)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def disjoin(parts: Iterable[Formula]) -> Formula:
    """Flattened, constant-folding disjunction."""
    flat: list[Formula] = []
    seen: set[Formula] = set()
    for part in parts:
        if isinstance(part, BoolConst):
            if part.value:
                return TRUE
            continue
        if isinstance(part, Atom):
            if part.is_trivially_false():
                continue
            if part.is_trivially_true():
                return TRUE
        if isinstance(part, Or):
            for sub in part.args:
                if sub not in seen:
                    seen.add(sub)
                    flat.append(sub)
            continue
        if part not in seen:
            seen.add(part)
            flat.append(part)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def negate(formula: Formula) -> Formula:
    """Negation with negation-normal-form push for the propositional part."""
    if isinstance(formula, BoolConst):
        return FALSE if formula.value else TRUE
    if isinstance(formula, Atom):
        return formula.negated()
    if isinstance(formula, Not):
        return formula.arg
    if isinstance(formula, And):
        return disjoin([negate(arg) for arg in formula.args])
    if isinstance(formula, Or):
        return conjoin([negate(arg) for arg in formula.args])
    if isinstance(formula, Forall):
        # The negation of a universal is existential; we keep it wrapped in
        # Not and let the quantifier module skolemise it.
        return Not(formula)
    raise TypeError(f"cannot negate {formula!r}")


def implies_formula(lhs: Formula, rhs: Formula) -> Formula:
    """The formula ``lhs -> rhs`` (as a disjunction)."""
    return disjoin([negate(lhs), rhs])


# ----------------------------------------------------------------------
# Comparison helpers: build normalised atoms from arbitrary expressions.
# ----------------------------------------------------------------------
def _diff(lhs, rhs) -> LinExpr:
    return coerce_expr(lhs) - coerce_expr(rhs)


def eq(lhs, rhs) -> Atom:
    """``lhs = rhs`` as a normalised atom."""
    return Atom(_diff(lhs, rhs), Relation.EQ)


def ne(lhs, rhs) -> Atom:
    """``lhs != rhs`` as a normalised atom."""
    return Atom(_diff(lhs, rhs), Relation.NE)


def le(lhs, rhs) -> Atom:
    """``lhs <= rhs`` as a normalised atom."""
    return Atom(_diff(lhs, rhs), Relation.LE)


def lt(lhs, rhs) -> Atom:
    """``lhs < rhs`` as a normalised atom."""
    return Atom(_diff(lhs, rhs), Relation.LT)


def ge(lhs, rhs) -> Atom:
    """``lhs >= rhs`` as a normalised atom."""
    return le(rhs, lhs)


def gt(lhs, rhs) -> Atom:
    """``lhs > rhs`` as a normalised atom."""
    return lt(rhs, lhs)


def conjuncts(formula: Formula) -> tuple[Formula, ...]:
    """Top-level conjuncts of a formula (the formula itself if not an And)."""
    if isinstance(formula, And):
        return formula.args
    if isinstance(formula, BoolConst) and formula.value:
        return ()
    return (formula,)


def disjuncts(formula: Formula) -> tuple[Formula, ...]:
    """Top-level disjuncts of a formula (the formula itself if not an Or)."""
    if isinstance(formula, Or):
        return formula.args
    if isinstance(formula, BoolConst) and not formula.value:
        return ()
    return (formula,)
