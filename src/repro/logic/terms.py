"""Linear terms over exact rationals, with array-read atoms.

The logic layer of the reproduction works with *linear expressions* over a set
of atomic terms.  An atomic term is either a program variable (:class:`Var`) or
an array read (:class:`ArrayRead`).  Linear expressions are immutable and
hashable, which lets them be used as dictionary keys, set members, and as parts
of larger immutable formula objects.

All term objects are **hash-consed**: constructing a term returns the unique
interned instance for its content, so structural equality coincides with
object identity (``==`` is a pointer comparison), ``__hash__`` is a cached
field read, and the structural queries ``variables()``/``array_reads()`` are
computed once per node and shared.  The pervasive set/dict operations of the
predicate-abstraction and invariant layers therefore never re-hash or
re-traverse whole trees.  Interned tables grow with the set of distinct terms
ever built; long-running services can call :func:`clear_intern_caches`
between independent problems.

All coefficients are :class:`fractions.Fraction`; no floating point arithmetic
is used anywhere in the library, so soundness of verification results never
depends on rounding.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from typing import Iterable, Mapping, Union

#: Guards every hash-consing intern table in the logic layer (terms *and*
#: formulas — :mod:`repro.logic.formulas` imports this same lock).  Lookups
#: stay lock-free (``dict.get`` is atomic under CPython); only the miss path
#: takes the lock and re-checks, so single-threaded construction pays one
#: uncontended acquire per *new* object and nothing per hit.  Without the
#: lock, two threads interning the same key could both insert — equality
#: would survive (``__eq__`` falls back to structure) but the identity
#: guarantee ``Var("x") is Var("x")`` would not.
INTERN_LOCK = threading.RLock()

__all__ = [
    "INTERN_LOCK",
    "Var",
    "ArrayRead",
    "Atomic",
    "LinExpr",
    "Rat",
    "as_fraction",
    "var",
    "const",
    "read",
    "clear_intern_caches",
]

#: Values accepted wherever a rational constant is expected.
Rat = Union[int, Fraction]


def as_fraction(value: Rat) -> Fraction:
    """Coerce an ``int`` or :class:`Fraction` into a :class:`Fraction`.

    Floats are rejected on purpose: exact arithmetic is a soundness
    requirement for the solvers built on top of this module.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}: {value!r}")


class Var:
    """A scalar program variable (or an auxiliary solver variable).

    Instances are interned by name: ``Var("x") is Var("x")``.
    """

    __slots__ = ("name", "_hash")

    _intern: dict[str, "Var"] = {}

    def __new__(cls, name: str) -> "Var":
        cached = cls._intern.get(name)
        if cached is not None:
            return cached
        with INTERN_LOCK:
            cached = cls._intern.get(name)
            if cached is not None:
                return cached
            self = object.__new__(cls)
            self.name = name
            # Tagged by name, not by the class object: a class hashes by its
            # address, which differs between processes, and set iteration
            # order (hence solver counters) would follow it.
            self._hash = hash(("Var", name))
            cls._intern[name] = self
            return self

    def __eq__(self, other: object) -> bool:
        # Interning makes identity the common case; the structural fallback
        # keeps equality meaningful across clear_intern_caches() generations.
        if self is other:
            return True
        if isinstance(other, Var):
            return self.name == other.name
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Unpickling goes back through __new__, so a loaded term re-interns
        # into the receiving process's table (precisions shipped across a
        # process pool stay identity-comparable with locally built terms).
        return (Var, (self.name,))

    # Total order by name (mirrors the seed's ``order=True`` dataclass).
    def __lt__(self, other: object) -> bool:
        if isinstance(other, Var):
            return self.name < other.name
        return NotImplemented

    def __le__(self, other: object) -> bool:
        if isinstance(other, Var):
            return self.name <= other.name
        return NotImplemented

    def __gt__(self, other: object) -> bool:
        if isinstance(other, Var):
            return self.name > other.name
        return NotImplemented

    def __ge__(self, other: object) -> bool:
        if isinstance(other, Var):
            return self.name >= other.name
        return NotImplemented

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"Var({self.name!r})"

    def primed(self) -> "Var":
        """Return the next-state version of this variable."""
        return Var(self.name + "'")

    def is_primed(self) -> bool:
        return self.name.endswith("'")

    def unprimed(self) -> "Var":
        if not self.is_primed():
            return self
        return Var(self.name.rstrip("'"))


class ArrayRead:
    """A read ``array[index]`` where ``index`` is a linear expression.

    Instances are interned by ``(array, index)``.
    """

    __slots__ = ("array", "index", "_hash")

    _intern: dict[tuple, "ArrayRead"] = {}

    def __new__(cls, array: str, index: "LinExpr") -> "ArrayRead":
        key = (array, index)
        cached = cls._intern.get(key)
        if cached is not None:
            return cached
        with INTERN_LOCK:
            cached = cls._intern.get(key)
            if cached is not None:
                return cached
            self = object.__new__(cls)
            self.array = array
            self.index = index
            self._hash = hash(("ArrayRead", array, index))
            cls._intern[key] = self
            return self

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if isinstance(other, ArrayRead):
            return self.array == other.array and self.index == other.index
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (ArrayRead, (self.array, self.index))

    def __str__(self) -> str:
        return f"{self.array}[{self.index}]"

    def __repr__(self) -> str:
        return f"ArrayRead({self.array!r}, {self.index!r})"

    def __lt__(self, other: object) -> bool:  # stable ordering for canonical forms
        if isinstance(other, Var):
            return False
        if isinstance(other, ArrayRead):
            return (self.array, str(self.index)) < (other.array, str(other.index))
        return NotImplemented


#: The atomic building blocks of linear expressions.
Atomic = Union[Var, ArrayRead]


def _atomic_key(atom: Atomic) -> tuple:
    """A total order on atomic terms used to canonicalise linear expressions."""
    if isinstance(atom, Var):
        return (0, atom.name, "")
    return (1, atom.array, str(atom.index))


class LinExpr:
    """An immutable linear expression ``sum(coeff_i * atom_i) + const``.

    Instances are canonical: atoms with zero coefficient are dropped and the
    atom/coefficient pairs are sorted, so two expressions denoting the same
    function are the *same interned object* and hash identically through a
    cached hash field.
    """

    __slots__ = ("terms", "const", "_hash", "_variables", "_array_reads")

    _intern: dict[tuple, "LinExpr"] = {}

    def __new__(
        cls, terms: tuple[tuple[Atomic, Fraction], ...], const: Fraction
    ) -> "LinExpr":
        key = (terms, const)
        cached = cls._intern.get(key)
        if cached is not None:
            return cached
        with INTERN_LOCK:
            cached = cls._intern.get(key)
            if cached is not None:
                return cached
            self = object.__new__(cls)
            self.terms = terms
            self.const = const
            self._hash = hash(key)
            self._variables = None
            self._array_reads = None
            cls._intern[key] = self
            return self

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if isinstance(other, LinExpr):
            return self.const == other.const and self.terms == other.terms
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (LinExpr, (self.terms, self.const))

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def make(coeffs: Mapping[Atomic, Rat] | None = None, constant: Rat = 0) -> "LinExpr":
        """Build a canonical linear expression from a coefficient mapping."""
        items: list[tuple[Atomic, Fraction]] = []
        if coeffs:
            for atom, coeff in coeffs.items():
                frac = as_fraction(coeff)
                if frac != 0:
                    items.append((atom, frac))
        items.sort(key=lambda pair: _atomic_key(pair[0]))
        return LinExpr(tuple(items), as_fraction(constant))

    @staticmethod
    def constant(value: Rat) -> "LinExpr":
        return LinExpr.make({}, value)

    @staticmethod
    def variable(name: str | Var, coeff: Rat = 1) -> "LinExpr":
        atom = name if isinstance(name, Var) else Var(name)
        return LinExpr.make({atom: coeff})

    @staticmethod
    def array_read(array: str, index: "LinExpr | str | Rat") -> "LinExpr":
        if isinstance(index, str):
            index = LinExpr.variable(index)
        elif isinstance(index, (int, Fraction)):
            index = LinExpr.constant(index)
        return LinExpr.make({ArrayRead(array, index): 1})

    @staticmethod
    def zero() -> "LinExpr":
        return LinExpr.constant(0)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def coeff(self, atom: Atomic) -> Fraction:
        """Coefficient of ``atom`` (zero if absent)."""
        for candidate, value in self.terms:
            if candidate == atom:
                return value
        return Fraction(0)

    def atoms(self) -> tuple[Atomic, ...]:
        return tuple(atom for atom, _ in self.terms)

    def variables(self) -> frozenset[Var]:
        """All scalar variables, including those inside array indices."""
        cached = self._variables
        if cached is None:
            result: set[Var] = set()
            for atom, _ in self.terms:
                if isinstance(atom, Var):
                    result.add(atom)
                else:
                    result.update(atom.index.variables())
            cached = frozenset(result)
            self._variables = cached
        return cached

    def array_reads(self) -> frozenset[ArrayRead]:
        cached = self._array_reads
        if cached is None:
            result: set[ArrayRead] = set()
            for atom, _ in self.terms:
                if isinstance(atom, ArrayRead):
                    result.add(atom)
                    result.update(atom.index.array_reads())
            cached = frozenset(result)
            self._array_reads = cached
        return cached

    def arrays(self) -> set[str]:
        return {r.array for r in self.array_reads()}

    def is_constant(self) -> bool:
        return not self.terms

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"{self} is not a constant expression")
        return self.const

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def _as_dict(self) -> dict[Atomic, Fraction]:
        return {atom: coeff for atom, coeff in self.terms}

    def __add__(self, other: "LinExpr | Rat") -> "LinExpr":
        other = coerce_expr(other)
        coeffs = self._as_dict()
        for atom, coeff in other.terms:
            coeffs[atom] = coeffs.get(atom, Fraction(0)) + coeff
        return LinExpr.make(coeffs, self.const + other.const)

    def __radd__(self, other: "LinExpr | Rat") -> "LinExpr":
        return self.__add__(other)

    def __neg__(self) -> "LinExpr":
        return self.scale(-1)

    def __sub__(self, other: "LinExpr | Rat") -> "LinExpr":
        return self + (-coerce_expr(other))

    def __rsub__(self, other: "LinExpr | Rat") -> "LinExpr":
        return coerce_expr(other) - self

    def scale(self, factor: Rat) -> "LinExpr":
        frac = as_fraction(factor)
        coeffs = {atom: coeff * frac for atom, coeff in self.terms}
        return LinExpr.make(coeffs, self.const * frac)

    def __mul__(self, factor: Rat) -> "LinExpr":
        return self.scale(factor)

    def __rmul__(self, factor: Rat) -> "LinExpr":
        return self.scale(factor)

    # ------------------------------------------------------------------
    # Substitution and renaming
    # ------------------------------------------------------------------
    def substitute(self, mapping: Mapping[Var, "LinExpr"]) -> "LinExpr":
        """Replace scalar variables by linear expressions (also inside indices)."""
        result = LinExpr.constant(self.const)
        for atom, coeff in self.terms:
            if isinstance(atom, Var) and atom in mapping:
                result = result + mapping[atom].scale(coeff)
            elif isinstance(atom, ArrayRead):
                new_index = atom.index.substitute(mapping)
                result = result + LinExpr.make({ArrayRead(atom.array, new_index): coeff})
            else:
                result = result + LinExpr.make({atom: coeff})
        return result

    def substitute_reads(self, mapping: Mapping[ArrayRead, "LinExpr"]) -> "LinExpr":
        """Replace array-read atoms by linear expressions."""
        result = LinExpr.constant(self.const)
        for atom, coeff in self.terms:
            if isinstance(atom, ArrayRead) and atom in mapping:
                result = result + mapping[atom].scale(coeff)
            else:
                result = result + LinExpr.make({atom: coeff})
        return result

    def rename(self, renaming: Mapping[str, str]) -> "LinExpr":
        """Rename scalar variables and array symbols according to ``renaming``."""
        coeffs: dict[Atomic, Fraction] = {}
        for atom, coeff in self.terms:
            if isinstance(atom, Var):
                new_atom: Atomic = Var(renaming.get(atom.name, atom.name))
            else:
                new_atom = ArrayRead(
                    renaming.get(atom.array, atom.array), atom.index.rename(renaming)
                )
            coeffs[new_atom] = coeffs.get(new_atom, Fraction(0)) + coeff
        return LinExpr.make(coeffs, self.const)

    def primed(self) -> "LinExpr":
        renaming = {v.name: v.name + "'" for v in self.variables()}
        renaming.update({a: a + "'" for a in self.arrays()})
        return self.rename(renaming)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, valuation: Mapping[Atomic, Rat]) -> Fraction:
        """Evaluate under a valuation of every atomic term appearing here."""
        total = self.const
        for atom, coeff in self.terms:
            if isinstance(atom, ArrayRead):
                # Allow array reads to be looked up by their (array, index value).
                if atom in valuation:
                    value = as_fraction(valuation[atom])
                else:
                    raise KeyError(f"no valuation for array read {atom}")
            else:
                if atom not in valuation:
                    raise KeyError(f"no valuation for variable {atom}")
                value = as_fraction(valuation[atom])
            total += coeff * value
        return total

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def __str__(self) -> str:
        if not self.terms:
            return str(self.const)
        parts: list[str] = []
        for atom, coeff in self.terms:
            if coeff == 1:
                text = str(atom)
            elif coeff == -1:
                text = f"-{atom}"
            else:
                text = f"{coeff}*{atom}"
            parts.append(text)
        rendered = " + ".join(parts).replace("+ -", "- ")
        if self.const > 0:
            rendered += f" + {self.const}"
        elif self.const < 0:
            rendered += f" - {-self.const}"
        return rendered

    def __repr__(self) -> str:
        return f"LinExpr({self})"


def coerce_expr(value: "LinExpr | Var | ArrayRead | Rat") -> LinExpr:
    """Coerce constants, variables and reads into :class:`LinExpr`."""
    if isinstance(value, LinExpr):
        return value
    if isinstance(value, Var):
        return LinExpr.make({value: 1})
    if isinstance(value, ArrayRead):
        return LinExpr.make({value: 1})
    return LinExpr.constant(as_fraction(value))


#: Extra caches (registered by higher layers) that key on interned terms and
#: must be dropped together with the interning tables, or they would pin
#: retired term generations in memory.
_dependent_caches: list = []


def register_intern_cache(clear) -> None:
    """Register a zero-argument callable run by :func:`clear_intern_caches`."""
    _dependent_caches.append(clear)


def clear_intern_caches() -> None:
    """Drop the hash-consing tables of the term layer.

    Interned objects stay valid; only the tables that guarantee *new*
    constructions are shared are reset.  Only call this between independent
    verification problems (identity-based equality still holds within each
    table generation because the canonical constructors always re-intern).
    Caches registered via :func:`register_intern_cache` are cleared too.
    """
    with INTERN_LOCK:
        Var._intern.clear()
        ArrayRead._intern.clear()
        LinExpr._intern.clear()
        for clear in _dependent_caches:
            clear()


# ----------------------------------------------------------------------
# Small construction helpers used pervasively in tests and examples.
# ----------------------------------------------------------------------
def var(name: str, coeff: Rat = 1) -> LinExpr:
    """Shorthand for a single-variable linear expression."""
    return LinExpr.variable(name, coeff)


def const(value: Rat) -> LinExpr:
    """Shorthand for a constant linear expression."""
    return LinExpr.constant(value)


def read(array: str, index: LinExpr | str | Rat) -> LinExpr:
    """Shorthand for an array-read linear expression."""
    return LinExpr.array_read(array, index)


def sum_exprs(exprs: Iterable[LinExpr]) -> LinExpr:
    total = LinExpr.zero()
    for expr in exprs:
        total = total + expr
    return total
