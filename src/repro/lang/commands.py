"""Primitive program commands.

Control-flow-graph edges are labelled with sequences of these commands.  The
representation is deliberately structured (rather than raw transition
constraints over ``X`` and ``X'``) because every client — the path-formula
builder, the verification-condition generator, the strongest-postcondition
engine and the invariant synthesizer — needs to know *which* variable or array
cell an edge updates.  The relational view of the paper (a constraint ``rho``
over ``X`` and ``X'``) is the SSA translation of :mod:`repro.smt.ssa`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..logic.formulas import Formula
from ..logic.terms import LinExpr

__all__ = [
    "HashedOnce",
    "Command",
    "Assume",
    "Assign",
    "ArrayAssign",
    "Havoc",
    "Skip",
    "written_names",
]


class HashedOnce:
    """Mixin of the frozen dataclasses that are parts of the checker's memo
    keys: the commands here, locations and transitions in
    :mod:`repro.lang.cfg`.

    A memo lookup hashes every part of its key tuple again, and the
    generated dataclass ``__hash__`` rebuilds and hashes the field tuple on
    every call.  Here ``hash(x)`` is that same value, the hash of
    :meth:`_field_values`, computed on first use and kept; objects never
    hashed (the CFG builder's intermediate transitions) never pay for it.
    The value itself must not change: hash values fix set iteration order,
    and with it the solver counters.  Pickling goes through the
    constructor, so a process under another hash seed computes its own
    instead of inheriting a stale one.  A subclass defines
    :meth:`_field_values` and restates ``__hash__ = HashedOnce.__hash__``
    (``@dataclass`` replaces a ``__hash__`` its class body does not define).
    """

    _hash = None

    def _field_values(self) -> tuple:
        raise NotImplementedError

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = hash(self._field_values())
            object.__setattr__(self, "_hash", value)
        return value

    def __reduce__(self):
        return (type(self), self._field_values())


class Command(HashedOnce):
    """Base class of primitive commands (frozen dataclass subclasses)."""


@dataclass(frozen=True)
class Assume(Command):
    """``assume(cond)`` — block execution unless ``cond`` holds."""

    cond: Formula

    def _field_values(self) -> tuple:
        return (self.cond,)

    __hash__ = HashedOnce.__hash__

    def __str__(self) -> str:
        return f"[{self.cond}]"


@dataclass(frozen=True)
class Assign(Command):
    """``var := expr`` for a scalar variable."""

    var: str
    expr: LinExpr

    def _field_values(self) -> tuple:
        return (self.var, self.expr)

    __hash__ = HashedOnce.__hash__

    def __str__(self) -> str:
        return f"{self.var} := {self.expr}"


@dataclass(frozen=True)
class ArrayAssign(Command):
    """``array[index] := value``."""

    array: str
    index: LinExpr
    value: LinExpr

    def _field_values(self) -> tuple:
        return (self.array, self.index, self.value)

    __hash__ = HashedOnce.__hash__

    def __str__(self) -> str:
        return f"{self.array}[{self.index}] := {self.value}"


@dataclass(frozen=True)
class Havoc(Command):
    """Nondeterministically update the listed scalar variables."""

    vars: tuple[str, ...]

    def _field_values(self) -> tuple:
        return (self.vars,)

    __hash__ = HashedOnce.__hash__

    def __str__(self) -> str:
        return f"havoc({', '.join(self.vars)})"


@dataclass(frozen=True)
class Skip(Command):
    """No-op."""

    def _field_values(self) -> tuple:
        return ()

    __hash__ = HashedOnce.__hash__

    def __str__(self) -> str:
        return "skip"


def written_names(commands: Iterable[Command]) -> set[str]:
    """Names of the scalar variables and arrays a command sequence writes.

    With :meth:`~repro.logic.formulas.Formula.touched_names` this is the
    frame rule: a formula that holds before the commands and touches none of
    these names holds after them.
    """
    written: set[str] = set()
    for cmd in commands:
        if isinstance(cmd, Assign):
            written.add(cmd.var)
        elif isinstance(cmd, ArrayAssign):
            written.add(cmd.array)
        elif isinstance(cmd, Havoc):
            written.update(cmd.vars)
    return written
