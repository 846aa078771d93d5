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
    "Command",
    "Assume",
    "Assign",
    "ArrayAssign",
    "Havoc",
    "Skip",
    "written_names",
    "touched_names",
]


class Command:
    """Base class of primitive commands (frozen dataclass subclasses)."""


@dataclass(frozen=True)
class Assume(Command):
    """``assume(cond)`` — block execution unless ``cond`` holds."""

    cond: Formula

    def __str__(self) -> str:
        return f"[{self.cond}]"


@dataclass(frozen=True)
class Assign(Command):
    """``var := expr`` for a scalar variable."""

    var: str
    expr: LinExpr

    def __str__(self) -> str:
        return f"{self.var} := {self.expr}"


@dataclass(frozen=True)
class ArrayAssign(Command):
    """``array[index] := value``."""

    array: str
    index: LinExpr
    value: LinExpr

    def __str__(self) -> str:
        return f"{self.array}[{self.index}] := {self.value}"


@dataclass(frozen=True)
class Havoc(Command):
    """Nondeterministically update the listed scalar variables."""

    vars: tuple[str, ...]

    def __str__(self) -> str:
        return f"havoc({', '.join(self.vars)})"


@dataclass(frozen=True)
class Skip(Command):
    """No-op."""

    def __str__(self) -> str:
        return "skip"


def written_names(commands: Iterable[Command]) -> set[str]:
    """Names of the scalar variables and arrays a command sequence writes.

    With :func:`touched_names` this is the frame rule: a formula that holds
    before the commands and touches none of these names holds after them.
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


def touched_names(formula: Formula) -> set[str]:
    """Names of the free scalar variables and the arrays ``formula`` mentions."""
    return {v.name for v in formula.variables()} | formula.arrays()

