"""Primitive program commands.

Control-flow-graph edges are labelled with sequences of these commands.  The
representation is deliberately structured (rather than raw transition
constraints over ``X`` and ``X'``) because every client — the path-formula
builder, the verification-condition generator, the strongest-postcondition
engine and the invariant synthesizer — needs to know *which* variable or array
cell an edge updates.  The relational view of the paper (a constraint ``rho``
over ``X`` and ``X'``) is recovered by :func:`relation_formula`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..logic.formulas import Atom, Formula, TRUE, conjoin, eq
from ..logic.terms import ArrayRead, LinExpr, Var

__all__ = [
    "Command",
    "Assume",
    "Assign",
    "ArrayAssign",
    "Havoc",
    "Skip",
    "written_names",
    "touched_names",
    "relation_formula",
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


def relation_formula(cmd: Command, frame: Sequence[str] = ()) -> Formula:
    """The transition constraint ``rho`` over ``X`` and ``X'`` for one command.

    Array assignments are *not* expressible as a finite formula in our logic
    (they would need a ``store`` term); callers that need the relational view
    of an array write must use the SSA machinery in :mod:`repro.smt.ssa`.
    ``frame`` lists variables that should be explicitly framed (``x' = x``).
    """
    parts: list[Formula] = []
    if isinstance(cmd, Assume):
        parts.append(cmd.cond)
        written: set[str] = set()
    elif isinstance(cmd, Assign):
        parts.append(eq(LinExpr.variable(Var(cmd.var).primed()), cmd.expr))
        written = {cmd.var}
    elif isinstance(cmd, Havoc):
        written = set(cmd.vars)
    elif isinstance(cmd, Skip):
        written = set()
    elif isinstance(cmd, ArrayAssign):
        raise ValueError(
            "array assignments have no finite relational formula; use repro.smt.ssa"
        )
    else:
        raise TypeError(f"unexpected command {cmd!r}")
    for name in frame:
        if name not in written:
            parts.append(eq(LinExpr.variable(Var(name).primed()), LinExpr.variable(name)))
    return conjoin(parts)
