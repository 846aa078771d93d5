"""Static single assignment translation of command sequences.

The counterexample-analysis phase of CEGAR translates an error path into a
*path formula* "when the path is written in static single assignment form,
that is, where each assignment to a variable is given a fresh name"
(Section 2.1 of the paper).  This module performs that translation for
sequences of primitive commands and also tracks array writes as a chain of
symbolic ``store`` records, which the array machinery later eliminates by
read-over-write definitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from ..lang.commands import ArrayAssign, Assign, Assume, Command, Havoc, Skip
from ..logic.formulas import Formula, conjoin, eq
from ..logic.terms import LinExpr
from .arrays import Store

__all__ = ["SsaTranslation", "ssa_translate", "versioned", "rename_to_versions"]


def versioned(name: str, version: int) -> str:
    """The SSA name of ``name`` at version ``version``."""
    return f"{name}@{version}"


@dataclass
class SsaTranslation:
    """Result of translating a command sequence into SSA form."""

    #: One constraint per assume / scalar assignment, in path order, paired
    #: with the index of the command that produced it.
    constraints: list[tuple[int, Formula]] = field(default_factory=list)
    #: Array-write chain: versioned array symbol -> store record.
    stores: dict[str, Store] = field(default_factory=dict)
    #: Final version of every scalar variable seen.
    var_versions: dict[str, int] = field(default_factory=dict)
    #: Final version of every array symbol seen.
    array_versions: dict[str, int] = field(default_factory=dict)
    #: Cached :meth:`formula` result.  A translation is immutable once built,
    #: and the batched post oracle asks for the conjunction once per
    #: predicate of an edge — building it once per translation instead.
    _formula: Optional[Formula] = field(default=None, repr=False, compare=False)

    def formula(self) -> Formula:
        """The conjunction of all SSA constraints (stores excluded, cached)."""
        if self._formula is None:
            self._formula = conjoin([constraint for _, constraint in self.constraints])
        return self._formula

    def initial_renaming(self, names: Iterable[str], arrays: Iterable[str]) -> dict[str, str]:
        renaming = {name: versioned(name, 0) for name in names}
        renaming.update({array: versioned(array, 0) for array in arrays})
        return renaming

    def final_renaming(self) -> dict[str, str]:
        renaming = {
            name: versioned(name, version) for name, version in self.var_versions.items()
        }
        renaming.update(
            {name: versioned(name, version) for name, version in self.array_versions.items()}
        )
        return renaming


def rename_to_versions(
    formula: Formula,
    var_versions: Mapping[str, int],
    array_versions: Mapping[str, int],
) -> Formula:
    """Rename a state formula to the given variable/array versions.

    Names that have no recorded version are renamed to version 0 so that the
    formula always talks about SSA symbols.
    """
    renaming: dict[str, str] = {}
    for var in formula.variables():
        renaming[var.name] = versioned(var.name, var_versions.get(var.name, 0))
    for array in formula.arrays():
        renaming[array] = versioned(array, array_versions.get(array, 0))
    return formula.rename(renaming)


def _rename_expr(
    expr: LinExpr, var_versions: Mapping[str, int], array_versions: Mapping[str, int]
) -> LinExpr:
    renaming: dict[str, str] = {}
    for var in expr.variables():
        renaming[var.name] = versioned(var.name, var_versions.get(var.name, 0))
    for array in expr.arrays():
        renaming[array] = versioned(array, array_versions.get(array, 0))
    return expr.rename(renaming)


def ssa_translate(commands: Sequence[Command]) -> SsaTranslation:
    """Translate a straight-line command sequence into SSA constraints."""
    translation = SsaTranslation()
    var_versions = translation.var_versions
    array_versions = translation.array_versions

    for position, command in enumerate(commands):
        if isinstance(command, Skip):
            continue
        if isinstance(command, Assume):
            renamed = rename_to_versions(command.cond, var_versions, array_versions)
            translation.constraints.append((position, renamed))
            continue
        if isinstance(command, Assign):
            rhs = _rename_expr(command.expr, var_versions, array_versions)
            new_version = var_versions.get(command.var, 0) + 1
            var_versions[command.var] = new_version
            lhs = LinExpr.variable(versioned(command.var, new_version))
            translation.constraints.append((position, eq(lhs, rhs)))
            continue
        if isinstance(command, ArrayAssign):
            index = _rename_expr(command.index, var_versions, array_versions)
            value = _rename_expr(command.value, var_versions, array_versions)
            old_version = array_versions.get(command.array, 0)
            new_version = old_version + 1
            array_versions[command.array] = new_version
            translation.stores[versioned(command.array, new_version)] = Store(
                base=versioned(command.array, old_version), index=index, value=value
            )
            continue
        if isinstance(command, Havoc):
            for name in command.vars:
                var_versions[name] = var_versions.get(name, 0) + 1
            continue
        raise TypeError(f"unexpected command {command!r}")
    return translation
