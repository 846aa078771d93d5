"""Counterexample analysis (the second phase of the CEGAR loop).

An abstract counterexample is a path from the initial location to the error
location in the abstract reachability tree.  This module decides whether the
path is *feasible* — i.e. whether its SSA path formula is satisfiable over the
integers — and packages the verdict together with a witness valuation (for
genuine bugs) for the bug report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..lang.cfg import Transition
from ..lang.commands import Command
from ..logic.terms import Rat, Var
from ..smt.vcgen import VcChecker

__all__ = ["CounterexampleAnalysis", "analyze_counterexample", "path_commands"]


def path_commands(path: Sequence[Transition]) -> list[Command]:
    """The concatenated command sequence of an error path."""
    commands: list[Command] = []
    for transition in path:
        commands.extend(transition.commands)
    return commands


@dataclass
class CounterexampleAnalysis:
    """Feasibility verdict for an abstract counterexample."""

    path: tuple[Transition, ...]
    feasible: bool
    #: A witness valuation of the SSA variables (only for feasible paths).
    model: Optional[dict[Var, Rat]] = None
    #: True when the feasibility verdict relied on an over-approximation
    #: (branch-and-bound budget exhausted); such a path is treated as
    #: potentially feasible and reported as an inconclusive alarm.
    approximate: bool = False

    def witness_inputs(self, variables: Sequence[str]) -> dict[str, Rat]:
        """Initial values of the program variables extracted from the model."""
        if self.model is None:
            return {}
        values: dict[str, Rat] = {}
        for name in variables:
            for candidate in (f"{name}@0", name):
                for var, value in self.model.items():
                    if var.name == candidate:
                        values[name] = value
                        break
                if name in values:
                    break
        return values


def analyze_counterexample(
    path: Sequence[Transition], checker: Optional[VcChecker] = None
) -> CounterexampleAnalysis:
    """Check whether the abstract counterexample is concretely executable."""
    checker = checker or VcChecker()
    feasibility = checker.is_feasible(path_commands(path))
    return CounterexampleAnalysis(
        tuple(path),
        feasible=feasibility.feasible,
        model=feasibility.model,
        approximate=feasibility.approximate,
    )
