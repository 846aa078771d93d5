"""Invariant maps and their exact verification.

An *invariant map* ``eta`` assigns a formula to every location of a program.
It is an inductive, safe invariant map when it satisfies the three conditions
of Section 3 of the paper:

* I0 (Initiation): ``eta(l0) = true``,
* I1 (Inductiveness): ``eta(l) /\\ rho |= eta(l')`` for every transition
  ``(l, rho, l')``, and
* I2 (Safety): ``eta(lE) = false``.

:func:`check_invariant_map` decides all three conditions with the exact VC
checker.  The synthesizer does not call it: Houdini and the safety check
decide the cut-point assertions exactly, and the assertions filled in at the
other locations are not re-checked.  Those only become predicates, which
shape the abstraction, so soundness does not depend on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..lang.cfg import Location, Program
from ..logic.formulas import FALSE, Formula, TRUE
from ..smt.vcgen import VcChecker

__all__ = ["InvariantMap", "MapCheckResult", "check_invariant_map"]


@dataclass
class InvariantMap:
    """A mapping from locations to formulas."""

    program: Program
    assertions: dict[Location, Formula] = field(default_factory=dict)

    def get(self, location: Location) -> Formula:
        return self.assertions.get(location, TRUE)

    def set(self, location: Location, formula: Formula) -> None:
        self.assertions[location] = formula

    def copy(self) -> "InvariantMap":
        return InvariantMap(self.program, dict(self.assertions))

    def __str__(self) -> str:
        lines = []
        for location in sorted(self.assertions, key=lambda l: l.name):
            lines.append(f"  eta({location}) = {self.assertions[location]}")
        return "\n".join(lines)


@dataclass
class MapCheckResult:
    """Outcome of checking an invariant map against I0/I1/I2."""

    ok: bool
    failures: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


def check_invariant_map(invariant_map: InvariantMap) -> MapCheckResult:
    """Verify I0, I1 and I2 for the given map with a fresh exact checker.

    The error location is implicitly mapped to ``false``: I1 checks into the
    error location therefore require the corresponding path to be refuted.
    """
    checker = VcChecker()
    program = invariant_map.program
    failures: list[str] = []

    # I0: the initial location must be mapped to true (anything weaker than
    # the invariant of a location reachable with no assumptions is wrong).
    initial = invariant_map.get(program.initial)
    if initial != TRUE and not checker.holds_initially(initial):
        failures.append(f"I0: eta({program.initial}) = {initial} is not 'true'")

    # I2: the error location must be mapped to false.  The effective
    # assertion at the error location is ``false`` and the corresponding
    # obligations are checked as part of I1 below; an explicit, weaker
    # assertion stored for the error location is an error.
    if program.error in invariant_map.assertions:
        error_formula = invariant_map.get(program.error)
        if error_formula != FALSE and not checker.check_entailment(error_formula, FALSE):
            failures.append(f"I2: eta({program.error}) = {error_formula} is not 'false'")

    # I1: inductiveness along every transition.
    for transition in program.transitions:
        pre = invariant_map.get(transition.source)
        if transition.target == program.error:
            post = FALSE
        else:
            post = invariant_map.get(transition.target)
        if post == TRUE:
            continue
        if not checker.check_triple(pre, transition.commands, post):
            failures.append(f"I1: {transition} does not preserve eta")
    return MapCheckResult(not failures, failures)
