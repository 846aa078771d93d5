"""The trip signal of a run's budget.

A run's wall-clock deadline and solver-call cap live on its
:class:`~repro.smt.vcgen.VcChecker`
(:meth:`~repro.smt.vcgen.VcChecker.set_budget`), which checks them where the
work happens: at every charged triple check, at path-feasibility entry,
before the solver normalises a new formula, at each new read-over-write
definition of store resolution (:func:`~repro.smt.arrays.resolve_stores`)
and in each round of the solver's case splitter.  A trip raises
:class:`BudgetExhausted`; the engine turns it into an UNKNOWN verdict that
names the layer and the exception's reason.
"""

from __future__ import annotations

__all__ = ["BudgetExhausted", "WALL_CLOCK_REASON"]

#: The reason of a wall-clock trip.
WALL_CLOCK_REASON = "wall-clock budget exhausted"


class BudgetExhausted(Exception):
    """The run's deadline passed, or a charge would pass its solver-call cap."""

    def __init__(self, reason: str = WALL_CLOCK_REASON) -> None:
        super().__init__(reason)
        self.reason = reason
