"""The public verification API.

``verify()`` is the one-call entry point a downstream user needs: it accepts
mini-C source text, a parsed function, or an already-built transition system,
runs CEGAR with the requested refinement strategy, and returns the
:class:`~repro.core.engine.Result`.

It runs through an ephemeral :class:`~repro.core.api.Session`; every tuning
knob travels in a :class:`~repro.core.api.VerifierOptions`.  Use a session
directly to get cross-task memoisation and warm-starting::

    from repro import Session, VerifierOptions

    options = VerifierOptions(refiner="portfolio", max_refinements=12)
    result = Session(options).run(source)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Union

from ..lang.ast import FunctionDef
from ..lang.cfg import Program
from ..smt.vcgen import VcChecker
from .engine import Result
from .predabs import Precision
from .refiners import PathFormulaRefiner, PathInvariantRefiner, Refiner

if TYPE_CHECKING:
    from .api import VerifierOptions

__all__ = ["verify", "make_refiner", "REFINER_NAMES", "ENGINE_REFINER_NAMES"]

REFINER_NAMES = ("path-invariant", "path-formula")

#: What ``verify()`` and the CLI accept: the concrete refiners plus the
#: portfolio meta-strategy (which is engine-level, not a :class:`Refiner`).
ENGINE_REFINER_NAMES = REFINER_NAMES + ("portfolio",)


def make_refiner(name: str, checker: Optional[VcChecker] = None) -> Refiner:
    """Construct a refiner by name (``path-invariant`` or ``path-formula``)."""
    if name == "path-invariant":
        return PathInvariantRefiner(checker)
    if name == "path-formula":
        return PathFormulaRefiner()
    if name == "portfolio":
        raise ValueError(
            "'portfolio' is an engine-level strategy, not a refiner; use "
            "verify(..., refiner='portfolio') or PortfolioEngine directly"
        )
    raise ValueError(f"unknown refiner {name!r}; expected one of {REFINER_NAMES}")


def verify(
    program: Union[str, FunctionDef, Program],
    refiner: Optional[Union[str, Refiner]] = None,
    *,
    options: Optional["VerifierOptions"] = None,
    checker: Optional[VcChecker] = None,
    initial_precision: Optional[Precision] = None,
) -> Result:
    """Verify the assertions of a program.

    Parameters
    ----------
    program:
        Mini-C source text, a parsed :class:`FunctionDef`, or a
        :class:`Program` transition system.
    refiner:
        ``"path-invariant"`` (the paper's refinement through path programs,
        the default), ``"path-formula"`` (the classic CEGAR baseline),
        ``"portfolio"`` (both, round-robin under one shared budget with
        divergence detection; returns a
        :class:`~repro.core.engine.PortfolioResult`), or a custom
        :class:`Refiner` instance.  A name conflicts with ``options=``,
        which carries its own ``refiner`` field.
    options:
        A :class:`~repro.core.api.VerifierOptions` carrying every other
        tuning knob (budgets, strategy, incremental mode, ...).  The wall
        clock and solver-call budgets hold in every layer of the run; a
        tripped budget ends in verdict ``unknown`` with a reason.
    checker:
        A shared :class:`VcChecker` (its memo caches carry across calls).
    initial_precision:
        Optional seed precision (warm start); a seed never changes a
        decided verdict, it only removes refinement work.
    """
    from .api import Session, VerificationTask, VerifierOptions

    refiner_instance = refiner if isinstance(refiner, Refiner) else None
    if refiner is not None and refiner_instance is None:
        if options is not None:
            raise ValueError(
                "pass either options= (which has a refiner field) or refiner=, "
                "not both"
            )
        options = VerifierOptions(refiner=refiner)
    session = Session(options, checker=checker)
    # A direct VerificationTask (not session.task): verify() treats a string
    # as source text, never as a built-in program name.
    return session.run(
        VerificationTask(
            program, refiner=refiner_instance, initial_precision=initial_precision
        )
    )
