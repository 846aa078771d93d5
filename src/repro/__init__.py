"""Path Invariants — a reproduction of Beyer, Henzinger, Majumdar, Rybalchenko (PLDI 2007).

The top-level package re-exports the public API:

* :class:`repro.Session` / :class:`repro.VerifierOptions` /
  :class:`repro.VerificationTask` — the typed task/session API: validated
  options, reusable verification sessions with shared solver caches, and
  warm-start precision transfer across tasks and process pools;
* :func:`repro.verify` — the one-call entry point (an ephemeral
  session): verify the assertions of a mini-C program with CEGAR, using
  path programs and path invariants for abstraction refinement;
* :mod:`repro.lang` — the mini-C front end and the built-in benchmark suite;
* :mod:`repro.core` — path programs, predicate abstraction, CEGAR;
* :mod:`repro.invgen` — constraint-based invariant synthesis (templates,
  Farkas engine, quantified array invariants);
* :mod:`repro.serve` — verification as a service: a long-lived daemon
  (:class:`repro.VerificationService`) with request coalescing and
  cross-request warm-starting, and its :class:`repro.ServiceClient`;
* :mod:`repro.smt` — the exact decision procedures everything is built on.
"""

from .core.verifier import verify
from .core.api import (
    PrecisionStore,
    Session,
    VerificationTask,
    VerifierOptions,
    program_fingerprint,
)
from .core.engine import RESULT_SCHEMA_VERSION, Budget, PortfolioResult, Result, Verdict
from .core.supervision import RetryPolicy, Supervisor
from .core.faults import FaultPlan, FaultSpec
from .lang.programs import PROGRAMS, get_program, get_source, list_programs

__version__ = "1.3.0"

# After __version__: the daemon's health endpoint reports it.
from .serve import ServiceClient, ServiceConfig, ServiceError, VerificationService

__all__ = [
    "verify",
    "Session",
    "VerifierOptions",
    "VerificationTask",
    "PrecisionStore",
    "program_fingerprint",
    "Budget",
    "Result",
    "PortfolioResult",
    "RESULT_SCHEMA_VERSION",
    "Verdict",
    "Supervisor",
    "RetryPolicy",
    "FaultPlan",
    "FaultSpec",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "VerificationService",
    "PROGRAMS",
    "get_program",
    "get_source",
    "list_programs",
    "__version__",
]
