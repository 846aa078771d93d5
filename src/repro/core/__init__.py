"""The paper's contribution: path programs, path invariants, CEGAR."""

from .pathprogram import Block, PathProgram, build_path_program, nested_blocks
from .predabs import (
    FRONTIER_NAMES,
    Art,
    ArtNode,
    BfsFrontier,
    DfsFrontier,
    ErrorDistanceFrontier,
    Frontier,
    Precision,
    ReachabilityOutcome,
    make_frontier,
)
from .cex import CounterexampleAnalysis, analyze_counterexample, path_commands
from .refiners import (
    DivergenceMonitor,
    DivergenceVerdict,
    PathFormulaRefiner,
    PathInvariantRefiner,
    RefinementOutcome,
    Refiner,
)
from .engine import (
    PORTFOLIO_REFINERS,
    RESULT_SCHEMA_VERSION,
    Budget,
    IterationRecord,
    PortfolioEngine,
    PortfolioResult,
    Result,
    Verdict,
    VerificationEngine,
)
from .verifier import ENGINE_REFINER_NAMES, REFINER_NAMES, make_refiner, verify
from .supervision import RetryPolicy, Supervisor
from .faults import FaultPlan, FaultSpec
from .api import (
    PrecisionStore,
    Session,
    VerificationTask,
    VerifierOptions,
    program_fingerprint,
)

__all__ = [
    "Block",
    "PathProgram",
    "build_path_program",
    "nested_blocks",
    "Art",
    "ArtNode",
    "BfsFrontier",
    "DfsFrontier",
    "ErrorDistanceFrontier",
    "Frontier",
    "FRONTIER_NAMES",
    "make_frontier",
    "Precision",
    "ReachabilityOutcome",
    "Budget",
    "VerificationEngine",
    "CounterexampleAnalysis",
    "analyze_counterexample",
    "path_commands",
    "PathFormulaRefiner",
    "PathInvariantRefiner",
    "RefinementOutcome",
    "Refiner",
    "DivergenceMonitor",
    "DivergenceVerdict",
    "Result",
    "RESULT_SCHEMA_VERSION",
    "IterationRecord",
    "Verdict",
    "VerifierOptions",
    "VerificationTask",
    "PrecisionStore",
    "Session",
    "program_fingerprint",
    "PortfolioEngine",
    "PortfolioResult",
    "PORTFOLIO_REFINERS",
    "REFINER_NAMES",
    "ENGINE_REFINER_NAMES",
    "make_refiner",
    "verify",
    "Supervisor",
    "RetryPolicy",
    "FaultPlan",
    "FaultSpec",
]
