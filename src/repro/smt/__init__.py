"""Decision procedures: linear arithmetic, arrays-as-UF, quantifier handling."""

from .linear import LinConstraint, normalize_constraint, tighten_integer
from .fourier_motzkin import project, satisfiable
from .simplex import IncrementalSimplex
from .lra import LraResult, LraSolver
from .arrays import CubeSolver, Store, resolve_stores
from .quant import instantiate_positive, skolemize_negative
from .solver import SatResult, SmtSolver, SolverStats
from .ssa import SsaTranslation, ssa_translate, versioned
from .vcgen import PathFeasibility, VcChecker

__all__ = [
    "LinConstraint",
    "normalize_constraint",
    "tighten_integer",
    "project",
    "satisfiable",
    "IncrementalSimplex",
    "LraResult",
    "LraSolver",
    "CubeSolver",
    "Store",
    "resolve_stores",
    "instantiate_positive",
    "skolemize_negative",
    "SatResult",
    "SmtSolver",
    "SolverStats",
    "SsaTranslation",
    "ssa_translate",
    "versioned",
    "PathFeasibility",
    "VcChecker",
]
