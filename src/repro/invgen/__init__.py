"""Constraint-based invariant synthesis for path programs."""

from .cutset import BasicPath, basic_paths, cutpoints
from .invariant_map import InvariantMap, MapCheckResult, check_invariant_map
from .candidates import (
    ArrayFacts,
    collect_array_facts,
    mine_linear_candidates,
    quantified_candidates,
)
from .postcond import make_range_forall, strongest_post, strongest_post_path
from .templates import (
    LinearTemplate,
    ParamExpr,
    TemplateConjunction,
    equality_template,
)
from .farkas import FarkasEngine, FarkasResult
from .synthesize import PathInvariantSynthesizer, SynthesisOptions, SynthesisResult

__all__ = [
    "BasicPath",
    "basic_paths",
    "cutpoints",
    "InvariantMap",
    "MapCheckResult",
    "check_invariant_map",
    "ArrayFacts",
    "collect_array_facts",
    "mine_linear_candidates",
    "quantified_candidates",
    "make_range_forall",
    "strongest_post",
    "strongest_post_path",
    "LinearTemplate",
    "ParamExpr",
    "TemplateConjunction",
    "equality_template",
    "FarkasEngine",
    "FarkasResult",
    "PathInvariantSynthesizer",
    "SynthesisOptions",
    "SynthesisResult",
]
