"""Static analysis over the loop-tree IR.

The stack, bottom to top (each layer consumes only the one below):

``dataflow``   — per-statement read/write/reduction sets with affine
                 subscripts, reaching definitions, live-out arrays.
``dependence`` — flow/anti/output dependences with distance vectors
                 (exact where affine subscripts pin them, ``"*"``
                 otherwise — conservative, never unsound).
``legality``   — ``can_interchange`` / ``can_tile`` / ``can_fuse`` /
                 ``can_unroll`` / ``can_distribute`` verdicts with
                 cited evidence; the rewrite engine
                 (:mod:`repro.rewrite`) consumes this API and refuses
                 to fire any transform without an ``ok`` verdict.
``validate``   — :class:`ProgramValidator`, run at every ingestion
                 boundary (codec, serve, campaign).
``cache``      — digest-keyed LRU of :class:`ProgramAnalysis`: one parse
                 per program, each further fact computed on first read.
"""

from .cache import AnalysisCache, GLOBAL_ANALYSIS_CACHE, ProgramAnalysis
from .dataflow import (
    AffineExpr,
    ArrayAccess,
    FunctionDataflow,
    LoopDesc,
    Statement,
    UndefinedRead,
    affine_of,
    analyze_dataflow,
)
from .dependence import (
    Dependence,
    DependenceReport,
    analyze_dependences,
    analyze_program_dependences,
    direction_vectors,
)
from .legality import (
    LegalityVerdict,
    can_distribute,
    can_fuse,
    can_interchange,
    can_tile,
    can_unroll,
    distribution_items,
    legality_matrix,
)
from .validate import (
    ProgramValidator,
    ValidationIssue,
    ValidationReport,
    validate_or_raise,
    validate_program,
)

__all__ = [
    "AffineExpr",
    "AnalysisCache",
    "ArrayAccess",
    "Dependence",
    "DependenceReport",
    "FunctionDataflow",
    "GLOBAL_ANALYSIS_CACHE",
    "LegalityVerdict",
    "LoopDesc",
    "ProgramAnalysis",
    "ProgramValidator",
    "Statement",
    "UndefinedRead",
    "ValidationIssue",
    "ValidationReport",
    "affine_of",
    "analyze_dataflow",
    "analyze_dependences",
    "analyze_program_dependences",
    "can_distribute",
    "can_fuse",
    "can_interchange",
    "can_tile",
    "can_unroll",
    "direction_vectors",
    "distribution_items",
    "legality_matrix",
    "validate_or_raise",
    "validate_program",
]
