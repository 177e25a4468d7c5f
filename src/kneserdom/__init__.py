"""Domination-type invariants and 2-packing numbers of Kneser graphs."""

from .certify import (
    InvariantKind,
    VerificationReport,
    verify,
    verify_2_packing,
)
from .construct import (
    TABLE3_PACKINGS,
    diagonal_lift,
    disjoint_clique,
    doubling_lift,
    gamma_kt_boundary,
    normalize_packing,
    rho3_witness,
    rho4_witness,
    table3_packing,
)
from .core import (
    CapacityError,
    DefinabilityError,
    InternalCheckError,
    KneserParams,
    ParameterError,
    Vertex,
    VertexFamily,
)
from .familydoc import (
    FamilyDocumentError,
    family_to_csv,
    family_to_document,
    load_family_document,
    parse_family_document,
)
from .solve import (
    SolveResult,
    SolveStatus,
    SolverConfig,
    solve_domination,
    solve_rho2,
    threshold_predictions,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "DefinabilityError",
    "FamilyDocumentError",
    "InternalCheckError",
    "InvariantKind",
    "KneserParams",
    "ParameterError",
    "SolveResult",
    "SolveStatus",
    "SolverConfig",
    "TABLE3_PACKINGS",
    "VerificationReport",
    "Vertex",
    "VertexFamily",
    "diagonal_lift",
    "disjoint_clique",
    "doubling_lift",
    "family_to_csv",
    "family_to_document",
    "gamma_kt_boundary",
    "load_family_document",
    "normalize_packing",
    "parse_family_document",
    "rho3_witness",
    "rho4_witness",
    "solve_domination",
    "solve_rho2",
    "table3_packing",
    "threshold_predictions",
    "verify",
    "verify_2_packing",
]
