"""Exact decision and construction toolkit for first-order differential
inclusions Du ∈ E and Du + (Du)ᵀ ∈ E in the minimal dimension.

Everything is exact rational arithmetic: feasibility verdicts carry
re-checkable certificates, constructions are piecewise-affine with
gradients exactly in the admissible set, and the verifier re-derives
every claim from the serialized data alone.
"""

from .builder import (
    Cell,
    CoverCopy,
    PiecewiseAffine,
    PyramidSpec,
    assemble_solution,
    build_pyramid,
    vitali_cover,
)
from .convexity import (
    CaratheodoryCertificate,
    PointSet,
    certificate_valid,
    in_interior_of_hull,
    in_relative_interior_of_hull,
    separating_functional,
)
from .errors import (
    AmbientMismatch,
    BudgetExceeded,
    DimensionMismatch,
    InclusionKitError,
    InvalidInput,
    NotInterior,
    SchemaError,
    Unbounded,
    ZeroInSet,
)
from .feasibility import (
    FEASIBLE,
    GRADIENT,
    INFEASIBLE,
    OUT_OF_SCOPE,
    SYMMETRIZED,
    InclusionProblem,
    Verdict,
    decide,
)
from .geometry import Polytope, extent, faces, triangulate, unit_box, vertices
from .linalg import Mat, Subspace, Vec, mat, rat, span_of, vec
from .products import detect_rank_one_span, tensor
from .serialize import (
    canonical_dumps,
    decode_problem,
    decode_solution,
    encode_report,
    encode_solution,
    encode_verdict,
    load_problem,
    load_solution,
)
from .verify import Report, verify_solution

__version__ = "0.1.0"

__all__ = [
    "AmbientMismatch",
    "BudgetExceeded",
    "CaratheodoryCertificate",
    "Cell",
    "CoverCopy",
    "DimensionMismatch",
    "FEASIBLE",
    "GRADIENT",
    "INFEASIBLE",
    "InclusionKitError",
    "InclusionProblem",
    "InvalidInput",
    "Mat",
    "NotInterior",
    "OUT_OF_SCOPE",
    "PiecewiseAffine",
    "PointSet",
    "Polytope",
    "PyramidSpec",
    "Report",
    "SYMMETRIZED",
    "SchemaError",
    "Subspace",
    "Unbounded",
    "Vec",
    "Verdict",
    "ZeroInSet",
    "assemble_solution",
    "build_pyramid",
    "canonical_dumps",
    "certificate_valid",
    "decide",
    "decode_problem",
    "decode_solution",
    "detect_rank_one_span",
    "encode_report",
    "encode_solution",
    "encode_verdict",
    "extent",
    "faces",
    "in_interior_of_hull",
    "in_relative_interior_of_hull",
    "load_problem",
    "load_solution",
    "mat",
    "rat",
    "separating_functional",
    "span_of",
    "tensor",
    "triangulate",
    "unit_box",
    "verify_solution",
    "vertices",
    "vec",
    "vitali_cover",
    "__version__",
]
