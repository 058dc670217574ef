"""Exact counts of rational plane tropical curves.

The package computes the number of degree d rational tropical curves in
the plane that pass through prescribed points, meet prescribed multi
lines and satisfy degenerated tropical cross-ratios, everything in exact
integer arithmetic.  The count is obtained by a Kontsevich style
recursion that splits one cross-ratio at a time; vertex multiplicities
coming from cross-ratios are computed by exhaustive resolution, and
concrete parametrized curves can be checked against the recursion
through their evaluation matrices.
"""

from .conditions import (
    CrossRatio,
    EndCondition,
    Instance,
    Pairing,
    Validation,
    canonical_key,
    validate,
)
from .engine import (
    Engine,
    ResourceLimitError,
    ValidationError,
    evaluate,
    evaluate_invariance_battery,
    kontsevich,
)
from .resolution import (
    ResolutionTree,
    StructureError,
    VertexProfile,
    cross_ratio_multiplicity,
    resolve_once,
    total_resolutions,
)
from .splits import (
    ONE_ONE,
    TWO_ZERO_SIDE1_FIXED,
    TWO_ZERO_SIDE2_FIXED,
    Split,
    SubInstancePair,
    build_subinstances,
    enumerate_splits,
)
from .stablemap import (
    BoundedEdge,
    End,
    EndTag,
    EvMatrix,
    StableMap,
    check_split_multiplicity,
    ev_matrix,
    find_satisfying_vertex,
    multiplicity,
)

__version__ = "0.1.0"

__all__ = [
    "CrossRatio",
    "EndCondition",
    "Instance",
    "Pairing",
    "Validation",
    "canonical_key",
    "validate",
    "Engine",
    "ResourceLimitError",
    "ValidationError",
    "evaluate",
    "evaluate_invariance_battery",
    "kontsevich",
    "ResolutionTree",
    "StructureError",
    "VertexProfile",
    "cross_ratio_multiplicity",
    "resolve_once",
    "total_resolutions",
    "ONE_ONE",
    "TWO_ZERO_SIDE1_FIXED",
    "TWO_ZERO_SIDE2_FIXED",
    "Split",
    "SubInstancePair",
    "build_subinstances",
    "enumerate_splits",
    "BoundedEdge",
    "End",
    "EndTag",
    "EvMatrix",
    "StableMap",
    "check_split_multiplicity",
    "ev_matrix",
    "find_satisfying_vertex",
    "multiplicity",
    "__version__",
]
