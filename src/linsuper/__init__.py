"""Exact analysis of linear superpositions on finite point sets.

Decides whether every function on a finite point set X splits as
g_1(h_1(x)) + ... + g_r(h_r(x)) for a fixed family h_1,...,h_r, produces
closed-path certificates when it does not, constructs the univariate tables
when it does, and classifies ridge-function interpolation instances. All
arithmetic is exact rational.
"""

from .errors import (
    ConstraintError,
    ContractViolationError,
    InputValidationError,
    InternalInvariantError,
)
from .linalg import (
    RationalMatrix,
    SolveResult,
    integer_primitive,
    kernel_basis,
    rank,
    rref,
    solve,
)
from .model import (
    FunctionFamily,
    IncidenceMatrix,
    LevelClass,
    Point,
    PointSet,
    QuantizeMerge,
    abstract_points,
    build_incidence,
    build_level_classes,
    coordinate_functions,
    coordinate_points,
    quantize_family,
)
from .paths import (
    ClosedPathCertificate,
    FunctionalDecomposition,
    MinimalityResult,
    certificate_from_kernel_vector,
    certify_minimal,
    decompose_functional,
    detect,
    enumerate_minimal,
    evaluate_certificate,
    find_minimal_within,
    is_closed_path,
    verify_certificate,
)
from .rationals import format_rational, parse_rational
from .represent import (
    Decomposition,
    RepresentationResult,
    Witness,
    is_representable,
    make_witness,
    representable_by_orthogonality,
)
from .ridge import (
    Direction,
    GeneratedExample,
    HypercubePath,
    NIClassification,
    ParallelLinesParams,
    RidgeInstance,
    StaircaseParams,
    TransversalCurveParams,
    ZigzagParams,
    classify_ni,
    direction,
    generate_pathfree_example,
    hypercube_path,
    ridge_instance,
    triangle_wave,
)

__version__ = "0.1.0"
