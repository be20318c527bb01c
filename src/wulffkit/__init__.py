"""wulffkit: numerical verification of anisotropic convex-geometry identities.

Conjugate norms and Wulff shapes, anisotropic distance and projection,
anisotropic principal curvatures, tube-volume polynomials and reach,
first variation of anisotropic perimeter, and the volume-vs-curvature
integral inequality with its Wulff-union equality classifier.
"""

from .duality import DualNorm, WulffSample, wulff_sample
from .errors import (
    DegeneratePointError,
    DomainError,
    HypothesisViolationError,
    InputError,
    NonEllipticError,
    QuadratureInconsistencyError,
    SceneError,
    SolverError,
    StarShapeError,
    StepTooLargeError,
    TruncationError,
    WulffkitError,
)
from .integrand import EuclideanNorm, Integrand, QuadraticNorm, WeightedSum
from .hypersurface import (
    Ellipsoid,
    StarBody,
    Superellipse,
    SurfaceQuadrature,
    WulffBody,
    perimeter_F,
    sample_surface,
    volume,
)
from .curvature import (
    CurvatureTable,
    UmbilicityReport,
    curvature_table,
    umbilicity_classify,
)
from .distance import (
    DistanceField,
    GridSpec,
    ProjectionResult,
    ReachComparison,
    SourceSet,
    boundary_source,
    build_field,
    estimate_reach_F,
    project,
    reach_comparison,
)
from .steiner import (
    SteinerFit,
    TubeCurve,
    claim5_coefficients,
    default_t_grid,
    fit_polynomial,
    positive_reach_test,
    tube_volumes,
)
from .hk import (
    HKReport,
    HKRow,
    equality_classifier,
    hk_evaluate,
    hk_report,
    hk_row,
    montiel_ros_integral,
)
from .variation import (
    CriticalityResult,
    PolynomialField,
    criticality_residual,
    first_variation,
    flow_energy_derivative,
)
from .scene import Scene, load_scene, parse_scene

__version__ = "0.1.0"
