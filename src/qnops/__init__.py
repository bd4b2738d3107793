"""Quasi-Newton updates with image and projection operators, plus the
matrix-approximation laboratory and benchmark problems behind them."""

from .linalg import (
    angle_to_subspace,
    kernel_basis,
    weighted_frobenius_error,
)
from .updates import (
    CurvatureError,
    DegenerateUpdateError,
    SecantPair,
    bgm_update,
    broyden_update,
    dfp_direct_update,
    gpsb_update,
    lbfgs_direction,
)
from .operators import (
    DISCARD_TOL,
    RawHistory,
    image_direction_broyden,
    image_direction_gpsb,
    normal_eq_projection,
    secondary_secant,
)
from .problems import (
    NonlinearSystem,
    SmoothProblem,
    circle_cosine_system,
    modified_rosenbrock_10,
    motivating_quadratic_2d,
    quadratic_weighted_50,
    random_spd_matrix,
    random_spd_quadratic,
)
from .solvers import (
    BGM,
    Backtracking,
    Broyden,
    GeneralizedPSB,
    GradNorm,
    ImageTransform,
    IterateError,
    IterationTrace,
    NoTransform,
    NormalEqWindow,
    ResidualNorm,
    SolverConfig,
    StepRecord,
    Unit,
    line_search,
    minimize,
    minimize_lbfgs,
    solve_system,
)
from .lab import (
    KernelGrowthReport,
    ProcessConfig,
    ProcessTrace,
    SuiteRow,
    check_kernel_growth,
    oracle_error_reduction,
    oracle_image_operator_gain,
    oracle_lemmas,
    oracle_projection_gain,
    run_process,
    verify_all,
)

__all__ = [
    "angle_to_subspace", "kernel_basis", "weighted_frobenius_error",
    "CurvatureError", "DegenerateUpdateError", "SecantPair",
    "bgm_update", "broyden_update", "dfp_direct_update", "gpsb_update",
    "lbfgs_direction",
    "DISCARD_TOL", "RawHistory", "image_direction_broyden", "image_direction_gpsb",
    "normal_eq_projection", "secondary_secant",
    "NonlinearSystem", "SmoothProblem", "circle_cosine_system",
    "modified_rosenbrock_10", "motivating_quadratic_2d", "quadratic_weighted_50",
    "random_spd_matrix", "random_spd_quadratic",
    "BGM", "Backtracking", "Broyden", "GeneralizedPSB", "GradNorm",
    "ImageTransform", "IterateError", "IterationTrace", "NoTransform",
    "NormalEqWindow", "ResidualNorm", "SolverConfig", "StepRecord", "Unit",
    "line_search", "minimize", "minimize_lbfgs", "solve_system",
    "KernelGrowthReport", "ProcessConfig", "ProcessTrace", "SuiteRow",
    "check_kernel_growth", "oracle_error_reduction",
    "oracle_image_operator_gain", "oracle_lemmas", "oracle_projection_gain",
    "run_process", "verify_all",
]

__version__ = "0.1.0"
