"""Two-grid solvers and convergence analysis for SPSD linear systems.

The package computes exact convergence factors of two-grid iterations on
symmetric positive semidefinite (possibly singular) systems, two-sided
bounds for inexact coarse solvers, and runs the iterations themselves with
per-sweep instrumentation. A coarse solve is a certified SPSD matrix Bc,
applied as Bc^+, with the exact solve Bc = Ac, or a GeneralCoarse black box
of declared accuracy. Every analytical quantity is cross-checked against a
brute-force seminorm oracle.
"""
from .analysis import (
    ConditionReport,
    ExactFactorReport,
    InexactFactorReport,
    check_conditions,
    convergence_report,
    exact_factor,
    exact_two_sided,
    general_epsilon_bound,
    inexact_linear_analysis,
    seminorm_oracle,
    spectral_equivalence_constants,
)
from .errors import (
    CoarseScalingError,
    DivergenceError,
    InconsistentSystemError,
    MatrixMarketError,
    NotSpsdError,
    RangeMismatchError,
    ShapeError,
    SmootherAssumptionError,
    SmootherError,
    TwoGridError,
)
from .linalg import (
    SpsdOperator,
    SymEigen,
    TolerancePolicy,
    spsd_certify,
    sym_eig,
)
from .model import (
    CustomSmoother,
    FromFile,
    GaussSeidel,
    GraphLaplacian,
    NeumannLaplacian1D,
    NeumannLaplacian2D,
    RandomSpsd,
    TwoGridHierarchy,
    WeightedJacobi,
    aggregation_prolongation,
    build_hierarchy,
    build_smoother,
    generate_problem,
)
from .solver import (
    GeneralCoarse,
    IterationTrace,
    a_seminorm,
    itg_sweep,
    iterate,
    stg_sweep,
    tg_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "ConditionReport", "ExactFactorReport", "InexactFactorReport",
    "check_conditions", "convergence_report", "exact_factor",
    "exact_two_sided", "general_epsilon_bound", "inexact_linear_analysis",
    "seminorm_oracle", "spectral_equivalence_constants",
    "CoarseScalingError", "DivergenceError", "InconsistentSystemError",
    "MatrixMarketError", "NotSpsdError", "RangeMismatchError", "ShapeError",
    "SmootherAssumptionError", "SmootherError", "TwoGridError",
    "SpsdOperator", "SymEigen", "TolerancePolicy", "spsd_certify", "sym_eig",
    "CustomSmoother", "FromFile", "GaussSeidel", "GraphLaplacian",
    "NeumannLaplacian1D", "NeumannLaplacian2D", "RandomSpsd",
    "TwoGridHierarchy", "WeightedJacobi", "aggregation_prolongation",
    "build_hierarchy", "build_smoother", "generate_problem",
    "GeneralCoarse", "IterationTrace", "a_seminorm", "itg_sweep", "iterate",
    "stg_sweep", "tg_sweep",
    "__version__",
]
