"""Mittag-Leffler special functions, fractional kinetic solvers, and Laplace tooling.

The package is organized around a transform catalog: closed-form solutions
of fractional kinetic equations are expressed through the Mittag-Leffler
family, their Laplace transforms are first-class descriptor objects, and
independent numerical routes (contour inversion, forward quadrature, and
Riemann-Liouville product integration) certify every closed form.
"""

from .errors import (
    DomainError,
    InstabilityWarning,
    InversionFailure,
    MittagKineticsError,
    NonConvergence,
    PoleError,
    QuadratureFailure,
    SpecError,
    StabilityError,
    TieError,
)
from .fracint import DEFAULT_FRACINT_CONFIG, FracIntConfig, residual_check, rl_integral
from .kinetics import (
    KineticProblem,
    ProblemKind,
    SeriesTerm,
    SolutionSeries,
    invert_three_term,
    partial_fraction_split,
    solve,
    source_term,
    transform_of,
)
from .laplace import (
    DEFAULT_QUADRATURE_CONFIG,
    GammaPower,
    InversionConfig,
    LaplaceDensity,
    MLBasic,
    MLGeneral,
    QuadratureConfig,
    ResidualProduct,
    ThreeTermAlpha,
    ThreeTermBeta,
    TransformDescriptor,
    TwoRateProduct,
    lt_eval,
    lt_forward_numeric,
    lt_invert_numeric,
    self_similarity_check,
)
from .reaction_diffusion import (
    RDProblem,
    RDSolution,
    rd_solve_fd,
    rd_solve_spectral,
)
from .special_functions import (
    DEFAULT_SERIES_CONFIG,
    MLParams,
    SeriesConfig,
    WrightParams,
    f_function,
    hyp1f1,
    ml_eval,
    r_function,
    wright_eval,
)

__version__ = "0.1.0"

__all__ = [
    "MittagKineticsError",
    "DomainError",
    "NonConvergence",
    "PoleError",
    "TieError",
    "QuadratureFailure",
    "InversionFailure",
    "StabilityError",
    "SpecError",
    "InstabilityWarning",
    "SeriesConfig",
    "DEFAULT_SERIES_CONFIG",
    "MLParams",
    "WrightParams",
    "ml_eval",
    "f_function",
    "r_function",
    "wright_eval",
    "hyp1f1",
    "GammaPower",
    "LaplaceDensity",
    "ResidualProduct",
    "MLBasic",
    "MLGeneral",
    "TwoRateProduct",
    "ThreeTermAlpha",
    "ThreeTermBeta",
    "TransformDescriptor",
    "QuadratureConfig",
    "DEFAULT_QUADRATURE_CONFIG",
    "InversionConfig",
    "lt_eval",
    "lt_forward_numeric",
    "lt_invert_numeric",
    "self_similarity_check",
    "KineticProblem",
    "ProblemKind",
    "SeriesTerm",
    "SolutionSeries",
    "solve",
    "source_term",
    "transform_of",
    "partial_fraction_split",
    "invert_three_term",
    "FracIntConfig",
    "DEFAULT_FRACINT_CONFIG",
    "rl_integral",
    "residual_check",
    "RDProblem",
    "RDSolution",
    "rd_solve_spectral",
    "rd_solve_fd",
    "__version__",
]
