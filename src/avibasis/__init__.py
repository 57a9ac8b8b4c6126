"""Monomial-order-free basis construction for approximate vanishing ideals.

Given a noisy point set, constructs bases of vanishing and nonvanishing
polynomials degree by degree, with pluggable normalization (identity/VCA,
coefficient, gradient, subsampled gradient).  Gradient normalization gives
polynomial-time spurious-vanishing control and consistent output under
translation and scaling of the input; gradients also drive a numerical
basis-reduction step that removes redundant vanishing polynomials.
"""

from .analysis import (
    ConcentricEllipses,
    CustomPoints,
    DatasetSpec,
    EpsilonSearchResult,
    EpsilonTarget,
    InvarianceReport,
    PolynomialSystem,
    epsilon_search,
    extract_features,
    generate_dataset,
    invariance_report,
    n_ratio,
)
from .densepoly import DensePolynomial, finite_diff_gradient
from .fit import FitConfig, NormalizationKind, fit
from .linalg import lstsq
from .model import (
    BasisModel,
    DegreeRecord,
    ExpansionLimitError,
    PointSet,
    PolyHandle,
    Preprocessing,
    evaluate,
    expand,
    gradient,
    gradient_with_op_count,
)
from .model_io import load_model, save_model
from .reduction import ReductionReport, reduce_basis

__version__ = "0.1.0"

__all__ = [
    "BasisModel",
    "ConcentricEllipses",
    "CustomPoints",
    "DatasetSpec",
    "DegreeRecord",
    "DensePolynomial",
    "EpsilonSearchResult",
    "EpsilonTarget",
    "ExpansionLimitError",
    "FitConfig",
    "InvarianceReport",
    "NormalizationKind",
    "PointSet",
    "PolyHandle",
    "PolynomialSystem",
    "Preprocessing",
    "ReductionReport",
    "epsilon_search",
    "evaluate",
    "expand",
    "extract_features",
    "finite_diff_gradient",
    "fit",
    "generate_dataset",
    "gradient",
    "gradient_with_op_count",
    "invariance_report",
    "load_model",
    "lstsq",
    "n_ratio",
    "reduce_basis",
    "save_model",
]
