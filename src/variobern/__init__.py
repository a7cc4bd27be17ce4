"""Variogram and covariance models from Bernstein-function combinators.

The package has three layers: an expression algebra over catalogued
profile functions with cone-membership certificates (algebra, atoms),
numerical permissibility oracles on finite point sets and grids (checks),
and model construction plus a desk-scale kriging/simulation harness
(models, kernels, kriging). The cli module exposes the same surface as
a command-line tool.
"""

from .algebra import (
    FunctionExpr,
    LevyTriple,
    affine,
    catalog,
    catalog_names,
    cbf_table,
    combine,
    compose,
    describe,
    dualize,
    evaluate,
    evaluate_complex,
    expr_from_json,
    expr_to_json,
    fpow,
    fprod,
    fsum,
    infer_class,
    levy_eval,
    spectral_node,
    uchiyama,
    with_levy,
    with_tags,
)
from .checks import (
    CheckRecord,
    PermissibilityReport,
    bernstein_check,
    cm_check,
    cnd_check,
    contrast_basis,
    detect_period,
    eventual_constancy_check,
    kernel_matrix,
    pd_check,
    polya_check,
    profile_shape_check,
    sqrt_subadditivity_check,
    variogram_axioms,
)
from .errors import (
    ConstructionError,
    DegenerateSystemError,
    EvaluationError,
    ParameterError,
    QuadratureError,
    VarioBernError,
)
from .kernels import (
    NonstationaryKernel,
    ShiftKernelPair,
    difference_kernel,
    nonstationary_kernel,
    shift_pair,
    spectral_reference,
    spectral_variogram,
    sum_kernel,
    tabulate_kernel_csv,
)
from .kriging import (
    KrigingResult,
    SimulationSpec,
    build_gamma_matrix,
    empirical_variogram,
    krige_many,
    ordinary_kriging,
    simulate_field,
)
from .models import (
    StationaryCovariance,
    Variogram,
    cbf_variograms,
    composition_products,
    covariance_from_variogram,
    exponential_covariance,
    ma_product,
    make_variogram,
    matern_covariance,
    model_from_json,
    model_to_json,
    schur_product_extended,
    spherical,
    spherical_covariance,
    variogram_from_covariance,
    wendland,
)
from .points import PointSet, read_points_csv, sample_point_sets, write_points_csv

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # algebra
    "FunctionExpr", "LevyTriple", "affine", "catalog", "catalog_names",
    "cbf_table", "combine", "compose", "describe", "dualize", "evaluate",
    "evaluate_complex", "expr_from_json", "expr_to_json", "fpow", "fprod",
    "fsum", "infer_class", "levy_eval", "spectral_node", "uchiyama",
    "with_levy", "with_tags",
    # checks
    "CheckRecord", "PermissibilityReport", "bernstein_check", "cm_check",
    "cnd_check", "contrast_basis", "detect_period",
    "eventual_constancy_check", "kernel_matrix", "pd_check", "polya_check",
    "profile_shape_check", "sqrt_subadditivity_check", "variogram_axioms",
    # errors
    "VarioBernError", "ParameterError", "EvaluationError", "QuadratureError",
    "DegenerateSystemError", "ConstructionError",
    # kernels
    "NonstationaryKernel", "ShiftKernelPair", "difference_kernel",
    "nonstationary_kernel", "shift_pair", "spectral_reference",
    "spectral_variogram", "sum_kernel", "tabulate_kernel_csv",
    # kriging
    "KrigingResult", "SimulationSpec", "build_gamma_matrix",
    "empirical_variogram", "krige_many", "ordinary_kriging", "simulate_field",
    # models
    "StationaryCovariance", "Variogram", "cbf_variograms",
    "composition_products", "covariance_from_variogram",
    "exponential_covariance", "ma_product", "make_variogram",
    "matern_covariance", "model_from_json", "model_to_json",
    "schur_product_extended", "spherical", "spherical_covariance",
    "variogram_from_covariance", "wendland",
    # points
    "PointSet", "read_points_csv", "write_points_csv", "sample_point_sets",
]
