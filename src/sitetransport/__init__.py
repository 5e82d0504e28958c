"""Balancing-weight transport of site-level treatment effects.

The package solves per-site approximate balancing-weight programs against a
common target covariate distribution, compares the resulting weighting
estimator with outcome-modeling, IPW, and doubly robust alternatives,
quantifies cross-site effect heterogeneity before and after transport, and
benchmarks everything on synthetic multisite data.
"""

from .balance import (
    BalanceProblem,
    ImbalanceReport,
    SweepRow,
    WeightSolution,
    build_kernel_qp,
    build_linear_qp,
    imbalance_report,
    kish_ess,
    lambda_sweep,
    solve_weights,
)
from .data import PotentialOutcomeOracle, SiteDataset, TargetSpec, UnitRecord, UnitTable, validate_dataset
from .estimators import (
    DensityRatio,
    TransportEstimate,
    density_ratio_fit,
    doubly_robust_estimate,
    ipw_estimate,
    naive_estimate,
    outcome_model_estimate,
    weighting_estimate,
)
from .features import (
    FeatureMap,
    KernelSpec,
    apply_feature_map,
    fit_feature_map,
    identity_map,
    kernel_matrix,
    resolve_bandwidth,
)
from .heterogeneity import (
    HeterogeneityReport,
    SiteEffectSet,
    chi_square_quantile,
    estimate_theta,
    pseudo_r2,
    q_statistic,
)
from .multisite import (
    ErrorDecomposition,
    SiteResult,
    TransportConfig,
    TransportReport,
    decompose_error,
    display_estimate,
    transport_all,
)
from .qp import QpSettings, QpSolution, QuadraticProgram, solve_qp
from .sim import SimConfig, SimResult, build_populations, generate_rep, run_simulation

__version__ = "0.1.0"

__all__ = [
    "BalanceProblem",
    "DensityRatio",
    "ErrorDecomposition",
    "FeatureMap",
    "HeterogeneityReport",
    "ImbalanceReport",
    "KernelSpec",
    "PotentialOutcomeOracle",
    "QpSettings",
    "QpSolution",
    "QuadraticProgram",
    "SimConfig",
    "SimResult",
    "SiteDataset",
    "SiteEffectSet",
    "SiteResult",
    "SweepRow",
    "TargetSpec",
    "TransportConfig",
    "TransportEstimate",
    "TransportReport",
    "UnitRecord",
    "UnitTable",
    "WeightSolution",
    "apply_feature_map",
    "build_kernel_qp",
    "build_linear_qp",
    "build_populations",
    "chi_square_quantile",
    "decompose_error",
    "density_ratio_fit",
    "display_estimate",
    "doubly_robust_estimate",
    "estimate_theta",
    "fit_feature_map",
    "generate_rep",
    "identity_map",
    "imbalance_report",
    "ipw_estimate",
    "kernel_matrix",
    "kish_ess",
    "lambda_sweep",
    "naive_estimate",
    "outcome_model_estimate",
    "pseudo_r2",
    "q_statistic",
    "resolve_bandwidth",
    "run_simulation",
    "solve_qp",
    "solve_weights",
    "transport_all",
    "validate_dataset",
    "weighting_estimate",
]
