"""Per-site transport to a common target, cross-site report assembly, and the
estimation-error decomposition used to test the weighting estimator."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .balance import BalanceProblem, WeightSolution, solve_weights
from .blas import single_threaded_blas
from .data import PotentialOutcomeOracle, SiteDataset, TargetSpec
from .errors import AllSitesFailedError, ConfigError, SiteTransportError
from .estimators import (
    DOUBLY_ROBUST,
    IPW,
    NAIVE,
    OUTCOME_MODEL,
    WEIGHTING,
    TransportEstimate,
    density_ratio_fit,
    doubly_robust_estimate,
    ipw_estimate,
    naive_estimate,
    outcome_model_estimate,
    weighting_estimate,
)
from .features import FeatureMap, KernelSpec, fit_feature_map
from .qp import QpSettings

KNOWN_ESTIMATORS = (NAIVE, WEIGHTING, OUTCOME_MODEL, IPW, DOUBLY_ROBUST)


@dataclass(frozen=True)
class TransportConfig:
    """Settings for a multisite transport run.

    The same feature-map specification is used for the effect side and the
    prognostic side in linear mode; kernel mode uses the two kernel specs.
    """

    estimators: tuple[str, ...] = (NAIVE, WEIGHTING)
    lam: float = 0.03
    mode: str = "linear"
    interactions: tuple[tuple[int, int], ...] = ()
    standardize: bool = True
    cate_kernel: KernelSpec = KernelSpec("linear")
    prognostic_kernel: KernelSpec = KernelSpec("linear")
    solver: QpSettings = QpSettings()
    n_boot: int = 200
    seed: int = 0
    ipw_hajek: bool = False

    def __post_init__(self):
        unknown = [e for e in self.estimators if e not in KNOWN_ESTIMATORS]
        if unknown:
            raise ConfigError(
                f"unknown estimator(s) {unknown}; known: {list(KNOWN_ESTIMATORS)}"
            )
        if self.mode not in ("linear", "kernel"):
            raise ConfigError(f"mode must be 'linear' or 'kernel', got {self.mode!r}")
        if self.lam < 0:
            raise ConfigError("lambda must be nonnegative")
        if self.n_boot < 0 or self.n_boot == 1:
            raise ConfigError(f"n_boot must be 0 (no bootstrap) or at least 2, got {self.n_boot}")


@dataclass(frozen=True)
class SiteResult:
    site_id: str
    n: int
    n1: int
    n0: int
    estimates: dict[str, TransportEstimate]
    weights: WeightSolution | None = None
    errors: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class TransportReport:
    results: tuple[SiteResult, ...]
    target_size: int | None

    def estimates_for(self, method: str) -> list[TransportEstimate]:
        return [r.estimates[method] for r in self.results if method in r.estimates]


def _transport_site(
    site: SiteDataset,
    target: TargetSpec,
    config: TransportConfig,
    cate_map: FeatureMap | None,
    prognostic_map: FeatureMap | None,
) -> SiteResult:
    """One site against the target. In kernel mode the feature maps are still
    used for the outcome-model, IPW, and doubly robust designs."""
    estimates: dict[str, TransportEstimate] = {}
    errors: dict[str, str] = {}
    weights = None
    use_kernels = config.mode == "kernel"

    if NAIVE in config.estimators:
        estimates[NAIVE] = naive_estimate(site)

    if WEIGHTING in config.estimators:
        try:
            prob = BalanceProblem(
                site=site,
                target=target,
                lam=config.lam,
                cate_map=None if use_kernels else cate_map,
                prognostic_map=None if use_kernels else prognostic_map,
                cate_kernel=config.cate_kernel if use_kernels else None,
                prognostic_kernel=config.prognostic_kernel if use_kernels else None,
            )
            weights = solve_weights(prob, settings=config.solver)
            estimates[WEIGHTING] = weighting_estimate(site, weights.gamma)
        except SiteTransportError as exc:
            errors[WEIGHTING] = f"{type(exc).__name__}: {exc}"

    ratio = None
    if IPW in config.estimators or DOUBLY_ROBUST in config.estimators:
        try:
            ratio = density_ratio_fit(site.covariates, target.sample, cate_map)
        except SiteTransportError as exc:
            msg = f"{type(exc).__name__}: {exc}"
            for name in (IPW, DOUBLY_ROBUST):
                if name in config.estimators:
                    errors[name] = msg

    if IPW in config.estimators and ratio is not None:
        try:
            estimates[IPW] = ipw_estimate(site, ratio, hajek=config.ipw_hajek)
        except SiteTransportError as exc:
            errors[IPW] = f"{type(exc).__name__}: {exc}"

    if OUTCOME_MODEL in config.estimators:
        try:
            estimates[OUTCOME_MODEL] = outcome_model_estimate(
                site, target, cate_map, n_boot=config.n_boot, seed=config.seed
            )
        except SiteTransportError as exc:
            errors[OUTCOME_MODEL] = f"{type(exc).__name__}: {exc}"

    if DOUBLY_ROBUST in config.estimators and ratio is not None:
        try:
            estimates[DOUBLY_ROBUST] = doubly_robust_estimate(
                site, target, cate_map, ratio=ratio, n_boot=config.n_boot, seed=config.seed
            )
        except SiteTransportError as exc:
            errors[DOUBLY_ROBUST] = f"{type(exc).__name__}: {exc}"

    return SiteResult(
        site_id=site.site_id,
        n=site.n,
        n1=site.n1,
        n0=site.n0,
        estimates=estimates,
        weights=weights,
        errors=errors,
    )


def transport_all(
    sites: list[SiteDataset],
    target: TargetSpec | None = None,
    config: TransportConfig | None = None,
) -> TransportReport:
    """Run every enabled estimator on every site against one common target.

    ``target=None`` builds the overall-population target as the union of all
    sites' units (each site's own units included). Per-site failures are
    recorded without aborting; if every site fails on every requested
    estimator, :class:`AllSitesFailedError` is raised. The sites run under
    :func:`~sitetransport.blas.single_threaded_blas`.
    """
    if not sites:
        raise ValueError("at least one site is required")
    config = config or TransportConfig()
    if target is None:
        target = TargetSpec.pooled(sites)

    sample_needed = {OUTCOME_MODEL, IPW, DOUBLY_ROBUST} & set(config.estimators)
    if sample_needed and not target.is_sample:
        raise ConfigError(
            f"estimators {sorted(sample_needed)} require a unit-level target sample"
        )
    if config.mode == "kernel" and not target.is_sample:
        raise ConfigError("kernel mode requires a unit-level target sample")

    cate_map = prognostic_map = None
    if config.mode == "linear" or sample_needed:
        pooled = [s.covariates for s in sites]
        if target.is_sample:
            pooled.append(target.sample)
        spec = FeatureMap(interactions=config.interactions, standardize=config.standardize)
        cate_map = fit_feature_map(spec, np.vstack(pooled))
        prognostic_map = cate_map

    with single_threaded_blas():
        results = [_transport_site(s, target, config, cate_map, prognostic_map) for s in sites]

    if all(not r.estimates for r in results):
        raise AllSitesFailedError("no estimator succeeded on any site")
    return TransportReport(results=tuple(results), target_size=(
        int(target.sample.shape[0]) if target.is_sample else None
    ))


@dataclass(frozen=True)
class ErrorDecomposition:
    """Exact split of the weighting estimation error into three terms.

    ``total`` equals prognostic_term + cate_term + noise_term, which in turn
    equals the weighting estimate minus the transported truth (an algebraic
    identity, exact up to rounding).
    """

    prognostic_term: float
    cate_term: float
    noise_term: float
    total: float


def decompose_error(
    site: SiteDataset,
    gamma: np.ndarray,
    target: TargetSpec,
    oracle: PotentialOutcomeOracle,
    y: np.ndarray | None = None,
) -> ErrorDecomposition:
    """Split the estimation error using the true prognostic and CATE functions.

    Simulation/testing only: requires the oracle and a finite target sample so
    the transported truth is an exact average.
    """
    if not target.is_sample:
        raise ValueError("error decomposition requires a unit-level target sample")
    gamma = np.asarray(gamma, dtype=float).ravel()
    y = site.outcomes if y is None else np.asarray(y, dtype=float).ravel()
    z = site.treatment
    pi = site.propensity
    n = site.n

    w = (z - pi) / (pi * (1.0 - pi))
    m0 = oracle.m0_vec(site.covariates)
    tau = oracle.tau_vec(site.covariates)
    eps = y - m0 - z * tau
    truth = float(np.mean(oracle.tau_vec(target.sample)))

    prognostic_term = float(np.sum(gamma * w * m0)) / n
    cate_term = float(np.sum(gamma * z * tau)) / (n * pi) - truth
    noise_term = float(np.sum(gamma * w * eps)) / n
    return ErrorDecomposition(
        prognostic_term=prognostic_term,
        cate_term=cate_term,
        noise_term=noise_term,
        total=prognostic_term + cate_term + noise_term,
    )


def display_estimate(site: SiteDataset, gamma: np.ndarray, y: np.ndarray | None = None) -> float:
    """The weighting estimator in its single-sum form
    (1/n) sum gamma_i (z_i - pi) / (pi (1 - pi)) y_i.

    Equals the difference-in-weighted-means form exactly when the sum
    constraints hold and pi = n1/n; used by the decomposition identity.
    """
    gamma = np.asarray(gamma, dtype=float).ravel()
    y = site.outcomes if y is None else np.asarray(y, dtype=float).ravel()
    w = (site.treatment - site.propensity) / (site.propensity * (1.0 - site.propensity))
    return float(np.sum(gamma * w * y)) / site.n
