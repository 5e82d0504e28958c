"""Per-site transport to a common target, cross-site report assembly, and the
estimation-error decomposition used to test the weighting estimator."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .balance import BalanceProblem, WeightSolution, check_lambda, pooled_covariates, solve_weights
from .blas import single_threaded_blas
from .data import PotentialOutcomeOracle, SiteDataset, TargetSpec
from .errors import AllSitesFailedError, ConfigError, SiteTransportError
from .estimators import (
    DEFAULT_BOOTSTRAP,
    DOUBLY_ROBUST,
    IPW,
    NAIVE,
    OUTCOME_MODEL,
    WEIGHTING,
    TransportEstimate,
    _model_estimates,
    density_ratio_fit,
    ipw_estimate,
    naive_estimate,
    weighting_estimate,
)
from .features import FeatureMap, KernelSpec, fit_feature_map, raw_feature_names, resolve_kernels
from .qp import QpSettings, whole_number

KNOWN_ESTIMATORS = (NAIVE, WEIGHTING, OUTCOME_MODEL, IPW, DOUBLY_ROBUST)
DEFAULT_LAMBDA = 0.03


@dataclass(frozen=True)
class TransportConfig:
    """Settings for a multisite transport run.

    The kernels set the mode: with neither, linear mode balances one feature
    map on both sides; both are kernel mode; one alone is a ConfigError.
    ``estimators`` must name at least one known estimator, ``interactions``
    be pairs of whole numbers >= 0 (see :class:`FeatureMap`), ``n_boot``
    and ``seed`` whole numbers >= 0 and ``standardize`` and ``ipw_hajek``
    booleans, or ConfigError names the setting. With
    ``n_boot`` 0 the outcome model and doubly robust estimates, whose
    standard errors are bootstrapped, carry a standard error of 0.0.
    """

    estimators: tuple[str, ...] = (NAIVE, WEIGHTING)
    lam: float = DEFAULT_LAMBDA
    interactions: tuple[tuple[int, int], ...] = ()
    standardize: bool = True
    cate_kernel: KernelSpec | None = None
    prognostic_kernel: KernelSpec | None = None
    solver: QpSettings = QpSettings()
    n_boot: int = DEFAULT_BOOTSTRAP
    seed: int = 0
    ipw_hajek: bool = False

    def __post_init__(self):
        object.__setattr__(self, "estimators", tuple(self.estimators))
        if not self.estimators or any(e not in KNOWN_ESTIMATORS for e in self.estimators):
            raise ConfigError(
                f"estimators must be one or more of {list(KNOWN_ESTIMATORS)}, got {list(self.estimators)}"
            )
        if (self.cate_kernel is None) != (self.prognostic_kernel is None):
            missing = "cate_kernel" if self.cate_kernel is None else "prognostic_kernel"
            raise ConfigError(f"kernel mode needs both kernels; {missing} is not given")
        object.__setattr__(self, "lam", check_lambda(self.lam))
        object.__setattr__(self, "interactions", FeatureMap(self.interactions).interactions)
        for name in ("standardize", "ipw_hajek"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigError(f"{name} must be true or false, got {getattr(self, name)!r}")
        object.__setattr__(self, "n_boot", whole_number(self.n_boot, "n_boot"))
        object.__setattr__(self, "seed", whole_number(self.seed, "seed", 0))
        if self.n_boot < 0 or self.n_boot == 1:
            raise ConfigError(f"n_boot must be 0 (no bootstrap) or at least 2, got {self.n_boot}")


@dataclass(frozen=True, eq=False)
class SiteResult:
    site_id: str
    n: int
    n1: int
    n0: int
    estimates: dict[str, TransportEstimate]
    weights: WeightSolution | None = None
    errors: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class TransportReport:
    results: tuple[SiteResult, ...]


def _transport_site(
    site: SiteDataset, target: TargetSpec, config: TransportConfig, fmap: FeatureMap | None, sides: dict
) -> SiteResult:
    """One site against the target, every estimator on the one feature map
    ``fmap`` and the weights on the balancing ``sides`` (see run_setup). An
    estimator's SiteTransportError is recorded under its name, a failed
    density-ratio fit under both IPW and doubly robust, and a failed arm fit
    under both the outcome model and doubly robust, which share it. The
    weighting estimate carries the notes of its weight solve."""
    wanted = config.estimators
    estimates: dict[str, TransportEstimate] = {}
    errors: dict[str, str] = {}

    def attempt(names, step):
        try:
            return step()
        except SiteTransportError as exc:
            errors.update(dict.fromkeys(names, f"{type(exc).__name__}: {exc}"))
            return None

    def estimate(name, step):
        if (est := attempt((name,), step)) is not None:
            estimates[name] = est

    if NAIVE in wanted:
        estimates[NAIVE] = naive_estimate(site)
    weights = None
    if WEIGHTING in wanted:
        weights = attempt((WEIGHTING,), lambda: solve_weights(
            BalanceProblem(site=site, target=target, lam=config.lam, **sides), settings=config.solver
        ))
        if weights is not None:
            estimate(WEIGHTING, lambda: replace(weighting_estimate(site, weights.gamma), notes=weights.notes))
    ratio_users = [name for name in (IPW, DOUBLY_ROBUST) if name in wanted]
    ratio = None
    if ratio_users:
        ratio = attempt(ratio_users, lambda: density_ratio_fit(site.covariates, target, fmap))
    if IPW in wanted and ratio is not None:
        estimate(IPW, lambda: ipw_estimate(site, ratio, hajek=config.ipw_hajek))
    # the outcome model and doubly robust share one arm fit and one bootstrap
    dr_ratio = ratio if DOUBLY_ROBUST in wanted else None
    users = [OUTCOME_MODEL] * (OUTCOME_MODEL in wanted) + [DOUBLY_ROBUST] * (dr_ratio is not None)
    if users:
        fits = attempt(users, lambda: _model_estimates(site, target, fmap, dr_ratio, config.n_boot, config.seed))
        estimates.update((est.method, est) for est in fits or () if est is not None and est.method in users)

    return SiteResult(
        site_id=site.site_id,
        n=site.n,
        n1=site.n1,
        n0=site.n0,
        estimates=estimates,
        weights=weights,
        errors=errors,
    )


def run_setup(
    config: TransportConfig, sites: list[SiteDataset], target: TargetSpec
) -> tuple[FeatureMap | None, dict]:
    """A run's set-up, the same for transport, the sweep and the simulation.

    Raises :class:`ConfigError` if the run needs a unit-level target sample
    (the outcome model, IPW, doubly robust, kernel mode) and ``target`` has
    moments, or if an interaction names an index past the sites'
    covariates, and :class:`DimensionMismatchError` if a site or the target
    sample has another number of covariates (:func:`pooled_covariates`).
    If the run uses a feature map (for those estimators, or linear-mode
    weights), fits it once on every site's covariates plus the target
    sample, if any; else it is None. Returns ``(fmap, sides)``, ``sides``
    the :class:`~sitetransport.balance.BalanceProblem` arguments of the
    weights: the map on both sides in linear mode, the config's kernels in
    kernel mode, each median-heuristic bandwidth resolved once on the same
    pooled sample, so that every site shares it.
    """
    sample_needed = sorted({OUTCOME_MODEL, IPW, DOUBLY_ROBUST} & set(config.estimators))
    if sample_needed and not target.is_sample:
        raise ConfigError(f"estimators {sample_needed} require a unit-level target sample")
    if config.cate_kernel is not None and not target.is_sample:
        raise ConfigError("kernel mode requires a unit-level target sample, not moments")
    raw_feature_names(sites[0].d, config.interactions)  # refuses an interaction past the covariates
    pooled = pooled_covariates(sites, target)
    fmap = None
    if sample_needed or (config.cate_kernel is None and WEIGHTING in config.estimators):
        fmap = fit_feature_map(FeatureMap(config.interactions, config.standardize), np.vstack(pooled))
    if config.cate_kernel is not None:
        kernels = resolve_kernels((config.cate_kernel, config.prognostic_kernel), pooled)
        return fmap, dict(zip(("cate_kernel", "prognostic_kernel"), kernels))
    return fmap, {"cate_map": fmap, "prognostic_map": fmap}


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

    fmap, sides = run_setup(config, sites, target)
    with single_threaded_blas():
        results = [_transport_site(s, target, config, fmap, sides) for s in sites]

    if all(not r.estimates for r in results):
        raise AllSitesFailedError("no estimator succeeded on any site")
    return TransportReport(results=tuple(results))


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
    site: SiteDataset, gamma: np.ndarray, target: TargetSpec, oracle: PotentialOutcomeOracle
) -> ErrorDecomposition:
    """Split the estimation error using the true prognostic and CATE functions.

    Simulation/testing only: requires the oracle and a finite target sample so
    the transported truth is an exact average.
    """
    if not target.is_sample:
        raise ValueError("error decomposition requires a unit-level target sample")
    gamma = np.asarray(gamma, dtype=float).ravel()
    z, pi, n = site.treatment, site.propensity, site.n

    w = (z - pi) / (pi * (1.0 - pi))
    m0 = oracle.m0_vec(site.covariates)
    tau = oracle.tau_vec(site.covariates)
    eps = site.outcomes - m0 - z * tau
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


def display_estimate(site: SiteDataset, gamma: np.ndarray) -> float:
    """The weighting estimator in its single-sum form
    (1/n) sum gamma_i (z_i - pi) / (pi (1 - pi)) y_i.

    Equals the difference-in-weighted-means form exactly when the sum
    constraints hold; used by the decomposition identity.
    """
    gamma = np.asarray(gamma, dtype=float).ravel()
    w = (site.treatment - site.propensity) / (site.propensity * (1.0 - site.propensity))
    return float(np.sum(gamma * w * site.outcomes)) / site.n
