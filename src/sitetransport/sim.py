"""Desk-scale simulation harness: synthetic multisite populations, bootstrap
replications, and RMSE/bias scoring of the estimators across a
regularization grid.

The synthetic base population mirrors the structure of large welfare-program
trials: mostly binary covariates with site-varying prevalences plus one
log-normal continuous covariate, a sparse linear CATE with an
experiment-group intercept, and independent Gaussian outcome noise.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .balance import BalanceProblem, solve_along_grid
from .data import SiteDataset, TargetSpec
from .errors import SiteTransportError
from .estimators import (
    DOUBLY_ROBUST,
    IPW,
    NAIVE,
    OUTCOME_MODEL,
    WEIGHTING,
    density_ratio_fit,
    doubly_robust_estimate,
    ipw_estimate,
    naive_estimate,
    outcome_model_estimate,
    weighting_estimate,
)
from .features import FeatureMap, fit_feature_map
from .qp import QpSettings

# Pseudo-estimator that scores the truth itself; harness self-test hook.
ORACLE = "oracle"

_KNOWN = (NAIVE, WEIGHTING, OUTCOME_MODEL, IPW, DOUBLY_ROBUST, ORACLE)


def _default_cate_coefficients(d: int) -> tuple[float, ...]:
    """Sparse CATE loadings: three binary covariates plus the continuous one,
    sized so the unit-level effect stays below about one in magnitude."""
    coef = np.zeros(d)
    spots = np.unique(np.round(np.linspace(0, max(d - 2, 0), 3)).astype(int))
    mags = (0.4, -0.3, 0.25)
    for i, s in enumerate(spots):
        coef[s] = mags[i % len(mags)]
    coef[d - 1] = -0.2
    return tuple(coef)


@dataclass(frozen=True)
class SimConfig:
    n_sites: int = 12
    n_experiments: int = 3
    site_size_range: tuple[int, int] = (150, 600)
    n_covariates: int = 23  # last covariate continuous (log-normal), rest binary
    cate_coefficients: tuple[float, ...] | None = None
    experiment_intercepts: tuple[float, ...] = (-0.4, 0.05, 0.35)
    noise_sd: float = 0.5
    reps: int = 120
    lambda_grid: tuple[float, ...] = (1e-4, 3e-2, 3e-1, 3.0, 30.0, 1e4, 1e8)
    target_experiment: int = 0
    estimators: tuple[str, ...] = (NAIVE, WEIGHTING, IPW, OUTCOME_MODEL, DOUBLY_ROBUST)
    seed: int = 0
    solver: QpSettings = QpSettings()

    def __post_init__(self):
        if self.noise_sd <= 0:
            raise ValueError("noise_sd must be positive")
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        if self.n_sites < 1 or self.n_experiments < 1:
            raise ValueError("site and experiment counts must be positive")
        if len(self.experiment_intercepts) != self.n_experiments:
            raise ValueError("one intercept per experiment group is required")
        if not 0 <= self.target_experiment < self.n_experiments:
            raise ValueError("target_experiment out of range")
        if not self.lambda_grid or any(v < 0 for v in self.lambda_grid):
            raise ValueError("lambda_grid must be nonempty and nonnegative")
        unknown = [e for e in self.estimators if e not in _KNOWN]
        if unknown:
            raise ValueError(f"unknown estimator(s) {unknown}")
        if self.cate_coefficients is None:
            object.__setattr__(
                self, "cate_coefficients", _default_cate_coefficients(self.n_covariates)
            )
        elif len(self.cate_coefficients) != self.n_covariates:
            raise ValueError("cate_coefficients length must equal n_covariates")


@dataclass(frozen=True)
class SitePopulation:
    """One site's fixed base population, drawn once per configuration."""

    site_id: str
    experiment: int
    covariates: np.ndarray
    base_outcome: np.ndarray
    n_treated: int

    @property
    def n(self) -> int:
        return self.covariates.shape[0]

    @property
    def propensity(self) -> float:
        return self.n_treated / self.n


def build_populations(config: SimConfig) -> list[SitePopulation]:
    """Draw the per-site base populations; deterministic given config.seed."""
    rng = np.random.default_rng([config.seed, 101])
    d = config.n_covariates
    beta0 = rng.normal(0.0, 0.4, size=d)
    pops = []
    lo, hi = config.site_size_range
    for j in range(config.n_sites):
        n_j = int(rng.integers(lo, hi + 1))
        group = j * config.n_experiments // config.n_sites
        prevalences = rng.beta(2.0, 2.0, size=d - 1)
        X = np.empty((n_j, d))
        X[:, : d - 1] = (rng.random((n_j, d - 1)) < prevalences).astype(float)
        X[:, d - 1] = np.exp(rng.normal(rng.normal(0.0, 0.3), 0.5, size=n_j))
        site_shift = rng.normal(0.0, 0.3)
        base = X @ beta0 + site_shift + rng.normal(0.0, 0.8, size=n_j)
        pi = rng.uniform(0.35, 0.65)
        n1 = int(np.clip(round(pi * n_j), 1, n_j - 1))
        pops.append(
            SitePopulation(
                site_id=f"site{j + 1:02d}",
                experiment=group,
                covariates=X,
                base_outcome=base,
                n_treated=n1,
            )
        )
    return pops


def _site_tau(config: SimConfig, experiment: int, X: np.ndarray) -> np.ndarray:
    coef = np.asarray(config.cate_coefficients)
    return X @ coef + config.experiment_intercepts[experiment]


@dataclass(frozen=True)
class SimReplicate:
    sites: list[SiteDataset]
    target: TargetSpec
    truth: dict[str, float]


def generate_rep(
    config: SimConfig,
    rep_seed: int,
    populations: list[SitePopulation] | None = None,
) -> SimReplicate:
    """One bootstrap replication of every site plus the rep's target and truth.

    Each site's base population is resampled with replacement, treatment is
    re-randomized holding the treated count fixed, and potential outcomes get
    independent noise. The target is the pooled bootstrap sample of the
    designated experiment group, and the per-site truth is the exact average
    of that site's CATE over the target sample.
    """
    pops = populations if populations is not None else build_populations(config)
    rng = np.random.default_rng([config.seed, 202, int(rep_seed)])

    sites = []
    target_rows = []
    for pop in pops:
        idx = rng.integers(0, pop.n, size=pop.n)
        X = pop.covariates[idx]
        base = pop.base_outcome[idx]
        z = np.zeros(pop.n)
        z[rng.permutation(pop.n)[: pop.n_treated]] = 1.0

        y0 = base + rng.normal(0.0, config.noise_sd, size=pop.n)
        y1 = y0 + _site_tau(config, pop.experiment, X) + rng.normal(
            0.0, config.noise_sd, size=pop.n
        )
        y = np.where(z == 1.0, y1, y0)

        sites.append(
            SiteDataset(site_id=pop.site_id, covariates=X, treatment=z, outcomes=y, propensity=pop.propensity)
        )
        if pop.experiment == config.target_experiment:
            target_rows.append(X)

    target = TargetSpec.from_sample(np.vstack(target_rows))
    truth = {
        pop.site_id: float(np.mean(_site_tau(config, pop.experiment, target.sample)))
        for pop in pops
    }
    return SimReplicate(sites=sites, target=target, truth=truth)


@dataclass(frozen=True)
class SimTableRow:
    estimator: str
    lam: float | None
    rmse: float
    mean_abs_bias: float
    n_failed: int


@dataclass(frozen=True)
class SimResult:
    rows: tuple[SimTableRow, ...]
    reps: int
    n_sites: int
    # audit detail: per-(estimator, lambda) arrays of (rep, site) errors
    cell_errors: dict | None = field(default=None, compare=False)

    def row(self, estimator: str, lam: float | None = None) -> SimTableRow:
        for r in self.rows:
            if r.estimator == estimator and (
                lam is None and r.lam is None or (r.lam is not None and lam is not None and r.lam == lam)
            ):
                return r
        raise KeyError((estimator, lam))


def _rep_errors(config: SimConfig, populations, rep: int) -> dict[tuple, np.ndarray]:
    """Estimate every enabled cell for one replication; NaN marks a failure."""
    repl = generate_rep(config, rep, populations)
    sites = repl.sites
    J = len(sites)
    grid = sorted(set(float(v) for v in config.lambda_grid), reverse=True)
    out: dict[tuple, np.ndarray] = {}

    def cell(estimator, lam=None):
        key = (estimator, lam)
        if key not in out:
            out[key] = np.full(J, np.nan)
        return out[key]

    fmap = None
    if WEIGHTING in config.estimators or set(config.estimators) & {
        OUTCOME_MODEL,
        IPW,
        DOUBLY_ROBUST,
    }:
        pooled = np.vstack([s.covariates for s in sites] + [repl.target.sample])
        fmap = fit_feature_map(FeatureMap(standardize=True), pooled)

    for j, site in enumerate(sites):
        truth = repl.truth[site.site_id]
        if ORACLE in config.estimators:
            cell(ORACLE)[j] = 0.0
        if NAIVE in config.estimators:
            cell(NAIVE)[j] = naive_estimate(site).estimate - truth

        if WEIGHTING in config.estimators:
            prob = BalanceProblem(
                site=site,
                target=repl.target,
                lam=grid[0],
                cate_map=fmap,
                prognostic_map=fmap,
            )
            for lam, ws in solve_along_grid(prob, grid, config.solver, catch=SiteTransportError):
                errors = cell(WEIGHTING, lam)  # stays NaN unless the estimate succeeds
                if ws is not None:
                    try:
                        errors[j] = weighting_estimate(site, ws.gamma).estimate - truth
                    except SiteTransportError:
                        pass

        ratio = None
        if IPW in config.estimators or DOUBLY_ROBUST in config.estimators:
            try:
                ratio = density_ratio_fit(site.covariates, repl.target.sample, fmap)
            except SiteTransportError:
                ratio = None
        if IPW in config.estimators:
            try:
                if ratio is None:
                    raise SiteTransportError("density ratio unavailable")
                cell(IPW)[j] = ipw_estimate(site, ratio).estimate - truth
            except SiteTransportError:
                cell(IPW)[j] = np.nan
        if OUTCOME_MODEL in config.estimators:
            try:
                est = outcome_model_estimate(site, repl.target, fmap, n_boot=0)
                cell(OUTCOME_MODEL)[j] = est.estimate - truth
            except SiteTransportError:
                cell(OUTCOME_MODEL)[j] = np.nan
        if DOUBLY_ROBUST in config.estimators:
            try:
                if ratio is None:
                    raise SiteTransportError("density ratio unavailable")
                est = doubly_robust_estimate(site, repl.target, fmap, ratio=ratio, n_boot=0)
                cell(DOUBLY_ROBUST)[j] = est.estimate - truth
            except SiteTransportError:
                cell(DOUBLY_ROBUST)[j] = np.nan
    return out


def run_simulation(config: SimConfig, threads: int = 1, keep_estimates: bool = False) -> SimResult:
    """Score every enabled estimator over the replications.

    RMSE is the across-site root mean squared error per replication, averaged
    over replications. Mean absolute bias averages each site's error over
    replications first, then takes the mean absolute value across sites.
    Failed cells are recorded and excluded from the averages. Deterministic
    given the seed, independent of thread count.
    """
    populations = build_populations(config)
    J = config.n_sites

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            per_rep = list(
                pool.map(lambda r: _rep_errors(config, populations, r), range(config.reps))
            )
    else:
        per_rep = [_rep_errors(config, populations, r) for r in range(config.reps)]

    keys = sorted(per_rep[0].keys(), key=lambda k: (k[0], -np.inf if k[1] is None else k[1]))
    rows = []
    audit = {} if keep_estimates else None
    for key in keys:
        err = np.vstack([rep[key] for rep in per_rep])  # reps x J
        if audit is not None:
            audit[key] = err
        ok = np.isfinite(err)
        n_failed = int(err.size - ok.sum())
        if not ok.any():
            rmse = mab = float("nan")
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                per_rep_rmse = np.sqrt(np.nanmean(np.where(ok, err**2, np.nan), axis=1))
                rmse = float(np.nanmean(per_rep_rmse))
                site_bias = np.nanmean(np.where(ok, err, np.nan), axis=0)
                mab = float(np.nanmean(np.abs(site_bias)))
        rows.append(
            SimTableRow(
                estimator=key[0],
                lam=key[1],
                rmse=rmse,
                mean_abs_bias=mab,
                n_failed=n_failed,
            )
        )
    return SimResult(rows=tuple(rows), reps=config.reps, n_sites=J, cell_errors=audit)
