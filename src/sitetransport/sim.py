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
from dataclasses import dataclass, field, replace

import numpy as np

from .balance import BalanceProblem, check_lambda, solve_along_grid
from .blas import single_threaded_blas
from .data import SiteDataset, TargetSpec
from .estimators import DOUBLY_ROBUST, IPW, NAIVE, OUTCOME_MODEL, WEIGHTING, weighted_arm_means
from .errors import ConfigError
from .multisite import TransportConfig, _transport_site, run_setup
from .qp import QpSettings, as_number, whole_number


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
    """The simulation's settings. The counts, ``seed`` and the site sizes (2 <= low <= high) must
    be whole numbers (3.0 is kept as 3), ``noise_sd`` a finite positive number and the
    coefficients and intercepts finite numbers (a bool is neither), and ``target_experiment``
    a group that holds a site, else ConfigError. Each entry of ``experiment_intercepts`` is one
    experiment group, which holds the sites that :meth:`group` assigns it."""

    n_sites: int = 12
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
        counts = dict(n_sites=1, n_covariates=1, reps=1, target_experiment=0, seed=0)
        for name, low in counts.items():
            object.__setattr__(self, name, whole_number(getattr(self, name), name, low))
        sizes = tuple(whole_number(v, "a site size", 2) for v in self.site_size_range)
        if len(sizes) != 2 or sizes[0] > sizes[1]:
            raise ConfigError(f"site_size_range must be two sizes, low <= high, got {sizes}")
        object.__setattr__(self, "site_size_range", sizes)
        if not 0.0 < as_number(self.noise_sd) < np.inf:
            raise ConfigError(f"noise_sd must be a finite positive number, got {self.noise_sd!r}")
        object.__setattr__(self, "noise_sd", as_number(self.noise_sd))
        if self.cate_coefficients is None:
            object.__setattr__(self, "cate_coefficients", _default_cate_coefficients(self.n_covariates))
        for name in ("cate_coefficients", "experiment_intercepts"):
            values = tuple(as_number(v) for v in getattr(self, name))
            if not np.isfinite(values).all():
                raise ConfigError(f"{name} must be finite numbers, got {getattr(self, name)!r}")
            object.__setattr__(self, name, values)
        if len(self.cate_coefficients) != self.n_covariates:
            raise ConfigError("cate_coefficients length must equal n_covariates")
        if not self.experiment_intercepts:
            raise ConfigError("experiment_intercepts must be nonempty")
        groups = sorted({self.group(j) for j in range(self.n_sites)})
        if self.target_experiment not in groups:
            raise ConfigError(
                f"target_experiment out of range: got {self.target_experiment}, sites in groups {groups}"
            )
        object.__setattr__(self, "lambda_grid", tuple(check_lambda(v) for v in self.lambda_grid))
        if not self.lambda_grid:
            raise ConfigError("lambda_grid must be nonempty")
        object.__setattr__(self, "estimators", TransportConfig(estimators=self.estimators).estimators)

    def group(self, j: int) -> int:
        """The experiment group of site ``j`` of ``n_sites``: ``j * len(experiment_intercepts) // n_sites``."""
        return j * len(self.experiment_intercepts) // self.n_sites


@dataclass(frozen=True, eq=False)
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


def build_populations(config: SimConfig) -> list[SitePopulation]:
    """Draw the per-site base populations; deterministic given config.seed."""
    rng = np.random.default_rng([config.seed, 101])
    d = config.n_covariates
    beta0 = rng.normal(0.0, 0.4, size=d)
    pops = []
    lo, hi = config.site_size_range
    for j in range(config.n_sites):
        n_j = int(rng.integers(lo, hi + 1))
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
                experiment=config.group(j),
                covariates=X,
                base_outcome=base,
                n_treated=n1,
            )
        )
    return pops


def _site_tau(config: SimConfig, experiment: int, X: np.ndarray) -> np.ndarray:
    coef = np.asarray(config.cate_coefficients)
    return X @ coef + config.experiment_intercepts[experiment]


@dataclass(frozen=True, eq=False)
class SimReplicate:
    sites: list[SiteDataset]
    target: TargetSpec
    truth: dict[str, float]


def generate_rep(config: SimConfig, rep_seed: int, populations: list[SitePopulation]) -> SimReplicate:
    """One bootstrap replication of every site of ``populations`` (from
    :func:`build_populations`) plus the rep's target and truth.

    Each site's base population is resampled with replacement, treatment is
    re-randomized holding the treated count fixed, and potential outcomes get
    independent noise. The target is the pooled bootstrap sample of the
    designated experiment group, and the per-site truth is the exact average
    of that site's CATE over the target sample.
    """
    rng = np.random.default_rng([config.seed, 202, int(rep_seed)])

    sites = []
    target_rows = []
    for pop in populations:
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

        sites.append(SiteDataset(site_id=pop.site_id, covariates=X, treatment=z, outcomes=y))
        if pop.experiment == config.target_experiment:
            target_rows.append(X)

    target = TargetSpec.from_sample(np.vstack(target_rows))
    truth = {
        pop.site_id: float(np.mean(_site_tau(config, pop.experiment, target.sample)))
        for pop in populations
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
    cell_errors: dict = field(default_factory=dict, compare=False)

    def row(self, estimator: str, lam: float | None = None) -> SimTableRow:
        for r in self.rows:
            if r.estimator == estimator and r.lam == lam:
                return r
        raise KeyError((estimator, lam))


def _rep_errors(config: SimConfig, populations, rep: int, cells) -> np.ndarray:
    """Estimate every cell for one replication: a cells x sites array of
    estimate minus truth, NaN where the estimate failed."""
    repl = generate_rep(config, rep, populations)
    out = np.full((len(cells), len(repl.sites)), np.nan)
    row = {cell: i for i, cell in enumerate(cells)}
    grid = [lam for name, lam in reversed(cells) if name == WEIGHTING]  # descending, for the warm starts

    setup = TransportConfig(estimators=config.estimators, n_boot=0)
    fmap, sides = run_setup(setup, repl.sites, repl.target)
    # naive, IPW, outcome model and doubly robust are transport's own per-site path
    others = tuple(e for e in setup.estimators if e != WEIGHTING)
    transport = replace(setup, estimators=others) if others else None  # None: weighting alone

    for j, site in enumerate(repl.sites):
        truth = repl.truth[site.site_id]
        estimates = _transport_site(site, repl.target, transport, fmap, sides).estimates if transport else {}
        for name, est in estimates.items():  # a failed estimator leaves its cell NaN
            out[row[name, None], j] = est.estimate - truth
        if grid:
            prob = BalanceProblem(site=site, target=repl.target, lam=grid[0], **sides)
            for lam, ws in solve_along_grid(prob, grid, config.solver):
                if ws is not None:  # a solver failure leaves its cell NaN
                    # the table reads the estimate alone: no standard error or ESS
                    mu1, mu0 = weighted_arm_means(site, ws.gamma)
                    out[row[WEIGHTING, lam], j] = mu1 - mu0 - truth
    return out


def run_simulation(config: SimConfig, threads: int = 1) -> SimResult:
    """Score every enabled estimator over the replications.

    RMSE is the across-site root mean squared error per replication, averaged
    over replications. Mean absolute bias averages each site's error over
    replications first, then takes the mean absolute value across sites.
    Failed cells are recorded and excluded from the averages; every cell's
    (rep x site) errors, NaN where it failed, are kept as ``cell_errors``.
    The replications run under :func:`~sitetransport.blas.single_threaded_blas`,
    so the result is deterministic given the seed, independent of ``threads``
    and of the machine's core count.
    """
    populations = build_populations(config)
    grid = sorted(set(config.lambda_grid))
    # the table's rows: by estimator name, the weighting cells by ascending lambda
    cells = [(name, lam) for name in sorted(set(config.estimators)) for lam in (grid if name == WEIGHTING else [None])]

    with single_threaded_blas():
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                per_rep = list(
                    pool.map(lambda r: _rep_errors(config, populations, r, cells), range(config.reps))
                )
        else:
            per_rep = [_rep_errors(config, populations, r, cells) for r in range(config.reps)]

    errors = np.stack(per_rep, axis=1)  # cells x reps x sites
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # a cell that failed everywhere scores NaN
        rmse = np.nanmean(np.sqrt(np.nanmean(errors**2, axis=2)), axis=1).tolist()
        mean_abs_bias = np.nanmean(np.abs(np.nanmean(errors, axis=1)), axis=1).tolist()
    n_failed = np.isnan(errors).sum(axis=(1, 2)).tolist()
    rows = tuple(
        SimTableRow(name, lam, rmse[i], mean_abs_bias[i], n_failed[i]) for i, (name, lam) in enumerate(cells)
    )
    return SimResult(rows=rows, reps=config.reps, n_sites=config.n_sites, cell_errors=dict(zip(cells, errors)))
