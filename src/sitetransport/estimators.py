"""Point estimators of the transported site ATE and their standard errors.

All estimators return a :class:`TransportEstimate`. The weighting and naive
estimators carry the closed-form heteroskedasticity-robust sandwich variance;
the outcome-modeling and doubly robust estimators use a within-site,
arm-stratified nonparametric bootstrap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .balance import kish_ess
from .data import SiteDataset, TargetSpec
from .errors import ConstraintViolationError, InsufficientArmError, SiteTransportError
from .features import FeatureMap, regression_design
from .regression import RegressionFit, fit_least_squares, fit_logistic, rank_tolerance

RATIO_CLIP = (1e-6, 1e6)
DEFAULT_BOOTSTRAP = 200
# The normal equations square the condition number of a bootstrap fit; below
# this squared Cholesky pivot of the unit-diagonal Gram matrix (a column with
# 1 - R^2 < 1e-6 on the columns before it) the replicate is fitted by QR.
_GRAM_PIVOT_TOL = 1e-6
# Bounds one block of bootstrap replicates to 8 MB (or one replicate, if
# that alone is larger), whatever n_boot is: a replicate holds one arm's
# gathered design rows at a time and its resample counts of every unit.
_BLOCK_DOUBLES = 1 << 20
# The per-arm weight sums may miss n1/n0 by this much, relative.
_SUM_RTOL = 1e-3

WEIGHTING = "weighting"
NAIVE = "naive"
OUTCOME_MODEL = "outcome_model"
IPW = "ipw"
DOUBLY_ROBUST = "doubly_robust"


@dataclass(frozen=True)
class TransportEstimate:
    estimate: float
    std_error: float
    ess_treated: float
    ess_control: float
    method: str
    site_id: str
    notes: tuple[str, ...] = ()


def _sandwich_variance(site: SiteDataset, gamma: np.ndarray, mu1: float, mu0: float) -> float:
    """Weighted two-sample sandwich variance.

    Normalized so that with all-ones weights it reduces exactly to the usual
    heteroskedastic two-sample estimator s1^2/n1 + s0^2/n0. Single-unit arms
    contribute zero (their weighted mean equals the single outcome).
    """
    z = site.treatment
    y = site.outcomes
    n1, n0 = site.n1, site.n0
    v = 0.0
    if n1 > 1:
        v += float(np.sum(z * gamma**2 * (y - mu1) ** 2)) / (n1 * (n1 - 1))
    if n0 > 1:
        v += float(np.sum((1 - z) * gamma**2 * (y - mu0) ** 2)) / (n0 * (n0 - 1))
    return v


def weighted_arm_means(site: SiteDataset, gamma: np.ndarray) -> tuple[float, float]:
    """The weighted outcome means (mu1, mu0) of the treated and the control
    arm, whose difference is the weighting estimate.

    Raises :class:`ConstraintViolationError` when the per-arm weight sums miss
    n1/n0 by more than 1e-3 relative.
    """
    gamma = np.asarray(gamma, dtype=float).ravel()
    if gamma.size != site.n:
        raise ValueError(f"gamma has length {gamma.size}, site has {site.n} units")
    z, (treated, control) = site.treatment, site.arms
    s1 = float(gamma[treated].sum())
    s0 = float(gamma[control].sum())
    if abs(s1 - site.n1) > _SUM_RTOL * site.n1 or abs(s0 - site.n0) > _SUM_RTOL * site.n0:
        raise ConstraintViolationError(
            f"weight sums ({s1:.4f}, {s0:.4f}) violate (n1, n0)=({site.n1}, {site.n0})"
        )
    y = site.outcomes
    return float(np.sum(z * gamma * y)) / site.n1, float(np.sum((1 - z) * gamma * y)) / site.n0


def weighting_estimate(
    site: SiteDataset,
    gamma: np.ndarray,
    method: str = WEIGHTING,
) -> TransportEstimate:
    """Weighted difference in arm means (see :func:`weighted_arm_means`) with
    its sandwich standard error."""
    mu1, mu0 = weighted_arm_means(site, gamma)
    gamma = np.asarray(gamma, dtype=float).ravel()
    treated, control = site.arms
    var = _sandwich_variance(site, gamma, mu1, mu0)
    return TransportEstimate(
        estimate=mu1 - mu0,
        std_error=float(np.sqrt(var)),
        ess_treated=kish_ess(gamma[treated]),
        ess_control=kish_ess(gamma[control]),
        method=method,
        site_id=site.site_id,
    )


def naive_estimate(site: SiteDataset) -> TransportEstimate:
    """Unadjusted difference in sample means (the weighting estimator at
    all-ones weights)."""
    return weighting_estimate(site, np.ones(site.n), method=NAIVE)


def _well_conditioned(gram: np.ndarray) -> np.ndarray:
    """For a stack of unit-diagonal Gram matrices, whether each has a
    Cholesky factor whose squared pivots are all at least _GRAM_PIVOT_TOL.

    A squared pivot is 1 - R^2 of that column on the columns before it."""
    try:
        pivots = np.diagonal(np.linalg.cholesky(gram), axis1=1, axis2=2)
    except np.linalg.LinAlgError:  # one failure fails the stack: test each alone
        if len(gram) == 1:
            return np.zeros(1, dtype=bool)
        return np.concatenate([_well_conditioned(g[None]) for g in gram])
    return np.all(pivots**2 >= _GRAM_PIVOT_TOL, axis=1)


def _replicate_fits(design: np.ndarray, y: np.ndarray, rows: np.ndarray):
    """Least-squares coefficients on each resample ``rows[b]`` of one arm
    (B x p), and whether each replicate's fit dropped collinear columns.

    Every replicate's normal equations Xb'Xb beta = Xb'yb are formed and
    solved at once, scaled to a unit-diagonal Gram matrix. A replicate with a
    column that the QR's rank test would drop by its length alone, or whose
    scaled Gram matrix is not certified by _well_conditioned, is fitted by
    the pivoted QR of fit_least_squares instead. A resample keeps such a
    column short, and a column collinear on the whole arm collinear, so an
    arm whose point fit dropped columns takes the QR in every replicate.
    """
    beta = np.zeros((rows.shape[0], design.shape[1]))
    dropped = np.zeros(rows.shape[0], dtype=bool)
    Xb = design[rows]
    Xt = Xb.transpose(0, 2, 1)
    gram, rhs = Xt @ Xb, (Xt @ y[rows][..., None])[..., 0]
    scale = np.sqrt(np.diagonal(gram, axis1=1, axis2=2))
    # a column no longer than the QR's rank tolerance (an all-zero one, say) goes to QR
    ok = np.all(scale > scale.max(axis=1, keepdims=True) * rank_tolerance(Xb.shape[1:]), axis=1)
    gram, rhs, scale = gram[ok], rhs[ok], scale[ok]
    gram /= scale[:, :, None] * scale[:, None, :]
    good = _well_conditioned(gram)
    ok[ok] = good
    beta[ok] = np.linalg.solve(gram[good], (rhs[good] / scale[good])[..., None])[..., 0] / scale[good]
    for b in np.flatnonzero(~ok):
        fit = fit_least_squares(design[rows[b]], y[rows[b]])
        beta[b], dropped[b] = fit.coefficients, bool(fit.dropped)
    return beta, dropped


def _bootstrap_arm_fits(design, y, idx1, idx0, n_boot: int, seed):
    """The within-site, arm-stratified bootstrap of both arm fits, a block
    of replicates at a time.

    Each replicate draws its treated rows and then its control rows from
    ``default_rng(seed)``, as a replicate-by-replicate loop would. Yields the
    block's resample counts (B x n: how often each site unit is drawn in
    each replicate), each replicate's coefficients per arm (B x p, see
    _replicate_fits) and whether either arm's fit dropped collinear columns.
    """
    rng = np.random.default_rng(seed)
    n, p = design.shape
    block = max(1, _BLOCK_DOUBLES // (max(idx1.size, idx0.size) * p + n))
    for start in range(0, n_boot, block):
        draws = [
            (rng.choice(idx1, size=idx1.size), rng.choice(idx0, size=idx0.size))
            for _ in range(min(block, n_boot - start))
        ]
        b1, b0 = (np.array(arm) for arm in zip(*draws))
        beta1, dropped1 = _replicate_fits(design, y, b1)
        beta0, dropped0 = _replicate_fits(design, y, b0)
        rows = np.hstack([b1, b0]) + n * np.arange(len(draws))[:, None]
        counts = np.bincount(rows.ravel(), minlength=rows.size).reshape(len(draws), n)
        yield counts, beta1, beta0, dropped1 | dropped0


def _ratio_ess(r: np.ndarray, z: np.ndarray) -> tuple[float, float]:
    """Kish ESS of the density-ratio weights in the treated and the control
    arm; 0 for an arm with no positive ratio."""
    return tuple(kish_ess(ra) if np.any(ra > 0) else 0.0 for ra in (r[z == 1], r[z == 0]))


def _raw_ratio(eta: np.ndarray, prior: float) -> np.ndarray:
    """The density ratio at the logistic discrimination's linear predictors
    ``eta``, before clipping to RATIO_CLIP: odds(target) * ``prior``."""
    return np.exp(np.clip(eta, -50.0, 50.0)) * prior


@dataclass(frozen=True, eq=False)
class DensityRatio:
    """Estimated change of measure d(target)/d(experimental).

    Callable on raw covariate rows; values are the logistic odds of target
    membership times the prior ratio n_exp/n_target, clipped to RATIO_CLIP.
    A call on the very (read-only) array of experimental rows it was fitted
    on, as a site's covariates are, returns a copy of the values the fit
    computed there.
    """

    fit: RegressionFit
    feature_map: FeatureMap
    prior_ratio: float
    clip_rate: float
    _fitted: tuple[np.ndarray, np.ndarray] | None = field(default=None, init=False, repr=False)

    def __call__(self, X: np.ndarray) -> np.ndarray:
        arr = np.asarray(X, dtype=float)
        if self._fitted is not None and arr is self._fitted[0] and not arr.flags.writeable:
            return self._fitted[1].copy()
        single = arr.ndim == 1
        design = regression_design(self.feature_map, arr)
        ratio = np.clip(_raw_ratio(self.fit.linear_predictor(design), self.prior_ratio), *RATIO_CLIP)
        return float(ratio[0]) if single else ratio


def density_ratio_fit(
    experimental: np.ndarray,
    target: np.ndarray | TargetSpec,
    feature_map: FeatureMap,
) -> DensityRatio:
    """Fit the change of measure by logistic discrimination of the two samples.

    Labels target rows 1 and experimental rows 0; the returned function maps
    covariates to odds(target) * (n_exp / n_target), the Bayes-rule estimate of
    the density ratio. ``target`` is the target's rows or a :class:`TargetSpec`,
    whose design under ``feature_map`` it maps once for all the sites of a
    run; a moments target raises the ValueError of :meth:`TargetSpec.design`.
    Raises :class:`SeparableDataError` when the samples are separable, which
    signals an overlap failure.
    """
    Xe = np.atleast_2d(np.asarray(experimental, dtype=float))
    of_spec = isinstance(target, TargetSpec)
    target_design = target.design(feature_map) if of_spec else regression_design(feature_map, target)
    m = target_design.shape[0]
    if Xe.size == 0 or m == 0:
        raise ValueError("both samples must be nonempty")
    # the design maps row by row, so this is the stacked samples' design bit for bit
    design = np.vstack([regression_design(feature_map, Xe), target_design])
    labels = np.concatenate([np.zeros(Xe.shape[0]), np.ones(m)])
    fit = fit_logistic(design, labels)
    prior = Xe.shape[0] / m

    raw = _raw_ratio(fit.linear_predictor(design[: Xe.shape[0]]), prior)
    clipped = (raw < RATIO_CLIP[0]) | (raw > RATIO_CLIP[1])
    ratio = DensityRatio(
        fit=fit,
        feature_map=feature_map,
        prior_ratio=prior,
        clip_rate=float(np.mean(clipped)),
    )
    if not Xe.flags.writeable:  # rows that cannot change: keep the values at them
        object.__setattr__(ratio, "_fitted", (Xe, np.clip(raw, *RATIO_CLIP)))
    return ratio


def _ratio_notes(ratio) -> tuple[str, ...]:
    """A note when ``ratio`` is a fit whose IRLS stopped at its step cap."""
    if isinstance(ratio, DensityRatio) and not ratio.fit.converged:
        return ("density-ratio fit stopped at its iteration cap without converging",)
    return ()


def ipw_estimate(site: SiteDataset, ratio, hajek: bool = False) -> TransportEstimate:
    """Inverse propensity weighting with an estimated change of measure.

    ``ratio`` maps covariate rows to density-ratio values (typically a
    :class:`DensityRatio`). The default normalization is 1/n with the known
    propensity (Horvitz-Thompson); ``hajek=True`` normalizes each arm by its
    realized ratio mass. Unlike every other estimator here, the default one
    depends on the outcome's origin: adding c to every outcome adds
    c * mean(r (z/pi - (1-z)/(1-pi))), not 0 in a sample; Hajek's does not move.
    """
    r = np.asarray(ratio(site.covariates), dtype=float).ravel()
    z = site.treatment
    y = site.outcomes
    pi = site.propensity
    n = site.n

    if hajek:
        mass1 = float(np.sum(r * z))
        mass0 = float(np.sum(r * (1 - z)))
        if mass1 <= 0 or mass0 <= 0:
            raise ValueError("Hajek normalization undefined: an arm has zero ratio mass")
        mu1 = float(np.sum(r * z * y)) / mass1
        mu0 = float(np.sum(r * (1 - z) * y)) / mass0
        estimate = mu1 - mu0
        psi = r * z * (y - mu1) / (mass1 / n) - r * (1 - z) * (y - mu0) / (mass0 / n)
    else:
        psi = r * (z / pi - (1 - z) / (1 - pi)) * y
        estimate = float(np.mean(psi))
    var = float(np.sum((psi - psi.mean()) ** 2)) / (n * max(n - 1, 1))

    notes = list(_ratio_notes(ratio))
    max_r = float(r.max(initial=0.0))
    if max_r >= RATIO_CLIP[1]:
        notes.append(f"density ratio hit the clip bound {RATIO_CLIP[1]:g}")
    elif max_r > 100.0:
        notes.append(f"extreme density ratio: max {max_r:.3g}")

    return TransportEstimate(
        estimate,
        float(np.sqrt(var)),
        *_ratio_ess(r, z),
        method=IPW,
        site_id=site.site_id,
        notes=tuple(notes),
    )


def _dr_point(
    site: SiteDataset,
    r: np.ndarray,
    m1_site: np.ndarray,
    m0_site: np.ndarray,
    m1_target_mean: float,
    m0_target_mean: float,
) -> float:
    z = site.treatment
    y = site.outcomes
    pi = site.propensity
    aug1 = float(np.mean(r * z * (y - m1_site) / pi)) + m1_target_mean
    aug0 = float(np.mean(r * (1 - z) * (y - m0_site) / (1 - pi))) + m0_target_mean
    return aug1 - aug0


def _model_estimates(
    site: SiteDataset,
    target: TargetSpec,
    feature_map: FeatureMap,
    ratio=None,
    n_boot: int = DEFAULT_BOOTSTRAP,
    seed: int | None = None,
) -> tuple[TransportEstimate, TransportEstimate | None]:
    """The outcome-model estimate and, given a density ``ratio``, the doubly
    robust one (else None), from one point fit per arm and one bootstrap.

    The outcome model averages per-arm least squares on the mapped features
    over the target; doubly robust adds the ratio-weighted residuals. The
    standard errors share one arm-stratified bootstrap over the site's units
    (none when ``n_boot`` is 0, leaving std_error at 0; see
    _bootstrap_arm_fits), a replicate being its resample counts c_b. The
    doubly robust replicate weights its residual sum by c_b. When ``ratio``
    is a fitted :class:`DensityRatio`, the replicate refits it by logistic
    regression of the site design, counted c_b, against the target design,
    counted once (keeping ``ratio`` where that refit separates); any other
    ratio is held fixed in every replicate.

    Raises ValueError for a moments target (:meth:`TargetSpec.design`) or an
    ``n_boot`` of 1 or below 0, and :class:`InsufficientArmError` when an arm
    has no more units than the map has features.
    """
    if n_boot < 0 or n_boot == 1:  # a standard error needs two replicates; 0 skips it
        raise ValueError(f"n_boot must be 0 (no bootstrap) or at least 2, got {n_boot}")
    k = feature_map.output_dim
    if site.n1 < k + 1 or site.n0 < k + 1:
        raise InsufficientArmError(f"arms of size ({site.n1}, {site.n0}) cannot support {k} features")
    idx1, idx0 = site.arms
    site_design, target_design = regression_design(feature_map, site.covariates), target.design(feature_map)
    fit1, fit0 = (fit_least_squares(site_design[idx], site.outcomes[idx]) for idx in (idx1, idx0))
    m1, m0 = fit1.linear_predictor(target_design), fit0.linear_predictor(target_design)
    z, y, pi, n = site.treatment, site.outcomes, site.propensity, site.n
    if ratio is not None:
        r = np.asarray(ratio(site.covariates), dtype=float).ravel()
        m1_site, m0_site = fit1.linear_predictor(site_design), fit0.linear_predictor(site_design)
        dr_estimate = _dr_point(site, r, m1_site, m0_site, float(np.mean(m1)), float(np.mean(m0)))
    if n_boot > 0 and isinstance(ratio, DensityRatio):
        # the refit's rows: the site's, counted per replicate, and the target's, counted once
        stacked = np.vstack([site_design, target_design])
        labels = np.concatenate([np.zeros(n), np.ones(target_design.shape[0])])
        ratio_counts = np.ones(stacked.shape[0])
        prior = n / target_design.shape[0]

    notes = []
    if fit1.dropped or fit0.dropped:
        notes.append(
            f"collinear design columns dropped: treated {fit1.dropped}, control {fit0.dropped}"
        )
    om_reps, dr_reps, n_dropped, n_refit_failed = [], [], 0, 0
    if n_boot > 0:
        target_mean = target_design.mean(axis=0)
        for counts, beta1, beta0, dropped in _bootstrap_arm_fits(site_design, y, idx1, idx0, n_boot, seed):
            n_dropped += int(dropped.sum())
            om_reps.append((beta1 - beta0) @ target_mean)
            if ratio is None:
                continue
            rb = r
            if isinstance(ratio, DensityRatio):
                rb = np.empty(counts.shape)
                for k, c in enumerate(counts):
                    ratio_counts[:n] = c
                    try:
                        refit = fit_logistic(stacked, labels, ratio_counts)
                        rb[k] = np.clip(_raw_ratio(site_design @ refit.coefficients, prior), *RATIO_CLIP)
                    except SiteTransportError:
                        rb[k] = r  # keep the replicate usable under resampled separation
                        n_refit_failed += 1
            resid = z / pi * (y - beta1 @ site_design.T) - (1 - z) / (1 - pi) * (y - beta0 @ site_design.T)
            dr_reps.append(om_reps[-1] + np.sum(counts * rb * resid, axis=1) / n)
    if n_dropped:
        notes.append(f"collinear columns dropped in {n_dropped} of {n_boot} bootstrap replicates")

    def se(reps):
        return float(np.std(np.concatenate(reps), ddof=1)) if reps else 0.0

    om = TransportEstimate(
        float(np.mean(m1 - m0)), se(om_reps), float(site.n1), float(site.n0), OUTCOME_MODEL, site.site_id, tuple(notes)
    )
    if ratio is None:
        return om, None
    if n_refit_failed:
        notes.append(f"density-ratio refit failed in {n_refit_failed} of {n_boot} bootstrap replicates")
    notes = _ratio_notes(ratio) + tuple(notes)
    return om, TransportEstimate(dr_estimate, se(dr_reps), *_ratio_ess(r, z), DOUBLY_ROBUST, site.site_id, notes)


def outcome_model_estimate(
    site: SiteDataset,
    target: TargetSpec,
    feature_map: FeatureMap,
    n_boot: int = DEFAULT_BOOTSTRAP,
    seed: int | None = None,
) -> TransportEstimate:
    """Per-arm least squares on the mapped features, averaged over the
    target, with a bootstrap standard error (see _model_estimates)."""
    return _model_estimates(site, target, feature_map, None, n_boot, seed)[0]


def doubly_robust_estimate(
    site: SiteDataset,
    target: TargetSpec,
    feature_map: FeatureMap,
    ratio=None,
    n_boot: int = DEFAULT_BOOTSTRAP,
    seed: int | None = None,
) -> TransportEstimate:
    """Augmented estimator: ratio-weighted residuals plus target-averaged
    outcome models, with a bootstrap standard error (see _model_estimates).

    When ``ratio`` is None the change of measure is fit from the site against
    the target sample (a moments target is rejected by _model_estimates).
    The bootstrap refits a :class:`DensityRatio` in each replicate and holds
    any other ``ratio`` fixed.
    """
    if ratio is None and target.is_sample:
        ratio = density_ratio_fit(site.covariates, target, feature_map)
    return _model_estimates(site, target, feature_map, ratio, n_boot, seed)[1]
