"""Point estimators of the transported site ATE and their standard errors.

All estimators return a :class:`TransportEstimate`. The weighting and naive
estimators carry the closed-form heteroskedasticity-robust sandwich variance;
the outcome-modeling and doubly robust estimators use a within-site,
arm-stratified nonparametric bootstrap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .balance import kish_ess
from .data import SiteDataset, TargetSpec
from .errors import ConstraintViolationError, InsufficientArmError, SiteTransportError
from .features import FeatureMap, apply_feature_map, identity_map
from .regression import RegressionFit, fit_least_squares, fit_logistic

RATIO_CLIP = (1e-6, 1e6)
DEFAULT_BOOTSTRAP = 200
# The normal equations square the condition number of a bootstrap fit; below
# this squared Cholesky pivot of the unit-diagonal Gram matrix (a column with
# 1 - R^2 < 1e-6 on the columns before it) the replicate is fitted by QR.
_GRAM_PIVOT_TOL = 1e-6
# Bounds one block of gathered bootstrap designs to 8 MB (or one replicate,
# if that alone is larger), whatever n_boot is.
_BLOCK_DOUBLES = 1 << 20

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


def weighting_estimate(
    site: SiteDataset,
    gamma: np.ndarray,
    rtol: float = 1e-3,
    method: str = WEIGHTING,
) -> TransportEstimate:
    """Weighted difference in arm means with its sandwich standard error.

    Raises :class:`ConstraintViolationError` when the per-arm weight sums miss
    n1/n0 by more than ``rtol`` relative.
    """
    gamma = np.asarray(gamma, dtype=float).ravel()
    if gamma.size != site.n:
        raise ValueError(f"gamma has length {gamma.size}, site has {site.n} units")
    z = site.treatment
    s1 = float(np.sum(z * gamma))
    s0 = float(np.sum((1 - z) * gamma))
    if abs(s1 - site.n1) > rtol * site.n1 or abs(s0 - site.n0) > rtol * site.n0:
        raise ConstraintViolationError(
            f"weight sums ({s1:.4f}, {s0:.4f}) violate (n1, n0)=({site.n1}, {site.n0})"
        )

    y = site.outcomes
    mu1 = float(np.sum(z * gamma * y)) / site.n1
    mu0 = float(np.sum((1 - z) * gamma * y)) / site.n0
    var = _sandwich_variance(site, gamma, mu1, mu0)
    return TransportEstimate(
        estimate=mu1 - mu0,
        std_error=float(np.sqrt(var)),
        ess_treated=kish_ess(gamma[z == 1]),
        ess_control=kish_ess(gamma[z == 0]),
        method=method,
        site_id=site.site_id,
    )


def naive_estimate(site: SiteDataset) -> TransportEstimate:
    """Unadjusted difference in sample means (the weighting estimator at
    all-ones weights)."""
    return weighting_estimate(site, np.ones(site.n), method=NAIVE)


def _design(feature_map: FeatureMap, X: np.ndarray) -> np.ndarray:
    phi = apply_feature_map(feature_map, np.atleast_2d(X))
    return np.column_stack([np.ones(phi.shape[0]), phi])


def _arm_fits(design: np.ndarray, y: np.ndarray, idx1, idx0):
    return fit_least_squares(design[idx1], y[idx1]), fit_least_squares(design[idx0], y[idx0])


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


def _replicate_fits(design: np.ndarray, y: np.ndarray, rows: np.ndarray, batched: bool):
    """Least-squares coefficients on each resample ``rows[b]`` of one arm
    (B x p), and whether each replicate's fit dropped collinear columns.

    When ``batched``, every replicate's normal equations Xb'Xb beta = Xb'yb
    are formed and solved at once, scaled to a unit-diagonal Gram matrix. A
    replicate whose scaled Gram matrix is not certified by _well_conditioned,
    and every replicate when not ``batched``, is fitted by the pivoted QR of
    fit_least_squares instead.
    """
    beta = np.zeros((rows.shape[0], design.shape[1]))
    dropped = np.zeros(rows.shape[0], dtype=bool)
    qr = np.ones(rows.shape[0], dtype=bool)
    if batched:
        Xb = design[rows]
        Xt = Xb.transpose(0, 2, 1)
        gram, rhs = Xt @ Xb, (Xt @ y[rows][..., None])[..., 0]
        scale = np.sqrt(np.diagonal(gram, axis1=1, axis2=2))
        ok = np.all(scale > 0.0, axis=1)  # a resample with an all-zero column goes to QR
        gram, rhs, scale = gram[ok], rhs[ok], scale[ok]
        gram /= scale[:, :, None] * scale[:, None, :]
        good = _well_conditioned(gram)
        ok[ok] = good
        beta[ok] = np.linalg.solve(gram[good], (rhs[good] / scale[good])[..., None])[..., 0] / scale[good]
        qr = ~ok
    for b in np.flatnonzero(qr):
        fit = fit_least_squares(design[rows[b]], y[rows[b]])
        beta[b], dropped[b] = fit.coefficients, bool(fit.dropped)
    return beta, dropped


def _bootstrap_arm_fits(design, y, idx1, idx0, point_fits, n_boot: int, seed):
    """The within-site, arm-stratified bootstrap of both arm fits, a block
    of replicates at a time.

    Each replicate draws its treated rows and then its control rows from
    ``default_rng(seed)``, as a replicate-by-replicate loop would. Yields the
    block's resampled rows per arm (B x n1, B x n0), each replicate's
    coefficients per arm (B x p) and whether either arm's fit dropped
    collinear columns. An arm whose point fit dropped columns is refit by
    the pivoted QR in every replicate; otherwise see _replicate_fits.
    """
    rng = np.random.default_rng(seed)
    block = max(1, _BLOCK_DOUBLES // design.size)
    batched = [not fit.dropped for fit in point_fits]
    for start in range(0, n_boot, block):
        draws = [
            (rng.choice(idx1, size=idx1.size), rng.choice(idx0, size=idx0.size))
            for _ in range(min(block, n_boot - start))
        ]
        b1, b0 = (np.array(arm) for arm in zip(*draws))
        beta1, dropped1 = _replicate_fits(design, y, b1, batched[0])
        beta0, dropped0 = _replicate_fits(design, y, b0, batched[1])
        yield b1, b0, beta1, beta0, dropped1 | dropped0


def _replicates_dropped_note(n_dropped: int, n_boot: int) -> tuple[str, ...]:
    if not n_dropped:
        return ()
    return (f"collinear columns dropped in {n_dropped} of {n_boot} bootstrap replicates",)


def _check_bootstrap_size(n_boot: int) -> None:
    """A bootstrap standard error needs at least two replicates; 0 skips it."""
    if n_boot < 0 or n_boot == 1:
        raise ValueError(f"n_boot must be 0 (no bootstrap) or at least 2, got {n_boot}")


def outcome_model_estimate(
    site: SiteDataset,
    target: TargetSpec,
    feature_map: FeatureMap,
    n_boot: int = DEFAULT_BOOTSTRAP,
    seed: int | None = None,
) -> TransportEstimate:
    """Per-arm least squares on the mapped features, averaged over the target.

    The standard error is an arm-stratified nonparametric bootstrap over the
    site's units (skipped when ``n_boot`` is 0, leaving std_error at 0). Its
    replicates solve their normal equations as one batch and fall back to
    the pivoted QR when ill-conditioned (see _replicate_fits); a note counts
    the replicates whose QR fit dropped collinear columns.
    """
    if not target.is_sample:
        raise ValueError("outcome-model estimation requires a unit-level target sample")
    _check_bootstrap_size(n_boot)
    k = feature_map.output_dim
    if site.n1 < k + 1 or site.n0 < k + 1:
        raise InsufficientArmError(
            f"arms of size ({site.n1}, {site.n0}) cannot support {k} features"
        )

    idx1 = np.flatnonzero(site.treatment == 1)
    idx0 = np.flatnonzero(site.treatment == 0)
    site_design = _design(feature_map, site.covariates)
    fit1, fit0 = _arm_fits(site_design, site.outcomes, idx1, idx0)
    target_design = _design(feature_map, target.sample)
    estimate = float(np.mean(fit1.linear_predictor(target_design) - fit0.linear_predictor(target_design)))

    notes = []
    if fit1.dropped or fit0.dropped:
        notes.append(
            f"collinear design columns dropped: treated {fit1.dropped}, control {fit0.dropped}"
        )

    se = 0.0
    if n_boot > 0:
        target_mean = target_design.mean(axis=0)
        reps, n_dropped = [], 0
        for _, _, beta1, beta0, dropped in _bootstrap_arm_fits(
            site_design, site.outcomes, idx1, idx0, (fit1, fit0), n_boot, seed
        ):
            reps.append((beta1 - beta0) @ target_mean)
            n_dropped += int(dropped.sum())
        se = float(np.std(np.concatenate(reps), ddof=1))
        notes.extend(_replicates_dropped_note(n_dropped, n_boot))

    return TransportEstimate(
        estimate=estimate,
        std_error=se,
        ess_treated=float(site.n1),
        ess_control=float(site.n0),
        method=OUTCOME_MODEL,
        site_id=site.site_id,
        notes=tuple(notes),
    )


@dataclass(frozen=True)
class DensityRatio:
    """Estimated change of measure d(target)/d(experimental).

    Callable on raw covariate rows; values are the logistic odds of target
    membership times the prior ratio n_exp/n_target, clipped to RATIO_CLIP.
    """

    fit: RegressionFit
    feature_map: FeatureMap
    prior_ratio: float
    clip_rate: float
    max_ratio: float

    def __call__(self, X: np.ndarray) -> np.ndarray:
        arr = np.asarray(X, dtype=float)
        single = arr.ndim == 1
        design = _design(self.feature_map, np.atleast_2d(arr))
        eta = self.fit.linear_predictor(design)
        ratio = np.clip(np.exp(np.clip(eta, -50.0, 50.0)) * self.prior_ratio, *RATIO_CLIP)
        return float(ratio[0]) if single else ratio


def density_ratio_fit(
    experimental: np.ndarray,
    target: np.ndarray,
    feature_map: FeatureMap,
) -> DensityRatio:
    """Fit the change of measure by logistic discrimination of the two samples.

    Labels target rows 1 and experimental rows 0; the returned function maps
    covariates to odds(target) * (n_exp / n_target), the Bayes-rule estimate of
    the density ratio. Raises :class:`SeparableDataError` when the samples are
    separable, which signals an overlap failure.
    """
    Xe = np.atleast_2d(np.asarray(experimental, dtype=float))
    Xt = np.atleast_2d(np.asarray(target, dtype=float))
    if Xe.size == 0 or Xt.size == 0:
        raise ValueError("both samples must be nonempty")
    design = _design(feature_map, np.vstack([Xe, Xt]))
    labels = np.concatenate([np.zeros(Xe.shape[0]), np.ones(Xt.shape[0])])
    fit = fit_logistic(design, labels)
    prior = Xe.shape[0] / Xt.shape[0]

    eta = fit.linear_predictor(design[: Xe.shape[0]])
    raw = np.exp(np.clip(eta, -50.0, 50.0)) * prior
    clipped = (raw < RATIO_CLIP[0]) | (raw > RATIO_CLIP[1])
    return DensityRatio(
        fit=fit,
        feature_map=feature_map,
        prior_ratio=prior,
        clip_rate=float(np.mean(clipped)),
        max_ratio=float(np.clip(raw, *RATIO_CLIP).max(initial=0.0)),
    )


def ipw_estimate(site: SiteDataset, ratio, hajek: bool = False) -> TransportEstimate:
    """Inverse propensity weighting with an estimated change of measure.

    ``ratio`` maps covariate rows to density-ratio values (typically a
    :class:`DensityRatio`). The default normalization is 1/n with the known
    propensity; ``hajek=True`` normalizes each arm by its realized ratio mass.
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

    notes = []
    max_r = float(r.max(initial=0.0))
    if max_r >= RATIO_CLIP[1]:
        notes.append(f"density ratio hit the clip bound {RATIO_CLIP[1]:g}")
    elif max_r > 100.0:
        notes.append(f"extreme density ratio: max {max_r:.3g}")

    r1 = r[z == 1]
    r0 = r[z == 0]
    return TransportEstimate(
        estimate=estimate,
        std_error=float(np.sqrt(var)),
        ess_treated=kish_ess(r1) if np.any(r1 > 0) else 0.0,
        ess_control=kish_ess(r0) if np.any(r0 > 0) else 0.0,
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


def doubly_robust_estimate(
    site: SiteDataset,
    target: TargetSpec,
    feature_map: FeatureMap,
    ratio=None,
    n_boot: int = DEFAULT_BOOTSTRAP,
    seed: int | None = None,
) -> TransportEstimate:
    """Augmented estimator: ratio-weighted residuals plus target-averaged
    outcome models.

    When ``ratio`` is None the change of measure is fit from the site against
    the target sample. The bootstrap refits both the outcome models, as the
    outcome-model bootstrap does, and the ratio in each replicate (target
    sample held fixed).
    """
    if not target.is_sample:
        raise ValueError("doubly robust estimation requires a unit-level target sample")
    _check_bootstrap_size(n_boot)
    k = feature_map.output_dim
    if site.n1 < k + 1 or site.n0 < k + 1:
        raise InsufficientArmError(
            f"arms of size ({site.n1}, {site.n0}) cannot support {k} features"
        )

    if ratio is None:
        ratio = density_ratio_fit(site.covariates, target.sample, feature_map)
    r = np.asarray(ratio(site.covariates), dtype=float).ravel()

    idx1 = np.flatnonzero(site.treatment == 1)
    idx0 = np.flatnonzero(site.treatment == 0)
    site_design = _design(feature_map, site.covariates)
    target_design = _design(feature_map, target.sample)
    fit1, fit0 = _arm_fits(site_design, site.outcomes, idx1, idx0)
    estimate = _dr_point(
        site,
        r,
        fit1.linear_predictor(site_design),
        fit0.linear_predictor(site_design),
        float(np.mean(fit1.linear_predictor(target_design))),
        float(np.mean(fit0.linear_predictor(target_design))),
    )

    se = 0.0
    notes = ()
    if n_boot > 0:
        # the ratio is refit on the mapped rows under the identity map, which
        # gives the same ratios as mapping the raw covariates again
        target_mean, target_phi, identity = target_design.mean(axis=0), target_design[:, 1:], identity_map(k)
        reps = []
        y = site.outcomes
        pi = site.propensity
        n_refit_failed = n_dropped = 0
        for b1s, b0s, beta1, beta0, dropped in _bootstrap_arm_fits(
            site_design, y, idx1, idx0, (fit1, fit0), n_boot, seed
        ):
            n_dropped += int(dropped.sum())
            for b1, b0, beta1_b, beta0_b in zip(b1s, b0s, beta1, beta0):
                rows = np.concatenate([b1, b0])
                zb = np.concatenate([np.ones(b1.size), np.zeros(b0.size)])
                yb = y[rows]
                designb = site_design[rows]
                try:
                    ratio_b = density_ratio_fit(designb[:, 1:], target_phi, identity)
                    rb = ratio_b(designb[:, 1:])
                except SiteTransportError:
                    rb = r[rows]  # keep the replicate usable under resampled separation
                    n_refit_failed += 1
                aug1 = float(np.mean(rb * zb * (yb - designb @ beta1_b) / pi))
                aug0 = float(np.mean(rb * (1 - zb) * (yb - designb @ beta0_b) / (1 - pi)))
                reps.append(aug1 + float(target_mean @ beta1_b) - aug0 - float(target_mean @ beta0_b))
        se = float(np.std(reps, ddof=1))
        notes = _replicates_dropped_note(n_dropped, n_boot)
        if n_refit_failed:
            notes += (f"density-ratio refit failed in {n_refit_failed} of {n_boot} bootstrap replicates",)

    z = site.treatment
    r1 = r[z == 1]
    r0 = r[z == 0]
    return TransportEstimate(
        estimate=estimate,
        std_error=se,
        ess_treated=kish_ess(r1) if np.any(r1 > 0) else 0.0,
        ess_control=kish_ess(r0) if np.any(r0 > 0) else 0.0,
        method=DOUBLY_ROBUST,
        site_id=site.site_id,
        notes=notes,
    )
