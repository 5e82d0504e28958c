"""Cross-site effect-variation analysis: Q-statistic profiling, test-inversion
confidence intervals, and the pseudo-R^2 comparing untransported to
transported heterogeneity."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincinv

from .errors import ZeroBaselineError

_PROFILE_XTOL = 1e-13
_PROFILE_MAX_GROW = 200


@dataclass(frozen=True, eq=False)
class SiteEffectSet:
    """Per-site effect estimates and their standard errors."""

    estimates: np.ndarray
    std_errors: np.ndarray

    def __post_init__(self):
        est = np.asarray(self.estimates, dtype=float).ravel()
        se = np.asarray(self.std_errors, dtype=float).ravel()
        if est.size != se.size:
            raise ValueError("estimates and std_errors must have equal length")
        if est.size < 2:
            raise ValueError("heterogeneity analysis needs at least two sites")
        for name, values in (("estimate", est), ("standard error", se)):
            bad = ~np.isfinite(values)
            if bad.any():
                i = int(np.argmax(bad))
                raise ValueError(f"{name} {i + 1} of {values.size} is {float(values[i])}; it must be finite")
        if not np.all(se > 0):
            i = int(np.argmin(se > 0))
            raise ValueError(f"standard error {i + 1} of {se.size} is {float(se[i])}; it must be positive")
        object.__setattr__(self, "estimates", est)
        object.__setattr__(self, "std_errors", se)

    @property
    def J(self) -> int:
        return self.estimates.size


@dataclass(frozen=True)
class HeterogeneityReport:
    """Between-site variance estimate on both the variance and sd scales.

    ``theta_hat`` is the profiled between-site variance; the confidence
    interval is reported on the sd scale. ``degenerate`` marks profiles so
    flat that the upper bound collapsed to zero.
    """

    theta_hat: float
    theta_sd: float
    ci_sd: tuple[float, float]
    q_at_zero: float
    degenerate: bool = False


def q_statistic(effects: SiteEffectSet, theta: float) -> float:
    """Precision-weighted squared deviation from the pooled mean at a
    hypothesized between-site variance theta.

    The pooled mean is recomputed at each theta with weights 1/(se^2 + theta).
    Effects too extreme for floating point give inf or nan, without a numpy
    warning: the profile that needs Q names them.
    """
    if theta < 0:
        raise ValueError(f"theta must be nonnegative, got {theta}")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        w = 1.0 / (effects.std_errors**2 + theta)
        mean = float(np.sum(w * effects.estimates) / np.sum(w))
        return float(np.sum(w * (effects.estimates - mean) ** 2))


def _profile_solve(effects: SiteEffectSet, level: float) -> float:
    """Largest-p-value inversion: the theta >= 0 with Q(theta) == level.

    Q is nonincreasing in theta, so the solution is unique whenever
    Q(0) > level; otherwise the solution is truncated at zero. ValueError
    names a Q not finite where the bracket needs it or never below the level.
    """
    q_zero = q_statistic(effects, 0.0)
    if np.isnan(q_zero):  # an infinite Q(0) still brackets the root
        raise ValueError(f"the Q statistic at theta = 0 is {q_zero}: the effects are too extreme for it")
    if q_zero <= level:
        return 0.0
    # imported here: scipy.optimize adds about 0.2 s to the package import
    from scipy.optimize import brentq

    lo = 0.0
    hi = float(np.max(effects.std_errors**2))
    q_hi = q_statistic(effects, hi)
    for _ in range(_PROFILE_MAX_GROW):
        if not np.isfinite(q_hi) or q_hi < level:
            break
        lo, hi = hi, 4.0 * hi
        q_hi = q_statistic(effects, hi)
    if not np.isfinite(q_hi):
        raise ValueError(f"the Q statistic at theta = {hi:.6g} is {q_hi}: the effects are too extreme for it")
    if q_hi >= level:
        raise ValueError(f"the Q statistic stays above {level:.6g} up to theta = {hi:.6g}")
    return brentq(
        lambda theta: q_statistic(effects, theta) - level, lo, hi, xtol=_PROFILE_XTOL, rtol=_PROFILE_XTOL
    )


def estimate_theta(effects: SiteEffectSet, alpha: float = 0.05) -> HeterogeneityReport:
    """Point estimate at Q(theta) = J - 1 with a test-inversion interval.

    The interval endpoints solve Q(theta) equal to the upper and lower
    chi-square(J-1) quantiles and are truncated at zero. When even the upper
    endpoint truncates (a profile flat at zero), the report is flagged
    degenerate and the interval collapses to [0, 0].
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    df = effects.J - 1
    theta_hat = _profile_solve(effects, float(df))
    lower = _profile_solve(effects, chi_square_quantile(df, 1.0 - alpha / 2.0))
    upper = _profile_solve(effects, chi_square_quantile(df, alpha / 2.0))
    degenerate = upper == 0.0
    return HeterogeneityReport(
        theta_hat=theta_hat,
        theta_sd=float(np.sqrt(theta_hat)),
        ci_sd=(float(np.sqrt(lower)), float(np.sqrt(upper))),
        q_at_zero=q_statistic(effects, 0.0),
        degenerate=degenerate,
    )


def pseudo_r2(theta_sd_untransported: float, theta_sd_transported: float) -> float:
    """Share of effect variation attributable to unit-level composition.

    Computed as one minus the squared ratio of the transported to the
    untransported heterogeneity sd, so the square is a variance ratio. May be
    negative when transportation increases variability.
    """
    if theta_sd_untransported <= 0:
        raise ZeroBaselineError("pseudo-R^2 undefined: baseline heterogeneity sd is zero")
    return 1.0 - (theta_sd_transported / theta_sd_untransported) ** 2


def chi_square_quantile(df: int, p: float) -> float:
    """Inverse chi-square CDF through the inverse regularized incomplete gamma."""
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    return 2.0 * float(gammaincinv(0.5 * df, p))
