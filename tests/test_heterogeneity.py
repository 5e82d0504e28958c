import numpy as np
import pytest
from scipy.stats import chi2 as scipy_chi2
from scipy.stats import norm

from sitetransport import (
    SiteEffectSet,
    chi_square_quantile,
    estimate_theta,
    pseudo_r2,
    q_statistic,
)
from sitetransport.errors import ZeroBaselineError


def derived_instance():
    return SiteEffectSet(
        estimates=np.array([0.2, 0.0, 0.4]),
        std_errors=np.sqrt([0.01, 0.01, 0.01]),
    )


class TestQStatistic:
    def test_equal_effects_are_zero_everywhere(self):
        eff = SiteEffectSet(np.array([0.3, 0.3, 0.3]), np.array([0.1, 0.2, 0.3]))
        for theta in (0.0, 0.05, 10.0):
            assert q_statistic(eff, theta) == pytest.approx(0.0, abs=1e-25)

    def test_hand_evaluation(self):
        assert q_statistic(derived_instance(), 0.0) == pytest.approx(8.0, abs=1e-10)

    def test_vanishes_in_the_limit(self):
        assert q_statistic(derived_instance(), 1e9) < 1e-8

    def test_monotone_decreasing(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            J = int(rng.integers(2, 12))
            eff = SiteEffectSet(rng.normal(0, 0.5, J), rng.uniform(0.05, 0.5, J))
            grid = np.linspace(0.0, 2.0, 200)
            qs = [q_statistic(eff, t) for t in grid]
            assert all(qs[i] >= qs[i + 1] - 1e-12 for i in range(len(qs) - 1))

    def test_negative_theta_rejected(self):
        with pytest.raises(ValueError):
            q_statistic(derived_instance(), -0.1)


class TestEstimateTheta:
    def test_closed_form_inversion(self):
        # equal weights: Q(theta) = 0.08 / (0.01 + theta) = 2 -> theta = 0.03
        rep = estimate_theta(derived_instance())
        assert rep.theta_hat == pytest.approx(0.03, abs=1e-10)
        assert rep.theta_sd == pytest.approx(np.sqrt(0.03), abs=1e-9)
        assert rep.q_at_zero == pytest.approx(8.0)

    def test_equal_effects_give_zero(self):
        eff = SiteEffectSet(np.array([0.3, 0.3, 0.3]), np.array([0.1, 0.1, 0.1]))
        rep = estimate_theta(eff)
        assert rep.theta_hat == 0.0
        assert rep.degenerate  # flat profile: interval collapses at zero
        assert rep.ci_sd == (0.0, 0.0)

    def test_profile_root_property(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            J = int(rng.integers(3, 15))
            eff = SiteEffectSet(rng.normal(0, 0.4, J), rng.uniform(0.05, 0.3, J))
            rep = estimate_theta(eff)
            if rep.theta_hat > 0:
                assert abs(q_statistic(eff, rep.theta_hat) - (J - 1)) <= 1e-6

    def test_ci_ordering(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            J = int(rng.integers(3, 15))
            eff = SiteEffectSet(rng.normal(0, 0.4, J), rng.uniform(0.05, 0.3, J))
            rep = estimate_theta(eff)
            lo, hi = rep.ci_sd
            assert lo <= rep.theta_sd + 1e-12
            assert rep.theta_sd <= hi + 1e-12

    def test_single_site_rejected(self):
        with pytest.raises(ValueError):
            SiteEffectSet(np.array([0.1]), np.array([0.1]))

    @pytest.mark.parametrize(
        "estimates, std_errors, message",
        [
            ([0.1, np.nan, 0.3], [0.1, 0.2, 0.3], "estimate 2 of 3 is nan"),
            ([0.1, 0.2, -np.inf], [0.1, 0.2, 0.3], "estimate 3 of 3 is -inf"),
            ([0.1, 0.2, 0.3], [0.1, np.inf, 0.3], "standard error 2 of 3 is inf"),
            ([0.1, 0.2, 0.3], [np.nan, 0.2, 0.3], "standard error 1 of 3 is nan"),
            ([0.1, 0.2, 0.3], [0.1, 0.0, 0.2], "standard error 2 of 3 is 0.0; it must be positive"),
            ([0.1, 0.2, 0.3], [0.1, 0.2, -0.3], "standard error 3 of 3 is -0.3; it must be positive"),
        ],
    )
    def test_a_value_that_is_not_usable_is_named(self, estimates, std_errors, message):
        with pytest.raises(ValueError, match=message):
            SiteEffectSet(np.array(estimates), np.array(std_errors))


class TestPseudoR2:
    def test_no_change(self):
        assert pseudo_r2(0.2, 0.2) == pytest.approx(0.0)

    def test_reported_application_values(self):
        assert pseudo_r2(0.060, 0.057) == pytest.approx(0.0975, abs=1e-6)

    def test_negative_when_variability_increases(self):
        assert pseudo_r2(0.05, 0.10) == pytest.approx(-3.0)

    def test_zero_baseline(self):
        with pytest.raises(ZeroBaselineError):
            pseudo_r2(0.0, 0.1)


class TestChiSquareQuantile:
    def test_df2_closed_form(self):
        # chi2_2 CDF is 1 - exp(-x/2); at p = 1 - e^{-1} the quantile is 2
        p = 1.0 - np.exp(-1.0)
        assert chi_square_quantile(2, p) == pytest.approx(2.0, rel=1e-8)

    def test_small_p_goes_to_zero(self):
        assert chi_square_quantile(3, 1e-12) < 1e-3

    def test_df1_standard_normal_square(self):
        # independent oracle: the 0.95 quantile is norm.ppf(0.975)^2
        oracle = norm.ppf(0.975) ** 2
        assert chi_square_quantile(1, 0.95) == pytest.approx(oracle, rel=1e-8)
        assert chi_square_quantile(1, 0.95) == pytest.approx(3.841, abs=1e-3)

    def test_matches_scipy_across_inputs(self):
        for df in (1, 2, 5, 20, 57):
            for p in (1e-12, 1e-6, 0.01, 0.2, 0.5, 0.9, 0.975, 0.999):
                ours = chi_square_quantile(df, p)
                ref = scipy_chi2.ppf(p, df)
                assert ours == pytest.approx(ref, rel=1e-8)

    def test_small_p_has_full_relative_accuracy(self):
        # approx's default absolute tolerance (1e-12) would hide errors here
        for df in (1, 2, 5):
            for p in (1e-12, 1e-6):
                ref = scipy_chi2.ppf(p, df)
                assert chi_square_quantile(df, p) == pytest.approx(ref, rel=1e-8, abs=0.0)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            chi_square_quantile(2, 1.0)
        with pytest.raises(ValueError):
            chi_square_quantile(0, 0.5)


class TestCoverageSmoke:
    def test_interval_covers_in_simple_draws(self):
        rng = np.random.default_rng(3)
        theta_true = 0.02
        hits = 0
        trials = 60
        for _ in range(trials):
            J = 15
            se = rng.uniform(0.05, 0.15, J)
            tau = rng.normal(0.1, np.sqrt(theta_true), J)
            est = tau + rng.normal(0, se)
            rep = estimate_theta(SiteEffectSet(est, se))
            lo, hi = rep.ci_sd
            if lo**2 - 1e-15 <= theta_true <= hi**2 + 1e-15:
                hits += 1
        assert hits >= 0.82 * trials  # loose smoke check; acceptance tightens this
