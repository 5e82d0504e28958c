from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from sitetransport import (
    FeatureMap,
    KernelSpec,
    QpSettings,
    TargetSpec,
    TransportConfig,
    density_ratio_fit,
    doubly_robust_estimate,
    fit_feature_map,
    identity_map,
    ipw_estimate,
    naive_estimate,
    outcome_model_estimate,
    transport_all,
    validate_dataset,
    weighting_estimate,
)
from sitetransport.cli import read_target_sample, read_unit_table
from sitetransport.errors import (
    ConstraintViolationError,
    InsufficientArmError,
    SeparableDataError,
)
from sitetransport.estimators import _dr_point, weighted_arm_means
from sitetransport.multisite import run_setup
from sitetransport.regression import fit_least_squares, fit_logistic

from conftest import build_site, random_site
from oracles import bootstrap_loop

DATA_DIR = Path(__file__).parent / "data"


class TestWeightingEstimate:
    def test_no_within_arm_variance(self):
        site = build_site(np.zeros((4, 1)), [1, 1, 0, 0], [3.0, 3.0, 1.0, 1.0])
        est = weighting_estimate(site, np.ones(4))
        assert est.estimate == pytest.approx(2.0)
        assert est.std_error == pytest.approx(0.0)

    def test_formula_evaluation(self):
        # n=4, Z=(1,1,0,0), pi=.5, gamma=(1.5,.5,1,1), Y=(4,2,1,3) -> 3.5 - 2 = 1.5
        site = build_site(np.zeros((4, 1)), [1, 1, 0, 0], [4.0, 2.0, 1.0, 3.0])
        gamma = np.array([1.5, 0.5, 1.0, 1.0])
        est = weighting_estimate(site, gamma)
        assert est.estimate == pytest.approx(1.5)
        # the two algebraic forms agree: single-sum display vs mean difference
        z, y, pi, n = site.treatment, site.outcomes, site.propensity, site.n
        display = float(np.sum(gamma * (z - pi) / (pi * (1 - pi)) * y)) / n
        assert est.estimate == pytest.approx(display)

    def test_constraint_violation(self):
        site = build_site(np.zeros((4, 1)), [1, 1, 0, 0], [4.0, 2.0, 1.0, 3.0])
        with pytest.raises(ConstraintViolationError):
            weighting_estimate(site, np.array([1.1, 1.1, 1.0, 1.0]))

    def test_sample_boundedness(self, rng):
        for _ in range(10):
            site = random_site(rng, n=20, d=2)
            gamma = rng.uniform(0, 3, site.n)
            z = site.treatment
            gamma[z == 1] *= site.n1 / gamma[z == 1].sum()
            gamma[z == 0] *= site.n0 / gamma[z == 0].sum()
            est = weighting_estimate(site, gamma)
            y1 = site.outcomes[z == 1]
            y0 = site.outcomes[z == 0]
            mu1 = float(np.sum(z * gamma * site.outcomes)) / site.n1
            mu0 = float(np.sum((1 - z) * gamma * site.outcomes)) / site.n0
            assert y1.min() - 1e-12 <= mu1 <= y1.max() + 1e-12
            assert y0.min() - 1e-12 <= mu0 <= y0.max() + 1e-12
            assert est.estimate == pytest.approx(mu1 - mu0)

    def test_uniform_weights_reduce_to_two_sample_variance(self, rng):
        site = random_site(rng, n=25, d=2)
        est = weighting_estimate(site, np.ones(site.n))
        z = site.treatment
        y1 = site.outcomes[z == 1]
        y0 = site.outcomes[z == 0]
        expected = np.var(y1, ddof=1) / site.n1 + np.var(y0, ddof=1) / site.n0
        assert est.std_error**2 == pytest.approx(expected, rel=1e-12)


class TestOutsideInputErrors:
    MOMENTS_DESIGN = "a moments target has no design; it needs a unit-level sample"

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda site, moments: density_ratio_fit(site.covariates, moments, identity_map(1)), MOMENTS_DESIGN),
            (lambda site, moments: outcome_model_estimate(site, moments, identity_map(1), n_boot=0), MOMENTS_DESIGN),
            (lambda site, moments: weighted_arm_means(site, np.ones(site.n - 1)), "gamma has length 7, site has 8 units"),
            (lambda site, moments: ipw_estimate(site, lambda X: 1.0 - site.treatment, hajek=True),
             "Hajek normalization undefined: an arm has zero ratio mass"),
        ],
        ids=["density-ratio-of-moments", "outcome-model-of-moments", "short-gamma", "hajek-zero-mass"],
    )
    def test_a_bad_input_raises_value_error_that_says_why(self, call, message):
        site = build_site(np.arange(8.0)[:, None], [1, 0] * 4, np.arange(8.0) / 4)
        with pytest.raises(ValueError) as info:
            call(site, TargetSpec.from_moments([2.0]))
        assert str(info.value) == message


class TestNaiveEstimate:
    def test_difference_in_means(self):
        site = build_site(np.zeros((4, 1)), [1, 1, 0, 0], [2.0, 4.0, 1.0, 1.0])
        assert naive_estimate(site).estimate == pytest.approx(2.0)

    def test_equal_arms_give_zero(self):
        site = build_site(np.zeros((4, 1)), [1, 1, 0, 0], [1.5, 2.5, 1.5, 2.5])
        assert naive_estimate(site).estimate == pytest.approx(0.0)

    def test_equals_weighting_with_all_ones(self, rng):
        site = random_site(rng, n=17, d=2)
        naive = naive_estimate(site)
        ones = weighting_estimate(site, np.ones(site.n))
        assert naive.estimate == ones.estimate  # exact, same code path
        assert naive.std_error == ones.std_error


class TestOutcomeModel:
    def test_constant_outcomes(self, rng):
        X = rng.normal(size=(30, 2))
        z = np.array([1, 0] * 15)
        y = np.where(z == 1, 5.0, 3.0)
        site = build_site(X, z, y)
        target = TargetSpec.from_sample(rng.normal(2.0, 1.0, size=(10, 2)))
        est = outcome_model_estimate(site, target, identity_map(2), n_boot=0)
        assert est.estimate == pytest.approx(2.0, abs=1e-10)

    def test_noiseless_linear_truth(self, rng):
        X = rng.normal(size=(40, 3))
        z = np.array([1, 0] * 20)
        b1 = np.array([1.0, -2.0, 0.5])
        b0 = np.array([0.2, 0.3, -0.1])
        y = np.where(z == 1, X @ b1 + 1.0, X @ b0)
        site = build_site(X, z, y)
        target = TargetSpec.from_sample(rng.normal(0.7, 1.0, size=(25, 3)))
        est = outcome_model_estimate(site, target, identity_map(3), n_boot=0)
        truth = float(np.mean(target.sample @ (b1 - b0) + 1.0))
        assert est.estimate == pytest.approx(truth, abs=1e-8)

    def test_self_target_equals_regression_adjusted_ate(self, rng):
        site = random_site(rng, n=30, d=2)
        target = TargetSpec.from_sample(site.covariates)
        est = outcome_model_estimate(site, target, identity_map(2), n_boot=0)
        # second computational path: fit each arm, predict on own covariates
        design = np.column_stack([np.ones(site.n), site.covariates])
        z = site.treatment
        f1 = fit_least_squares(design[z == 1], site.outcomes[z == 1])
        f0 = fit_least_squares(design[z == 0], site.outcomes[z == 0])
        expected = float(np.mean(design @ f1.coefficients - design @ f0.coefficients))
        assert est.estimate == pytest.approx(expected, abs=1e-10)

    def test_insufficient_arm(self, rng):
        X = rng.normal(size=(5, 3))
        site = build_site(X, [1, 1, 1, 0, 0], rng.normal(size=5))
        with pytest.raises(InsufficientArmError):
            outcome_model_estimate(site, TargetSpec.from_sample(X), identity_map(3), n_boot=0)

    def test_collinear_columns_recorded(self, rng):
        X = rng.normal(size=(30, 2))
        X = np.column_stack([X, X[:, 0]])  # duplicate column
        z = np.array([1, 0] * 15)
        site = build_site(X, z, rng.normal(size=30))
        est = outcome_model_estimate(
            site, TargetSpec.from_sample(X), identity_map(3), n_boot=0
        )
        assert any("collinear" in n for n in est.notes)

    def test_bootstrap_se_is_reproducible(self, rng):
        site = random_site(rng, n=26, d=2)
        target = TargetSpec.from_sample(rng.normal(size=(12, 2)))
        a = outcome_model_estimate(site, target, identity_map(2), n_boot=50, seed=9)
        b = outcome_model_estimate(site, target, identity_map(2), n_boot=50, seed=9)
        assert a.std_error == b.std_error > 0

    @pytest.mark.parametrize("n_boot", [1, -1])
    def test_bootstrap_size_without_a_standard_error_raises(self, rng, n_boot):
        site = random_site(rng, n=26, d=2)
        target = TargetSpec.from_sample(rng.normal(size=(12, 2)))
        with pytest.raises(ValueError, match="n_boot"):
            outcome_model_estimate(site, target, identity_map(2), n_boot=n_boot)
        ratio = lambda X: np.ones(len(X))  # noqa: E731
        with pytest.raises(ValueError, match="n_boot"):
            doubly_robust_estimate(site, target, identity_map(2), ratio=ratio, n_boot=n_boot)


class TestDensityRatio:
    def test_identical_samples_give_unit_ratio(self, rng):
        X = rng.normal(size=(200, 2))
        ratio = density_ratio_fit(X, X.copy(), identity_map(2))
        held_out = rng.normal(size=(50, 2))
        np.testing.assert_allclose(ratio(held_out), np.ones(50), rtol=0.05)

    def test_two_point_closed_form(self):
        # experimental: 25% ones; target: 50% ones -> ratio(1) = 2, ratio(0) = 2/3
        Xe = np.array([[1.0]] * 50 + [[0.0]] * 150)
        Xt = np.array([[1.0]] * 100 + [[0.0]] * 100)
        ratio = density_ratio_fit(Xe, Xt, identity_map(1))
        assert ratio(np.array([1.0])) == pytest.approx(2.0, rel=0.05)
        assert ratio(np.array([0.0])) == pytest.approx(2.0 / 3.0, rel=0.05)

    @pytest.mark.parametrize("spec", [False, True], ids=["rows", "target-spec"])
    def test_its_fitted_rows_give_the_values_of_a_fresh_call(self, rng, spec):
        site = random_site(rng, n=80, d=3)
        target = TargetSpec.from_sample(rng.normal(0.3, 1.0, size=(120, 3)))
        fmap = fit_feature_map(FeatureMap(interactions=((0, 1),)), np.vstack([site.covariates, target.sample]))
        ratio = density_ratio_fit(site.covariates, target if spec else target.sample, fmap)
        kept = ratio(site.covariates)
        assert kept.tobytes() == ratio(site.covariates.copy()).tobytes()
        kept[:] = 0.0  # a caller's copy: the kept values do not change
        assert ratio(site.covariates).tobytes() == ratio(site.covariates.copy()).tobytes()

    def test_disjoint_supports_raise(self):
        Xe = np.linspace(0, 1, 40)[:, None]
        Xt = np.linspace(5, 6, 40)[:, None]
        with pytest.raises(SeparableDataError):
            density_ratio_fit(Xe, Xt, identity_map(1))


    def test_unconverged_fit_is_noted_in_ipw_and_doubly_robust(self, rng, monkeypatch):
        from sitetransport import regression

        site = random_site(rng, n=60, d=2)
        target = TargetSpec.from_sample(rng.normal(0.3, 1.0, size=(40, 2)))
        fmap = identity_map(2)
        note = "density-ratio fit stopped at its iteration cap without converging"
        converged = density_ratio_fit(site.covariates, target.sample, fmap)
        assert converged.fit.converged
        for ratio, noted in ((converged, False), (None, True)):
            if ratio is None:
                monkeypatch.setattr(regression, "_LOGISTIC_MAX_ITER", 1)
                ratio = density_ratio_fit(site.covariates, target.sample, fmap)
                assert not ratio.fit.converged
            ipw = ipw_estimate(site, ratio)
            dr = doubly_robust_estimate(site, target, fmap, ratio=ratio, n_boot=4, seed=0)
            assert (note in ipw.notes, note in dr.notes) == (noted, noted)
        # without a ratio, doubly robust notes its own capped fit
        assert note in doubly_robust_estimate(site, target, fmap, n_boot=0).notes


class TestIpw:
    def test_unit_ratio_equals_naive(self, rng):
        # pi = n1/n exactly makes the 1/n-normalized IPW collapse to the
        # difference in means
        X = rng.normal(size=(4, 1))
        site = build_site(X, [1, 1, 0, 0], [4.0, 2.0, 1.0, 3.0])
        est = ipw_estimate(site, lambda X_: np.ones(len(np.atleast_2d(X_))))
        assert est.estimate == pytest.approx(naive_estimate(site).estimate, abs=1e-12)

    def test_zero_ratio_gives_zero(self, rng):
        site = random_site(rng, n=12, d=1)
        est = ipw_estimate(site, lambda X_: np.zeros(len(np.atleast_2d(X_))))
        assert est.estimate == 0.0

    def test_extreme_ratio_noted(self, rng):
        site = random_site(rng, n=12, d=1)
        big = np.full(site.n, 1e6)
        est = ipw_estimate(site, lambda X_: big)
        assert np.isfinite(est.estimate)
        assert any("clip bound" in n for n in est.notes)

    def test_hajek_variant_is_shift_invariant(self, rng):
        site = random_site(rng, n=20, d=2)
        shifted = build_site(site.covariates, site.treatment, site.outcomes + 7.0)
        r = lambda X_: np.exp(0.3 * np.atleast_2d(X_)[:, 0])
        a = ipw_estimate(site, r, hajek=True)
        b = ipw_estimate(shifted, r, hajek=True)
        assert a.estimate == pytest.approx(b.estimate, abs=1e-10)


class TestDoublyRobust:
    def _noiseless_site(self, rng, n=40, d=2):
        X = rng.normal(size=(n, d))
        z = np.array([1, 0] * (n // 2))
        b1 = np.array([0.8, -0.4])[:d]
        b0 = np.array([0.1, 0.2])[:d]
        y = np.where(z == 1, X @ b1 + 0.9, X @ b0)
        site = build_site(X, z, y)
        target = TargetSpec.from_sample(rng.normal(0.5, 1.0, size=(30, d)))
        truth = float(np.mean(target.sample @ (b1 - b0) + 0.9))
        return site, target, truth

    def test_correct_outcome_model_immune_to_bad_ratio(self, rng):
        site, target, truth = self._noiseless_site(rng)
        bad_ratio = lambda X_: 1.0 + np.abs(np.atleast_2d(X_)[:, 0])
        est = doubly_robust_estimate(site, target, identity_map(2), ratio=bad_ratio, n_boot=0)
        # residuals are exactly zero, so the augmentation vanishes
        assert est.estimate == pytest.approx(truth, abs=1e-8)

    def test_zero_outcome_model_reduces_to_ipw(self, rng):
        site = random_site(rng, n=20, d=2)
        r = np.abs(rng.normal(1.0, 0.3, site.n))
        ipw = ipw_estimate(site, lambda X_: r)
        zeros = np.zeros(site.n)
        dr = _dr_point(site, r, zeros, zeros, 0.0, 0.0)
        assert dr == pytest.approx(ipw.estimate, abs=1e-12)

    def test_collinear_point_fits_are_noted(self, rng):
        X = rng.normal(size=(40, 2))
        X = np.column_stack([X, X[:, 0]])  # duplicate column
        site = build_site(X, np.array([1, 0] * 20), rng.normal(size=40))
        target = TargetSpec.from_sample(rng.normal(0.3, 1.0, size=(30, 3)))
        ratio = lambda X_: np.ones(len(X_))  # noqa: E731
        dr = doubly_robust_estimate(site, target, identity_map(3), ratio=ratio, n_boot=0)
        om = outcome_model_estimate(site, target, identity_map(3), n_boot=0)
        assert any(note.startswith("collinear design columns dropped: treated") for note in dr.notes)
        assert dr.notes == om.notes

    def test_both_correct_matches_outcome_model(self, rng):
        site, target, _ = self._noiseless_site(rng)
        ratio = density_ratio_fit(site.covariates, target.sample, identity_map(2))
        om = outcome_model_estimate(site, target, identity_map(2), n_boot=0)
        dr = doubly_robust_estimate(site, target, identity_map(2), ratio=ratio, n_boot=0)
        assert dr.estimate == pytest.approx(om.estimate, abs=1e-6)


ALL_ESTIMATORS = ("naive", "weighting", "ipw", "outcome_model", "doubly_robust")


def _relation_inputs():
    """Three sites of 40-70 units and a 50-row target, in 3 covariates."""
    rng = np.random.default_rng(21)
    sites = [
        random_site(rng, n=int(rng.integers(40, 70)), d=3, site_id=f"s{j}", covariate_shift=0.2 * j)
        for j in range(3)
    ]
    return sites, TargetSpec.from_sample(rng.normal(0.3, 1.0, size=(50, 3)))


def _moved(sites, covariates=lambda X: X, outcomes=lambda y: y, rows=lambda site: slice(None)):
    """The sites with their covariates, outcomes and unit order changed."""
    return [
        build_site(covariates(s.covariates[rows(s)]), s.treatment[rows(s)], outcomes(s.outcomes[rows(s)]), s.site_id)
        for s in sites
    ]


def _table(sites, target, **config):
    """Per estimator, a 2 x sites array of the estimates and standard errors
    of one transport run of every estimator with a 20-replicate bootstrap."""
    config = TransportConfig(estimators=ALL_ESTIMATORS, n_boot=20, seed=3, **config)
    results = transport_all(sites, target, config).results
    return {
        m: np.array([[r.estimates[m].estimate, r.estimates[m].std_error] for r in results]).T for m in ALL_ESTIMATORS
    }


class TestShiftEquivariance:
    """Relations between transport runs on every estimator. Where a relation
    holds in exact arithmetic, sums taken in another order or over other
    magnitudes move the results by rounding only: the tolerances are 1e-12,
    hundreds of times the largest change seen (below 1e-14)."""

    @settings(max_examples=10, deadline=None)
    @given(
        c=st_.floats(-20, 20, allow_nan=False),
        a=st_.floats(0.05, 20) | st_.floats(-20, -0.05),
    )
    def test_outcome_shifts_and_scales(self, c, a):
        sites, target = _relation_inputs()
        base = _table(sites, target)
        shifted = _table(_moved(sites, outcomes=lambda y: y + c), target)
        scaled = _table(_moved(sites, outcomes=lambda y: a * y), target)
        for m in ALL_ESTIMATORS:
            # y -> a y scales every estimate by a and every standard error by |a|
            np.testing.assert_allclose(scaled[m], [[a], [abs(a)]] * base[m], rtol=1e-12, atol=1e-12 * abs(a))
        # y -> y + c moves nothing, except the default Horvitz-Thompson IPW:
        # its estimate mean(r (z/pi - (1-z)/(1-pi)) y) gains
        # c mean(r (z/pi - (1-z)/(1-pi))), which is not 0 in a sample, and
        # its standard error changes too
        tol = 1e-12 * (1.0 + abs(c))
        for m in ALL_ESTIMATORS:
            if m != "ipw":
                np.testing.assert_allclose(shifted[m], base[m], rtol=0.0, atol=tol, err_msg=m)
        fmap, _ = run_setup(TransportConfig(estimators=ALL_ESTIMATORS), sites, target)
        moved = []
        for site in sites:
            r = density_ratio_fit(site.covariates, target.sample, fmap)(site.covariates)
            z, pi = site.treatment, site.propensity
            moved.append(c * float(np.mean(r * (z / pi - (1 - z) / (1 - pi)))))
        np.testing.assert_allclose(shifted["ipw"][0], base["ipw"][0] + moved, rtol=0.0, atol=tol)

    def test_units_permuted_within_each_site(self):
        sites, target = _relation_inputs()
        perms = {s.site_id: np.random.default_rng(j).permutation(s.n) for j, s in enumerate(sites)}
        permuted = _table(_moved(sites, rows=lambda s: perms[s.site_id]), target)
        base = _table(sites, target)
        for m in ALL_ESTIMATORS:
            # the outcome-model and doubly robust standard errors are left out:
            # a bootstrap replicate resamples units by position, so it draws
            # other units once they are permuted
            rows = 1 if m in ("outcome_model", "doubly_robust") else 2
            np.testing.assert_allclose(permuted[m][:rows], base[m][:rows], rtol=1e-12, err_msg=m)

    def test_covariate_columns_reversed(self):
        sites, target = _relation_inputs()
        flipped = _table(_moved(sites, covariates=lambda X: X[:, ::-1]), TargetSpec.from_sample(target.sample[:, ::-1]))
        base = _table(sites, target)
        for m in ALL_ESTIMATORS:
            np.testing.assert_allclose(flipped[m], base[m], rtol=1e-12, err_msg=m)

    def test_site_order_reversed(self):
        # each site's results depend on the others only through the pooled
        # feature map. On the golden inputs they are bitwise equal; with the
        # three sites here the map's standard deviations, summed over the
        # stacked rows in another order, can move by an ulp, and the results
        # by rounding
        sites, target = _relation_inputs()
        base, reversed_sites = _table(sites, target), _table(sites[::-1], target)
        for m in ALL_ESTIMATORS:
            np.testing.assert_allclose(reversed_sites[m][:, ::-1], base[m], rtol=1e-12, err_msg=m)
        golden = validate_dataset(read_unit_table(str(DATA_DIR / "golden_data.csv")))
        golden_target = read_target_sample(str(DATA_DIR / "golden_target.csv"))
        base, reversed_sites = _table(golden, golden_target), _table(golden[::-1], golden_target)
        for m in ALL_ESTIMATORS:
            assert reversed_sites[m][:, ::-1].tobytes() == base[m].tobytes(), m

    @pytest.mark.parametrize("lam", [0.03, 1e-4])
    def test_rbf_weights_ignore_a_rotation(self, lam):
        # median-bandwidth RBF kernels depend on distances only. The sites stay
        # below the bandwidth's 2000-row subsample cap, past which the
        # np.lexsort subsample turns with the coordinates
        sites, target = _relation_inputs()
        turn = np.linalg.qr(np.random.default_rng(4).normal(size=(3, 3)))[0]
        tight = QpSettings(eps_abs=1e-10, eps_rel=1e-10)
        rbf = KernelSpec("rbf")
        config = TransportConfig(
            estimators=("weighting",), lam=lam, cate_kernel=rbf, prognostic_kernel=rbf, solver=tight
        )

        def weights(sites, target):
            report = transport_all(sites, target, config)
            return np.concatenate([r.weights.gamma for r in report.results])

        w = weights(sites, target)
        turned = weights(_moved(sites, covariates=lambda X: X @ turn), TargetSpec.from_sample(target.sample @ turn))
        np.testing.assert_allclose(turned, w, rtol=0.0, atol=1e-12 * w.max())

    def test_weighted_means_shift_by_constant(self, rng):
        site = random_site(rng, n=16, d=1)
        shifted = build_site(site.covariates, site.treatment, site.outcomes + 3.0)
        z = site.treatment
        mu1 = float(np.sum(z * site.outcomes)) / site.n1
        mu1s = float(np.sum(z * shifted.outcomes)) / site.n1
        assert mu1s == pytest.approx(mu1 + 3.0)


class TestLogisticRegression:
    def test_balanced_coin_has_zero_slope(self, rng):
        X = np.column_stack([np.ones(400), rng.normal(size=400)])
        y = (rng.random(400) < 0.5).astype(float)
        fit = fit_logistic(X, y)
        assert fit.converged
        assert abs(fit.coefficients[1]) < 0.3

    def test_recovers_known_coefficients(self, rng):
        n = 4000
        x = rng.normal(size=n)
        eta = -0.3 + 0.8 * x
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        fit = fit_logistic(np.column_stack([np.ones(n), x]), y)
        assert fit.converged
        np.testing.assert_allclose(fit.coefficients, [-0.3, 0.8], atol=0.15)

    def test_no_counts_is_a_count_of_one_per_row_bit_for_bit(self, rng):
        n = 300
        X = np.column_stack([np.ones(n), rng.normal(size=(n, 3))])
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-X @ [0.2, 0.7, -0.4, 0.1]))).astype(float)
        plain, counted = fit_logistic(X, y), fit_logistic(X, y, counts=np.ones(n))
        assert plain.coefficients.tobytes() == counted.coefficients.tobytes()
        assert plain.converged == counted.converged

    def test_counts_fit_the_rows_repeated_that_often(self, rng):
        n = 300
        x = rng.normal(size=n)
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(0.2 - 0.7 * x))).astype(float)
        X = np.column_stack([np.ones(n), x])
        # one row far out, drawn in no resample: at the fit its linear
        # predictor is past the divergence bound, so it alone would raise
        X[0, 1] = 500.0
        rows = rng.choice(np.arange(1, n), size=n)
        counts = np.bincount(rows, minlength=n)
        assert counts[0] == 0
        fit = fit_logistic(X, y, counts)
        repeated = fit_logistic(X[rows], y[rows])
        np.testing.assert_allclose(fit.coefficients, repeated.coefficients, rtol=0, atol=1e-12)
        assert fit.converged and repeated.converged
        assert abs(X[0] @ fit.coefficients) > 30.0


class TestDoublyRobustBootstrapRefit:
    def _setup(self, rng):
        site = random_site(rng, n=40, d=2)
        target = TargetSpec.from_sample(rng.normal(0.3, 1.0, size=(30, 2)))
        fmap = identity_map(2)
        return site, target, fmap, density_ratio_fit(site.covariates, target.sample, fmap)

    def test_failed_refits_reuse_full_ratio_and_are_counted(self, rng, monkeypatch):
        from sitetransport import estimators

        site, target, fmap, ratio = self._setup(rng)
        real = estimators.fit_logistic
        calls = []

        def flaky(*args, **kwargs):
            calls.append(None)
            if len(calls) % 3 == 0:
                raise SeparableDataError("resampled arms separate")
            return real(*args, **kwargs)

        monkeypatch.setattr(estimators, "fit_logistic", flaky)
        est = doubly_robust_estimate(site, target, fmap, ratio=ratio, n_boot=10, seed=0)
        assert len(calls) == 10
        assert est.notes == ("density-ratio refit failed in 3 of 10 bootstrap replicates",)
        assert np.isfinite(est.std_error) and est.std_error > 0

    def test_no_note_when_every_refit_succeeds(self, rng):
        site, target, fmap, ratio = self._setup(rng)
        est = doubly_robust_estimate(site, target, fmap, ratio=ratio, n_boot=5, seed=0)
        assert est.notes == ()

    def test_a_ratio_that_is_not_a_fit_is_held_fixed(self, monkeypatch):
        from sitetransport import estimators

        rng = np.random.default_rng(1)
        site = random_site(rng, n=200, d=2)
        target = TargetSpec.from_sample(rng.normal(0.3, 1.0, size=(150, 2)))
        fmap = identity_map(2)

        def constant(X):
            return np.full(len(X), 1.3)

        calls = []

        def counted(*args, **kwargs):
            calls.append(None)
            return fit_logistic(*args, **kwargs)

        monkeypatch.setattr(estimators, "fit_logistic", counted)
        est = doubly_robust_estimate(site, target, fmap, ratio=constant, n_boot=50, seed=1)
        se, _ = bootstrap_loop(site, target, fmap, 50, seed=1, doubly_robust=True, ratio=constant)
        assert calls == []
        assert est.std_error == pytest.approx(se, rel=1e-12, abs=0.0)

    def test_other_errors_propagate(self, rng, monkeypatch):
        from sitetransport import estimators

        site, target, fmap, ratio = self._setup(rng)

        def broken(*args, **kwargs):
            raise RuntimeError("not a data problem")

        monkeypatch.setattr(estimators, "fit_logistic", broken)
        with pytest.raises(RuntimeError, match="not a data problem"):
            doubly_robust_estimate(site, target, fmap, ratio=ratio, n_boot=3, seed=0)


class TestLeastSquares:
    def test_duplicated_column_is_dropped_with_the_same_coefficients(self):
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=(2, 30))
        X = np.column_stack([np.ones(30), a, b, 2 * a])
        y = 1 + a - b + rng.normal(0, 0.1, 30)
        fit = fit_least_squares(X, y)
        # the pivoted QR keeps the larger-norm copy 2a and drops column 1
        assert fit.dropped == (1,)
        expected = [0.9810560590449159, 0.0, -1.0073292666648874, 0.5056320620389444]
        np.testing.assert_allclose(fit.coefficients, expected, rtol=0, atol=1e-12)
        kept = [0, 2, 3]
        np.testing.assert_allclose(fit.coefficients[kept], np.linalg.lstsq(X[:, kept], y, rcond=None)[0], atol=1e-12)

    def test_full_rank_fit_matches_lstsq(self):
        rng = np.random.default_rng(6)
        X = np.column_stack([np.ones(200), rng.normal(size=(200, 8))])
        y = rng.normal(size=200)
        fit = fit_least_squares(X, y)
        assert fit.dropped == ()
        np.testing.assert_allclose(fit.coefficients, np.linalg.lstsq(X, y, rcond=None)[0], atol=1e-12)


def _count_least_squares_calls(monkeypatch):
    from sitetransport import estimators

    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return fit_least_squares(*args, **kwargs)

    monkeypatch.setattr(estimators, "fit_least_squares", counted)
    return calls


class TestBatchedBootstrap:
    """The bootstrap solves every replicate's normal equations at once and
    must reproduce the replicate-by-replicate pivoted-QR loop."""

    @staticmethod
    def _site(rng, n1=17, n0=41, d=3):
        X = rng.normal(0.2, 1.0, size=(n1 + n0, d))
        z = np.r_[np.ones(n1), np.zeros(n0)]
        y = X @ rng.normal(size=d) + z * (0.5 + 0.4 * X[:, 0]) + rng.normal(0, 0.5, n1 + n0)
        return build_site(X, z, y), TargetSpec.from_sample(rng.normal(0.4, 1.0, size=(50, d)))

    @pytest.mark.parametrize("n_boot", [2, 20])
    @pytest.mark.parametrize("interactions", [(), ((0, 1), (1, 2))])
    @pytest.mark.parametrize("estimator", [outcome_model_estimate, doubly_robust_estimate])
    def test_standard_error_matches_the_qr_loop(self, rng, n_boot, interactions, estimator):
        site, target = self._site(rng)
        fmap = fit_feature_map(
            FeatureMap(interactions=interactions), np.vstack([site.covariates, target.sample])
        )
        est = estimator(site, target, fmap, n_boot=n_boot, seed=3)
        se, n_dropped = bootstrap_loop(
            site, target, fmap, n_boot, seed=3, doubly_robust=estimator is doubly_robust_estimate
        )
        assert n_dropped == 0 and est.notes == ()
        assert est.std_error == pytest.approx(se, rel=1e-12, abs=0.0)

    def test_blocks_of_replicates_draw_and_fit_as_one_batch(self, rng, monkeypatch):
        from sitetransport import estimators

        site, target = self._site(rng)
        fmap = identity_map(3)
        whole = outcome_model_estimate(site, target, fmap, n_boot=20, seed=4)
        # a replicate holds one arm's gathered rows (4 columns) and its counts of
        # every unit; three replicates per block: seven blocks, the last one of two
        monkeypatch.setattr(estimators, "_BLOCK_DOUBLES", 3 * (max(site.n1, site.n0) * 4 + site.n))
        blocks = []
        real = estimators._replicate_fits
        monkeypatch.setattr(estimators, "_replicate_fits", lambda d, y, rows: blocks.append(len(rows)) or real(d, y, rows))
        blocked = outcome_model_estimate(site, target, fmap, n_boot=20, seed=4)
        se, _ = bootstrap_loop(site, target, fmap, 20, seed=4)
        assert blocked.std_error == pytest.approx(se, rel=1e-12, abs=0.0)
        assert blocked.std_error == pytest.approx(whole.std_error, rel=1e-14, abs=0.0)
        assert blocks[::2] == [3] * 6 + [2]  # each block fits the treated arm, then the control arm

    def test_twenty_replicates_of_a_large_site_form_one_block(self, rng):
        from sitetransport.estimators import _bootstrap_arm_fits

        n, p = 2500, 21
        design = np.column_stack([np.ones(n), rng.normal(size=(n, p - 1))])
        idx1, idx0 = np.arange(0, n, 2), np.arange(1, n, 2)
        blocks = [counts.shape[0] for counts, *_ in _bootstrap_arm_fits(design, rng.normal(size=n), idx1, idx0, 20, 0)]
        assert blocks == [20]

    def test_outcome_model_and_doubly_robust_share_the_arm_fits(self, rng, monkeypatch):
        sites = [random_site(rng, n=60, d=2, site_id=f"s{j}") for j in range(3)]
        target = TargetSpec.from_sample(rng.normal(0.2, 1.0, size=(50, 2)))
        calls = _count_least_squares_calls(monkeypatch)
        config = TransportConfig(estimators=("outcome_model", "doubly_robust"), n_boot=0)
        report = transport_all(sites, target, config)
        assert all(set(res.estimates) == {"outcome_model", "doubly_robust"} for res in report.results)
        assert len(calls) == 2 * len(sites)  # one fit per arm and site

    def test_full_rank_replicates_take_no_qr(self, rng, monkeypatch):
        site, target = self._site(rng)
        calls = _count_least_squares_calls(monkeypatch)
        outcome_model_estimate(site, target, identity_map(3), n_boot=20, seed=0)
        assert len(calls) == 2  # the two point fits

    @pytest.mark.parametrize("estimator", [outcome_model_estimate, doubly_robust_estimate])
    def test_arm_whose_point_fit_dropped_a_column_is_refit_by_qr(self, rng, monkeypatch, estimator):
        site, target = self._site(rng, d=2)
        X = np.column_stack([site.covariates, site.covariates[:, 0]])  # duplicate column
        site = build_site(X, site.treatment, site.outcomes)
        target = TargetSpec.from_sample(np.column_stack([target.sample, target.sample[:, 0]]))
        fmap = identity_map(3)
        calls = _count_least_squares_calls(monkeypatch)
        est = estimator(site, target, fmap, n_boot=6, seed=2)
        assert len(calls) == 2 + 2 * 6
        assert "collinear columns dropped in 6 of 6 bootstrap replicates" in est.notes
        se, n_dropped = bootstrap_loop(
            site, target, fmap, 6, seed=2, doubly_robust=estimator is doubly_robust_estimate
        )
        assert n_dropped == 6
        assert est.std_error == pytest.approx(se, rel=1e-12, abs=0.0)

    def test_only_the_arm_whose_point_fit_dropped_a_column_is_refit_by_qr(self, rng, monkeypatch):
        site, target = self._site(rng, d=2)
        # a binary covariate that is 1 on every treated unit: the treated arm's
        # column equals its intercept, the control arm's varies
        binary = np.where(site.treatment == 1, 1.0, rng.random(site.n) < 0.5)
        site = build_site(np.column_stack([site.covariates, binary]), site.treatment, site.outcomes)
        target = TargetSpec.from_sample(np.column_stack([target.sample, rng.random(50) < 0.5]))
        fmap = identity_map(3)
        calls = _count_least_squares_calls(monkeypatch)
        est = outcome_model_estimate(site, target, fmap, n_boot=8, seed=6)
        assert len(calls) == 2 + 8  # the point fits, then each treated replicate
        assert "collinear design columns dropped: treated (3,), control ()" in est.notes
        assert "collinear columns dropped in 8 of 8 bootstrap replicates" in est.notes
        se, n_dropped = bootstrap_loop(site, target, fmap, 8, seed=6)
        assert n_dropped == 8
        assert est.std_error == pytest.approx(se, rel=1e-12, abs=0.0)

    def test_a_column_below_the_qr_rank_tolerance_is_refit_by_qr(self, rng, monkeypatch):
        site, target = self._site(rng, d=2)
        # well conditioned once scaled, but so short next to the others that
        # the QR's rank test drops it, in the point fits and in every replicate
        X = np.column_stack([site.covariates, 1e-17 * rng.normal(size=site.n)])
        site = build_site(X, site.treatment, site.outcomes)
        target = TargetSpec.from_sample(np.column_stack([target.sample, 1e-17 * rng.normal(size=50)]))
        fmap = identity_map(3)
        calls = _count_least_squares_calls(monkeypatch)
        est = outcome_model_estimate(site, target, fmap, n_boot=5, seed=1)
        assert len(calls) == 2 + 2 * 5
        assert "collinear columns dropped in 5 of 5 bootstrap replicates" in est.notes
        se, n_dropped = bootstrap_loop(site, target, fmap, 5, seed=1)
        assert n_dropped == 5
        assert est.std_error == pytest.approx(se, rel=1e-12, abs=0.0)

    def test_ill_conditioned_replicates_are_refit_by_qr_without_a_note(self, rng, monkeypatch):
        site, target = self._site(rng, d=2)
        # 1 - R^2 of this column on the intercept is about 1e-10: full rank for
        # the QR, too ill-conditioned for the normal equations
        X = np.column_stack([site.covariates, 1.0 + 1e-5 * rng.normal(size=site.n)])
        site = build_site(X, site.treatment, site.outcomes)
        target = TargetSpec.from_sample(np.column_stack([target.sample, np.ones(len(target.sample))]))
        fmap = identity_map(3)
        calls = _count_least_squares_calls(monkeypatch)
        est = outcome_model_estimate(site, target, fmap, n_boot=5, seed=1)
        se, n_dropped = bootstrap_loop(site, target, fmap, 5, seed=1)
        assert n_dropped == 0 and est.notes == ()
        assert len(calls) == 2 + 2 * 5
        # coefficients near 1e5 cancel in the score, so the two ways of
        # scoring (mean target design, or mean of predictions) part at 1e-11
        assert est.std_error == pytest.approx(se, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("rare_level", [1.0, 0.0], ids=["zero-column", "intercept-column"])
    @pytest.mark.parametrize("estimator", [outcome_model_estimate, doubly_robust_estimate])
    def test_singular_resamples_of_a_rare_binary_covariate_fall_back(
        self, rng, monkeypatch, estimator, rare_level
    ):
        site, target = self._site(rng, n1=30, n0=30, d=2)
        # two control units hold the rare level: a control resample misses both 1 time in 8,
        # which leaves the column all zeros or equal to the intercept
        rare = np.full(site.n, 1.0 - rare_level)
        rare[[0, 3, 9, 14, 33, 50]] = rare_level
        X = np.column_stack([site.covariates, rare])
        site = build_site(X, site.treatment, site.outcomes + rare)
        target = TargetSpec.from_sample(np.column_stack([target.sample, np.arange(50) % 7 == 0]))
        fmap = identity_map(3)
        calls = _count_least_squares_calls(monkeypatch)
        est = estimator(site, target, fmap, n_boot=40, seed=5)
        se, n_dropped = bootstrap_loop(
            site, target, fmap, 40, seed=5, doubly_robust=estimator is doubly_robust_estimate
        )
        assert 0 < n_dropped < 40
        assert len(calls) == 2 + n_dropped  # each singular resample once, by QR
        assert f"collinear columns dropped in {n_dropped} of 40 bootstrap replicates" in est.notes
        assert est.std_error == pytest.approx(se, rel=1e-12, abs=0.0)
