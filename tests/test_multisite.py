import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sitetransport import (
    FeatureMap,
    KernelSpec,
    SimConfig,
    QpSettings,
    PotentialOutcomeOracle,
    SiteDataset,
    TargetSpec,
    TransportConfig,
    decompose_error,
    display_estimate,
    imbalance_report,
    identity_map,
    transport_all,
    BalanceProblem,
    lambda_sweep,
    resolve_bandwidth,
    validate_dataset,
)
from sitetransport.balance import check_lambda, solve_weights
from sitetransport.blas import single_threaded_blas
from sitetransport.errors import ConfigError
from sitetransport.estimators import (
    density_ratio_fit,
    doubly_robust_estimate,
    ipw_estimate,
    naive_estimate,
    outcome_model_estimate,
    weighting_estimate,
)
from sitetransport.multisite import KNOWN_ESTIMATORS, run_setup
from sitetransport.qp import whole_number

from conftest import build_site, random_site

DATA_DIR = Path(__file__).parent / "data"


def linear_oracle(b0, bt, intercept=0.0):
    b0 = np.asarray(b0, dtype=float)
    bt = np.asarray(bt, dtype=float)
    return PotentialOutcomeOracle(
        m0=lambda x: float(x @ b0),
        tau=lambda x: float(x @ bt + intercept),
    )


class TestTransportAll:
    def test_self_target_with_heavy_regularization_matches_naive(self, rng):
        site = random_site(rng, n=40, d=3)
        target = TargetSpec.from_sample(site.covariates)
        config = TransportConfig(estimators=("naive", "weighting"), lam=1e8)
        report = transport_all([site], target, config)
        res = report.results[0]
        assert abs(
            res.estimates["weighting"].estimate - res.estimates["naive"].estimate
        ) <= 1e-3

    def test_identical_sites_get_identical_estimates(self, rng):
        site_a = random_site(rng, n=30, d=2, site_id="a")
        site_b = build_site(site_a.covariates, site_a.treatment, site_a.outcomes, site_id="b")
        report = transport_all(
            [site_a, site_b], None, TransportConfig(estimators=("naive", "weighting"), lam=0.05)
        )
        est = [res.estimates["weighting"] for res in report.results]
        assert est[0].estimate == pytest.approx(est[1].estimate, abs=1e-6)

    def test_linear_cate_shifts_by_site_intercepts(self, rng):
        # three sites share the CATE slope but have different intercepts;
        # transported estimates must differ by the intercept gaps
        d = 2
        slope = np.array([0.5, -0.3])
        intercepts = (0.0, 0.4, -0.2)
        sites = []
        for j, c in enumerate(intercepts):
            n = 400
            X = rng.normal(0.2 * j, 1.0, size=(n, d))
            z = np.zeros(n)
            z[rng.permutation(n)[: n // 2]] = 1
            y = X @ np.array([1.0, 0.5]) + z * (X @ slope + c)  # noiseless
            sites.append(build_site(X, z, y, site_id=f"s{j}"))
        target = TargetSpec.from_sample(rng.normal(0.1, 1.0, size=(500, d)))
        config = TransportConfig(estimators=("weighting",), lam=1e-6)
        report = transport_all(sites, target, config)
        ests = [r.estimates["weighting"].estimate for r in report.results]
        target_truths = [float(np.mean(target.sample @ slope + c)) for c in intercepts]
        for e, t in zip(ests, target_truths):
            assert e == pytest.approx(t, abs=0.08)
        # intercept gaps survive transport much more precisely
        assert (ests[1] - ests[0]) == pytest.approx(0.4, abs=0.1)

    def test_per_site_failures_recorded_not_fatal(self, rng):
        good = random_site(rng, n=40, d=1, site_id="good")
        # disjoint support from the target forces a separable density ratio
        bad_X = np.full((30, 1), 50.0) + rng.normal(0, 0.01, size=(30, 1))
        bad = build_site(bad_X, [1, 0] * 15, rng.normal(size=30), site_id="bad")
        target = TargetSpec.from_sample(rng.normal(0.0, 1.0, size=(40, 1)))
        config = TransportConfig(estimators=("naive", "ipw", "doubly_robust"), n_boot=0)
        report = transport_all([good, bad], target, config)
        bad_res = next(r for r in report.results if r.site_id == "bad")
        assert "ipw" in bad_res.errors
        assert "naive" in bad_res.estimates
        # the failed density-ratio fit is the error of both estimators that use it
        assert bad_res.errors["doubly_robust"] == bad_res.errors["ipw"]
        assert bad_res.errors["ipw"].startswith("SeparableDataError: ")
        good_res = next(r for r in report.results if r.site_id == "good")
        assert "ipw" in good_res.estimates
        assert "doubly_robust" in good_res.estimates

    def test_every_estimator_is_its_public_function_on_the_pooled_map(self, rng):
        sites = [random_site(rng, n=60, d=2, site_id=f"s{j}") for j in range(2)]
        target = TargetSpec.from_sample(rng.normal(0.2, 1.0, size=(50, 2)))
        config = TransportConfig(estimators=KNOWN_ESTIMATORS, n_boot=5, seed=3)
        report = transport_all(sites, target, config)
        fmap, _ = run_setup(config, sites, target)

        def numbers(est):
            return np.array([est.estimate, est.std_error, est.ess_treated, est.ess_control]).tobytes()

        with single_threaded_blas():
            for site, res in zip(sites, report.results):
                weights = solve_weights(
                    BalanceProblem(site=site, target=target, lam=config.lam, cate_map=fmap, prognostic_map=fmap)
                )
                ratio = density_ratio_fit(site.covariates, target.sample, fmap)
                expected = {
                    "naive": naive_estimate(site),
                    "weighting": weighting_estimate(site, weights.gamma),
                    "ipw": ipw_estimate(site, ratio),
                    "outcome_model": outcome_model_estimate(site, target, fmap, n_boot=5, seed=3),
                    "doubly_robust": doubly_robust_estimate(
                        site, target, fmap, ratio=ratio, n_boot=5, seed=3
                    ),
                }
                assert res.errors == {}
                assert res.weights.gamma.tobytes() == weights.gamma.tobytes()
                assert set(res.estimates) == set(expected)
                for name, want in expected.items():
                    got = res.estimates[name]
                    assert numbers(got) == numbers(want), name
                    assert got.notes == want.notes, name

    def test_the_target_sample_is_mapped_once_per_run(self, rng, monkeypatch):
        from sitetransport import balance, features

        sites = [random_site(rng, n=40 + 10 * j, d=3, site_id=f"s{j}") for j in range(3)]
        target = TargetSpec.from_sample(rng.normal(0.2, 1.0, size=(90, 3)))
        mapped = []
        for module in (balance, features):
            real = module.apply_feature_map
            monkeypatch.setattr(module, "apply_feature_map", lambda spec, X, real=real: mapped.append(X) or real(spec, X))
        names = ("weighting", "ipw", "outcome_model", "doubly_robust")
        report = transport_all(sites, target, TransportConfig(estimators=names, n_boot=4))
        assert all(set(r.estimates) == set(names) for r in report.results)
        # the target's rows, alone or stacked with a site's, once in the run
        on_target = [X for X in mapped if len(X) >= len(target.sample)]
        assert len(on_target) == 1 and on_target[0] is target.sample

    def test_all_sites_failed_raises(self, rng):
        from sitetransport.errors import AllSitesFailedError

        # every site's support is disjoint from the target: the density ratio
        # is separable everywhere and no requested estimator can run
        X = np.full((20, 1), 30.0) + rng.normal(0, 0.01, size=(20, 1))
        site = build_site(X, [1, 0] * 10, rng.normal(size=20))
        target = TargetSpec.from_sample(rng.normal(0.0, 1.0, size=(30, 1)))
        config = TransportConfig(estimators=("ipw",), n_boot=0)
        with pytest.raises(AllSitesFailedError):
            transport_all([site], target, config)

    def test_moments_target_rejected_for_sample_estimators(self, rng):
        site = random_site(rng, n=20, d=2)
        config = TransportConfig(estimators=("naive", "ipw"))
        with pytest.raises(ConfigError):
            transport_all([site], TargetSpec.from_moments([0.0, 0.0]), config)

    def test_unknown_estimator_rejected(self):
        with pytest.raises(ConfigError):
            TransportConfig(estimators=("naive", "magic"))

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), -0.5, True, np.True_])
    def test_lambda_must_be_finite_and_nonnegative(self, lam):
        with pytest.raises(ConfigError, match=re.escape(f"got {lam!r}")):
            TransportConfig(lam=lam)

    def test_a_lambda_read_as_text_is_kept_as_its_float(self, rng):
        # the text used to pass the check and end the run in numpy's TypeError
        site = random_site(rng, n=30, d=2)
        target = TargetSpec.from_sample(rng.normal(0.3, 1.0, size=(20, 2)))
        config = TransportConfig(lam="0.1")
        assert type(config.lam) is float and config.lam == 0.1
        got = transport_all([site], target, config).results[0].estimates
        want = transport_all([site], target, TransportConfig(lam=0.1)).results[0].estimates
        assert {name: est.estimate for name, est in got.items()} == {name: est.estimate for name, est in want.items()}

    @pytest.mark.parametrize("n_boot", [1, -1])
    def test_bootstrap_size_without_a_standard_error_rejected(self, n_boot):
        with pytest.raises(ConfigError, match="n_boot"):
            TransportConfig(n_boot=n_boot)

    @pytest.mark.parametrize(
        "setting, message",
        [
            (dict(n_boot=2.7), "n_boot must be a whole number, got 2.7"),
            (dict(seed=1.5), "seed must be a whole number, got 1.5"),
            (dict(seed=-1), "seed must be at least 0, got -1"),
            (dict(seed=True), "seed must be a whole number, got True"),
            (dict(n_boot=np.True_), "n_boot must be a whole number, got np.True_"),
            (dict(standardize="false"), "standardize must be true or false, got 'false'"),
            (dict(ipw_hajek="false"), "ipw_hajek must be true or false, got 'false'"),
            # both kernels set kernel mode; one alone used to run linear mode
            (dict(prognostic_kernel=KernelSpec("rbf")), "kernel mode needs both kernels; cate_kernel is not given"),
            (dict(cate_kernel=KernelSpec("rbf")), "kernel mode needs both kernels; prognostic_kernel is not given"),
        ],
    )
    def test_a_setting_it_cannot_honour_is_rejected_by_name(self, setting, message):
        # a fractional n_boot used to end in a TypeError inside the bootstrap,
        # a negative seed in numpy's ValueError, and a quoted "false" ran as true
        with pytest.raises(ConfigError, match=re.escape(message)):
            TransportConfig(**setting)


@pytest.mark.parametrize(
    "hold",
    [
        lambda: whole_number(2.5, "reps"),
        lambda: check_lambda(float("nan")),
        lambda: QpSettings(max_iter=0),
        lambda: SimConfig(experiment_intercepts=(float("nan"),)),
        lambda: TransportConfig(estimators=()),
        lambda: KernelSpec("rbf", bandwidth=True),
        lambda: FeatureMap(interactions=((0.7, 1),)),
    ],
    ids=["whole_number", "check_lambda", "QpSettings", "SimConfig", "TransportConfig", "KernelSpec", "FeatureMap"],
)
def test_a_bad_setting_is_a_config_error_and_a_value_error(hold):
    # library callers that catch ValueError keep working; the CLI exits 2 on ConfigError
    with pytest.raises(ConfigError) as info:
        hold()
    assert isinstance(info.value, ValueError)


KERNEL_RUN = TransportConfig(
    estimators=("naive", "weighting"), cate_kernel=KernelSpec("rbf"), prognostic_kernel=KernelSpec("rbf")
)


def _permuted(site, order):
    return SiteDataset(
        site_id=site.site_id, covariates=site.covariates[order], treatment=site.treatment[order],
        outcomes=site.outcomes[order],
    )


class TestKernelRun:
    """A kernel-mode run resolves one median bandwidth, on every site's
    covariates stacked with the target sample, and all its sites share it."""

    @staticmethod
    def _inputs(rng, n_target=300):
        sites = [random_site(rng, n=60, d=3, site_id=f"s{j}", covariate_shift=0.3 * j) for j in range(3)]
        # two blocks with different spreads: a subsample taken by row position would move
        half = n_target // 2
        target = np.vstack([rng.normal(-0.5, 1.0, size=(half, 3)), rng.normal(0.8, 0.6, size=(n_target - half, 3))])
        return sites, TargetSpec.from_sample(target)

    @staticmethod
    def _pooled(sites, target):
        return np.vstack([s.covariates for s in sites] + [target.sample])

    @staticmethod
    def _counting(monkeypatch, module, name):
        calls, real = [], getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: calls.append(args) or real(*args))
        return calls

    # pooled samples of 480 and 2580 rows, on either side of the 2000-row subsample cap
    @pytest.mark.parametrize("n_target", [300, 2400], ids=["below-cap", "past-cap"])
    def test_bandwidth_ignores_site_order_and_row_order(self, rng, n_target):
        sites, target = self._inputs(rng, n_target)
        bandwidth = run_setup(KERNEL_RUN, sites, target)[1]["cate_kernel"].bandwidth
        assert bandwidth.hex() == resolve_bandwidth(self._pooled(sites, target)).hex()
        reordered = (
            (sites[::-1], target),
            ([_permuted(s, rng.permutation(s.n)) for s in sites], target),
            (sites, TargetSpec.from_sample(target.sample[rng.permutation(n_target)])),
        )
        for run_sites, run_target in reordered:
            sides = run_setup(KERNEL_RUN, run_sites, run_target)[1]
            assert sides["cate_kernel"] == sides["prognostic_kernel"]
            assert sides["cate_kernel"].bandwidth.hex() == bandwidth.hex()

    @pytest.mark.parametrize("run", ["transport", "sweep"])
    def test_every_site_program_carries_the_run_bandwidth(self, rng, monkeypatch, run):
        from sitetransport import balance

        sites, target = self._inputs(rng)
        programs = self._counting(monkeypatch, balance, "_site_program")
        if run == "transport":
            transport_all(sites, target, KERNEL_RUN)
            kernels = (KernelSpec("rbf"), KernelSpec("rbf"))
        else:
            lambda_sweep(sites, target, [1.0, 0.1], cate_kernel=KernelSpec("linear"), prognostic_kernel=KernelSpec("rbf"))
            kernels = (KernelSpec("linear"), KernelSpec("rbf"))
        bandwidth = resolve_bandwidth(self._pooled(sites, target))
        resolved = tuple(KernelSpec(k.kind, None if k.kind == "linear" else bandwidth) for k in kernels)
        assert [(prob.site.site_id, prob.cate_kernel, prob.prognostic_kernel) for (prob,) in programs] == [
            (s.site_id, *resolved) for s in sites
        ]

    def test_estimates_ignore_site_order(self, rng):
        sites, target = self._inputs(rng)
        forward, backward = (transport_all(run, target, KERNEL_RUN) for run in (sites, sites[::-1]))
        by_site = {r.site_id: r for r in backward.results}
        for res in forward.results:
            for name in ("naive", "weighting"):
                got, want = by_site[res.site_id].estimates[name], res.estimates[name]
                assert got.estimate == pytest.approx(want.estimate, rel=1e-12, abs=0.0)
                assert got.std_error == pytest.approx(want.std_error, rel=1e-12, abs=0.0)
            np.testing.assert_allclose(by_site[res.site_id].weights.gamma, res.weights.gamma, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("run", ["transport", "sweep"])
    def test_one_bandwidth_and_one_target_gram_mean_per_run(self, rng, monkeypatch, run):
        from sitetransport import balance, features

        sites, target = self._inputs(rng)
        bandwidths = self._counting(monkeypatch, features, "resolve_bandwidth")
        blocks = self._counting(monkeypatch, balance, "_gram_blocks")
        for bandwidth in (None, None, 0.8):  # a median bandwidth twice, then a given one
            kernel = KernelSpec("rbf", bandwidth)
            if run == "transport":
                transport_all(sites, target, replace(KERNEL_RUN, cate_kernel=kernel, prognostic_kernel=kernel))
            else:
                lambda_sweep(sites, target, [1.0, 0.1], cate_kernel=kernel, prognostic_kernel=KernelSpec("linear"))
        assert len(bandwidths) == 2
        # the same target and resolved kernel reuse the mean: the median
        # bandwidth's once, then the given bandwidth's
        bandwidth = resolve_bandwidth(self._pooled(sites, target))
        assert [spec for spec, X, Y in blocks if X is target.sample and Y is target.sample] == [
            KernelSpec("rbf", bandwidth), KernelSpec("rbf", 0.8)
        ]
        # and one cross Gram per site and run
        assert len(blocks) == 3 * len(sites) + 2


class TestInvariance:
    """Weights on the golden inputs do not depend on the units the covariates
    are measured in (linear mode, standardized map) or on where their origin
    sits (RBF kernels on both sides, median bandwidth).

    Solves run at eps 1e-10 and must agree to 1e-12 of the largest weight,
    the references' bound for last-bit differences. The moved inputs differ
    from the golden ones only by rounding, which moves the weights by at most
    6e-16 of the largest at lambda 0.03 and 2e-14 at lambda 1e-4, where the
    program is worst conditioned; a weight that depended on scale or shift
    would move by orders more (the unstandardized map moves them by 0.7).
    """

    TIGHT = QpSettings(eps_abs=1e-10, eps_rel=1e-10)

    @staticmethod
    def _golden():
        from sitetransport.cli import read_target_sample, read_unit_table

        sites = validate_dataset(read_unit_table(str(DATA_DIR / "golden_data.csv")))
        return sites, read_target_sample(str(DATA_DIR / "golden_target.csv"))

    @staticmethod
    def _moved(sites, target, f):
        """The sites and target with every covariate row mapped by ``f``."""
        moved = [
            SiteDataset(site_id=s.site_id, covariates=f(s.covariates), treatment=s.treatment, outcomes=s.outcomes)
            for s in sites
        ]
        return moved, TargetSpec.from_sample(f(target.sample))

    def _weights(self, config, sites, target):
        _, sides = run_setup(config, sites, target)
        problems = [BalanceProblem(site=s, target=target, lam=config.lam, **sides) for s in sites]
        return np.concatenate([solve_weights(prob, self.TIGHT).gamma for prob in problems])

    @staticmethod
    def _rescale_x1(X):
        X = X.copy()
        X[:, 0] = 100.0 * X[:, 0] + 5.0
        return X

    @pytest.mark.parametrize("lam", [0.03, 1e-4])
    def test_linear_weights_ignore_the_units_of_a_covariate(self, lam):
        sites, target = self._golden()
        config = TransportConfig(estimators=("weighting",), lam=lam)
        w = self._weights(config, sites, target)
        w_moved = self._weights(config, *self._moved(sites, target, self._rescale_x1))
        np.testing.assert_allclose(w_moved, w, rtol=0.0, atol=1e-12 * w.max())
        # the standardized map is what makes them equal
        raw = replace(config, standardize=False)
        w_raw = self._weights(raw, *self._moved(sites, target, self._rescale_x1))
        assert np.abs(w_raw - self._weights(raw, sites, target)).max() > 1e-3 * w.max()

    @pytest.mark.parametrize("lam", [0.03, 1e-4])
    def test_rbf_weights_ignore_a_shift_of_every_covariate(self, lam):
        sites, target = self._golden()
        rbf = KernelSpec("rbf")
        config = TransportConfig(
            estimators=("weighting",), lam=lam, cate_kernel=rbf, prognostic_kernel=rbf
        )
        shift = np.array([3.0, -7.5, 0.25])
        w = self._weights(config, sites, target)
        w_moved = self._weights(config, *self._moved(sites, target, lambda X: X + shift))
        np.testing.assert_allclose(w_moved, w, rtol=0.0, atol=1e-12 * w.max())


class TestDecomposeError:
    def test_noiseless_outcomes_have_zero_noise_term(self, rng):
        oracle = linear_oracle([1.0, -0.5], [0.3, 0.2], 0.1)
        n = 30
        X = rng.normal(size=(n, 2))
        z = np.array([1, 0] * 15)
        y = oracle.m0_vec(X) + z * oracle.tau_vec(X)
        site = build_site(X, z, y)
        target = TargetSpec.from_sample(rng.normal(size=(20, 2)))
        dec = decompose_error(site, rng.uniform(0, 2, n), target, oracle)
        assert dec.noise_term == pytest.approx(0.0, abs=1e-12)

    def test_constant_cate_with_balanced_design(self, rng):
        # uniform weights, tau == c, n1 = n*pi: the CATE term cancels exactly
        oracle = PotentialOutcomeOracle(m0=lambda x: float(x[0]), tau=lambda x: 0.7)
        n = 40
        X = rng.normal(size=(n, 1))
        z = np.concatenate([np.ones(20), np.zeros(20)])
        y = oracle.m0_vec(X) + z * 0.7 + rng.normal(0, 0.1, n)
        site = build_site(X, z, y)  # n1 = 20 = n * pi
        target = TargetSpec.from_sample(rng.normal(size=(25, 1)))
        dec = decompose_error(site, np.ones(n), target, oracle)
        assert dec.cate_term == pytest.approx(0.0, abs=1e-12)

    def test_identity_on_random_instances(self, rng):
        for _ in range(30):
            n = int(rng.integers(10, 60))
            d = int(rng.integers(1, 5))
            b0 = rng.normal(size=d)
            bt = rng.normal(size=d)
            oracle = PotentialOutcomeOracle(
                m0=lambda x, b=b0: float(x @ b + np.cos(x[0])),
                tau=lambda x, b=bt: float(x @ b - 0.2),
            )
            X = rng.normal(size=(n, d))
            z = np.zeros(n)
            z[rng.permutation(n)[: max(1, n // 3)]] = 1
            if z.sum() in (0, n):
                continue
            y = oracle.m0_vec(X) + z * oracle.tau_vec(X) + rng.normal(0, 0.5, n)
            site = build_site(X, z, y)
            target = TargetSpec.from_sample(rng.normal(size=(int(rng.integers(5, 40)), d)))
            gamma = rng.uniform(0, 3, n)
            dec = decompose_error(site, gamma, target, oracle)
            truth = float(np.mean(oracle.tau_vec(target.sample)))
            direct = display_estimate(site, gamma) - truth
            scale = max(1.0, abs(direct))
            assert abs(dec.total - direct) <= 1e-10 * scale
            assert dec.total == pytest.approx(
                dec.prognostic_term + dec.cate_term + dec.noise_term
            )

    def test_error_bound_holds_for_linear_model_class(self, rng):
        # m0 and tau are linear with known norm bounds; the worst-case bound
        # evaluates to C0 * prognostic imbalance + Ct * cate imbalance + |noise|
        d = 3
        b0 = rng.normal(size=d)
        bt = rng.normal(size=d)
        C0 = np.linalg.norm(b0)
        Ct = np.linalg.norm(bt)
        oracle = linear_oracle(b0, bt)
        n = 50
        X = rng.normal(size=(n, d))
        z = np.zeros(n)
        z[rng.permutation(n)[:25]] = 1
        y = oracle.m0_vec(X) + z * oracle.tau_vec(X) + rng.normal(0, 0.3, n)
        site = build_site(X, z, y)
        target = TargetSpec.from_sample(rng.normal(0.4, 1.0, size=(30, d)))
        gamma = rng.uniform(0, 2, n)

        fmap = identity_map(d)
        prob = BalanceProblem(site=site, target=target, lam=0.0, cate_map=fmap, prognostic_map=fmap)
        rep = imbalance_report(prob, gamma)
        dec = decompose_error(site, gamma, target, oracle)
        bound = C0 * rep.prognostic_imbalance + Ct * rep.cate_imbalance + abs(dec.noise_term)
        # the cate term uses a linear tau with an intercept of zero here,
        # so Cauchy-Schwarz applies feature-wise
        assert abs(dec.total) <= bound + 1e-10
