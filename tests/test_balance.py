import math
from dataclasses import replace

import numpy as np
import pytest

from sitetransport import (
    BalanceProblem,
    KernelSpec,
    TargetSpec,
    build_kernel_qp,
    build_linear_qp,
    fit_feature_map,
    FeatureMap,
    identity_map,
    imbalance_report,
    kernel_matrix,
    kish_ess,
    lambda_sweep,
    solve_weights,
)
from sitetransport.errors import (
    AllZeroWeightsError,
    DimensionMismatchError,
    ModeMismatchError,
    UnfittedMapError,
)
from sitetransport.qp import QpSettings

from conftest import build_site, random_site
from oracles import balance_objective


def one_dim_site():
    # 2 treated at x = 0, 2; 2 controls at x = 1, 3
    X = np.array([[0.0], [2.0], [1.0], [3.0]])
    z = np.array([1, 1, 0, 0])
    y = np.array([1.0, 2.0, 0.5, 1.5])
    return build_site(X, z, y)


class TestBuildLinearQp:
    def test_qp_objective_matches_direct_evaluation(self, rng):
        site = random_site(rng, n=25, d=3)
        target = TargetSpec.from_sample(rng.normal(0.3, 1.0, size=(40, 3)))
        fmap = identity_map(3)
        prob = BalanceProblem(site=site, target=target, lam=0.07, cate_map=fmap, prognostic_map=fmap)
        qp = build_linear_qp(prob)
        t = target.sample.mean(axis=0)
        const = float(t @ t)  # dropped additive constant
        for _ in range(5):
            gamma = rng.uniform(0.0, 2.0, site.n)
            direct = balance_objective(site, t, gamma, 0.07)
            via_qp = qp.objective(gamma) + const
            assert via_qp == pytest.approx(direct, rel=1e-10)

    def test_huge_lambda_returns_uniform(self):
        site = one_dim_site()
        target = TargetSpec.from_moments([2.0])
        fmap = identity_map(1)
        prob = BalanceProblem(site=site, target=target, lam=1e8, cate_map=fmap, prognostic_map=fmap)
        ws = solve_weights(prob)
        np.testing.assert_allclose(ws.gamma, np.ones(4), atol=1e-4)

    def test_exact_balance_one_dimensional(self):
        # all treated mass must go to the x=2 unit to hit target mean 2
        site = one_dim_site()
        target = TargetSpec.from_moments([2.0])
        fmap = identity_map(1)
        prob = BalanceProblem(site=site, target=target, lam=0.0, cate_map=fmap, prognostic_map=fmap)
        ws = solve_weights(prob, settings=QpSettings(eps_abs=1e-9, eps_rel=0.0))
        treated = site.treatment == 1
        np.testing.assert_allclose(ws.gamma[treated], [0.0, 2.0], atol=1e-4)
        # grid oracle: parametrize gamma = (2-g2, g2, c1, 2-c1); plugging the
        # site constants into the displayed objective by hand gives
        # (g2 - 2)^2 + (g2 - 3 + c1)^2, checked against balance_objective below
        g2 = np.arange(0.0, 2.0 + 1e-9, 1e-3)[:, None]
        c1 = np.arange(0.0, 2.0 + 1e-9, 1e-3)[None, :]
        grid_best = float(((g2 - 2.0) ** 2 + (g2 - 3.0 + c1) ** 2).min())
        spot = balance_objective(site, np.array([2.0]), np.array([1.3, 0.7, 0.4, 1.6]), 0.0)
        assert spot == pytest.approx((0.7 - 2.0) ** 2 + (0.7 - 3.0 + 0.4) ** 2)
        ours = balance_objective(site, np.array([2.0]), ws.gamma, 0.0)
        assert ours <= grid_best + 1e-5

    def test_moments_length_mismatch(self):
        site = one_dim_site()
        target = TargetSpec.from_moments([2.0, 3.0])
        fmap = identity_map(1)
        prob = BalanceProblem(site=site, target=target, lam=0.1, cate_map=fmap, prognostic_map=fmap)
        with pytest.raises(DimensionMismatchError):
            build_linear_qp(prob)

    @pytest.mark.parametrize("fitted", [(), ("cate",), ("prognostic",)], ids=["both", "prognostic", "cate"])
    def test_unfitted_map_rejected(self, fitted):
        site = one_dim_site()
        maps = {side: identity_map(1) if side in fitted else FeatureMap() for side in ("cate", "prognostic")}
        prob = BalanceProblem(
            site=site,
            target=TargetSpec.from_moments([2.0]),
            lam=0.1,
            cate_map=maps["cate"],
            prognostic_map=maps["prognostic"],
        )
        with pytest.raises(UnfittedMapError):
            build_linear_qp(prob)

    def test_mode_mismatch(self):
        site = one_dim_site()
        prob = BalanceProblem(
            site=site,
            target=TargetSpec.from_sample([[1.0]]),
            lam=0.1,
            cate_kernel=KernelSpec("linear"),
            prognostic_kernel=KernelSpec("linear"),
        )
        with pytest.raises(ModeMismatchError):
            build_linear_qp(prob)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), -0.1])
    def test_lambda_must_be_finite_and_nonnegative(self, lam):
        fmap = identity_map(1)
        with pytest.raises(ValueError, match=f"got {lam}"):
            BalanceProblem(site=one_dim_site(), target=TargetSpec.from_moments([1.0]), lam=lam,
                           cate_map=fmap, prognostic_map=fmap)


class TestOutsideInputErrors:
    @pytest.mark.parametrize(
        "sides, message",
        [
            (dict(cate_map=True, prognostic_map=True, cate_kernel=True), "supply feature maps or kernels, not both"),
            ({}, "supply feature maps (linear mode) or kernels (kernel mode)"),
            (dict(cate_map=True), "linear mode needs both cate_map and prognostic_map"),
            (dict(prognostic_kernel=True), "kernel mode needs both cate_kernel and prognostic_kernel"),
            (dict(cate_map=True, prognostic_map=True), "build_kernel_qp requires a kernel-mode problem"),
        ],
        ids=["both-modes", "no-mode", "one-map", "one-kernel", "kernel-qp-of-linear"],
    )
    def test_a_mode_mismatch_names_what_is_wrong(self, sides, message):
        given = {"cate_map": identity_map(1), "prognostic_map": identity_map(1),
                 "cate_kernel": KernelSpec("linear"), "prognostic_kernel": KernelSpec("linear")}
        with pytest.raises(ModeMismatchError) as info:
            build_kernel_qp(BalanceProblem(site=one_dim_site(), target=TargetSpec.from_sample([[1.0]]), lam=0.1,
                                           **{name: given[name] for name in sides}))
        assert str(info.value) == message


class TestBuildKernelQp:
    def test_linear_kernels_reproduce_linear_program(self, rng):
        site = random_site(rng, n=12, d=2)
        target = TargetSpec.from_sample(rng.normal(0.2, 1.0, size=(15, 2)))
        fmap = identity_map(2)
        lin = build_linear_qp(
            BalanceProblem(site=site, target=target, lam=0.05, cate_map=fmap, prognostic_map=fmap)
        )
        ker = build_kernel_qp(
            BalanceProblem(
                site=site,
                target=target,
                lam=0.05,
                cate_kernel=KernelSpec("linear"),
                prognostic_kernel=KernelSpec("linear"),
            )
        )
        gamma0 = rng.uniform(0, 2, site.n)
        # objectives agree up to a constant independent of gamma
        diffs = [
            ker.objective(gamma0 + delta) - lin.objective(gamma0 + delta)
            for delta in (0.0, 0.3, 0.7)
        ]
        assert np.ptp(diffs) < 1e-8

    def test_kernel_sample_target_required(self):
        site = one_dim_site()
        with pytest.raises(ModeMismatchError):
            BalanceProblem(
                site=site,
                target=TargetSpec.from_moments([2.0]),
                lam=0.1,
                cate_kernel=KernelSpec("linear"),
                prognostic_kernel=KernelSpec("linear"),
            )

    def test_self_target_makes_uniform_treated_optimal(self):
        # target sample = the site's own treated units: uniform treated weights
        # zero out the treated-block imbalance
        X = np.array([[0.0], [1.0], [2.0], [0.5], [1.5], [2.5]])
        z = np.array([1, 1, 1, 0, 0, 0])
        site = build_site(X, z, np.zeros(6))
        target = TargetSpec.from_sample(X[z == 1])
        prob = BalanceProblem(
            site=site,
            target=target,
            lam=0.0,
            cate_kernel=KernelSpec("linear"),
            prognostic_kernel=KernelSpec("linear"),
        )
        ws = solve_weights(prob, settings=QpSettings(eps_abs=1e-10, eps_rel=0.0))
        # grid oracle over treated weights (g1, g2, 3 - g1 - g2): the treated
        # block |(g1*0 + g2*1 + (3-g1-g2)*2)/(n*pi) - mean(target)|^2 must be
        # minimized (at zero) by the uniform split
        n, pi = 6, 0.5
        tmean = float(X[z == 1].mean())
        g1 = np.linspace(0, 3, 301)[:, None]
        g2 = np.linspace(0, 3, 301)[None, :]
        feasible = (g1 + g2) <= 3.0
        block = ((g2 + 2.0 * (3.0 - g1 - g2)) / (n * pi) - tmean) ** 2
        uniform_block = ((1.0 + 2.0) / (n * pi) - tmean) ** 2
        assert uniform_block <= block[feasible].min() + 1e-12
        assert ws.cate_imbalance <= 1e-4

    def test_rbf_quadratic_block_is_psd(self, rng):
        site = random_site(rng, n=8, d=2)
        target = TargetSpec.from_sample(rng.normal(size=(6, 2)))
        qp = build_kernel_qp(
            BalanceProblem(
                site=site,
                target=target,
                lam=0.0,
                cate_kernel=KernelSpec("rbf", 1.0),
                prognostic_kernel=KernelSpec("rbf", 0.7),
            )
        )
        eigs = np.linalg.eigvalsh(qp.P)
        assert eigs[0] >= -1e-8 * eigs.sum()


class TestSolveWeights:
    def test_constraints_and_positivity(self, rng):
        for _ in range(5):
            site = random_site(rng, n=40, d=4)
            target = TargetSpec.from_sample(rng.normal(0.5, 1.0, size=(30, 4)))
            fmap = fit_feature_map(
                FeatureMap(standardize=True), np.vstack([site.covariates, target.sample])
            )
            ws = solve_weights(
                BalanceProblem(site=site, target=target, lam=0.02, cate_map=fmap, prognostic_map=fmap)
            )
            z = site.treatment
            assert abs(ws.gamma[z == 1].sum() - site.n1) <= 1e-4 * site.n1
            assert abs(ws.gamma[z == 0].sum() - site.n0) <= 1e-4 * site.n0
            assert ws.gamma.min() >= -1e-8

    def test_polish_by_the_site_arms_is_bitwise_the_masked_one(self, rng):
        from sitetransport.balance import _polish

        for _ in range(5):
            site = random_site(rng, n=rng.integers(20, 400), d=2)
            x = rng.normal(1.0, 1.0, site.n)
            gamma = np.maximum(x, 0.0)  # the same arithmetic over boolean masks of the treatment
            treated = site.treatment == 1
            s1, s0 = gamma[treated].sum(), gamma[~treated].sum()
            gamma[treated] *= site.n1 / s1
            gamma[~treated] *= site.n0 / s0
            np.testing.assert_array_equal(_polish(site, x), gamma)
        treated, control = site.arms
        assert treated.tolist() == np.flatnonzero(site.treatment == 1).tolist()
        assert control.tolist() == np.flatnonzero(site.treatment == 0).tolist()
        assert site.arms is site.arms  # computed once

    def test_far_target_flags_low_ess(self, rng):
        site = random_site(rng, n=40, d=1)
        target = TargetSpec.from_sample(np.full((20, 1), 4.0))
        fmap = identity_map(1)
        ws = solve_weights(
            BalanceProblem(site=site, target=target, lam=1e-8, cate_map=fmap, prognostic_map=fmap)
        )
        assert ws.ess < 0.5 * site.n
        assert any("effective sample size" in n for n in ws.notes)

    def test_single_treated_unit_flagged(self):
        X = np.array([[0.0], [1.0], [2.0]])
        site = build_site(X, [1, 0, 0], [1.0, 0.0, 0.5])
        fmap = identity_map(1)
        ws = solve_weights(
            BalanceProblem(
                site=site,
                target=TargetSpec.from_moments([1.0]),
                lam=0.5,
                cate_map=fmap,
                prognostic_map=fmap,
            )
        )
        assert ws.gamma[0] == pytest.approx(1.0)
        assert any("single-unit arm" in n for n in ws.notes)

    def test_feasible_exact_balance_drives_imbalance_to_zero(self):
        # target mean = average of the two treated covariates
        site = one_dim_site()
        target = TargetSpec.from_moments([1.0])
        fmap = identity_map(1)
        ws = solve_weights(
            BalanceProblem(site=site, target=target, lam=1e-8, cate_map=fmap, prognostic_map=fmap)
        )
        assert ws.cate_imbalance <= 1e-3


class TestImbalanceReport:
    def test_exact_match_is_zero(self):
        site = one_dim_site()
        fmap = identity_map(1)
        prob = BalanceProblem(
            site=site, target=TargetSpec.from_moments([2.0]), lam=0.0, cate_map=fmap, prognostic_map=fmap
        )
        rep = imbalance_report(prob, np.array([0.0, 2.0, 1.0, 1.0]))
        assert rep.cate_imbalance == pytest.approx(0.0, abs=1e-12)

    def test_identical_arms_zero_prognostic_imbalance(self):
        X = np.array([[1.0], [1.0]])
        site = build_site(X, [1, 0], [2.0, 1.0])
        fmap = identity_map(1)
        prob = BalanceProblem(
            site=site, target=TargetSpec.from_moments([1.0]), lam=0.0, cate_map=fmap, prognostic_map=fmap
        )
        rep = imbalance_report(prob, np.ones(2))
        assert rep.prognostic_imbalance == pytest.approx(0.0, abs=1e-12)

    def test_formula_plugin(self):
        # 2 treated (x=0,2), weights (2,0), pi=.5, n=4, target mean 0:
        # (1/(4*0.5)) * (2*0 + 0*2) - 0 = 0
        site = one_dim_site()
        fmap = identity_map(1)
        prob = BalanceProblem(
            site=site, target=TargetSpec.from_moments([0.0]), lam=0.0, cate_map=fmap, prognostic_map=fmap
        )
        rep = imbalance_report(prob, np.array([2.0, 0.0, 1.0, 1.0]))
        assert rep.cate_imbalance == pytest.approx(0.0, abs=1e-12)

    def test_kernel_mode_rejected(self):
        site = one_dim_site()
        prob = BalanceProblem(
            site=site,
            target=TargetSpec.from_sample([[1.0]]),
            lam=0.0,
            cate_kernel=KernelSpec("linear"),
            prognostic_kernel=KernelSpec("linear"),
        )
        with pytest.raises(ModeMismatchError):
            imbalance_report(prob, np.ones(4))


class TestKishEss:
    def test_uniform(self):
        assert kish_ess(np.ones(4)) == pytest.approx(4.0)

    def test_formula(self):
        assert kish_ess(np.array([3.0, 1.0])) == pytest.approx(1.6)

    def test_point_mass(self):
        assert kish_ess(np.array([5.0, 0.0, 0.0, 0.0, 0.0])) == pytest.approx(1.0)

    def test_all_zero(self):
        with pytest.raises(AllZeroWeightsError):
            kish_ess(np.zeros(3))


@pytest.fixture
def sweep_inputs(rng):
    sites = [random_site(rng, n=30, d=2, site_id=f"s{i}") for i in range(3)]
    target = TargetSpec.from_sample(rng.normal(0.3, 1.0, size=(40, 2)))
    fmap = fit_feature_map(
        FeatureMap(standardize=True),
        np.vstack([s.covariates for s in sites] + [target.sample]),
    )
    return sites, target, fmap


class TestLambdaSweep:
    def test_huge_lambda_equals_unweighted(self, rng):
        sites = [random_site(rng, n=30, d=2, site_id=f"s{i}") for i in range(3)]
        target = TargetSpec.from_sample(rng.normal(0.5, 1.0, size=(40, 2)))
        fmap = fit_feature_map(
            FeatureMap(standardize=True),
            np.vstack([s.covariates for s in sites] + [target.sample]),
        )
        rows = lambda_sweep(sites, target, [1e6], cate_map=fmap, prognostic_map=fmap)
        assert rows[0].ess == pytest.approx(30.0, abs=1e-3)
        unweighted = np.mean(
            [
                imbalance_report(
                    BalanceProblem(site=s, target=target, lam=1e6, cate_map=fmap, prognostic_map=fmap), np.ones(s.n)
                ).cate_imbalance
                for s in sites
            ]
        )
        assert rows[0].cate_imbalance == pytest.approx(unweighted, abs=1e-5)

    def test_balanceable_instance_reaches_zero(self):
        site = one_dim_site()
        fmap = identity_map(1)
        rows = lambda_sweep([site], TargetSpec.from_moments([1.0]), [1e-8], cate_map=fmap, prognostic_map=fmap)
        assert rows[0].cate_imbalance <= 1e-3

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            lambda_sweep([one_dim_site()], TargetSpec.from_moments([1.0]), [], cate_map=identity_map(1), prognostic_map=identity_map(1))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_non_finite_or_negative_grid_value_rejected_by_name(self, bad):
        # before any solve, not as the QP layer's "program data must be finite"
        with pytest.raises(ValueError, match=f"lambda must be a finite nonnegative number, got {bad}"):
            lambda_sweep([one_dim_site()], TargetSpec.from_moments([1.0]), [1e-3, bad],
                         cate_map=identity_map(1), prognostic_map=identity_map(1))

    @staticmethod
    def _recording(monkeypatch, record):
        """Route every weight solve through ``record(prob)``, then the solver;
        returns the solutions by (site id, lambda)."""
        from sitetransport import balance

        solved, real = {}, balance.solve_weights

        def solve(prob, *args, **kwargs):
            record(prob)
            solved[prob.site.site_id, prob.lam] = ws = real(prob, *args, **kwargs)
            return ws

        monkeypatch.setattr(balance, "solve_weights", solve)
        return solved

    @pytest.mark.parametrize("mode", ["linear", "kernel"])
    def test_sites_solve_under_the_blas_cap(self, sweep_inputs, monkeypatch, mode):
        from sitetransport import blas

        sites, target, fmap = sweep_inputs
        depths = []
        self._recording(monkeypatch, lambda prob: depths.append(blas._depth))
        sides = (
            dict(cate_map=fmap, prognostic_map=fmap) if mode == "linear"
            else dict(cate_kernel=KernelSpec("linear"), prognostic_kernel=KernelSpec("rbf"))
        )
        lambda_sweep(sites, target, [1.0, 0.1], **sides)
        assert len(depths) == 2 * len(sites) and all(depth > 0 for depth in depths)
        assert blas._depth == 0

    def test_a_failed_solve_is_counted_and_left_out_of_the_means(self, sweep_inputs, monkeypatch):
        from sitetransport.errors import SolverFailedError

        sites, target, fmap = sweep_inputs
        grid = [1.0, 0.1, 0.01]

        def fail(prob):
            if prob.site.site_id == "s1" and prob.lam == 0.1:
                raise SolverFailedError("injected")

        solved = self._recording(monkeypatch, fail)
        rows = lambda_sweep(sites, target, grid, cate_map=fmap, prognostic_map=fmap)
        assert [r.n_failed for r in rows] == [0, 1, 0]
        for row in rows:
            sols = [solved[s.site_id, row.lam] for s in sites if (s.site_id, row.lam) in solved]
            assert len(sols) == len(sites) - row.n_failed
            for name in ("cate_imbalance", "prognostic_imbalance", "ess"):
                assert getattr(row, name) == np.mean([getattr(ws, name) for ws in sols])

    def test_monotone_tradeoff(self, rng):
        sites = [random_site(rng, n=35, d=3, site_id=f"s{i}") for i in range(2)]
        target = TargetSpec.from_sample(rng.normal(0.6, 1.0, size=(50, 3)))
        fmap = fit_feature_map(
            FeatureMap(standardize=True),
            np.vstack([s.covariates for s in sites] + [target.sample]),
        )
        grid = [1e-6, 1e-4, 1e-2, 1e-1, 1.0, 10.0, 1e3]
        rows = lambda_sweep(
            sites, target, grid, cate_map=fmap, prognostic_map=fmap,
            settings=QpSettings(eps_abs=1e-9, eps_rel=0.0),
        )
        imb = [r.cate_imbalance for r in rows]  # ascending lambda
        ess = [r.ess for r in rows]
        assert all(imb[i] <= imb[i + 1] + 1e-5 for i in range(len(imb) - 1))
        assert all(ess[i] <= ess[i + 1] + 1e-5 for i in range(len(ess) - 1))


def _kernel_problem(site, target, lam):
    return BalanceProblem(
        site=site, target=target, lam=lam,
        cate_kernel=KernelSpec("linear"), prognostic_kernel=KernelSpec("rbf"),
    )


class TestProgramReuse:
    """The lambda-free part of a site's program is built once per site."""

    @staticmethod
    def _counting(monkeypatch, module, name, log):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            log.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    @pytest.mark.parametrize("k", [1, 4])
    @pytest.mark.parametrize(
        "cate, prognostic, per_site, target_grams",
        [
            # the two site Grams; the target terms come from the target mean
            ("linear", "rbf", 2, 0),
            # the two site Grams and the cross Gram; the target Gram's rows
            # once per run, in one block at this target size
            ("rbf", "linear", 3, 1),
        ],
        ids=["linear-effect", "rbf-effect"],
    )
    def test_kernel_sweep_resolves_once_per_run_and_builds_grams_once_per_site(
        self, sweep_inputs, monkeypatch, k, cate, prognostic, per_site, target_grams
    ):
        from sitetransport import balance, features

        sites, target, _ = sweep_inputs
        bandwidths, grams = [], []
        self._counting(monkeypatch, features, "resolve_bandwidth", bandwidths)
        self._counting(monkeypatch, balance, "kernel_matrix", grams)
        rows = lambda_sweep(
            sites, target, np.logspace(-2, 1, k),
            cate_kernel=KernelSpec(cate), prognostic_kernel=KernelSpec(prognostic),
        )
        assert sum(r.n_failed for r in rows) == 0
        on_target = [[np.shares_memory(v, target.sample) for v in a[1:]] for a in grams]
        assert len(bandwidths) == 1
        assert on_target.count([True, True]) == target_grams
        assert on_target.count([False, True]) == (cate == "rbf") * len(sites)
        assert len(grams) == per_site * len(sites) + target_grams

    def test_identical_rbf_kernels_share_one_bandwidth_and_gram(self, sweep_inputs, monkeypatch):
        from sitetransport import balance, features

        sites, target, _ = sweep_inputs
        bandwidths, grams = [], []
        self._counting(monkeypatch, features, "resolve_bandwidth", bandwidths)
        self._counting(monkeypatch, balance, "kernel_matrix", grams)
        rows = lambda_sweep(
            sites, target, np.logspace(-2, 1, 4),
            cate_kernel=KernelSpec("rbf"), prognostic_kernel=KernelSpec("rbf"),
        )
        assert sum(r.n_failed for r in rows) == 0
        assert len(bandwidths) == 1
        # one site Gram and the cross Gram per site; the target Gram's rows once
        assert len(grams) == 2 * len(sites) + 1

    def test_shared_median_bandwidth_gives_the_weights_of_explicit_bandwidths(self, sweep_inputs):
        from sitetransport import features
        from sitetransport.balance import solve_along_grid

        sites, target, _ = sweep_inputs
        grid = np.logspace(1, -2, 4)
        for site in sites:
            bw = features.resolve_bandwidth(np.vstack([site.covariates, target.sample]))
            median, explicit = (
                BalanceProblem(site=site, target=target, lam=grid[0], cate_kernel=k, prognostic_kernel=k)
                for k in (KernelSpec("rbf"), KernelSpec("rbf", bw))
            )
            assert median._program.K_prog is median._program.K_cate
            for (_, a), (_, b) in zip(solve_along_grid(median, grid), solve_along_grid(explicit, grid)):
                np.testing.assert_array_equal(a.gamma, b.gamma)
                assert (a.cate_imbalance, a.prognostic_imbalance) == (b.cate_imbalance, b.prognostic_imbalance)

    @pytest.mark.parametrize("k", [1, 4])
    @pytest.mark.parametrize("shared", [True, False], ids=["one-map", "two-maps"])
    def test_linear_sweep_maps_features_a_fixed_number_of_times(self, sweep_inputs, monkeypatch, k, shared):
        from sitetransport import balance, features

        sites, target, fmap = sweep_inputs
        pooled = np.vstack([s.covariates for s in sites] + [target.sample])
        pmap = fmap if shared else fit_feature_map(FeatureMap(interactions=((0, 1),)), pooled)
        mapped = []
        self._counting(monkeypatch, balance, "apply_feature_map", mapped)
        self._counting(monkeypatch, features, "apply_feature_map", mapped)
        rows = lambda_sweep(sites, target, np.logspace(-3, 1, k), cate_map=fmap, prognostic_map=pmap)
        assert sum(r.n_failed for r in rows) == 0
        # effect side on each site, and on the target once for the run; the
        # prognostic side on the site only when its map is another one
        assert len(mapped) == (1 if shared else 2) * len(sites) + 1
        assert sum(np.shares_memory(args[1], target.sample) for args in mapped) == 1

    def test_a_target_keeps_no_design_of_a_map_that_is_gone(self, sweep_inputs):
        # each run fits its own map: the target shared by the runs must not
        # keep the design of every map it was mapped by
        sites, target, _ = sweep_inputs
        pooled = np.vstack([s.covariates for s in sites] + [target.sample])
        for _ in range(5):
            fmap = fit_feature_map(FeatureMap(), pooled)
            rows = lambda_sweep(sites, target, [1e-2, 1.0], cate_map=fmap, prognostic_map=fmap)
            assert sum(r.n_failed for r in rows) == 0
        assert len(target._designs) <= 1

    def test_one_map_on_both_sides_gives_the_weights_of_an_equal_second_map(self, sweep_inputs):
        from sitetransport.balance import solve_along_grid

        sites, target, fmap = sweep_inputs
        grid = np.logspace(1, -3, 4)
        for site in sites:
            one, two = (
                BalanceProblem(site=site, target=target, lam=grid[0], cate_map=fmap, prognostic_map=pmap)
                for pmap in (fmap, replace(fmap))
            )
            assert one._program.phi_prog is one._program.phi_cate
            assert two._program.phi_prog is not two._program.phi_cate
            for (_, a), (_, b) in zip(solve_along_grid(one, grid), solve_along_grid(two, grid)):
                np.testing.assert_array_equal(a.gamma, b.gamma)
                assert (a.cate_imbalance, a.prognostic_imbalance) == (b.cate_imbalance, b.prognostic_imbalance)

    @staticmethod
    def _counting_structure(monkeypatch, name):
        """The programs whose shared structure derived ``name``, one entry per
        derivation."""
        from sitetransport import qp

        prop = qp._Structure.__dict__[name]
        log = []

        def counted(structure, real=prop.func):
            log.append(structure)
            return real(structure)

        monkeypatch.setattr(prop, "func", counted)
        return log

    def test_kernel_sweep_certifies_convexity_once_per_site(self, sweep_inputs, monkeypatch):
        sites, target, _ = sweep_inputs
        certified = self._counting_structure(monkeypatch, "certificate")
        rows = lambda_sweep(
            sites, target, np.logspace(-2, 1, 4),
            cate_kernel=KernelSpec("linear"), prognostic_kernel=KernelSpec("rbf"),
        )
        assert sum(r.n_failed for r in rows) == 0
        assert len(certified) == len(sites)
        assert all(s.P is not None for s in certified)

    def test_linear_sweep_tests_the_shape_and_builds_dual_matrices_once_per_site(self, sweep_inputs, monkeypatch):
        sites, target, fmap = sweep_inputs
        shapes = self._counting_structure(monkeypatch, "balancing")
        duals = self._counting_structure(monkeypatch, "dual")
        rows = lambda_sweep(sites, target, np.logspace(-3, 1, 4), cate_map=fmap, prognostic_map=fmap)
        assert sum(r.n_failed for r in rows) == 0
        assert len(shapes) == len(duals) == len(sites)
        assert all(s.dual is not None for s in duals)  # every solve took the dual path

    def test_linear_sweep_builds_the_dual_gram_once_per_site(self, sweep_inputs, monkeypatch):
        sites, target, fmap = sweep_inputs
        from sitetransport import qp

        grams, real = {}, qp._Structure.dual_gram

        def logged(structure, D):
            found = real(structure, D)
            if found is not None:
                grams.setdefault(structure, []).append(found[0])
            return found

        monkeypatch.setattr(qp._Structure, "dual_gram", logged)
        rows = lambda_sweep(sites, target, np.logspace(-3, 1, 4), cate_map=fmap, prognostic_map=fmap)
        assert sum(r.n_failed for r in rows) == 0
        # every site's later lambda copies read one Gram
        assert len(grams) == len(sites)
        assert all(all(g is found[0] for g in found) for found in grams.values())

    @pytest.mark.parametrize("mode", ["linear", "kernel"])
    def test_lambda_copies_match_fresh_problems(self, sweep_inputs, mode):
        sites, target, fmap = sweep_inputs
        if mode == "linear":
            def fresh(lam):
                return BalanceProblem(site=sites[0], target=target, lam=lam, cate_map=fmap, prognostic_map=fmap)
        else:
            def fresh(lam):
                return _kernel_problem(sites[0], target, lam)
        grid = [10.0, 1.0, 0.1, 1e-3]
        base = fresh(grid[0])

        def chain(make):
            warm, out = None, []
            for lam in grid:
                ws = solve_weights(make(lam), warm_start=warm)
                warm = (ws.solver.x, ws.solver.y)
                out.append(ws)
            return out

        for copied, new in zip(chain(base.with_lam), chain(fresh)):
            assert copied.lam == new.lam
            assert np.max(np.abs(copied.gamma - new.gamma)) <= 1e-12
            assert copied.cate_imbalance == pytest.approx(new.cate_imbalance, abs=1e-12)
            assert copied.prognostic_imbalance == pytest.approx(new.prognostic_imbalance, abs=1e-12)

    def test_lambda_copy_changes_only_the_ridge(self, sweep_inputs):
        sites, target, fmap = sweep_inputs
        prob = BalanceProblem(site=sites[0], target=target, lam=0.5, cate_map=fmap, prognostic_map=fmap)
        a, b = build_linear_qp(prob), build_linear_qp(prob.with_lam(2.0))
        assert np.shares_memory(b.p_factor, a.p_factor) and np.shares_memory(b.q, a.q)
        np.testing.assert_array_equal(b.p_diag, 4.0 * a.p_diag)

        kprob = _kernel_problem(sites[0], target, 0.5)
        ka, kb = build_kernel_qp(kprob), build_kernel_qp(kprob.with_lam(2.0))
        assert kb.P is ka.P and np.shares_memory(kb.q, ka.q)
        np.testing.assert_allclose(kb.p_diag - ka.p_diag, 1.5 * 2.0 * _ridge(sites[0]), rtol=1e-12)

    def test_program_states_two_arm_rows_and_nonnegative_weights(self, sweep_inputs):
        sites, target, fmap = sweep_inputs
        site = sites[0]
        for qp in (
            build_linear_qp(BalanceProblem(site=site, target=target, lam=0.5, cate_map=fmap, prognostic_map=fmap)),
            build_kernel_qp(_kernel_problem(site, target, 0.5)),
        ):
            assert type(qp.A) is np.ndarray and qp.A.shape == (2, site.n)
            np.testing.assert_array_equal(qp.A, [site.treatment, 1.0 - site.treatment])
            np.testing.assert_array_equal(qp.l, [site.n1, site.n0])
            np.testing.assert_array_equal(qp.u, [site.n1, site.n0])
            np.testing.assert_array_equal(qp.lb, np.zeros(site.n))
            np.testing.assert_array_equal(qp.ub, np.full(site.n, np.inf))
            assert qp.m == 2 + site.n  # y: the two arm rows, then one per weight

    @pytest.mark.parametrize("kind", ["linear", "rbf"])
    @pytest.mark.parametrize("block", [None, 7 * 45])
    @pytest.mark.parametrize("centred", [False, True], ids=["shifted", "centred"])
    def test_target_gram_mean_summed_in_blocks(self, sweep_inputs, rng, monkeypatch, kind, block, centred):
        from sitetransport import balance

        sites, _, _ = sweep_inputs
        sample = rng.normal(0.3, 1.0, size=(1100 if block is None else 45, 2))
        if centred:
            sample -= sample.mean(axis=0)
        target = TargetSpec.from_sample(sample)
        shapes = []
        if block is not None:  # blocks of 7 rows
            monkeypatch.setattr(balance, "_GRAM_BLOCK_DOUBLES", block)

            def recorded(spec, X, Y=None):
                K = kernel_matrix(spec, X, Y)
                shapes.append(K.shape)
                return K

            monkeypatch.setattr(balance, "kernel_matrix", recorded)
        spec = KernelSpec(kind, None if kind == "linear" else 0.8)
        kernels = dict(cate_kernel=spec, prognostic_kernel=KernelSpec("linear"))
        program = BalanceProblem(site=sites[0], target=target, lam=0.1, **kernels)._program
        if kind == "rbf" or not centred:
            full = kernel_matrix(spec, target.sample).mean()
            assert program.target_block == pytest.approx(full, rel=1e-12, abs=0.0)
        if kind == "rbf":
            # the cross Gram's row means, bitwise those of the whole n x m Gram
            cross = kernel_matrix(spec, sites[0].covariates, target.sample).mean(axis=1)
            np.testing.assert_array_equal(program.kernel_mean, cross)
            if block is not None:  # the n x m and m x m Grams, 7 rows at a time
                blocks = [rows for rows, cols in shapes if cols == 45]
                assert sum(blocks) == sites[0].n + 45 and max(blocks) == 7
        if kind == "linear":
            # the linear Gram's mean is |y_bar|^2; centred, its entries cancel
            # to rounding noise while y_bar stays within a summation error
            # bound of its exactly rounded value
            eps = np.finfo(float).eps
            y_bar = [math.fsum(col) / len(sample) for col in sample.T]
            err = [eps * math.fsum(np.abs(col)) for col in sample.T]
            ref = math.fsum(v * v for v in y_bar)
            tol = math.fsum(2.0 * abs(v) * e + e * e for v, e in zip(y_bar, err)) + 4.0 * eps * ref
            assert abs(program.target_block - ref) <= tol

    @pytest.mark.parametrize("field", ["site", "target"])
    def test_replace_builds_a_fresh_program(self, sweep_inputs, rng, field):
        sites, target, fmap = sweep_inputs
        other = {"site": sites[1], "target": TargetSpec.from_sample(rng.normal(-1.0, 1.0, size=(25, 2)))}[field]
        for make, build in (
            (lambda **kw: BalanceProblem(lam=0.1, cate_map=fmap, prognostic_map=fmap, **kw), build_linear_qp),
            (lambda **kw: _kernel_problem(lam=0.1, **kw), build_kernel_qp),
        ):
            prob = make(site=sites[0], target=target)
            stale = build(prob)
            moved = build(replace(prob, **{field: other}))
            expected = build(make(**{"site": sites[0], "target": target, field: other}))
            np.testing.assert_array_equal(moved.q, expected.q)
            assert not np.array_equal(moved.q, stale.q)
            np.testing.assert_array_equal(moved.p_dense(), expected.p_dense())


def _ridge(site):
    z, pi = site.treatment, site.propensity
    return z / pi + (1.0 - z) / (1.0 - pi)
