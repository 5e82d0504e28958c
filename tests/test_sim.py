import re

import numpy as np
import pytest

from conftest import assert_sites_identical
from sitetransport import SimConfig, build_populations, generate_rep, run_simulation


def small_config(**overrides):
    base = dict(
        n_sites=4,
        experiment_intercepts=(-0.2, 0.3),
        site_size_range=(60, 120),
        n_covariates=5,
        reps=3,
        lambda_grid=(1e-4, 1.0, 1e8),
        estimators=("naive", "weighting"),
        seed=11,
    )
    base.update(overrides)
    return SimConfig(**base)


class TestConfig:
    def test_invalid_noise(self):
        with pytest.raises(ValueError):
            small_config(noise_sd=0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_lambda_grid_value_must_be_finite_and_nonnegative(self, bad):
        with pytest.raises(ValueError, match=f"got {bad}"):
            small_config(lambda_grid=(1e-4, bad))

    @pytest.mark.parametrize(
        "setting, message",
        [
            (dict(reps=2.5), "reps must be a whole number, got 2.5"),
            (dict(n_sites=4.5), "n_sites must be a whole number, got 4.5"),
            (dict(n_covariates=5.5), "n_covariates must be a whole number, got 5.5"),
            (dict(target_experiment=0.5), "target_experiment must be a whole number, got 0.5"),
            (dict(seed=1.5), "seed must be a whole number, got 1.5"),
            (dict(noise_sd=float("nan")), "noise_sd must be a finite positive number, got nan"),
            (dict(noise_sd=float("inf")), "noise_sd must be a finite positive number, got inf"),
            (dict(site_size_range=(120, 60)), "site_size_range must be two sizes, low <= high, got (120, 60)"),
            (dict(site_size_range=(1, 60)), "a site size must be at least 2, got 1"),
            (dict(site_size_range=(60.5, 120)), "a site size must be a whole number, got 60.5"),
            (dict(site_size_range=(60,)), "site_size_range must be two sizes, low <= high, got (60,)"),
        ],
    )
    def test_a_setting_it_cannot_honour_is_rejected(self, setting, message):
        # each used to pass here and fail later: a TypeError, numpy's
        # "low >= high" or "outcome must be finite", or a truncated count
        with pytest.raises(ValueError, match=re.escape(message)):
            small_config(**setting)

    def test_whole_floats_are_kept_as_ints(self):
        cfg = small_config(reps=3.0, n_sites=4.0, seed=11.0, site_size_range=(60.0, 120.0))
        assert cfg == small_config()
        assert all(type(v) is int for v in (cfg.reps, cfg.n_sites, cfg.seed, *cfg.site_size_range))
        # numbers read as text are kept as floats: a quoted noise_sd used to end the run in numpy's TypeError
        text = small_config(noise_sd="0.5", experiment_intercepts=("-0.2", "0.3"), lambda_grid=("1e-4", "1.0", "1e8"))
        assert text == small_config() and type(text.noise_sd) is float

    def test_one_experiment_group_per_intercept(self):
        groups = [pop.experiment for pop in build_populations(small_config(experiment_intercepts=(0.1, 0.2, 0.3)))]
        assert groups == [0, 0, 1, 2]
        with pytest.raises(ValueError, match="experiment_intercepts must be nonempty"):
            small_config(experiment_intercepts=())
        with pytest.raises(ValueError, match="target_experiment out of range"):
            small_config(target_experiment=2)
        with pytest.raises(TypeError):
            small_config(n_experiments=2)

    def test_default_cate_coefficients_are_sparse(self):
        cfg = SimConfig()
        coef = np.asarray(cfg.cate_coefficients)
        assert coef.size == 23
        assert np.count_nonzero(coef) == 4


class TestGenerateRep:
    def test_deterministic_given_seed(self):
        cfg = small_config()
        pops = build_populations(cfg)
        a = generate_rep(cfg, 5, pops)
        b = generate_rep(cfg, 5, pops)
        for got, want in zip(a.sites, b.sites, strict=True):
            assert_sites_identical(got, want)
        np.testing.assert_array_equal(a.target.sample, b.target.sample)
        assert a.truth == b.truth

    def test_different_reps_differ(self):
        cfg = small_config()
        pops = build_populations(cfg)
        a = generate_rep(cfg, 0, pops)
        b = generate_rep(cfg, 1, pops)
        assert not np.array_equal(a.sites[0].outcomes, b.sites[0].outcomes)

    def test_zero_cate_yields_intercept_truths(self):
        cfg = small_config(cate_coefficients=(0.0,) * 5)
        pops = build_populations(cfg)
        rep = generate_rep(cfg, 0, pops)
        for pop in pops:
            expected = cfg.experiment_intercepts[pop.experiment]
            assert rep.truth[pop.site_id] == pytest.approx(expected)

    def test_same_experiment_sites_share_truth(self):
        cfg = small_config()
        pops = build_populations(cfg)
        rep = generate_rep(cfg, 2, pops)
        by_group = {}
        for pop in pops:
            by_group.setdefault(pop.experiment, []).append(rep.truth[pop.site_id])
        for values in by_group.values():
            assert all(v == pytest.approx(values[0], abs=1e-12) for v in values)

    def test_null_effect_makes_naive_unbiased(self):
        from sitetransport import naive_estimate

        cfg = small_config(
            cate_coefficients=(0.0,) * 5,
            experiment_intercepts=(0.0, 0.0),
            reps=10,
        )
        pops = build_populations(cfg)
        errors = []
        for r in range(10):
            rep = generate_rep(cfg, r, pops)
            errors += [naive_estimate(s).estimate for s in rep.sites]
        errors = np.asarray(errors)  # truth is exactly zero everywhere
        se = errors.std(ddof=1) / np.sqrt(errors.size)
        assert abs(errors.mean()) <= 4.0 * se

    def test_treated_fraction_fixed_across_reps(self):
        cfg = small_config()
        pops = build_populations(cfg)
        for r in range(3):
            rep = generate_rep(cfg, r, pops)
            for site, pop in zip(rep.sites, pops):
                assert site.n1 == pop.n_treated
                assert site.propensity == pop.n_treated / pop.n


class TestRunSimulation:
    def test_rows_score_the_cell_errors(self):
        # RMSE: each rep's root mean square over its completed sites, averaged
        # over reps; mean absolute bias: each site's mean error over its
        # completed reps, absolute, averaged over sites. IPW fails every rep
        # of two sites here, which then count in neither average.
        cfg = small_config(n_covariates=12, site_size_range=(16, 20), estimators=("naive", "weighting", "ipw"))
        res = run_simulation(cfg)
        assert 0 < res.row("ipw").n_failed < cfg.reps * cfg.n_sites
        for row in res.rows:
            errors = res.cell_errors[row.estimator, row.lam]
            done = [e[~np.isnan(e)] for e in errors], [e[~np.isnan(e)] for e in errors.T]
            per_rep = [np.sqrt(np.mean(e**2)) for e in done[0] if e.size]
            per_site = [np.mean(e) for e in done[1] if e.size]
            assert row.rmse == pytest.approx(np.mean(per_rep), rel=1e-12)
            assert row.mean_abs_bias == pytest.approx(np.mean(np.abs(per_site)), rel=1e-12)

    def test_heavily_regularized_weighting_matches_naive(self):
        cfg = small_config()
        res = run_simulation(cfg)
        naive = res.row("naive")
        top = res.row("weighting", 1e8)
        assert abs(top.rmse - naive.rmse) <= 1e-6
        assert abs(top.mean_abs_bias - naive.mean_abs_bias) <= 1e-6

    def test_deterministic_tables(self):
        cfg = small_config(reps=1)
        a = run_simulation(cfg)
        b = run_simulation(cfg)
        assert a.rows == b.rows

    def test_threads_do_not_change_results(self):
        cfg = small_config(reps=4)
        serial = run_simulation(cfg, threads=1)
        threaded = run_simulation(cfg, threads=3)
        assert serial.rows == threaded.rows

    @pytest.mark.parametrize("threads", [1, 2])
    def test_replications_run_under_the_blas_cap(self, monkeypatch, threads):
        from sitetransport import blas, sim

        depths = []
        rep_errors = sim._rep_errors

        def recorded(*args):
            depths.append(blas._depth)
            return rep_errors(*args)

        monkeypatch.setattr(sim, "_rep_errors", recorded)
        run_simulation(small_config(reps=2), threads=threads)
        assert len(depths) == 2 and all(depth > 0 for depth in depths)
        assert blas._depth == 0

    def test_failures_counted_not_fatal(self):
        # sites with many covariates and tiny arms push the outcome model
        # into InsufficientArm territory and the density ratio off its fit
        cfg = small_config(
            n_covariates=12,
            site_size_range=(16, 20),
            estimators=("naive", "outcome_model", "ipw", "doubly_robust"),
            reps=2,
        )
        res = run_simulation(cfg)
        cells = cfg.reps * cfg.n_sites
        assert res.row("naive").n_failed == 0
        assert res.row("outcome_model").n_failed == cells
        assert res.row("ipw").n_failed >= 1
        assert res.row("doubly_robust").n_failed >= res.row("ipw").n_failed
        for row in res.rows:
            assert row.n_failed == np.isnan(res.cell_errors[(row.estimator, row.lam)]).sum()

    @staticmethod
    def _failing_solve(monkeypatch, error, on_call):
        """Make the ``on_call``-th weight solve raise ``error``."""
        from sitetransport import balance

        calls, real = [], balance.solve_weights

        def solve(*args, **kwargs):
            calls.append(args)
            if len(calls) == on_call:
                raise error("injected")
            return real(*args, **kwargs)

        monkeypatch.setattr(balance, "solve_weights", solve)

    def test_a_solver_failure_is_one_nan_weighting_cell(self, monkeypatch):
        from sitetransport.errors import SolverFailedError

        cfg = small_config(reps=2)
        clean = run_simulation(cfg)
        self._failing_solve(monkeypatch, SolverFailedError, on_call=5)
        res = run_simulation(cfg)
        failed = {key: int(np.isnan(err).sum()) for key, err in res.cell_errors.items()}
        assert sum(row.n_failed for row in clean.rows) == 0
        assert sum(failed.values()) == 1
        (key,) = [key for key, count in failed.items() if count]
        assert key[0] == "weighting" and res.row(*key).n_failed == 1

    def test_other_weight_solve_errors_propagate(self, monkeypatch):
        from sitetransport.errors import NonConvexError

        self._failing_solve(monkeypatch, NonConvexError, on_call=2)
        with pytest.raises(NonConvexError, match="injected"):
            run_simulation(small_config(reps=1))

    def test_model_based_cells_are_transport_estimates(self):
        # the simulation scores IPW, outcome model and doubly robust through
        # transport's per-site path with the bootstrap off
        from sitetransport import TransportConfig, transport_all

        names = ("ipw", "outcome_model", "doubly_robust")
        cfg = small_config(estimators=names, reps=1)
        res = run_simulation(cfg)
        rep = generate_rep(cfg, 0, build_populations(cfg))
        report = transport_all(rep.sites, rep.target, TransportConfig(estimators=names, n_boot=0))
        for name in names:
            expected = [r.estimates[name].estimate - rep.truth[r.site_id] for r in report.results]
            assert res.cell_errors[(name, None)][0].tobytes() == np.array(expected).tobytes()

    def test_weighting_cells_are_weighting_estimates(self):
        # the table reads only the point estimate, which its cells take
        # without the standard error and ESS of weighting_estimate
        from sitetransport import BalanceProblem, TransportConfig, weighting_estimate
        from sitetransport.balance import solve_along_grid
        from sitetransport.multisite import run_setup

        cfg = small_config(reps=1)
        res = run_simulation(cfg)
        rep = generate_rep(cfg, 0, build_populations(cfg))
        _, sides = run_setup(TransportConfig(estimators=cfg.estimators), rep.sites, rep.target)
        grid = sorted(cfg.lambda_grid, reverse=True)
        expected = {lam: [] for lam in grid}
        for site in rep.sites:
            prob = BalanceProblem(site=site, target=rep.target, lam=grid[0], **sides)
            for lam, ws in solve_along_grid(prob, grid, cfg.solver):
                expected[lam].append(weighting_estimate(site, ws.gamma).estimate - rep.truth[site.site_id])
        for lam in grid:
            assert res.cell_errors[("weighting", lam)][0].tobytes() == np.array(expected[lam]).tobytes()
        # a weighting-only run, which has no transport estimator left, scores the same cells
        alone = run_simulation(small_config(reps=1, estimators=("weighting",)))
        for lam in grid:
            assert alone.cell_errors[("weighting", lam)][0].tobytes() == np.array(expected[lam]).tobytes()

    def test_cell_errors_filled_without_an_argument(self):
        cfg = small_config(reps=2)
        res = run_simulation(cfg)
        assert set(res.cell_errors) == {(row.estimator, row.lam) for row in res.rows}
        for err in res.cell_errors.values():
            assert err.shape == (cfg.reps, cfg.n_sites)
