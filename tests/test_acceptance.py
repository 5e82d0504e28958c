"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete. The simulation-shape criterion runs the full default benchmark
configuration and dominates the runtime.
"""

import time

import numpy as np
import pytest
import scipy.sparse as sp

from sitetransport import (
    BalanceProblem,
    FeatureMap,
    KernelSpec,
    PotentialOutcomeOracle,
    QpSettings,
    QuadraticProgram,
    SiteEffectSet,
    SimConfig,
    TargetSpec,
    chi_square_quantile,
    decompose_error,
    density_ratio_fit,
    display_estimate,
    estimate_theta,
    fit_feature_map,
    identity_map,
    ipw_estimate,
    lambda_sweep,
    naive_estimate,
    pseudo_r2,
    q_statistic,
    run_simulation,
    solve_qp,
    solve_weights,
    weighting_estimate,
)
from sitetransport.qp import SOLVED

from conftest import build_site
from oracles import active_set_enumeration, projected_gradient_box

def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def random_balanced_site(rng, n, d, site_id="s"):
    X = rng.normal(rng.normal(0, 0.4, d), 1.0, size=(n, d))
    z = np.zeros(n)
    n1 = int(rng.integers(max(2, n // 4), n - max(2, n // 4)))
    z[rng.permutation(n)[:n1]] = 1
    y = X @ rng.normal(0, 0.5, d) + z * (0.3 + 0.2 * X[:, 0]) + rng.normal(0, 0.5, n)
    return build_site(X, z, y, site_id=site_id)


def test_criterion_1_decomposition_identity():
    start = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(10, 201))
        d = int(rng.integers(1, 11))
        b0 = rng.normal(size=d)
        bt = rng.normal(size=d)
        oracle = PotentialOutcomeOracle(
            m0=lambda x, b=b0: float(x @ b + 0.5 * np.sin(x[0])),
            tau=lambda x, b=bt: float(x @ b + 0.2 * np.cos(x[-1])),
        )
        X = rng.normal(size=(n, d))
        z = np.zeros(n)
        n1 = int(rng.integers(1, n))
        z[rng.permutation(n)[:n1]] = 1
        if z.sum() in (0, n):
            continue
        y = oracle.m0_vec(X) + z * oracle.tau_vec(X) + rng.normal(0, 0.6, n)
        site = build_site(X, z, y)
        target = TargetSpec.from_sample(rng.normal(0.2, 1.0, size=(int(rng.integers(5, 80)), d)))
        gamma = rng.uniform(0.0, 3.0, n)
        dec = decompose_error(site, gamma, target, oracle)
        truth = float(np.mean(oracle.tau_vec(target.sample)))
        direct = display_estimate(site, gamma) - truth
        rel = abs(dec.total - direct) / max(1.0, abs(direct))
        worst = max(worst, rel)
    elapsed = time.time() - start
    report(
        1,
        worst <= 1e-10 and elapsed < 10.0,
        f"decomposition identity worst rel err {worst:.2e} over 100 instances in {elapsed:.1f}s",
    )


def test_criterion_2_qp_matches_oracles():
    start = time.time()
    rng = np.random.default_rng(202)
    settings = QpSettings(eps_abs=1e-6, eps_rel=0.0)
    worst_gap = 0.0
    worst_res = 0.0
    # 60 box-constrained instances checked against projected gradient
    for _ in range(60):
        n = int(rng.integers(2, 11))
        M = rng.normal(size=(n + 2, n))
        P = M.T @ M + 0.2 * np.eye(n)
        q = rng.normal(size=n)
        lo = -rng.uniform(0.3, 2.0, n)
        hi = rng.uniform(0.3, 2.0, n)
        prob = QuadraticProgram(P=sp.csr_matrix(P), q=q, lb=lo, ub=hi)
        sol = solve_qp(prob, settings)
        assert sol.status == SOLVED
        ref = projected_gradient_box(P, q, lo, hi)
        ref_obj = 0.5 * ref @ P @ ref + q @ ref
        worst_gap = max(worst_gap, sol.objective - ref_obj)
        worst_res = max(worst_res, sol.primal_residual, sol.dual_residual)
    # 40 general instances checked against active-set enumeration
    for _ in range(40):
        n = int(rng.integers(2, 21))
        m = int(rng.integers(1, 7))
        M = rng.normal(size=(n + 2, n))
        P = M.T @ M + 0.5 * np.eye(n)
        q = rng.normal(size=n)
        A = rng.normal(size=(m, n))
        mid = A @ rng.normal(size=n)
        l = mid - rng.uniform(0.2, 1.5, m)
        u = mid + rng.uniform(0.2, 1.5, m)
        prob = QuadraticProgram(P=sp.csr_matrix(P), q=q, A=sp.csr_matrix(A), l=l, u=u)
        sol = solve_qp(prob, settings)
        assert sol.status == SOLVED
        _, ref_obj = active_set_enumeration(P, q, A, l, u)
        worst_gap = max(worst_gap, abs(sol.objective - ref_obj))
        worst_res = max(worst_res, sol.primal_residual, sol.dual_residual)
    elapsed = time.time() - start
    report(
        2,
        worst_gap <= 1e-5 and worst_res <= 1e-6 and elapsed < 30.0,
        f"objective gap {worst_gap:.2e}, KKT residual {worst_res:.2e} "
        f"over 100 instances in {elapsed:.1f}s",
    )


def test_criterion_3_constraints_and_uniform_limit():
    rng = np.random.default_rng(303)
    worst_sum = 0.0
    worst_neg = 0.0
    worst_naive_gap = 0.0
    for i in range(20):
        site = random_balanced_site(rng, int(rng.integers(20, 120)), int(rng.integers(1, 6)), f"s{i}")
        target = TargetSpec.from_sample(
            rng.normal(0.4, 1.0, size=(40, site.d))
        )
        fmap = fit_feature_map(
            FeatureMap(standardize=True), np.vstack([site.covariates, target.sample])
        )
        ws = solve_weights(
            BalanceProblem(site=site, target=target, lam=0.05, cate_map=fmap, prognostic_map=fmap)
        )
        z = site.treatment
        worst_sum = max(
            worst_sum,
            abs(ws.gamma[z == 1].sum() - site.n1) / site.n1,
            abs(ws.gamma[z == 0].sum() - site.n0) / site.n0,
        )
        worst_neg = max(worst_neg, -float(ws.gamma.min()))

        heavy = solve_weights(
            BalanceProblem(site=site, target=target, lam=1e6, cate_map=fmap, prognostic_map=fmap)
        )
        west = weighting_estimate(site, heavy.gamma).estimate
        nest = naive_estimate(site).estimate
        worst_naive_gap = max(worst_naive_gap, abs(west - nest))
    report(
        3,
        worst_sum <= 1e-4 and worst_neg <= 1e-8 and worst_naive_gap <= 1e-3,
        f"sum dev {worst_sum:.2e}, min-gamma {-worst_neg:.1e}, "
        f"naive gap at lambda=1e6 {worst_naive_gap:.2e} over 20 sites",
    )


def test_criterion_4_kernel_linear_agreement():
    rng = np.random.default_rng(404)
    settings = QpSettings(eps_abs=1e-9, eps_rel=0.0)
    worst = 0.0
    for i in range(20):
        n = int(rng.integers(8, 31))
        d = int(rng.integers(1, 5))
        site = random_balanced_site(rng, n, d, f"s{i}")
        target = TargetSpec.from_sample(rng.normal(0.3, 1.0, size=(25, d)))
        fmap = identity_map(d)
        lam = float(rng.uniform(0.01, 0.5))
        linear = solve_weights(
            BalanceProblem(site=site, target=target, lam=lam, cate_map=fmap, prognostic_map=fmap),
            settings=settings,
        )
        kernel = solve_weights(
            BalanceProblem(
                site=site,
                target=target,
                lam=lam,
                cate_kernel=KernelSpec("linear"),
                prognostic_kernel=KernelSpec("linear"),
            ),
            settings=settings,
        )
        worst = max(worst, float(np.abs(linear.gamma - kernel.gamma).max()))
    report(4, worst <= 1e-4, f"max weight disagreement {worst:.2e} over 20 instances")


@pytest.mark.slow
def test_criterion_5_simulation_shape():
    """The default simulation (seed 0): weighting's bias is least at the
    smallest lambda, its RMSE least at an interior one, and its top row is
    naive's. The shape held at 7 of the 8 seeds 0-7 (120 reps each); at seed
    3 weighting's bias at lambda = 1e-4 (0.109) stays above naive's (0.082),
    so the bias argmin is lambda = 1e8 and the RMSE argmin 0.3."""
    start = time.time()
    config = SimConfig()  # J=12, reps=120, default grid and estimators
    result = run_simulation(config)
    elapsed = time.time() - start

    naive = result.row("naive")
    rows = sorted(
        (r for r in result.rows if r.estimator == "weighting"), key=lambda r: r.lam
    )
    lams = [r.lam for r in rows]
    bias_argmin = min(rows, key=lambda r: r.mean_abs_bias).lam
    rmse_argmin = min(rows, key=lambda r: r.rmse).lam
    top = rows[-1]
    rmse_at_opt = min(r.rmse for r in rows)

    ok = (
        bias_argmin == lams[0]
        and lams[0] < rmse_argmin < lams[-1]
        and abs(top.rmse - naive.rmse) <= 1e-6
        and abs(top.mean_abs_bias - naive.mean_abs_bias) <= 1e-6
        and rmse_at_opt <= naive.rmse
        and elapsed <= 15 * 60
    )
    report(
        5,
        ok,
        f"bias argmin lam={bias_argmin:g}, rmse argmin lam={rmse_argmin:g} (interior), "
        f"top-row gap rmse {abs(top.rmse - naive.rmse):.1e} / bias "
        f"{abs(top.mean_abs_bias - naive.mean_abs_bias):.1e}, "
        f"weighting-vs-naive rmse {rmse_at_opt:.4f} vs {naive.rmse:.4f}, {elapsed:.0f}s",
    )


def test_criterion_6_q_profile_numerics():
    effects = SiteEffectSet(
        estimates=np.array([0.2, 0.0, 0.4]),
        std_errors=np.sqrt([0.01, 0.01, 0.01]),
    )
    q0 = q_statistic(effects, 0.0)
    rep = estimate_theta(effects)
    quant = chi_square_quantile(1, 0.95)
    ok = (
        abs(rep.theta_hat - 0.03) <= 1e-8
        and abs(q0 - 8.0) <= 1e-10
        and abs(quant - 3.841) <= 1e-3
    )
    report(
        6,
        ok,
        f"theta {rep.theta_hat:.10f}, Q(0) {q0:.12f}, chi2(1,.95) {quant:.5f}",
    )


def test_criterion_7_pseudo_r2_anchor():
    r2 = pseudo_r2(0.060, 0.057)
    report(7, abs(r2 - 0.0975) <= 1e-6, f"pseudo-R2 {r2:.8f} (expected 0.0975)")


def test_criterion_8_coverage_calibration():
    start = time.time()
    rng = np.random.default_rng(808)
    theta_true = 0.01
    hits = 0
    draws = 500
    for _ in range(draws):
        J = 18
        se = rng.uniform(0.05, 0.15, J)
        tau = rng.normal(0.1, np.sqrt(theta_true), J)
        est = tau + rng.normal(0.0, se)
        rep = estimate_theta(SiteEffectSet(est, se))
        lo, hi = rep.ci_sd
        if lo**2 <= theta_true <= hi**2:
            hits += 1
    rate = hits / draws
    elapsed = time.time() - start
    report(
        8,
        0.91 <= rate <= 0.985 and elapsed < 120.0,
        f"95% CI covered true theta in {rate:.3f} of {draws} draws ({elapsed:.1f}s)",
    )


def test_criterion_9_ipw_sanity():
    rng = np.random.default_rng(909)
    diffs = []
    for _ in range(50):
        n, d = 120, 3
        X = rng.normal(size=(n, d))
        z = np.zeros(n)
        z[rng.permutation(n)[: n // 2]] = 1
        y = X @ np.array([0.5, -0.2, 0.3]) + z * 0.4 + rng.normal(0, 0.5, n)
        site = build_site(X, z, y)
        # target drawn independently from the identical distribution
        target = rng.normal(size=(n, d))
        ratio = density_ratio_fit(X, target, identity_map(d))
        diffs.append(ipw_estimate(site, ratio).estimate - naive_estimate(site).estimate)
    diffs = np.asarray(diffs)
    mc_se = diffs.std(ddof=1) / np.sqrt(len(diffs))
    ident_ok = abs(diffs.mean()) <= 2.0 * max(mc_se, 1e-12)

    # known two-point shift: experimental 25% ones, target 50% ones
    Xe = np.array([[1.0]] * 60 + [[0.0]] * 180)
    Xt = np.array([[1.0]] * 120 + [[0.0]] * 120)
    ratio = density_ratio_fit(Xe, Xt, identity_map(1))
    r1 = ratio(np.array([1.0]))
    r0 = ratio(np.array([0.0]))
    shift_ok = abs(r1 - 2.0) / 2.0 <= 0.05 and abs(r0 - 2.0 / 3.0) / (2.0 / 3.0) <= 0.05
    report(
        9,
        ident_ok and shift_ok,
        f"identical-sample gap {diffs.mean():+.2e} (2 MC se {2 * mc_se:.2e}); "
        f"two-point ratios {r1:.3f}/{r0:.3f} vs 2.000/0.667",
    )


@pytest.mark.slow
def test_criterion_10_performance():
    rng = np.random.default_rng(1010)
    d = 60
    sites = []
    for i in range(12):
        n = 2000
        X = rng.normal(rng.normal(0, 0.2, d), 1.0, size=(n, d))
        z = np.zeros(n)
        z[rng.permutation(n)[:1000]] = 1
        y = X @ rng.normal(0, 0.2, d) + z * 0.4 + rng.normal(0, 0.5, n)
        sites.append(build_site(X, z, y, site_id=f"s{i}"))
    target = TargetSpec.from_sample(rng.normal(0.25, 1.0, size=(3000, d)))
    fmap = fit_feature_map(
        FeatureMap(standardize=True),
        np.vstack([s.covariates for s in sites] + [target.sample]),
    )

    start = time.time()
    ws = solve_weights(
        BalanceProblem(site=sites[0], target=target, lam=0.03, cate_map=fmap, prognostic_map=fmap)
    )
    single = time.time() - start

    grid = np.logspace(-4, 2, 25)
    start = time.time()
    rows = lambda_sweep(sites, target, grid, cate_map=fmap, prognostic_map=fmap)
    sweep = time.time() - start
    failed = sum(r.n_failed for r in rows)
    report(
        10,
        single < 5.0 and sweep < 180.0 and failed == 0 and ws.solver.status == SOLVED,
        f"single n=2000 solve {single:.2f}s; 25-point sweep over 12 sites {sweep:.0f}s, "
        f"{failed} failures",
    )
