import re
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg.lapack import dpotrf, dpotrs

from sitetransport import (
    BalanceProblem,
    KernelSpec,
    QpSettings,
    QuadraticProgram,
    TargetSpec,
    build_kernel_qp,
    build_linear_qp,
    identity_map,
    solve_qp,
)
from sitetransport.blas import single_threaded_blas
from sitetransport.errors import DimensionMismatchError, NonConvexError
from sitetransport.qp import DUAL_INFEASIBLE, MAX_ITERATIONS, PRIMAL_INFEASIBLE, SOLVED, _row_gram

from conftest import build_site, random_site
from oracles import active_set_enumeration, projected_gradient_box


def simplex_program(P, q, total=2.0):
    n = len(q)
    return QuadraticProgram(P=np.asarray(P, dtype=float), q=q, A=np.ones((1, n)), l=[total], u=[total], lb=np.zeros(n))


def stacked(prob):
    """The dense rows [A; I_S] of a program, S its variables with a finite
    bound, and their bounds: the rows its multipliers y belong to."""
    S = np.flatnonzero(np.isfinite(prob.lb) | np.isfinite(prob.ub))
    rows = np.vstack([prob.A, np.eye(prob.n)[S]])
    return rows, np.concatenate([prob.l, prob.lb[S]]), np.concatenate([prob.u, prob.ub[S]])


class TestSolveQp:
    def test_symmetric_simplex(self):
        sol = solve_qp(simplex_program(np.eye(2), np.zeros(2)))
        assert sol.status == SOLVED
        np.testing.assert_allclose(sol.x, [1.0, 1.0], atol=1e-5)

    def test_kkt_hand_solution_and_grid_oracle(self):
        # stationarity 2x - q + nu = 0 on x1 + x2 = 2 gives x = (0.5, 1.5)
        prob = simplex_program(np.diag([2.0, 2.0]), np.array([-2.0, -4.0]))
        sol = solve_qp(prob)
        np.testing.assert_allclose(sol.x, [0.5, 1.5], atol=1e-5)
        # dense grid over the feasible segment x = (t, 2 - t)
        ts = np.arange(0.0, 2.0 + 1e-12, 1e-3)
        objs = ts**2 + (2.0 - ts) ** 2 - 2.0 * ts - 4.0 * (2.0 - ts)
        assert sol.objective <= objs.min() + 1e-5

    def test_unbounded_below_is_dual_infeasible(self):
        prob = QuadraticProgram(P=np.zeros((2, 2)), q=np.array([-1.0, 0.0]), lb=np.zeros(2))
        assert solve_qp(prob).status == DUAL_INFEASIBLE

    def test_contradictory_equalities_are_primal_infeasible(self):
        A = sp.csr_matrix(np.array([[1.0, 0.0], [1.0, 0.0]]))
        prob = QuadraticProgram(
            P=sp.eye(2, format="csr"),
            q=np.zeros(2),
            A=A,
            l=np.array([0.0, 1.0]),
            u=np.array([0.0, 1.0]),
        )
        assert solve_qp(prob).status == PRIMAL_INFEASIBLE

    def test_max_iterations_flag(self):
        prob = simplex_program(np.diag([2.0, 2.0]), np.array([-2.0, -4.0]))
        sol = solve_qp(prob, QpSettings(max_iter=2))
        assert sol.status == MAX_ITERATIONS

    def test_nonconvex_rejected(self):
        prob = QuadraticProgram(P=np.diag([1.0, -1.0]), q=np.zeros(2), lb=np.zeros(2), ub=np.ones(2))
        with pytest.raises(NonConvexError):
            solve_qp(prob)

    def test_asymmetric_p_rejected(self):
        P = sp.csr_matrix(np.array([[1.0, 0.5], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            QuadraticProgram(P=P, q=np.zeros(2), lb=np.zeros(2), ub=np.ones(2))

    def test_warm_start_from_solution_converges_fast(self):
        rng = np.random.default_rng(0)
        M = rng.normal(size=(6, 4))
        prob = simplex_program(M.T @ M + 0.5 * np.eye(4), rng.normal(size=4))
        first = solve_qp(prob)
        assert first.status == SOLVED
        again = solve_qp(prob, warm_start=(first.x, first.y))
        assert again.status == SOLVED
        assert again.iterations <= 5
        np.testing.assert_allclose(again.x, first.x, atol=1e-5)

    def test_final_objective_beats_feasible_warm_start(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            M = rng.normal(size=(7, 5))
            prob = simplex_program(M.T @ M + 0.3 * np.eye(5), rng.normal(size=5))
            # feasible but suboptimal start: all mass on one coordinate
            x0 = np.zeros(5)
            x0[0] = 2.0
            start_obj = prob.objective(x0)
            sol = solve_qp(prob, warm_start=(x0, np.zeros(prob.m)))
            assert sol.status == SOLVED
            assert sol.objective <= start_obj + 1e-6

    def test_scaling_invariance_of_argmin(self):
        rng = np.random.default_rng(1)
        M = rng.normal(size=(8, 5))
        P = M.T @ M + np.eye(5)
        q = rng.normal(size=5)
        base = solve_qp(simplex_program(P, q)).x
        scaled = solve_qp(simplex_program(100.0 * P, 100.0 * q)).x
        np.testing.assert_allclose(base, scaled, atol=1e-6)

    def test_feasibility_within_eps_abs(self):
        rng = np.random.default_rng(2)
        settings = QpSettings(eps_abs=1e-6, eps_rel=0.0)
        for _ in range(10):
            M = rng.normal(size=(6, 5))
            prob = simplex_program(M.T @ M + 0.2 * np.eye(5), rng.normal(size=5))
            sol = solve_qp(prob, settings)
            assert sol.status == SOLVED
            Ax = prob.A @ sol.x
            assert np.all(Ax >= prob.l - 1e-6) and np.all(sol.x >= prob.lb - 1e-6)
            assert np.all(Ax <= prob.u + 1e-6)

    def test_factored_matches_explicit(self):
        rng = np.random.default_rng(3)
        F = rng.normal(size=(3, 8))
        diag = rng.uniform(0.1, 1.0, size=8)
        q = rng.normal(size=8)
        rows = dict(A=np.ones((1, 8)), l=[4.0], u=[4.0], lb=np.zeros(8))
        explicit = QuadraticProgram(P=F.T @ F + np.diag(diag), q=q, **rows)
        factored = QuadraticProgram(q=q, p_factor=F, p_diag=diag, **rows)
        xe = solve_qp(explicit).x
        xf = solve_qp(factored).x
        np.testing.assert_allclose(xe, xf, atol=1e-5)

    def test_random_box_instances_match_projected_gradient(self):
        rng = np.random.default_rng(4)
        for _ in range(15):
            n = int(rng.integers(2, 10))
            M = rng.normal(size=(n + 2, n))
            P = M.T @ M + 0.1 * np.eye(n)
            q = rng.normal(size=n)
            lo = -rng.uniform(0.5, 2.0, n)
            hi = rng.uniform(0.5, 2.0, n)
            prob = QuadraticProgram(P=P, q=q, lb=lo, ub=hi)
            sol = solve_qp(prob)
            assert sol.status == SOLVED
            ref = projected_gradient_box(P, q, lo, hi)
            ref_obj = 0.5 * ref @ P @ ref + q @ ref
            assert sol.objective <= ref_obj + 1e-5

    def test_random_general_instances_match_active_set(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            m = int(rng.integers(1, 5))
            M = rng.normal(size=(n + 2, n))
            P = M.T @ M + 0.5 * np.eye(n)
            q = rng.normal(size=n)
            A = rng.normal(size=(m, n))
            mid = A @ rng.normal(size=n)
            l = mid - rng.uniform(0.2, 1.5, m)
            u = mid + rng.uniform(0.2, 1.5, m)
            prob = QuadraticProgram(P=sp.csr_matrix(P), q=q, A=sp.csr_matrix(A), l=l, u=u)
            sol = solve_qp(prob, QpSettings(eps_abs=1e-8, eps_rel=0.0))
            assert sol.status == SOLVED
            _, ref_obj = active_set_enumeration(P, q, A, l, u)
            assert abs(sol.objective - ref_obj) <= 1e-5


def lowrank_program(rng, n=40, k=6):
    return dict(
        p_factor=rng.normal(size=(k, n)),
        p_diag=np.full(n, 0.1),
        q=rng.normal(size=n),
        A=np.ones((1, n)),
        l=[n],
        u=[n],
        lb=np.zeros(n),
    )


class TestSettings:
    @pytest.mark.parametrize(
        "setting, message",
        [
            (dict(eps_abs=np.nan), "eps_abs must be a finite nonnegative number, got nan"),
            (dict(eps_abs=np.inf), "eps_abs must be a finite nonnegative number, got inf"),
            (dict(eps_rel=-1e-6), "eps_rel must be a finite nonnegative number, got -1e-06"),
            (dict(max_iter=0), "max_iter must be at least 1, got 0"),
            (dict(max_iter=-5), "max_iter must be at least 1, got -5"),
            (dict(max_iter=2.5), "max_iter must be a whole number, got 2.5"),
        ],
    )
    def test_a_setting_it_cannot_honour_is_rejected(self, setting, message):
        # NaN tolerances or no iterations used to fail every solve, not the settings
        with pytest.raises(ValueError, match=re.escape(message)):
            QpSettings(**setting)

    def test_values_are_cast(self):
        # YAML reads 1e-10 as a string; an integral float is a whole number
        settings = QpSettings(eps_abs="1e-10", eps_rel=0, max_iter=30.0)
        assert settings == QpSettings(eps_abs=1e-10, eps_rel=0.0, max_iter=30)
        assert type(settings.max_iter) is int and type(settings.eps_rel) is float


class TestFiniteData:
    @pytest.mark.parametrize("field", ["q", "p_factor", "p_diag"])
    def test_nan_data_raises_value_error(self, rng, field):
        data = lowrank_program(rng)
        data[field] = data[field].copy()
        data[field].flat[3] = np.nan
        with pytest.raises(ValueError):
            solve_qp(QuadraticProgram(**data))

    def test_nan_in_explicit_p_raises_value_error(self):
        P = np.eye(3)
        P[1, 1] = np.nan
        with pytest.raises(ValueError):
            solve_qp(simplex_program(P, np.zeros(3)))

    def test_nan_warm_start_raises_value_error(self, rng):
        prob = QuadraticProgram(**lowrank_program(rng))
        x0 = np.ones(prob.n)
        x0[0] = np.nan
        with pytest.raises(ValueError):
            solve_qp(prob, warm_start=(x0, np.zeros(prob.m)))

    def test_lapack_solve_gives_the_cho_solve_iterates(self, rng, monkeypatch):
        from scipy.linalg import cho_solve

        from sitetransport import qp

        data = lowrank_program(rng)
        data["p_diag"][0] = 0.0  # keeps the program on ADMM's low-rank KKT path
        prob = QuadraticProgram(**data)
        fast = solve_qp(prob)
        assert np.isnan(fast.duality_gap)  # ADMM reports no gap
        monkeypatch.setattr(qp, "dpotrs", lambda c, b, lower: (cho_solve((c, lower), b), 0))
        reference = solve_qp(prob)
        assert fast.iterations == reference.iterations
        assert fast.x.tobytes() == reference.x.tobytes()
        assert fast.y.tobytes() == reference.y.tobytes()


def full_kkt_step(prob, sigma, rho, x, z, y):
    """One ADMM step's (x~, z~) from a dense solve of the full KKT system
    [[P + sigma I, C'], [C, -diag(1/rho)]] [x~; nu] = [sigma x - q; z - y/rho]
    over the stacked rows C = [A; I_S], with z~ = z + (nu - y)/rho."""
    n = prob.n
    A = stacked(prob)[0]
    kkt = np.block([[prob.p_dense() + sigma * np.eye(n), A.T], [A, -np.diag(1.0 / rho)]])
    sol = np.linalg.solve(kkt, np.concatenate([sigma * x - prob.q, z - y / rho]))
    return sol[:n], z + (sol[n:] - y) / rho


def general_rows_program(rng, n=8):
    M = rng.normal(size=(n + 2, n))
    return QuadraticProgram(
        P=M.T @ M + 0.5 * np.eye(n), q=rng.normal(size=n), A=rng.normal(size=(3, n)),
        l=np.full(3, -1.0), u=np.full(3, 1.0), lb=np.full(n, -1.0), ub=np.full(n, 1.0),
    )


def kernel_balancing_program(rng):
    site = random_site(rng, n=20, d=2)
    target = TargetSpec.from_sample(rng.normal(0.3, 1.0, size=(15, 2)))
    kernels = dict(cate_kernel=KernelSpec("linear"), prognostic_kernel=KernelSpec("rbf"))
    return build_kernel_qp(BalanceProblem(site=site, target=target, lam=0.1, **kernels))


class TestReducedKkt:
    @pytest.mark.parametrize("make", [general_rows_program, kernel_balancing_program])
    def test_direct_solve_matches_the_full_kkt_system(self, rng, make):
        from sitetransport import qp

        prob = make(rng)
        sigma = 1e-6
        rho = rng.uniform(0.05, 5.0, prob.m)
        x, z, y = rng.normal(size=prob.n), rng.normal(size=prob.m), rng.normal(size=prob.m)
        kkt = qp._DirectKkt(prob, sigma)
        kkt.factor(rho)
        x_t, z_t = kkt.solve(x, z, y, prob.q)
        ref_x, ref_z = full_kkt_step(prob, sigma, rho, x, z, y)
        np.testing.assert_allclose(x_t, ref_x, rtol=0.0, atol=1e-10 * np.abs(ref_x).max())
        np.testing.assert_allclose(z_t, ref_z, rtol=0.0, atol=1e-10 * np.abs(ref_z).max())

    def test_factored_program_without_variable_bounds(self, rng):
        # two dense rows and no bounded variable: y has no bound entries
        F = rng.normal(size=(2, 6))
        A = rng.normal(size=(2, 6))
        q = rng.normal(size=6)
        l, u = np.full(2, -1.0), np.full(2, 1.0)
        prob = QuadraticProgram(q=q, A=A, l=l, u=u, p_factor=F, p_diag=np.full(6, 0.5))
        sol = solve_qp(prob, QpSettings(eps_abs=1e-8, eps_rel=0.0))
        assert sol.status == SOLVED
        _, ref_obj = active_set_enumeration(prob.p_dense(), q, A, l, u)
        assert abs(sol.objective - ref_obj) <= 1e-6

    def test_indefinite_kkt_matrix_raises_nonconvex(self):
        # the eigenvalue -5e-5 passes the convexity tolerance 1e-8 * trace,
        # but M = P + sigma I + A' diag(rho) A keeps it: x2 has no row of A
        prob = QuadraticProgram(
            P=np.diag([1e4, -5e-5]), q=np.array([0.0, 1e-3]),
            A=np.array([[1.0, 0.0]]), l=np.zeros(1), u=np.ones(1),
        )
        with pytest.raises(NonConvexError, match="not positive definite"):
            solve_qp(prob)


class TestVariableBounds:
    def test_bounds_and_singleton_rows_of_a_state_one_program(self, rng):
        # a bound stated as a row of A is an ordinary general row; y holds the
        # rows of A, then one entry per variable with a finite bound
        n = 6
        M = rng.normal(size=(n + 2, n))
        P, q = M.T @ M + 0.1 * np.eye(n), rng.normal(size=n)
        lo, hi = -rng.uniform(0.1, 1.0, n), rng.uniform(0.1, 1.0, n)
        hi[1], lo[2] = np.inf, -np.inf  # one-sided
        lo[4], hi[4] = -np.inf, np.inf  # unbounded: no entry in y
        general = dict(A=np.ones((1, n)), l=[-0.5], u=[0.5])
        bounds = QuadraticProgram(P=P, q=q, lb=lo, ub=hi, **general)
        rows = QuadraticProgram(
            P=P, q=q, A=np.vstack([general["A"], np.eye(n)]), l=np.concatenate([[-0.5], lo]),
            u=np.concatenate([[0.5], hi]),
        )
        assert (bounds.m, rows.m) == (n, n + 1)
        settings = QpSettings(eps_abs=1e-9, eps_rel=0.0)
        a, b = solve_qp(bounds, settings), solve_qp(rows, settings)
        assert a.status == b.status == SOLVED
        np.testing.assert_allclose(a.x, b.x, rtol=0.0, atol=1e-7)
        ref_x, _ = active_set_enumeration(P, q, *stacked(rows))
        np.testing.assert_allclose(a.x, ref_x, rtol=0.0, atol=1e-6)
        # the unbounded variable's row of A has a zero multiplier; the rest line up
        assert abs(b.y[1 + 4]) <= 1e-7
        np.testing.assert_allclose(a.y, np.delete(b.y, 1 + 4), rtol=0.0, atol=1e-6 * np.abs(b.y).max())
        C = stacked(bounds)[0]
        assert C.shape == (n, n)
        assert np.abs(P @ a.x + q + C.T @ a.y).max() <= 1e-8


class TestConvexityCheck:
    @pytest.mark.parametrize("n", [5, 700])
    def test_cholesky_certificate_at_the_tolerance(self, rng, n):
        from sitetransport import qp

        # P = Q diag(eigs) Q' with half its eigenvalues zero, and one at
        # -c * tol in the second and third programs
        Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
        positive = rng.uniform(1.0, 2.0, n // 2)
        # tol = 1e-8 * trace P and trace P = sum(positive) - c * tol
        for c, convex in [(0.0, True), (0.5, True), (2.0, False)]:
            tol = qp._NONCONVEX_TOL * positive.sum() / (1.0 + c * qp._NONCONVEX_TOL)
            eigs = np.zeros(n)
            eigs[: positive.size] = positive
            eigs[-1] = -c * tol
            P = (Q * eigs) @ Q.T
            prob = simplex_program((P + P.T) / 2.0, np.zeros(n), total=float(n))
            assert qp._NONCONVEX_TOL * prob.p_trace() == pytest.approx(tol, rel=1e-9)
            if convex:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    qp._check_convexity(prob)
            else:
                with pytest.raises(NonConvexError, match="eigenvalue below"):
                    qp._check_convexity(prob)


class TestDiagonalTerm:
    """P = base + diag(p_diag) for an explicit base as for a factored one."""

    def test_explicit_base_with_p_diag_solves_like_their_sum(self, rng):
        # the split program runs the active-set path and the summed one ADMM;
        # both are checked against the exact solution of the sum
        n = 8
        M = rng.normal(size=(n - 3, n))
        B, d, q = M.T @ M, rng.uniform(0.1, 1.0, n), rng.normal(size=n)
        summed = simplex_program(B + np.diag(d), q)
        split = QuadraticProgram(P=B, p_diag=d, q=q, A=summed.A, l=summed.l, u=summed.u, lb=summed.lb)
        settings = QpSettings(eps_abs=1e-9, eps_rel=1e-9)
        a, b = solve_qp(split, settings), solve_qp(summed, settings)
        assert a.status == b.status == SOLVED
        ref_x, ref_obj = active_set_enumeration(B + np.diag(d), q, *stacked(summed))
        np.testing.assert_allclose(a.x, ref_x, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(b.x, ref_x, rtol=0.0, atol=1e-7)
        assert a.objective == pytest.approx(ref_obj, rel=1e-12)

    def test_with_p_diag_shares_all_but_the_diagonal(self, rng):
        prob = QuadraticProgram(**lowrank_program(rng))
        copy = prob.with_p_diag(np.full(prob.n, 2.0))
        assert copy._structure is prob._structure
        assert copy.p_factor is prob.p_factor and copy.q is prob.q and copy.A is prob.A
        np.testing.assert_array_equal(prob.p_diag, 0.1)
        np.testing.assert_array_equal(copy.p_diag, 2.0)
        with pytest.raises(DimensionMismatchError):
            prob.with_p_diag(np.ones(prob.n + 1))
        bad = np.ones(prob.n)
        bad[2] = np.inf
        with pytest.raises(ValueError, match="finite"):
            prob.with_p_diag(bad)

    def test_p_with_p_factor_rejected(self, rng):
        data = lowrank_program(rng)
        with pytest.raises(ValueError, match="not both"):
            QuadraticProgram(P=np.eye(data["q"].size), **data)

    def test_base_indefinite_beyond_its_tolerance_raises(self):
        from sitetransport import qp

        # tol_b = 1e-8 * trace base, about 2e-8; a positive p_diag does not
        # excuse an indefinite base
        for c, convex in [(0.5, True), (2.0, False)]:
            base = np.diag([1.0, 1.0, -c * 2e-8])
            prob = simplex_program(base, np.zeros(3)).with_p_diag(np.ones(3))
            if convex:
                qp._check_convexity(prob)
            else:
                with pytest.raises(NonConvexError, match="eigenvalue below"):
                    qp._check_convexity(prob)

    def test_significantly_negative_p_diag_raises(self, rng):
        for prob in (simplex_program(np.eye(3), np.zeros(3)), QuadraticProgram(**lowrank_program(rng))):
            d = np.ones(prob.n)
            d[1] = -0.5
            with pytest.raises(NonConvexError, match="p_diag"):
                solve_qp(prob.with_p_diag(d))


DUAL_LAMBDAS = [1e-8, 1e-4, 1.0, 1e6, 1e8]


def balancing_program(rng, lam, n=30, k=4, n1=None):
    """A linear balancing program: factored P with ridge 2 lam reg, the two
    arm-sum rows and x >= 0."""
    z = np.zeros(n)
    z[rng.permutation(n)[: n1 or n // 2]] = 1.0
    arms = np.array([z.sum(), n - z.sum()])
    return dict(
        p_factor=rng.normal(size=(k, n)) / n,
        p_diag=2.0 * lam * rng.uniform(1.5, 3.0, n),
        q=-z * rng.normal(size=n) / n,
        A=np.vstack([z, 1.0 - z]),
        l=arms,
        u=arms,
        lb=np.zeros(n),
    )


def explicit(data):
    """The same program with P given explicitly, which runs ADMM."""
    F, D = data["p_factor"], data["p_diag"]
    rest = {key: data[key] for key in ("q", "A", "l", "u", "lb")}
    return QuadraticProgram(P=F.T @ F + np.diag(D), **rest)


def one_dim_program(lam):
    # exactly balanceable: weights (1, 1) on the treated x = 0, 2 hit target mean 1
    site = build_site(np.array([[0.0], [2.0], [1.0], [3.0]]), [1, 1, 0, 0], [1.0, 2.0, 0.5, 1.5])
    fmap = identity_map(1)
    prob = BalanceProblem(site=site, target=TargetSpec.from_moments([1.0]), lam=lam, cate_map=fmap, prognostic_map=fmap)
    qp = build_linear_qp(prob)
    return dict(p_factor=qp.p_factor, p_diag=qp.p_diag, q=qp.q, A=qp.A, l=qp.l, u=qp.u, lb=qp.lb)


def dual_cases():
    rng = np.random.default_rng(44)
    for lam in DUAL_LAMBDAS:
        yield pytest.param(balancing_program(rng, lam), id=f"random-{lam:g}")
        yield pytest.param(balancing_program(rng, lam, n=12, n1=1), id=f"single-treated-{lam:g}")
        yield pytest.param(one_dim_program(lam), id=f"one-dim-{lam:g}")


class TestSolutionMethod:
    @pytest.mark.parametrize(
        "make, method",
        [
            (lambda rng: QuadraticProgram(**balancing_program(rng, 0.1)), "newton"),
            (lambda rng: QuadraticProgram(**balancing_program(rng, 0.0)), "admm"),
            (kernel_balancing_program, "active_set"),
        ],
        ids=["linear", "linear-lambda-0", "kernel"],
    )
    def test_solution_names_the_path_that_ran(self, rng, make, method):
        sol = solve_qp(make(rng))
        assert sol.status == SOLVED
        assert sol.method == method


class TestDualPath:
    @pytest.mark.parametrize("data", list(dual_cases()))
    def test_certified_optimum(self, data):
        prob = QuadraticProgram(**data)
        sol = solve_qp(prob)
        assert sol.status == SOLVED
        x = sol.x
        assert x.min() >= 0.0
        arms = prob.A[:2] @ x
        np.testing.assert_allclose(arms, prob.l[:2], rtol=1e-9, atol=0.0)
        reference = solve_qp(explicit(data), QpSettings(eps_abs=1e-10, eps_rel=1e-10))
        assert reference.status == SOLVED
        scale = max(abs(reference.objective), float(x @ prob.p_matvec(x)), 1.0)
        assert sol.objective <= reference.objective + 1e-9 * scale
        # objective(x) + h(nu, mu) = |F x - nu|^2 / 2 + mu'(E x - b): the
        # second term is bounded by the primal residual, the rest is >= 0
        mu = -sol.y[:2]
        assert -np.abs(mu).sum() * sol.primal_residual - 1e-15 * scale <= sol.duality_gap
        assert sol.duality_gap <= 1e-9 * scale

    @pytest.mark.parametrize("steps", [1, 2, 3])
    def test_gap_bounds_the_distance_to_the_optimum(self, steps):
        # weak duality: -h(nu, mu) <= optimum for every (nu, mu), so
        # objective(x) - optimum <= gap also before convergence; x is not
        # yet feasible there, and the gap is negative at steps 1 and 2
        prob = QuadraticProgram(**balancing_program(np.random.default_rng(50), 1e-4))
        optimum = solve_qp(prob, QpSettings(eps_abs=1e-12, eps_rel=0.0)).objective
        early = solve_qp(prob, QpSettings(max_iter=steps))
        assert early.status == MAX_ITERATIONS and early.iterations == steps
        scale = max(abs(optimum), 1.0)
        assert early.objective - optimum <= early.duality_gap + 1e-12 * scale
        mu = -early.y[:2]
        assert -np.abs(mu).sum() * early.primal_residual <= early.duality_gap

    def test_tight_tolerance_at_tiny_lambda(self):
        # x = max(0, -s)/D magnifies any rounding in s by 1/D = 1e8 here
        prob = QuadraticProgram(**one_dim_program(1e-8))
        sol = solve_qp(prob, QpSettings(eps_abs=1e-10, eps_rel=0.0, max_iter=50))
        assert sol.status == SOLVED
        assert np.abs(prob.A[:2] @ sol.x - prob.l[:2]).max() <= 1e-10

    def test_admm_solution_warm_starts_newton(self):
        data = balancing_program(np.random.default_rng(45), 1e-2)
        admm = solve_qp(explicit(data), QpSettings(eps_abs=1e-10, eps_rel=0.0))
        cold = solve_qp(QuadraticProgram(**data))
        warm = solve_qp(QuadraticProgram(**data), warm_start=(admm.x, admm.y))
        assert warm.status == SOLVED
        assert warm.iterations <= 1 <= cold.iterations
        np.testing.assert_allclose(warm.x, cold.x, atol=1e-7)

    def test_newton_solution_warm_starts_admm(self):
        data = balancing_program(np.random.default_rng(46), 1e-2)
        newton = solve_qp(QuadraticProgram(**data))
        again = solve_qp(explicit(data), warm_start=(newton.x, newton.y))
        # ADMM restarted at its own fixed point stops at the first check
        assert again.status == SOLVED and again.iterations == 1
        admm = solve_qp(explicit(data), QpSettings(eps_abs=1e-10, eps_rel=1e-10))
        np.testing.assert_allclose(newton.y, admm.y, atol=1e-6 * np.abs(admm.y).max())
        # lambda = 0 runs ADMM; starting from the lambda > 0 solution of
        # either path gives the same iterates
        flat = QuadraticProgram(**dict(data, p_diag=np.zeros_like(data["p_diag"])))
        from_newton = solve_qp(flat, warm_start=(newton.x, newton.y))
        from_admm = solve_qp(flat, warm_start=(admm.x, admm.y))
        assert np.isnan(from_newton.duality_gap)
        assert from_newton.status == SOLVED
        assert from_newton.iterations == from_admm.iterations
        np.testing.assert_allclose(from_newton.x, from_admm.x, atol=1e-6)

    def test_start_with_an_empty_arm_recovers(self):
        # from x = 0 no control unit is active, so the Hessian is singular
        # in that arm's multiplier until the first step activates one
        data = balancing_program(np.random.default_rng(49), 1e-2)
        prob = QuadraticProgram(**data)
        zero = (np.zeros(prob.n), np.zeros(prob.m))
        sol = solve_qp(prob, warm_start=zero)
        assert sol.status == SOLVED
        np.testing.assert_allclose(sol.x, solve_qp(prob).x, atol=1e-7)
        # a later copy, which has the Gram, regularizes the same direction
        doubled = dict(data, p_diag=2.0 * data["p_diag"])
        copied = solve_qp(prob.with_p_diag(doubled["p_diag"]), warm_start=zero)
        assert prob._structure._gram is not None and copied.status == SOLVED
        np.testing.assert_allclose(copied.x, solve_qp(QuadraticProgram(**doubled)).x, atol=1e-7)

    def test_running_active_gram_matches_the_direct_sum(self, rng):
        prob = QuadraticProgram(**balancing_program(rng, 1.0, n=60))
        structure = prob._structure
        assert structure.dual_gram(prob.p_diag) is None  # becomes the program's ridge D0
        assert structure.dual_gram(1e-3 * prob.p_diag) is not None  # builds G0, where T_A starts
        Mt, inv_d0 = structure.dual, 1.0 / prob.p_diag
        active, direct_forms = np.ones(prob.n, dtype=bool), 0
        for _ in range(40):
            active = active.copy()
            flip = rng.permutation(prob.n)[: rng.integers(1, 8)]  # a few rows enter or leave A
            active[flip] = ~active[flip]
            running = structure.active_gram(active)
            direct_forms += structure._running[2] == 0  # rows changed since the last direct form
            direct = _row_gram(Mt, active, inv_d0)
            np.testing.assert_allclose(running, direct, rtol=0, atol=1e-12 * np.abs(direct).max())
        # the rows changed since the last direct form came to outnumber the active ones
        assert 1 <= direct_forms < 40

    def test_a_later_copy_gathers_only_the_rows_that_changed(self, monkeypatch):
        from sitetransport import qp

        data = balancing_program(np.random.default_rng(59), 1.0, n=200, k=5)
        prob = QuadraticProgram(**data)
        first = solve_qp(prob)  # its ridge becomes D0; it forms each Hessian directly
        real_rows, real_gram = qp._row_gram, qp._Structure.active_gram
        calls = []  # (changed since the last step, since the last direct form, |A|, rows gathered)

        def counted_rows(Mt, rows, w):
            if calls:
                calls[-1][-1] += int(np.count_nonzero(rows))
            return real_rows(Mt, rows, w)

        def logged(structure, active, direct=False):
            assert not direct  # no factorization fails here
            last, _, drift = structure._running
            changed = int(np.count_nonzero(active != last))
            calls.append([changed, drift + changed, int(active.sum()), 0])
            return real_gram(structure, active, direct)

        monkeypatch.setattr(qp, "_row_gram", counted_rows)
        monkeypatch.setattr(qp._Structure, "active_gram", logged)
        warm = (first.x, first.y)
        for lam in np.logspace(-0.5, -4, 8):
            sol = solve_qp(prob.with_p_diag(lam * data["p_diag"]), warm_start=warm)
            assert sol.status == SOLVED
            warm = (sol.x, sol.y)
        assert len(calls) >= 8
        for changed, since_direct, n_active, gathered in calls:
            # an update reads the rows that changed; a direct form the active
            # rows, which the rows changed since the last one outnumber
            assert gathered == changed or gathered == n_active < since_direct
        updates = [(changed, n_active) for changed, _, n_active, gathered in calls if gathered == changed]
        assert any(0 < changed < min(n_active, prob.n - n_active) for changed, n_active in updates)

    def test_dual_gram_needs_a_multiple_to_a_few_ulps(self, rng):
        # the ridges 2 lam reg of a site's lambda copies
        prob = QuadraticProgram(**balancing_program(rng, 1.0))
        structure, reg = prob._structure, rng.uniform(1.5, 3.0, prob.n)
        assert structure.dual_gram(2.0 * 0.7 * reg) is None
        for lam in (1e-4, 0.3, 0.7, 1e2):
            assert structure.dual_gram(2.0 * lam * reg)[2] == pytest.approx(lam / 0.7, rel=1e-15)
        off = 2.0 * 0.35 * reg
        off[7] *= 1.0 + 1e-12
        assert structure.dual_gram(off) is None

    def test_dual_gram_keeps_its_own_copy_of_the_first_ridge(self, rng):
        # a caller that scales one buffer in place between solves
        prob = QuadraticProgram(**balancing_program(rng, 1.0))
        structure, ridge = prob._structure, prob.p_diag.copy()
        assert structure.dual_gram(ridge) is None
        ridge *= 2.0
        gram, r0, c = structure.dual_gram(ridge)
        assert c == 2.0
        ridge *= 2.0
        assert structure.dual_gram(ridge) == (gram, r0, 4.0)

    def test_copy_with_a_ridge_off_the_multiple_solves_like_a_fresh_program(self):
        data = balancing_program(np.random.default_rng(52), 1e-3, n=60)
        prob = QuadraticProgram(**data)
        solve_qp(prob)  # its ridge becomes the one the Gram is kept for
        other = dict(data, p_diag=data["p_diag"] * np.random.default_rng(53).uniform(0.5, 2.0, prob.n))
        copied = solve_qp(prob.with_p_diag(other["p_diag"]))
        fresh = solve_qp(QuadraticProgram(**other))
        assert copied.status == fresh.status == SOLVED
        assert copied.iterations == fresh.iterations > 1
        np.testing.assert_allclose(copied.x, fresh.x, rtol=0, atol=1e-12)

    def test_warm_started_sweep_matches_cold_solves(self):
        data = balancing_program(np.random.default_rng(54), 1.0, n=60, k=5)
        prob = QuadraticProgram(**data)
        warm = None
        for lam in [10.0, 1.0, 0.1, 1e-2, 1e-3, 1e-4]:
            ridge = lam * data["p_diag"]
            swept = solve_qp(prob.with_p_diag(ridge), warm_start=warm)
            cold = solve_qp(QuadraticProgram(**dict(data, p_diag=ridge)))
            assert swept.status == cold.status == SOLVED
            tol = QpSettings().eps_abs * max(1.0, np.abs(cold.x).max())
            np.testing.assert_allclose(swept.x, cold.x, rtol=0, atol=tol)
            warm = (swept.x, swept.y)
        assert prob._structure._gram is not None

    def test_all_positive_optimum_of_a_warm_copy_takes_no_step(self):
        # the first solve keeps the ridge D0; every later copy has the Gram
        # and starts at the all-positive piece's minimizer when it is on it
        data = balancing_program(np.random.default_rng(57), 1.0, n=60, k=5)
        prob = QuadraticProgram(**data)
        warm, zero_steps, with_zeros = None, 0, 0
        for i, lam in enumerate(np.logspace(2, -4, 13)):
            ridge = lam * data["p_diag"]
            swept = solve_qp(prob.with_p_diag(ridge), warm_start=warm)
            exact = solve_qp(QuadraticProgram(**dict(data, p_diag=ridge)), QpSettings(eps_abs=1e-13, eps_rel=0.0))
            assert swept.status == exact.status == SOLVED
            if i and np.all(exact.x > 0.0):
                assert swept.iterations == 0
                np.testing.assert_allclose(swept.x, exact.x, rtol=0, atol=1e-12 * np.abs(exact.x).max())
                zero_steps += 1
            elif i:
                assert swept.iterations >= 1
                with_zeros += 1
            warm = (swept.x, swept.y)
        assert zero_steps >= 4 and with_zeros >= 4

    @staticmethod
    def zero_weight_copy():
        """A program solved once, and a warm start and ridge for a copy whose
        optimum has a zero weight."""
        data = balancing_program(np.random.default_rng(58), 1e-2, n=60, k=5)
        prob = QuadraticProgram(**data)
        first = solve_qp(prob)
        return prob, (first.x, first.y), 0.5 * data["p_diag"]

    def test_zero_weight_optimum_starts_from_the_warm_start(self, monkeypatch):
        from sitetransport import qp

        prob, warm, ridge = self.zero_weight_copy()
        real, starts = qp._all_positive_start, []
        monkeypatch.setattr(qp, "_all_positive_start", lambda *args: starts.append(real(*args)))
        sol = solve_qp(prob.with_p_diag(ridge), warm_start=warm)
        assert starts == [None] and np.any(sol.x == 0.0)
        # the same iterates as a solve that never tries the start at theta*
        prob, warm, ridge = self.zero_weight_copy()
        monkeypatch.setattr(qp, "_all_positive_start", lambda *args: None)
        without = solve_qp(prob.with_p_diag(ridge), warm_start=warm)
        assert sol.status == without.status == SOLVED
        assert sol.iterations == without.iterations >= 1
        np.testing.assert_array_equal(sol.x, without.x)

    def test_failed_factor_at_the_all_positive_start_starts_from_the_warm_start(self, monkeypatch):
        from sitetransport import qp

        data = balancing_program(np.random.default_rng(57), 10.0, n=60, k=5)
        prob = QuadraticProgram(**data)
        first = solve_qp(prob)
        copy, warm = prob.with_p_diag(0.5 * data["p_diag"]), (first.x, first.y)
        assert solve_qp(copy, warm_start=warm).iterations == 0
        failed = []

        def fail_first(a, *args, **kwargs):  # as if U + G0/c had lost definiteness
            if not failed:
                failed.append(a.shape)
                return a, 1
            return dpotrf(a, *args, **kwargs)

        monkeypatch.setattr(qp, "dpotrf", fail_first)
        sol = solve_qp(copy, warm_start=warm)
        assert failed == [(7, 7)] and sol.status == SOLVED and sol.iterations >= 1
        monkeypatch.setattr(qp, "dpotrf", dpotrf)
        monkeypatch.setattr(qp, "_all_positive_start", lambda *args: None)
        without = solve_qp(copy, warm_start=warm)
        assert sol.iterations == without.iterations
        np.testing.assert_array_equal(sol.x, without.x)

    def test_failed_factor_of_the_corrected_hessian_is_formed_again_directly(self, monkeypatch):
        from sitetransport import qp

        data = balancing_program(np.random.default_rng(55), 1e-3, n=60)
        prob = QuadraticProgram(**data)
        solve_qp(prob)
        real, updated = qp._Structure.active_gram, []

        def cancelled(structure, active, direct=False):
            T = real(structure, active, direct)
            if not direct:  # as if T_A minus the rows that left A had lost definiteness
                updated.append(active)
                T = T.copy()
                T[-1, -1] = -1.0
            return T

        monkeypatch.setattr(qp._Structure, "active_gram", cancelled)
        # at D = 4 D0, T_A / 4 formed directly is bitwise the fresh program's Hessian
        quadrupled = dict(data, p_diag=4.0 * data["p_diag"])
        again = solve_qp(prob.with_p_diag(quadrupled["p_diag"]))
        fresh = solve_qp(QuadraticProgram(**quadrupled))
        assert updated and again.status == SOLVED
        # every step factored the directly formed Hessian, unregularized
        assert again.iterations == fresh.iterations
        np.testing.assert_array_equal(again.x, fresh.x)

    def test_newton_stopped_at_max_iter_reports_its_dual_residual(self):
        # the dual residual is formed only once the primal one passes, and at exit
        prob = QuadraticProgram(**balancing_program(np.random.default_rng(50), 1e-4))
        for steps in (1, 2):
            sol = solve_qp(prob, QpSettings(max_iter=steps))
            assert sol.status == MAX_ITERATIONS and sol.iterations == steps
            residual = np.abs(prob.p_matvec(sol.x) + prob.q + stacked(prob)[0].T @ sol.y).max()
            assert np.isfinite(sol.dual_residual)
            assert sol.dual_residual == pytest.approx(residual, rel=1e-6)

    def test_residual_checks_form_no_p_product(self, monkeypatch):
        # P x at each residual check comes from the carried s = q + M'theta;
        # P is applied only for the cold start's least-squares multipliers
        calls = []
        real = QuadraticProgram.p_matvec

        def counted(prob, x):
            calls.append(x)
            return real(prob, x)

        monkeypatch.setattr(QuadraticProgram, "p_matvec", counted)
        data = balancing_program(np.random.default_rng(56), 1e-3, n=60)
        prob = QuadraticProgram(**data)
        cold = solve_qp(prob)
        assert cold.method == "newton" and cold.status == SOLVED and cold.iterations > 1
        assert len(calls) == 1
        calls.clear()
        warm = solve_qp(prob.with_p_diag(0.5 * data["p_diag"]), warm_start=(cold.x, cold.y))
        assert warm.method == "newton" and warm.status == SOLVED and warm.iterations >= 1
        assert calls == []

    def test_zero_in_p_diag_runs_admm(self):
        data = balancing_program(np.random.default_rng(47), 1.0)
        data["p_diag"][3] = 0.0
        sol = solve_qp(QuadraticProgram(**data))
        assert sol.status == SOLVED
        assert np.isnan(sol.duality_gap)
        reference = solve_qp(explicit(data), QpSettings(eps_abs=1e-10, eps_rel=0.0))
        np.testing.assert_allclose(sol.objective, reference.objective, rtol=1e-5)

    def test_infeasible_arm_sums_are_primal_infeasible(self):
        data = balancing_program(np.random.default_rng(48), 1.0)
        data["l"][0] = data["u"][0] = -1.0  # nonnegative weights cannot sum to -1
        assert solve_qp(QuadraticProgram(**data)).status == PRIMAL_INFEASIBLE


def small_kernel_program(lam, n=6, seed=51):
    """A kernel balancing program small enough for active_set_enumeration."""
    rng = np.random.default_rng(seed)
    site = random_site(rng, n=n, d=2)
    target = TargetSpec.from_sample(rng.normal(0.3, 1.0, size=(15, 2)))
    kernels = dict(cate_kernel=KernelSpec("linear"), prognostic_kernel=KernelSpec("rbf"))
    return build_kernel_qp(BalanceProblem(site=site, target=target, lam=lam, **kernels))


def summed(prob):
    """The same program with P = base + diag(p_diag) given whole, which runs ADMM."""
    return QuadraticProgram(P=prob.p_dense(), q=prob.q, A=prob.A, l=prob.l, u=prob.u, lb=prob.lb)


def ix_gather_active_set(prob, warm_start=None):
    """The active-set loop with each free block gathered as
    ``P[np.ix_(idx, idx)]`` and its transpose factored: (x, y, steps)."""
    P, d, q, E, b, n = prob.P, prob.p_diag, prob.q, prob.A, prob.l, prob.n
    free = np.ones(n, dtype=bool)
    if warm_start is not None:
        free = warm_start[0] + warm_start[1][b.size :] > 0.0
    with single_threaded_blas():
        for step in range(1, 51):
            idx = np.flatnonzero(free)
            H = P[np.ix_(idx, idx)].T
            H[np.diag_indices_from(H)] += d[idx]
            chol, info = dpotrf(H, lower=1, overwrite_a=1)
            assert info == 0
            E_f = E[:, idx]
            solved = dpotrs(chol, np.column_stack([E_f.T, q[idx]]), lower=1)[0]
            h_e, h_q = solved[:, :-1], solved[:, -1]
            mu = dpotrs(dpotrf(E_f @ h_e, lower=1)[0], b + E_f @ h_q, lower=1)[0]
            x = np.zeros(n)
            x[idx] = h_e @ mu - h_q
            sv = prob.p_matvec(x) + q - E.T @ mu
            next_free = x - sv > 0.0
            if np.array_equal(next_free, free):
                break
            free = next_free
    return x, -np.concatenate([mu, np.maximum(sv, 0.0)]), step


class TestActiveSetPath:
    @pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "within-tolerance"])
    @pytest.mark.parametrize("seed", [51, 52, 53])
    def test_free_blocks_give_the_iterates_of_the_ix_gather(self, symmetric, seed):
        from sitetransport.qp import _SYMMETRY_TOL

        prob = small_kernel_program(1e-5, n=40, seed=seed)
        if not symmetric:  # P's upper triangle off its lower one by up to the tolerance
            noise = np.triu(np.random.default_rng(seed).uniform(-1.0, 1.0, (prob.n, prob.n)), 1)
            prob = QuadraticProgram(
                P=prob.P + 0.5 * _SYMMETRY_TOL * noise, p_diag=prob.p_diag, q=prob.q, A=prob.A, l=prob.l, u=prob.u,
                lb=prob.lb,
            )
            assert not np.array_equal(prob.P, prob.P.T)
        # the solution at a smaller lambda starts with part of the units free
        start = solve_qp(prob.with_p_diag(1e-2 * prob.p_diag))
        assert 0 < (start.x + start.y[2:] > 0.0).sum() < prob.n
        for warm in (None, (start.x, start.y)):
            sol = solve_qp(prob, warm_start=warm)
            x, y, steps = ix_gather_active_set(prob, warm)
            # a cold start frees every unit, then factors partly free blocks
            assert sol.method == "active_set" and sol.iterations == steps > 1
            np.testing.assert_array_equal(sol.x, x)
            np.testing.assert_array_equal(sol.y, y)
            assert sol.objective == prob.objective(x)

    def test_one_product_with_p_per_step(self, monkeypatch):
        prob = small_kernel_program(1e-5, n=40, seed=52)
        products = []
        matvec = QuadraticProgram.p_matvec
        monkeypatch.setattr(QuadraticProgram, "p_matvec", lambda self, x: products.append(1) or matvec(self, x))
        sol = solve_qp(prob)
        # the objective reuses the last step's P x
        assert sol.method == "active_set" and len(products) == sol.iterations > 1
        assert sol.objective == prob.objective(sol.x)

    @pytest.mark.parametrize("lam", [1e-3, 1.0, 10.0])
    def test_kernel_programs_match_enumeration(self, lam):
        prob = small_kernel_program(lam)
        sol = solve_qp(prob)
        assert sol.status == SOLVED and sol.method == "active_set"
        ref_x, ref_obj = active_set_enumeration(prob.p_dense(), prob.q, *stacked(prob))
        scale = max(abs(ref_obj), float(ref_x @ prob.p_matvec(ref_x)), 1.0)
        np.testing.assert_allclose(sol.x, ref_x, rtol=0.0, atol=1e-12 * np.abs(ref_x).max())
        assert sol.objective == pytest.approx(ref_obj, rel=1e-12, abs=1e-12 * scale)
        assert np.isfinite(sol.duality_gap) and abs(sol.duality_gap) <= 1e-9 * scale
        # the multipliers certify the point: P x + q + A'y = 0, bound rows <= 0
        assert np.abs(prob.p_matvec(sol.x) + prob.q + stacked(prob)[0].T @ sol.y).max() <= 1e-12 * scale
        assert sol.y[2:].max() <= 0.0

    def test_admm_solution_warm_starts_the_active_set_path(self):
        prob = small_kernel_program(1e-3, n=30)
        admm = solve_qp(summed(prob), QpSettings(eps_abs=1e-10, eps_rel=0.0))
        assert admm.status == SOLVED and admm.method == "admm"
        cold = solve_qp(prob)
        warm = solve_qp(prob, warm_start=(admm.x, admm.y))
        assert warm.method == cold.method == "active_set"
        assert warm.iterations == 1 < cold.iterations
        np.testing.assert_allclose(warm.x, cold.x, rtol=0.0, atol=1e-12 * np.abs(cold.x).max())

    @pytest.mark.parametrize("start", ["zeros", "empty-arm"])
    def test_warm_start_leaving_an_arm_without_free_units_starts_cold(self, start):
        prob = small_kernel_program(1e-3, n=30)
        cold = solve_qp(prob)
        x0, y0 = np.zeros(prob.n), np.zeros(prob.m)
        if start == "empty-arm":  # the control arm's units all held at zero
            treated = prob.A[0] > 0
            x0[treated], y0[2:][~treated] = cold.x[treated], -1.0
        sol = solve_qp(prob, warm_start=(x0, y0))
        assert sol.method == "active_set" and sol.iterations == cold.iterations
        np.testing.assert_array_equal(sol.x, cold.x)

    def test_active_set_solution_warm_starts_admm(self):
        prob = small_kernel_program(1e-3, n=30)
        exact = solve_qp(prob)
        assert exact.method == "active_set"
        # ADMM restarted at its own fixed point stops at the first check
        again = solve_qp(summed(prob), warm_start=(exact.x, exact.y))
        assert again.method == "admm" and again.status == SOLVED and again.iterations == 1
        np.testing.assert_allclose(again.x, exact.x, atol=1e-6)

    def test_step_bound_hands_the_program_to_admm(self, monkeypatch):
        from sitetransport import qp

        prob = small_kernel_program(1e-3, n=30)
        exact = solve_qp(prob)
        assert exact.iterations > 1  # its free set changes
        monkeypatch.setattr(qp, "_ACTIVE_SET_MAX_STEPS", 1)
        sol = solve_qp(prob)
        assert sol.status == SOLVED and sol.method == "admm"
        assert np.isnan(sol.duality_gap)
        np.testing.assert_allclose(sol.x, exact.x, atol=1e-4)

    def test_indefinite_base_raises_nonconvex(self):
        base = simplex_program(np.diag([1.0, 1.0, -1e-3]), np.zeros(3))
        prob = base.with_p_diag(np.ones(3))
        assert prob._structure.balancing
        with pytest.raises(NonConvexError, match="eigenvalue below"):
            solve_qp(prob)

    def test_program_without_equality_rows_runs_admm(self, rng):
        M = rng.normal(size=(6, 5))
        prob = QuadraticProgram(P=M.T @ M, p_diag=np.full(5, 0.1), q=rng.normal(size=5), lb=np.zeros(5))
        assert prob._structure.balancing
        sol = solve_qp(prob, QpSettings(eps_abs=1e-9, eps_rel=0.0))
        assert sol.status == SOLVED and sol.method == "admm"
        ref_x, _ = active_set_enumeration(prob.p_dense(), prob.q, *stacked(prob))
        np.testing.assert_allclose(sol.x, ref_x, atol=1e-6)

    def test_empty_arm_ends_as_admm_primal_infeasible(self):
        prob = small_kernel_program(1.0, n=12)
        A = prob.A.copy()
        A[0] = 0.0  # no unit in the treated arm, whose row still sums to n1 > 0
        empty = QuadraticProgram(P=prob.P, p_diag=prob.p_diag, q=prob.q, A=A, l=prob.l, u=prob.u, lb=prob.lb)
        assert empty._structure.balancing and prob.l[0] > 0
        sol = solve_qp(empty)
        assert sol.method == "admm" and sol.status == PRIMAL_INFEASIBLE
