import warnings

import numpy as np
import pytest
import scipy.sparse as sp

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
from sitetransport.errors import DimensionMismatchError, NonConvexError
from sitetransport.qp import DUAL_INFEASIBLE, MAX_ITERATIONS, PRIMAL_INFEASIBLE, SOLVED

from conftest import build_site, random_site
from oracles import active_set_enumeration, projected_gradient_box


def simplex_program(P, q, total=2.0):
    n = len(q)
    A = sp.vstack([sp.csr_matrix(np.ones((1, n))), sp.eye(n)], format="csr")
    l = np.concatenate([[total], np.zeros(n)])
    u = np.concatenate([[total], np.full(n, np.inf)])
    return QuadraticProgram(P=sp.csr_matrix(np.asarray(P, dtype=float)), q=q, A=A, l=l, u=u)


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
        prob = QuadraticProgram(
            P=sp.csr_matrix((2, 2)),
            q=np.array([-1.0, 0.0]),
            A=sp.eye(2, format="csr"),
            l=np.zeros(2),
            u=np.full(2, np.inf),
        )
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
        P = sp.csr_matrix(np.diag([1.0, -1.0]))
        prob = QuadraticProgram(P=P, q=np.zeros(2), A=sp.eye(2), l=np.zeros(2), u=np.ones(2))
        with pytest.raises(NonConvexError):
            solve_qp(prob)

    def test_asymmetric_p_rejected(self):
        P = sp.csr_matrix(np.array([[1.0, 0.5], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            QuadraticProgram(P=P, q=np.zeros(2), A=sp.eye(2), l=np.zeros(2), u=np.ones(2))

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
            assert np.all(Ax >= prob.l - 1e-6)
            assert np.all(Ax <= prob.u + 1e-6)

    def test_factored_matches_explicit(self):
        rng = np.random.default_rng(3)
        F = rng.normal(size=(3, 8))
        diag = rng.uniform(0.1, 1.0, size=8)
        q = rng.normal(size=8)
        A = sp.vstack([sp.csr_matrix(np.ones((1, 8))), sp.eye(8)], format="csr")
        l = np.concatenate([[4.0], np.zeros(8)])
        u = np.concatenate([[4.0], np.full(8, np.inf)])
        explicit = QuadraticProgram(P=sp.csr_matrix(F.T @ F + np.diag(diag)), q=q, A=A, l=l, u=u)
        factored = QuadraticProgram(q=q, A=A, l=l, u=u, p_factor=F, p_diag=diag)
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
            prob = QuadraticProgram(P=sp.csr_matrix(P), q=q, A=sp.eye(n), l=lo, u=hi)
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
    A = sp.vstack([sp.csr_matrix(np.ones((1, n))), sp.eye(n)], format="csr")
    return dict(
        p_factor=rng.normal(size=(k, n)),
        p_diag=np.full(n, 0.1),
        q=rng.normal(size=n),
        A=A,
        l=np.concatenate([[n], np.zeros(n)]),
        u=np.concatenate([[n], np.full(n, np.inf)]),
    )


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
    [[P + sigma I, A'], [A, -diag(1/rho)]] [x~; nu] = [sigma x - q; z - y/rho],
    with z~ = z + (nu - y)/rho."""
    n = prob.n
    A = prob.A.toarray()
    kkt = np.block([[prob.p_dense() + sigma * np.eye(n), A.T], [A, -np.diag(1.0 / rho)]])
    sol = np.linalg.solve(kkt, np.concatenate([sigma * x - prob.q, z - y / rho]))
    return sol[:n], z + (sol[n:] - y) / rho


def general_rows_program(rng, n=8):
    M = rng.normal(size=(n + 2, n))
    A = sp.vstack([sp.csr_matrix(rng.normal(size=(3, n))), sp.eye(n)], format="csr")
    return QuadraticProgram(
        P=M.T @ M + 0.5 * np.eye(n), q=rng.normal(size=n), A=A,
        l=np.full(n + 3, -1.0), u=np.full(n + 3, 1.0),
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

    def test_factored_program_without_singleton_rows(self, rng):
        # two dense rows and no singleton row: A'y is a bincount over no rows
        F = rng.normal(size=(2, 6))
        A = rng.normal(size=(2, 6))
        q = rng.normal(size=6)
        l, u = np.full(2, -1.0), np.full(2, 1.0)
        prob = QuadraticProgram(
            q=q, A=sp.csr_matrix(A), l=l, u=u, p_factor=F, p_diag=np.full(6, 0.5)
        )
        sol = solve_qp(prob, QpSettings(eps_abs=1e-8, eps_rel=0.0))
        assert sol.status == SOLVED
        _, ref_obj = active_set_enumeration(prob.p_dense(), q, A, l, u)
        assert abs(sol.objective - ref_obj) <= 1e-6

    def test_indefinite_kkt_matrix_raises_nonconvex(self):
        # the eigenvalue -5e-5 passes the convexity tolerance 1e-8 * trace,
        # but M = P + sigma I + A' diag(rho) A keeps it: x2 has no row of A
        prob = QuadraticProgram(
            P=np.diag([1e4, -5e-5]), q=np.array([0.0, 1e-3]),
            A=sp.csr_matrix(np.array([[1.0, 0.0]])), l=np.zeros(1), u=np.ones(1),
        )
        with pytest.raises(NonConvexError, match="not positive definite"):
            solve_qp(prob)


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
        n = 8
        M = rng.normal(size=(n - 3, n))
        B, d, q = M.T @ M, rng.uniform(0.1, 1.0, n), rng.normal(size=n)
        summed = simplex_program(B + np.diag(d), q)
        split = QuadraticProgram(P=B, p_diag=d, q=q, A=summed.A, l=summed.l, u=summed.u)
        settings = QpSettings(eps_abs=1e-9, eps_rel=1e-9)
        a, b = solve_qp(split, settings), solve_qp(summed, settings)
        assert a.status == b.status == SOLVED
        np.testing.assert_allclose(a.x, b.x, rtol=0.0, atol=1e-7)
        assert a.objective == pytest.approx(b.objective, rel=1e-8)

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
    arm-sum rows and one x >= 0 row per unit."""
    z = np.zeros(n)
    z[rng.permutation(n)[: n1 or n // 2]] = 1.0
    A = sp.vstack([sp.csr_matrix(z), sp.csr_matrix(1.0 - z), sp.eye(n, format="csr")], format="csr")
    arms = [z.sum(), n - z.sum()]
    return dict(
        p_factor=rng.normal(size=(k, n)) / n,
        p_diag=2.0 * lam * rng.uniform(1.5, 3.0, n),
        q=-z * rng.normal(size=n) / n,
        A=A,
        l=np.concatenate([arms, np.zeros(n)]),
        u=np.concatenate([arms, np.full(n, np.inf)]),
    )


def explicit(data):
    """The same program with P given explicitly, which runs ADMM."""
    F, D = data["p_factor"], data["p_diag"]
    rest = {key: data[key] for key in ("q", "A", "l", "u")}
    return QuadraticProgram(P=sp.csr_matrix(F.T @ F + np.diag(D)), **rest)


def one_dim_program(lam):
    # exactly balanceable: weights (1, 1) on the treated x = 0, 2 hit target mean 1
    site = build_site(np.array([[0.0], [2.0], [1.0], [3.0]]), [1, 1, 0, 0], [1.0, 2.0, 0.5, 1.5])
    fmap = identity_map(1)
    prob = BalanceProblem(site=site, target=TargetSpec.from_moments([1.0]), lam=lam, cate_map=fmap, prognostic_map=fmap)
    qp = build_linear_qp(prob)
    return dict(p_factor=qp.p_factor, p_diag=qp.p_diag, q=qp.q, A=qp.A, l=qp.l, u=qp.u)


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
            (kernel_balancing_program, "admm"),
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

    @pytest.mark.parametrize("steps", [0, 1, 2, 3])
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
        sol = solve_qp(prob, warm_start=(np.zeros(prob.n), np.zeros(prob.m)))
        assert sol.status == SOLVED
        np.testing.assert_allclose(sol.x, solve_qp(prob).x, atol=1e-7)

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
