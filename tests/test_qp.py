import numpy as np
import pytest
import scipy.sparse as sp

from sitetransport import QpSettings, QuadraticProgram, assemble_sparse, solve_qp
from sitetransport.errors import (
    DimensionMismatchError,
    EmptyProgramError,
    NonConvexError,
)
from sitetransport.qp import DUAL_INFEASIBLE, MAX_ITERATIONS, PRIMAL_INFEASIBLE, SOLVED

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
        sol = solve_qp(prob, QpSettings(max_iter=2, adaptive_rho=False))
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


class TestAssembleSparse:
    def test_block_diagonal_identity(self):
        prog = assemble_sparse([np.eye(2), np.eye(2)], [np.eye(2), np.eye(2)])
        assert prog.P.shape == (4, 4)
        assert prog.P.nnz == 4
        assert prog.A.shape == (4, 4)

    def test_empty_block_list(self):
        with pytest.raises(EmptyProgramError):
            assemble_sparse([], [])

    def test_coupling_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            assemble_sparse([np.eye(2), np.eye(3)], [np.eye(2), np.ones((2, 2))])


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

        prob = QuadraticProgram(**lowrank_program(rng))
        settings = QpSettings(linsys="lowrank")
        fast = solve_qp(prob, settings)
        monkeypatch.setattr(qp, "dpotrs", lambda c, b, lower: (cho_solve((c, lower), b), 0))
        reference = solve_qp(prob, settings)
        assert fast.iterations == reference.iterations
        assert fast.x.tobytes() == reference.x.tobytes()
        assert fast.y.tobytes() == reference.y.tobytes()


class TestConvexityCheck:
    def test_arpack_failure_warns_that_convexity_is_not_certified(self, monkeypatch):
        from scipy.sparse.linalg import ArpackNoConvergence

        from sitetransport import qp

        def no_convergence(*args, **kwargs):
            raise ArpackNoConvergence("ARPACK error -1: No convergence", np.empty(0), np.empty((0, 0)))

        n = 601
        prob = simplex_program(np.eye(n), np.zeros(n), total=float(n))
        monkeypatch.setattr(qp.spla, "eigsh", no_convergence)
        with pytest.warns(RuntimeWarning, match="not certified"):
            qp._check_convexity(prob)

    def test_other_eigsh_errors_propagate(self, monkeypatch):
        from sitetransport import qp

        def broken(*args, **kwargs):
            raise TypeError("not an ARPACK failure")

        n = 601
        prob = simplex_program(np.eye(n), np.zeros(n), total=float(n))
        monkeypatch.setattr(qp.spla, "eigsh", broken)
        with pytest.raises(TypeError):
            qp._check_convexity(prob)
