"""Convex QP solver: minimize 1/2 x'Px + q'x subject to l <= Ax <= u.

``solve_qp`` takes one of two paths, chosen from the program alone.

* **Dual Newton.** A program with a factored quadratic term
  P = F'F + diag(D), every D > 0, equality rows Ex = b and one
  ``0 <= x_i < inf`` row per column (the linear balancing program at
  lambda > 0) is solved on its exact dual in theta = (nu, mu), one entry per
  row of F and of E. With s = q + F'nu - E'mu and x = max(0, -s)/D, the dual
  minimizes h = 1/2 |nu|^2 + 1/2 sum D x^2 - b'mu, a convex piecewise
  quadratic; a semismooth Newton step with an Armijo backtrack takes a few
  steps, each one factorization of a (k + rows) square matrix. The duality
  gap objective(x) + h certifies the result.
* **ADMM** for every other program (an explicit P, a zero in D, inequality
  rows): an operator-splitting iteration with over-relaxation,
  residual-balancing step-size adaptation, and divergence certificates for
  primal/dual infeasibility. Each iteration solves the reduced KKT system
  (P + sigma I + A' diag(rho) A) x = sigma x - q + A'(rho z - y) of OSQP
  (Stellato et al. 2020): through a diagonal-plus-low-rank (Woodbury)
  factorization when P is factored and of low rank, otherwise through a
  dense Cholesky factorization.

Both paths return multipliers in one sign convention (P x + q + A'y = 0 at
the optimum) and stop on the same eps_abs/eps_rel residual test, so either
can warm-start the other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_factor
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import DimensionMismatchError, NonConvexError

SOLVED = "solved"
MAX_ITERATIONS = "max_iterations"
PRIMAL_INFEASIBLE = "primal_infeasible"
DUAL_INFEASIBLE = "dual_infeasible"

_SYMMETRY_TOL = 1e-10
_NONCONVEX_TOL = 1e-8
_EQ_TOL = 1e-12
_RHO_EQ_SCALE = 1e3
_RHO_MIN, _RHO_MAX = 1e-6, 1e6
_ARMIJO = 1e-4
_MAX_BACKTRACKS = 60
# ADMM residual-balancing rho updates every _ADAPT_INTERVAL iterations;
# residuals are evaluated on every one of the first _EARLY_CHECKS iterations
# (cheap warm-started re-solves stop immediately), then every _CHECK_INTERVAL
_ADAPT_INTERVAL = 25
_EARLY_CHECKS = 8
_CHECK_INTERVAL = 5


@dataclass(frozen=True)
class QuadraticProgram:
    """Problem data. Equalities are encoded as l == u rows of A.

    Exactly one representation of the quadratic term must be supplied:
    an explicit symmetric PSD matrix ``P`` (kept as a dense array; a sparse
    one is densified), or the factored pair ``p_factor`` (k x n) and
    ``p_diag`` (length n) with P = p_factor' p_factor + diag(p_diag). All
    data must be finite, except that bounds may be infinite.
    """

    q: np.ndarray
    A: sp.spmatrix
    l: np.ndarray
    u: np.ndarray
    P: np.ndarray | None = None
    p_factor: np.ndarray | None = field(default=None, compare=False)
    p_diag: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float).ravel()
        object.__setattr__(self, "q", q)
        n = q.size
        A = sp.csr_matrix(self.A, dtype=float)
        if A.shape[1] != n:
            raise DimensionMismatchError(f"A has {A.shape[1]} columns, expected {n}")
        object.__setattr__(self, "A", A)
        l = np.asarray(self.l, dtype=float).ravel()
        u = np.asarray(self.u, dtype=float).ravel()
        if l.size != A.shape[0] or u.size != A.shape[0]:
            raise DimensionMismatchError("bound vectors must match the constraint row count")
        if np.any(l > u):
            raise ValueError("lower bounds exceed upper bounds")
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "u", u)

        explicit = self.P is not None
        factored = self.p_factor is not None or self.p_diag is not None
        if explicit == factored:
            raise ValueError("supply either P or (p_factor, p_diag), not both")
        if explicit:
            P = np.asarray(self.P.toarray() if sp.issparse(self.P) else self.P, dtype=float)
            if P.shape != (n, n):
                raise DimensionMismatchError(f"P has shape {P.shape}, expected ({n}, {n})")
            if np.abs(P - P.T).max(initial=0.0) > _SYMMETRY_TOL:
                raise ValueError("P is not symmetric")
            object.__setattr__(self, "P", P)
        else:
            F = self.p_factor
            if F is not None:
                F = np.atleast_2d(np.asarray(F, dtype=float))
                if F.shape[1] != n:
                    raise DimensionMismatchError(f"p_factor has {F.shape[1]} columns, expected {n}")
            else:
                F = np.empty((0, n))
            object.__setattr__(self, "p_factor", F)
            pd = self.p_diag
            pd = np.zeros(n) if pd is None else np.asarray(pd, dtype=float).ravel()
            if pd.size != n:
                raise DimensionMismatchError("p_diag length must match q")
            object.__setattr__(self, "p_diag", pd)
        quadratic = (self.P,) if explicit else (self.p_factor, self.p_diag)
        finite = all(np.isfinite(a).all() for a in (q, *quadratic))
        if not finite or np.isnan(l).any() or np.isnan(u).any():
            raise ValueError("program data must be finite (bounds may be infinite, not NaN)")

    @property
    def n(self) -> int:
        return self.q.size

    @property
    def m(self) -> int:
        return self.A.shape[0]

    def p_matvec(self, x: np.ndarray) -> np.ndarray:
        if self.P is not None:
            return self.P @ x
        return self.p_factor.T @ (self.p_factor @ x) + self.p_diag * x

    def p_trace(self) -> float:
        if self.P is not None:
            return float(np.trace(self.P))
        return float(np.sum(self.p_factor**2) + self.p_diag.sum())

    def p_dense(self) -> np.ndarray:
        if self.P is not None:
            return self.P
        return self.p_factor.T @ self.p_factor + np.diag(self.p_diag)

    def objective(self, x: np.ndarray) -> float:
        return float(0.5 * x @ self.p_matvec(x) + self.q @ x)


@dataclass(frozen=True)
class QpSettings:
    """Stopping and step settings.

    Both paths stop when the primal and dual residuals fall below
    ``eps_abs + eps_rel * scale``, give up after ``max_iter`` iterations
    (Newton steps on the dual path) and report infeasibility on
    ``eps_infeas``. ``rho`` (the initial ADMM step size, adapted by residual
    balancing), ``sigma`` (the proximal term) and ``alpha`` (over-relaxation)
    are ADMM's alone.
    """

    eps_abs: float = 1e-6
    eps_rel: float = 1e-6
    rho: float = 0.1
    sigma: float = 1e-6
    alpha: float = 1.6
    max_iter: int = 20000
    eps_infeas: float = 1e-4


@dataclass(frozen=True)
class QpSolution:
    """Solver output; ``y`` satisfies P x + q + A'y = 0 at the optimum.

    ``duality_gap`` is objective(x) + h(nu, mu) on the dual Newton path,
    which equals 1/2 |F x - nu|^2 + mu'(E x - b). By weak duality it bounds
    objective(x) minus the optimum from above, and it is at least
    -|mu|_1 * primal_residual. x meets E x = b only to primal_residual, so
    the gap certifies near-optimality only together with a small
    primal_residual; a tiny or negative gap alone does not.
    ADMM does not compute a gap and reports NaN.
    """

    x: np.ndarray
    y: np.ndarray
    status: str
    primal_residual: float
    dual_residual: float
    iterations: int
    objective: float
    duality_gap: float = float("nan")


def _check_convexity(prob: QuadraticProgram) -> None:
    """Raise NonConvexError when P has an eigenvalue below -tol, with
    tol = 1e-8 * max(trace P, 1).

    A factored P can only fail through ``p_diag``. An explicit P is certified
    by one Cholesky factorization of P + tol I, which exists exactly when
    that matrix is positive definite (Golub & Van Loan, Matrix Computations,
    section 4.2).
    """
    if prob.P is None:
        d_min = prob.p_diag.min(initial=0.0)
        if d_min < 0.0 and d_min < -_NONCONVEX_TOL * max(prob.p_trace(), 1.0):
            raise NonConvexError("p_diag contains a significantly negative entry")
        return
    tol = _NONCONVEX_TOL * max(prob.p_trace(), 1.0)
    shifted = np.array(prob.P, order="F")  # factored in place
    shifted[np.diag_indices_from(shifted)] += tol
    info = dpotrf(shifted, lower=1, overwrite_a=1)[1]
    if info:
        raise NonConvexError(
            f"P has an eigenvalue below -{tol:.3e}: the Cholesky factorization "
            f"of P + tol I fails at pivot {info}"
        )


class _ReducedKkt:
    """The row split of A shared by both ADMM linear systems, which solve
    M x = sigma x - q + A'(rho z - y) with M = P + sigma I + A' diag(rho) A.

    Singleton rows (one entry) become a gather (A x), a weighted bincount
    (A' y) and a diagonal term of M; the few general rows use a dense block.
    """

    def __init__(self, prob: QuadraticProgram, sigma: float):
        self.prob = prob
        self.sigma = sigma
        A = prob.A
        nnz_per_row = np.diff(A.indptr)
        self.singleton_rows = np.flatnonzero(nnz_per_row == 1)
        self.general_rows = np.flatnonzero(nnz_per_row != 1)
        self.singleton_cols = A.indices[A.indptr[self.singleton_rows]]
        self.singleton_vals = A.data[A.indptr[self.singleton_rows]]
        self.A_general = A[self.general_rows].toarray()
        self.AT_general = self.A_general.T.copy()

    def a_matvec(self, x: np.ndarray) -> np.ndarray:
        out = np.empty(self.prob.m)
        out[self.singleton_rows] = self.singleton_vals * x[self.singleton_cols]
        if self.general_rows.size:
            out[self.general_rows] = self.A_general @ x
        return out

    def at_matvec(self, y: np.ndarray) -> np.ndarray:
        # float even without singleton rows, where bincount returns integers
        res = np.bincount(
            self.singleton_cols,
            weights=self.singleton_vals * y[self.singleton_rows],
            minlength=self.prob.n,
        ).astype(float, copy=False)
        if self.general_rows.size:
            res += self.AT_general @ y[self.general_rows]
        return res

    def _diag(self, rho: np.ndarray) -> np.ndarray:
        """sigma plus the singleton rows' part of A' diag(rho) A."""
        return self.sigma + np.bincount(
            self.singleton_cols,
            weights=rho[self.singleton_rows] * self.singleton_vals**2,
            minlength=self.prob.n,
        )

    def solve(self, x, z, y, q):
        """(x~, z~) of one ADMM step, with z~ = A x~."""
        x_t = self._solve(self.sigma * x - q + self.at_matvec(self._rho * z - y))
        return x_t, self.a_matvec(x_t)


class _DirectKkt(_ReducedKkt):
    """Dense Cholesky factorization of M."""

    def __init__(self, prob: QuadraticProgram, sigma: float):
        super().__init__(prob, sigma)
        self._P = prob.p_dense()

    def factor(self, rho: np.ndarray) -> None:
        M = self._P + (self.AT_general * rho[self.general_rows]) @ self.A_general
        M[np.diag_indices_from(M)] += self._diag(rho)
        self._chol, info = dpotrf(M, lower=1)
        if info:
            raise NonConvexError(
                f"P + sigma I + A' diag(rho) A is not positive definite (pivot {info})"
            )
        self._rho = rho

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        return dpotrs(self._chol, rhs, lower=1)[0]


class _LowRankKkt(_ReducedKkt):
    """Woodbury solve of M = diag(d) + C'C with C stacking the P factor and
    the general rows scaled by sqrt(rho), at O(n * rank) per iteration."""

    def factor(self, rho: np.ndarray) -> None:
        prob = self.prob
        diag = prob.p_diag + self._diag(rho)
        C = np.vstack(
            [prob.p_factor, np.sqrt(rho[self.general_rows])[:, None] * self.A_general]
        )
        self._d = diag
        self._C = C
        Cd = C / diag
        S = Cd @ C.T
        S[np.diag_indices_from(S)] += 1.0
        self._chol = cho_factor(S, lower=True)[0]
        self._rho = rho

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        t = rhs / self._d
        # LAPACK directly: the program's data were checked finite on construction
        w = dpotrs(self._chol, self._C @ t, lower=True)[0]
        return t - (self._C.T @ w) / self._d


def _build_rho(prob: QuadraticProgram, rho_scalar: float) -> np.ndarray:
    rho = np.full(prob.m, rho_scalar)
    finite = np.isfinite(prob.l) & np.isfinite(prob.u)
    eq = finite & (prob.u - prob.l <= _EQ_TOL)
    rho[eq] = rho_scalar * _RHO_EQ_SCALE
    return rho


def _primal_infeasible(prob, at_matvec, dy, eps):
    scale = float(np.abs(dy).max(initial=0.0))
    if scale <= 0:
        return False
    if float(np.abs(at_matvec(dy)).max(initial=0.0)) > eps * scale:
        return False
    pos = dy > 0
    neg = dy < 0
    support = float(np.sum(prob.u[pos] * dy[pos])) + float(np.sum(prob.l[neg] * dy[neg]))
    return support <= -eps * scale


def _dual_infeasible(prob, kkt, dx, eps):
    scale = float(np.abs(dx).max(initial=0.0))
    if scale <= 0:
        return False
    if float(np.abs(prob.p_matvec(dx)).max(initial=0.0)) > eps * scale:
        return False
    if float(prob.q @ dx) > -eps * scale:
        return False
    Adx = kkt.a_matvec(dx)
    tol = eps * scale
    upper_finite = np.isfinite(prob.u)
    lower_finite = np.isfinite(prob.l)
    if np.any(Adx[upper_finite] > tol):
        return False
    if np.any(Adx[lower_finite] < -tol):
        return False
    return True


def _dual_rows(prob: QuadraticProgram) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The dual Newton path's row split of ``prob``, or None when the program
    is not of its shape: ``(eq, bound, cols)`` with ``bound[j]`` the
    ``0 <= x < inf`` row of column ``cols[j]`` and ``eq`` the rows l == u."""
    if prob.P is not None or not np.all(prob.p_diag > 0):
        return None
    A, l, u = prob.A, prob.l, prob.u
    single = np.flatnonzero(np.diff(A.indptr) == 1)
    first = A.indptr[single]
    bound = single[(A.data[first] == 1.0) & (l[single] == 0.0) & (u[single] == np.inf)]
    cols = A.indices[A.indptr[bound]]
    if bound.size != prob.n or np.bincount(cols, minlength=prob.n).max(initial=0) != 1:
        return None
    general = np.ones(prob.m, dtype=bool)
    general[bound] = False
    eq = np.flatnonzero(general)
    if not (np.all(l[eq] == u[eq]) and np.isfinite(l[eq]).all()):
        return None
    return eq, bound, cols


def _solve_dual(prob, rows, s: QpSettings, warm_start) -> QpSolution:
    """Semismooth Newton on the dual h(theta), theta = (nu, mu); see the
    module docstring. With M = [F; -E], the gradient is
    (nu, 0) - M x - (0, b) and the generalized Hessian is
    diag(1_k, 0) + M_a diag(1/D_a) M_a' over the active columns (x > 0)."""
    eq, bound, cols = rows
    F, D, q = prob.p_factor, prob.p_diag, prob.q
    k = F.shape[0]
    E = prob.A[eq].toarray()
    b = prob.l[eq]
    Mt = np.hstack([F.T, -E.T])  # M', one row per column of the program
    unit = np.concatenate([np.ones(k), np.zeros(eq.size)])
    c = np.concatenate([np.zeros(k), b])
    inv_d = 1.0 / D
    root_inv_d = np.sqrt(inv_d)

    if warm_start is None:
        # the least-norm point of Ex = b, with its least-squares multipliers
        x0 = np.linalg.lstsq(E, b, rcond=None)[0]
        mu = np.linalg.lstsq(E.T, prob.p_matvec(x0) + q, rcond=None)[0]
    else:
        x0, mu = warm_start[0], -warm_start[1][eq]
    theta = np.concatenate([F @ x0, mu])
    # s is carried along the steps (s += t M'step) instead of recomputed from
    # theta, and the line search measures the change in h directly: at small
    # D, x = max(0, -s)/D magnifies the rounding of q + M'theta beyond the
    # stopping tolerance, and h itself loses the digits Armijo compares
    sv = q + Mt @ theta
    a = np.maximum(-sv, 0.0)  # D x
    x = a * inv_d

    q_norm = float(np.abs(q).max(initial=0.0))
    b_norm = float(np.abs(b).max(initial=0.0))
    status = MAX_ITERATIONS
    y_prev = None
    iteration = 0
    while True:
        g = unit * theta - Mt.T @ x - c
        bound_y = np.maximum(sv, 0.0)
        y = np.empty(prob.m)
        y[eq] = -theta[k:]
        y[bound] = -bound_y[cols]
        # P x + q + A'y = F'(F x - nu) = -F'g_nu
        r_prim = float(np.abs(g[k:]).max(initial=0.0))
        r_dual = float(np.abs(Mt[:, :k] @ g[:k]).max(initial=0.0))
        scale_p = max(float(np.abs(g[k:] + b).max(initial=0.0)), b_norm, float(x.max(initial=0.0)))
        scale_d = max(
            float(np.abs(prob.p_matvec(x)).max(initial=0.0)),
            float(np.abs(Mt[:, k:] @ theta[k:] - bound_y).max(initial=0.0)),
            q_norm,
        )
        if r_prim <= s.eps_abs + s.eps_rel * scale_p and r_dual <= s.eps_abs + s.eps_rel * scale_d:
            status = SOLVED
            break
        if y_prev is not None and _primal_infeasible(prob, lambda v: prob.A.T @ v, y - y_prev, s.eps_infeas):
            status = PRIMAL_INFEASIBLE
            break
        if iteration == s.max_iter:
            break
        y_prev = y

        active = x > 0.0
        W = Mt[active] * root_inv_d[active, None]
        H = W.T @ W
        H[np.diag_indices_from(H)] += unit
        chol, info = dpotrf(H, lower=1)
        if info:  # a row of E without active columns: regularize its direction
            H[np.diag_indices_from(H)] += 1e-12 * max(float(H.max()), 1.0)
            chol, info = dpotrf(H, lower=1)
        step = dpotrs(chol, -g, lower=1)[0]
        slope = float(g @ step)
        m_step = Mt @ step
        linear = float(theta[:k] @ step[:k] - c @ step)
        quadratic = 0.5 * float(step[:k] @ step[:k])
        t = 1.0
        for _ in range(_MAX_BACKTRACKS):
            s_t = sv + t * m_step
            a_t = np.maximum(-s_t, 0.0)
            # h(theta + t step) - h(theta), with a_t^2 - a^2 factored
            dh = t * (linear + t * quadratic) + 0.5 * float(((a_t - a) * (a_t + a)) @ inv_d)
            if dh <= _ARMIJO * t * slope:
                break
            t *= 0.5
        else:
            break  # no decrease left at working precision
        theta = theta + t * step
        sv, a = s_t, a_t
        x = a * inv_d
        iteration += 1

    if status == PRIMAL_INFEASIBLE:
        obj, gap = np.inf, float("nan")
    else:
        obj = prob.objective(x)
        # objective(x) + h(theta), without the cancellation of adding them
        gap = 0.5 * float(g[:k] @ g[:k]) + float(theta[k:] @ g[k:])
    return QpSolution(
        x=x,
        y=y,
        status=status,
        primal_residual=r_prim,
        dual_residual=r_dual,
        iterations=iteration,
        objective=obj,
        duality_gap=gap,
    )


def solve_qp(
    prob: QuadraticProgram,
    settings: QpSettings | None = None,
    warm_start: tuple[np.ndarray, np.ndarray] | None = None,
) -> QpSolution:
    """Solve the QP; deterministic given the inputs and settings.

    The path (dual Newton or ADMM, see the module docstring) follows from the
    program's shape. ``warm_start`` is an (x0, y0) pair, typically a previous
    solution for a nearby problem, from either path. On ``solved`` the
    returned residuals satisfy the eps_abs/eps_rel termination bounds; on
    ``max_iterations`` ADMM returns the iterate with the smallest combined
    normalized residual and Newton its last (lowest-h) iterate.
    """
    s = settings or QpSettings()
    _check_convexity(prob)
    n, m = prob.n, prob.m

    if warm_start is not None:
        x = np.asarray(warm_start[0], dtype=float).copy()
        y = np.asarray(warm_start[1], dtype=float).copy()
        if x.size != n or y.size != m:
            raise DimensionMismatchError("warm start dimensions do not match the program")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("warm start must be finite")
    rows = _dual_rows(prob)
    if rows is not None:
        return _solve_dual(prob, rows, s, None if warm_start is None else (x, y))
    if warm_start is None:
        x = np.zeros(n)
        y = np.zeros(m)
        Ax = np.zeros(m)
        z = np.clip(np.zeros(m), prob.l, prob.u)

    # Woodbury while the factor and the general rows have rank <= max(8, n // 2)
    lowrank = prob.P is None and (
        prob.p_factor.shape[0] + np.count_nonzero(np.diff(prob.A.indptr) != 1) <= max(8, n // 2)
    )
    kkt = (_LowRankKkt if lowrank else _DirectKkt)(prob, s.sigma)
    if warm_start is not None:
        Ax = kkt.a_matvec(x)
        z = np.clip(Ax, prob.l, prob.u)

    rho_scalar = s.rho
    rho = _build_rho(prob, rho_scalar)
    kkt.factor(rho)

    best = None  # (combined normalized residual, x, y, r_prim, r_dual, iteration)
    q_norm = float(np.abs(prob.q).max(initial=0.0))

    status = MAX_ITERATIONS
    iteration = 0
    r_prim = r_dual = np.inf
    x_prev_check = x.copy()
    y_prev_check = y.copy()
    for iteration in range(1, s.max_iter + 1):
        x_t, z_t = kkt.solve(x, z, y, prob.q)
        x_new = s.alpha * x_t + (1.0 - s.alpha) * x
        v = s.alpha * z_t + (1.0 - s.alpha) * z + y / rho
        z_new = np.clip(v, prob.l, prob.u)
        y_new = rho * (v - z_new)

        # A x_new follows from A x_t without another matvec
        Ax = s.alpha * z_t + (1.0 - s.alpha) * Ax
        x, z, y = x_new, z_new, y_new

        check = (
            iteration <= _EARLY_CHECKS
            or iteration % _CHECK_INTERVAL == 0
            or iteration == s.max_iter
        )
        if not check:
            continue

        Px = prob.p_matvec(x)
        Aty = kkt.at_matvec(y)
        r_prim = float(np.abs(Ax - z).max(initial=0.0))
        r_dual = float(np.abs(Px + prob.q + Aty).max(initial=0.0))
        scale_p = max(float(np.abs(Ax).max(initial=0.0)), float(np.abs(z).max(initial=0.0)))
        scale_d = max(float(np.abs(Px).max(initial=0.0)), float(np.abs(Aty).max(initial=0.0)), q_norm)

        if r_prim <= s.eps_abs + s.eps_rel * scale_p and r_dual <= s.eps_abs + s.eps_rel * scale_d:
            status = SOLVED
            break

        norm_p = r_prim / max(scale_p, 1e-12)
        norm_d = r_dual / max(scale_d, 1e-12)
        combined = max(norm_p, norm_d)
        if best is None or combined < best[0]:
            best = (combined, x.copy(), y.copy(), r_prim, r_dual, iteration)

        dx = x - x_prev_check
        dy = y - y_prev_check
        x_prev_check = x.copy()
        y_prev_check = y.copy()
        if _primal_infeasible(prob, kkt.at_matvec, dy, s.eps_infeas):
            status = PRIMAL_INFEASIBLE
            break
        if _dual_infeasible(prob, kkt, dx, s.eps_infeas):
            status = DUAL_INFEASIBLE
            break

        if iteration % _ADAPT_INTERVAL == 0 and norm_d > 0:
            candidate = float(np.clip(rho_scalar * np.sqrt(norm_p / norm_d), _RHO_MIN, _RHO_MAX))
            if candidate > 5.0 * rho_scalar or candidate < rho_scalar / 5.0:
                rho_scalar = candidate
                rho = _build_rho(prob, rho_scalar)
                kkt.factor(rho)

    if status == MAX_ITERATIONS and best is not None:
        _, x, y, r_prim, r_dual, _ = best

    if status == PRIMAL_INFEASIBLE:
        obj = np.inf
    elif status == DUAL_INFEASIBLE:
        obj = -np.inf
    else:
        obj = prob.objective(x)
    return QpSolution(
        x=x,
        y=y,
        status=status,
        primal_residual=r_prim,
        dual_residual=r_dual,
        iterations=iteration,
        objective=obj,
    )
