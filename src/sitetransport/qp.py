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

P is an explicit or factored base plus diag(p_diag). As in OSQP's vector
updates, what the solver derives from the rest (see ``_Structure``) is
computed once per program and shared by its ``with_p_diag`` copies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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


def _diagonal(d, n: int) -> np.ndarray:
    d = np.zeros(n) if d is None else np.asarray(d, dtype=float).ravel()
    if d.size != n:
        raise DimensionMismatchError("p_diag length must match q")
    if not np.isfinite(d).all():
        raise ValueError("program data must be finite (bounds may be infinite, not NaN)")
    return d


class _Structure:
    """What the solver derives from a program's constraints and base (``P``,
    or the factor ``F`` of F'F), each piece once, on first use; a program
    shares it with every ``with_p_diag`` copy."""

    def __init__(self, prob: QuadraticProgram):
        self.A, self.l, self.u, self.P, self.F = prob.A, prob.l, prob.u, prob.P, prob.p_factor

    @cached_property
    def dense_base(self) -> np.ndarray:
        return self.P if self.P is not None else self.F.T @ self.F

    @cached_property
    def certificate(self) -> None:
        """Raise NonConvexError when an explicit base has an eigenvalue below
        -tol_b, tol_b = 1e-8 * max(trace base, 1): base + tol_b I then has no
        Cholesky factorization (Golub & Van Loan, section 4.2). F'F is PSD."""
        if self.P is None:
            return
        tol = _NONCONVEX_TOL * max(float(np.trace(self.P)), 1.0)
        shifted = np.array(self.P, order="F")  # factored in place
        shifted[np.diag_indices_from(shifted)] += tol
        info = dpotrf(shifted, lower=1, overwrite_a=1)[1]
        if info:
            raise NonConvexError(
                f"P has an eigenvalue below -{tol:.3e}: the Cholesky factorization "
                f"of P + tol I fails at pivot {info}"
            )

    @cached_property
    def row_split(self) -> tuple[np.ndarray, ...]:
        """Singleton rows of A (one entry) with their columns and values,
        then the general rows with their dense block and its transpose."""
        A = self.A
        nnz_per_row = np.diff(A.indptr)
        single, general = np.flatnonzero(nnz_per_row == 1), np.flatnonzero(nnz_per_row != 1)
        first = A.indptr[single]
        A_general = A[general].toarray()
        return single, A.indices[first], A.data[first], general, A_general, A_general.T.copy()

    @cached_property
    def dual(self) -> tuple[np.ndarray, ...] | None:
        """The dual Newton path's ``(eq, bound, cols, E, Mt)``, or None when
        the program is not of its shape: ``bound[j]`` is the ``0 <= x < inf``
        row of column ``cols[j]``, ``eq`` the rows l == u, E = A[eq] and
        Mt = [F', -E'], one row per column of the program."""
        if self.P is not None:
            return None
        l, u, n = self.l, self.u, self.F.shape[1]
        single, single_cols, single_vals = self.row_split[:3]
        keep = (single_vals == 1.0) & (l[single] == 0.0) & (u[single] == np.inf)
        bound, cols = single[keep], single_cols[keep]
        if bound.size != n or np.bincount(cols, minlength=n).max(initial=0) != 1:
            return None
        eq = np.setdiff1d(np.arange(l.size), bound)
        if not (np.all(l[eq] == u[eq]) and np.isfinite(l[eq]).all()):
            return None
        E = self.A[eq].toarray()
        return eq, bound, cols, E, np.hstack([self.F.T, -E.T])


@dataclass(frozen=True)
class QuadraticProgram:
    """Problem data. Equalities are encoded as l == u rows of A.

    The quadratic term is P = base + diag(p_diag). The base is an explicit
    symmetric PSD matrix ``P`` (kept as a dense array; a sparse one is
    densified) or p_factor' p_factor for a k x n ``p_factor``, not both;
    ``p_diag`` (length n) defaults to zeros. All data must be finite, except
    that bounds may be infinite.

    What does not depend on ``p_diag`` (see ``_Structure``) is derived once
    and shared by every copy that ``with_p_diag`` makes.
    """

    q: np.ndarray
    A: sp.spmatrix
    l: np.ndarray
    u: np.ndarray
    P: np.ndarray | None = None
    p_factor: np.ndarray | None = field(default=None, compare=False)
    p_diag: np.ndarray | None = field(default=None, compare=False)
    _structure: _Structure = field(init=False, repr=False, compare=False)

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

        if self.P is not None:
            if self.p_factor is not None:
                raise ValueError("supply either P or p_factor, not both")
            P = np.asarray(self.P.toarray() if sp.issparse(self.P) else self.P, dtype=float)
            if P.shape != (n, n):
                raise DimensionMismatchError(f"P has shape {P.shape}, expected ({n}, {n})")
            if np.abs(P - P.T).max(initial=0.0) > _SYMMETRY_TOL:
                raise ValueError("P is not symmetric")
            object.__setattr__(self, "P", P)
        else:
            F = np.empty((0, n)) if self.p_factor is None else self.p_factor
            F = np.atleast_2d(np.asarray(F, dtype=float))
            if F.shape[1] != n:
                raise DimensionMismatchError(f"p_factor has {F.shape[1]} columns, expected {n}")
            object.__setattr__(self, "p_factor", F)
        object.__setattr__(self, "p_diag", _diagonal(self.p_diag, n))
        base = self.P if self.P is not None else self.p_factor
        finite = np.isfinite(q).all() and np.isfinite(base).all()
        if not finite or np.isnan(l).any() or np.isnan(u).any():
            raise ValueError("program data must be finite (bounds may be infinite, not NaN)")
        object.__setattr__(self, "_structure", _Structure(self))

    def with_p_diag(self, p_diag: np.ndarray) -> QuadraticProgram:
        """This program with ``p_diag`` in place of its own: only ``p_diag``
        is checked, and the rest, with its derived structure, is shared."""
        copy = object.__new__(type(self))
        copy.__dict__.update(self.__dict__, p_diag=_diagonal(p_diag, self.n))
        return copy

    @property
    def n(self) -> int:
        return self.q.size

    @property
    def m(self) -> int:
        return self.A.shape[0]

    def p_matvec(self, x: np.ndarray) -> np.ndarray:
        base = self.P @ x if self.P is not None else self.p_factor.T @ (self.p_factor @ x)
        return base + self.p_diag * x

    def p_trace(self) -> float:
        base = np.trace(self.P) if self.P is not None else np.sum(self.p_factor**2)
        return float(base + self.p_diag.sum())

    def p_dense(self) -> np.ndarray:
        return self._structure.dense_base + np.diag(self.p_diag)

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
    ``method`` names the path that ran: "newton" (the dual Newton path) or
    "admm".
    """

    x: np.ndarray
    y: np.ndarray
    status: str
    method: str
    primal_residual: float
    dual_residual: float
    iterations: int
    objective: float
    duality_gap: float = float("nan")


def _check_convexity(prob: QuadraticProgram) -> None:
    """Raise NonConvexError unless P = base + diag(p_diag) is convex to
    tolerance: the base by its certificate, derived once per ``_Structure``,
    and no entry of ``p_diag`` below -tol, tol = 1e-8 * max(trace P, 1).
    With a nonnegative ``p_diag``, tol_b <= tol, so P is certified to tol."""
    prob._structure.certificate  # raises on an indefinite base
    d_min = prob.p_diag.min(initial=0.0)
    if d_min < 0.0 and d_min < -_NONCONVEX_TOL * max(prob.p_trace(), 1.0):
        raise NonConvexError("p_diag contains a significantly negative entry")


class _ReducedKkt:
    """The row split of A shared by both ADMM linear systems, which solve
    M x = sigma x - q + A'(rho z - y) with M = P + sigma I + A' diag(rho) A.

    Singleton rows (one entry) become a gather (A x), a weighted bincount
    (A' y) and a diagonal term of M; the few general rows use a dense block.
    """

    def __init__(self, prob: QuadraticProgram, sigma: float):
        self.prob = prob
        self.sigma = sigma
        (self.singleton_rows, self.singleton_cols, self.singleton_vals,
         self.general_rows, self.A_general, self.AT_general) = prob._structure.row_split

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
        """The diagonal of M beyond the base and the general rows: p_diag,
        sigma and the singleton rows' part of A' diag(rho) A."""
        return self.prob.p_diag + (self.sigma + np.bincount(
            self.singleton_cols,
            weights=rho[self.singleton_rows] * self.singleton_vals**2,
            minlength=self.prob.n,
        ))

    def solve(self, x, z, y, q):
        """(x~, z~) of one ADMM step, with z~ = A x~."""
        x_t = self._solve(self.sigma * x - q + self.at_matvec(self._rho * z - y))
        return x_t, self.a_matvec(x_t)


class _DirectKkt(_ReducedKkt):
    """Dense Cholesky factorization of M."""

    def factor(self, rho: np.ndarray) -> None:
        general = (self.AT_general * rho[self.general_rows]) @ self.A_general
        M = self.prob._structure.dense_base + general
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
        diag = self._diag(rho)
        C = np.vstack(
            [self.prob.p_factor, np.sqrt(rho[self.general_rows])[:, None] * self.A_general]
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


def _solve_dual(prob, s: QpSettings, warm_start) -> QpSolution:
    """Semismooth Newton on the dual h(theta), theta = (nu, mu); see the
    module docstring. With M = [F; -E], the gradient is
    (nu, 0) - M x - (0, b) and the generalized Hessian is
    diag(1_k, 0) + M_a diag(1/D_a) M_a' over the active columns (x > 0)."""
    eq, bound, cols, E, Mt = prob._structure.dual
    F, D, q = prob.p_factor, prob.p_diag, prob.q
    k = F.shape[0]
    b = prob.l[eq]
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
        method="newton",
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
    if np.all(prob.p_diag > 0) and prob._structure.dual is not None:
        return _solve_dual(prob, s, None if warm_start is None else (x, y))
    if warm_start is None:
        x = np.zeros(n)
        y = np.zeros(m)
        Ax = np.zeros(m)
        z = np.clip(np.zeros(m), prob.l, prob.u)

    # Woodbury while the factor and the general rows have rank <= max(8, n // 2)
    lowrank = prob.P is None and (
        prob.p_factor.shape[0] + prob._structure.row_split[3].size <= max(8, n // 2)
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
        method="admm",
        primal_residual=r_prim,
        dual_residual=r_dual,
        iterations=iteration,
        objective=obj,
    )
