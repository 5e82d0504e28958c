"""Convex QP solver: minimize 1/2 x'Px + q'x subject to l <= Ax <= u.

The solver runs an operator-splitting (ADMM) iteration with over-relaxation,
residual-balancing step-size adaptation, and divergence certificates for
primal/dual infeasibility. The quadratic term may be given either as an
explicit sparse matrix or in factored form P = F'F + diag(p_diag); the
factored form lets the inner linear system be solved through a
diagonal-plus-low-rank (Woodbury) factorization, which is what makes large
balancing problems cheap to re-solve across a regularization grid.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import cho_factor
from scipy.linalg.lapack import dpotrs

from .errors import DimensionMismatchError, EmptyProgramError, NonConvexError

SOLVED = "solved"
MAX_ITERATIONS = "max_iterations"
PRIMAL_INFEASIBLE = "primal_infeasible"
DUAL_INFEASIBLE = "dual_infeasible"

_SYMMETRY_TOL = 1e-10
_NONCONVEX_TOL = 1e-8
_EQ_TOL = 1e-12
_RHO_EQ_SCALE = 1e3
_RHO_MIN, _RHO_MAX = 1e-6, 1e6


@dataclass(frozen=True)
class QuadraticProgram:
    """Problem data. Equalities are encoded as l == u rows of A.

    Exactly one representation of the quadratic term must be supplied:
    an explicit symmetric PSD matrix ``P``, or the factored pair
    ``p_factor`` (k x n) and ``p_diag`` (length n) with
    P = p_factor' p_factor + diag(p_diag). All data must be finite, except
    that bounds may be infinite.
    """

    q: np.ndarray
    A: sp.spmatrix
    l: np.ndarray
    u: np.ndarray
    P: sp.spmatrix | None = None
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
            P = sp.csr_matrix(self.P, dtype=float)
            if P.shape != (n, n):
                raise DimensionMismatchError(f"P has shape {P.shape}, expected ({n}, {n})")
            asym = abs(P - P.T)
            if asym.nnz and asym.max() > _SYMMETRY_TOL:
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
        quadratic = (self.P.data,) if explicit else (self.p_factor, self.p_diag)
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
            return float(self.P.diagonal().sum())
        return float(np.sum(self.p_factor**2) + self.p_diag.sum())

    def p_dense(self) -> np.ndarray:
        if self.P is not None:
            return self.P.toarray()
        return self.p_factor.T @ self.p_factor + np.diag(self.p_diag)

    def objective(self, x: np.ndarray) -> float:
        return float(0.5 * x @ self.p_matvec(x) + self.q @ x)


@dataclass(frozen=True)
class QpSettings:
    eps_abs: float = 1e-6
    eps_rel: float = 1e-6
    rho: float = 0.1
    sigma: float = 1e-6
    alpha: float = 1.6
    max_iter: int = 20000
    adapt_interval: int = 25  # residual-balancing rho updates
    adaptive_rho: bool = True
    eps_infeas: float = 1e-4
    linsys: str = "auto"  # "auto" | "direct" | "lowrank"
    # residuals are evaluated on every early iteration (cheap warm-started
    # re-solves stop immediately), then on this cadence
    check_interval: int = 5
    early_checks: int = 8


@dataclass(frozen=True)
class QpSolution:
    x: np.ndarray
    y: np.ndarray
    status: str
    primal_residual: float
    dual_residual: float
    iterations: int
    objective: float


def _check_convexity(prob: QuadraticProgram) -> None:
    tol = _NONCONVEX_TOL * max(prob.p_trace(), 1.0)
    if prob.P is None:
        if prob.p_diag.min(initial=0.0) < -tol:
            raise NonConvexError("p_diag contains a significantly negative entry")
        return
    n = prob.n
    if n <= 600:
        lam_min = float(np.linalg.eigvalsh(prob.P.toarray())[0])
    else:
        try:
            lam_min = float(spla.eigsh(prob.P, k=1, which="SA", return_eigenvectors=False)[0])
        except (spla.ArpackNoConvergence, spla.ArpackError) as exc:
            warnings.warn(f"convexity of P not certified: eigsh failed ({exc})", RuntimeWarning)
            return
    if lam_min < -tol:
        raise NonConvexError(f"P has eigenvalue {lam_min:.3e} below -{tol:.3e}")


class _DirectKkt:
    """Sparse LU of the full KKT system [[P + sigma I, A'], [A, -diag(1/rho)]]."""

    def __init__(self, prob: QuadraticProgram, sigma: float):
        self.prob = prob
        self.sigma = sigma
        n = prob.n
        P = prob.P if prob.P is not None else sp.csr_matrix(prob.p_dense())
        self._upper_left = (P + sigma * sp.eye(n)).tocsc()
        self._A = prob.A.tocsr()
        self._AT = self._A.T.tocsr()
        self._lu = None

    def a_matvec(self, x: np.ndarray) -> np.ndarray:
        return self._A @ x

    def at_matvec(self, y: np.ndarray) -> np.ndarray:
        return self._AT @ y

    def factor(self, rho: np.ndarray) -> None:
        kkt = sp.bmat(
            [
                [self._upper_left, self._AT],
                [self._A, -sp.diags(1.0 / rho)],
            ],
            format="csc",
        )
        self._lu = spla.splu(kkt)
        self._rho = rho

    def solve(self, x, z, y, q):
        n = self.prob.n
        rhs = np.concatenate([self.sigma * x - q, z - y / self._rho])
        sol = self._lu.solve(rhs)
        x_t = sol[:n]
        nu = sol[n:]
        z_t = z + (nu - y) / self._rho
        return x_t, z_t


class _LowRankKkt:
    """Woodbury solve of M = diag(d) + C'C with C stacking the P factor and
    the non-singleton constraint rows scaled by sqrt(rho).

    The constraint matvecs exploit the same row split: singleton rows become
    a gather (A x) or a weighted bincount (A' y); the few general rows use a
    dense block. This keeps the per-iteration cost at O(n * rank) with plain
    numpy calls.
    """

    def __init__(self, prob: QuadraticProgram, sigma: float):
        self.prob = prob
        self.sigma = sigma
        A = prob.A.tocsr()
        nnz_per_row = np.diff(A.indptr)
        self.singleton_rows = np.flatnonzero(nnz_per_row == 1)
        self.general_rows = np.flatnonzero(nnz_per_row != 1)
        self.singleton_cols = A.indices[A.indptr[self.singleton_rows]]
        self.singleton_vals = A.data[A.indptr[self.singleton_rows]]
        self.A_general = A[self.general_rows].toarray()
        self.AT_general = self.A_general.T.copy()
        self.rank = prob.p_factor.shape[0] + self.general_rows.size

    def a_matvec(self, x: np.ndarray) -> np.ndarray:
        out = np.empty(self.prob.m)
        out[self.singleton_rows] = self.singleton_vals * x[self.singleton_cols]
        if self.general_rows.size:
            out[self.general_rows] = self.A_general @ x
        return out

    def at_matvec(self, y: np.ndarray) -> np.ndarray:
        res = np.bincount(
            self.singleton_cols,
            weights=self.singleton_vals * y[self.singleton_rows],
            minlength=self.prob.n,
        )
        if self.general_rows.size:
            res += self.AT_general @ y[self.general_rows]
        return res

    def factor(self, rho: np.ndarray) -> None:
        prob = self.prob
        diag = prob.p_diag + self.sigma + np.bincount(
            self.singleton_cols,
            weights=rho[self.singleton_rows] * self.singleton_vals**2,
            minlength=prob.n,
        )
        C = np.vstack(
            [prob.p_factor, np.sqrt(rho[self.general_rows])[:, None] * self.A_general]
        )
        self._diag = diag
        self._C = C
        Cd = C / diag
        S = Cd @ C.T
        S[np.diag_indices_from(S)] += 1.0
        self._chol = cho_factor(S, lower=True)[0]
        self._rho = rho

    def solve(self, x, z, y, q):
        rhs = self.sigma * x - q + self.at_matvec(self._rho * z - y)
        t = rhs / self._diag
        # LAPACK directly: the program's data were checked finite on construction
        w = dpotrs(self._chol, self._C @ t, lower=True)[0]
        x_t = t - (self._C.T @ w) / self._diag
        z_t = self.a_matvec(x_t)
        return x_t, z_t


def _build_rho(prob: QuadraticProgram, rho_scalar: float) -> np.ndarray:
    rho = np.full(prob.m, rho_scalar)
    finite = np.isfinite(prob.l) & np.isfinite(prob.u)
    eq = finite & (prob.u - prob.l <= _EQ_TOL)
    rho[eq] = rho_scalar * _RHO_EQ_SCALE
    return rho


def _primal_infeasible(prob, kkt, dy, eps):
    scale = float(np.abs(dy).max(initial=0.0))
    if scale <= 0:
        return False
    if float(np.abs(kkt.at_matvec(dy)).max(initial=0.0)) > eps * scale:
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


def solve_qp(
    prob: QuadraticProgram,
    settings: QpSettings | None = None,
    warm_start: tuple[np.ndarray, np.ndarray] | None = None,
) -> QpSolution:
    """Solve the QP; deterministic given the inputs and settings.

    ``warm_start`` is an (x0, y0) pair, typically a previous solution for a
    nearby problem. On ``solved`` the returned residuals satisfy the
    eps_abs/eps_rel termination bounds; on ``max_iterations`` the iterate with
    the smallest combined normalized residual is returned.
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
    else:
        x = np.zeros(n)
        y = np.zeros(m)
        Ax = np.zeros(m)
        z = np.clip(np.zeros(m), prob.l, prob.u)

    kkt = None
    if prob.P is None and s.linsys != "direct":
        lowrank = _LowRankKkt(prob, s.sigma)
        if s.linsys == "lowrank" or lowrank.rank <= max(8, n // 2):
            kkt = lowrank
    if kkt is None:
        kkt = _DirectKkt(prob, s.sigma)
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
            iteration <= s.early_checks
            or iteration % s.check_interval == 0
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
        if _primal_infeasible(prob, kkt, dy, s.eps_infeas):
            status = PRIMAL_INFEASIBLE
            break
        if _dual_infeasible(prob, kkt, dx, s.eps_infeas):
            status = DUAL_INFEASIBLE
            break

        if s.adaptive_rho and iteration % s.adapt_interval == 0 and norm_d > 0:
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


def assemble_sparse(
    p_blocks: Sequence[np.ndarray | sp.spmatrix],
    a_blocks: Sequence[np.ndarray | sp.spmatrix],
    q_blocks: Sequence[np.ndarray] | None = None,
    l_blocks: Sequence[np.ndarray] | None = None,
    u_blocks: Sequence[np.ndarray] | None = None,
) -> QuadraticProgram:
    """Assemble a block-diagonal program without densifying the zero blocks.

    ``p_blocks[i]`` is the square quadratic block of group i and
    ``a_blocks[i]`` its constraint block (column count must match). Linear
    terms default to zero and constraint bounds to equality at zero.
    """
    p_blocks = list(p_blocks)
    a_blocks = list(a_blocks)
    if not p_blocks or not a_blocks:
        raise EmptyProgramError("assembly requires at least one P block and one A block")
    if len(p_blocks) != len(a_blocks):
        raise DimensionMismatchError(
            f"{len(p_blocks)} P blocks vs {len(a_blocks)} A blocks"
        )
    for i, (Pb, Ab) in enumerate(zip(p_blocks, a_blocks)):
        Pb = np.asarray(Pb) if not sp.issparse(Pb) else Pb
        if Pb.shape[0] != Pb.shape[1]:
            raise DimensionMismatchError(f"P block {i} is not square: {Pb.shape}")
        if Ab.shape[1] != Pb.shape[0]:
            raise DimensionMismatchError(
                f"A block {i} has {Ab.shape[1]} columns but P block has {Pb.shape[0]}"
            )

    P = sp.block_diag([sp.csr_matrix(b) for b in p_blocks], format="csr")
    A = sp.block_diag([sp.csr_matrix(b) for b in a_blocks], format="csr")
    sizes = [b.shape[0] for b in p_blocks]
    rows = [b.shape[0] for b in a_blocks]
    q = (
        np.concatenate([np.asarray(qb, dtype=float).ravel() for qb in q_blocks])
        if q_blocks is not None
        else np.zeros(sum(sizes))
    )
    l = (
        np.concatenate([np.asarray(lb, dtype=float).ravel() for lb in l_blocks])
        if l_blocks is not None
        else np.zeros(sum(rows))
    )
    u = (
        np.concatenate([np.asarray(ub, dtype=float).ravel() for ub in u_blocks])
        if u_blocks is not None
        else np.zeros(sum(rows))
    )
    if q.size != sum(sizes) or l.size != sum(rows) or u.size != sum(rows):
        raise DimensionMismatchError("q/l/u blocks do not match the assembled dimensions")
    return QuadraticProgram(P=P, q=q, A=A, l=l, u=u)
