"""Convex QP solver: minimize 1/2 x'Px + q'x subject to l <= Ax <= u and
lb <= x <= ub, with multipliers y on the stacked rows [A; I_S] (see
``QuadraticProgram``).

``solve_qp`` takes one of three paths, chosen from the program alone. Two of
them need the balancing shape: equality rows Ex = b (E = A, b = l = u),
0 <= x < inf on every variable, and P = base + diag(D) with every D > 0 (a
balancing program at lambda > 0).

* **Dual Newton.** When the base is factored, P = F'F + diag(D) (linear
  mode), the program is solved on its exact dual in theta = (nu, mu), one
  entry per row of F and of E. With s = q + F'nu - E'mu and
  x = max(0, -s)/D, the dual minimizes h = 1/2 |nu|^2 + 1/2 sum D x^2 - b'mu,
  a convex piecewise quadratic; a semismooth Newton step with an Armijo
  backtrack takes a few steps, each one factorization of a (k + rows) square
  Hessian M_a diag(1/D_a) M_a' over the active columns, with M = [F; -E].
  The copies of a program share the Gram G0 = M diag(1/D0) M' for the
  first ridge D0 they solve with. Such a copy, at a ridge D = c D0 (a
  lambda grid), first solves for the minimizer theta* of the piece of h
  on which every column is active,
  (diag(1_k, 0) + G0/c) theta* = (0, b) - r0/c with r0 = M diag(1/D0) q
  kept beside G0, and starts there when s* = q + M'theta* < 0 puts theta*
  on that piece, where it is the dual optimum; otherwise it starts from the
  warm or cold start. Its Hessian is diag(1_k, 0) + T_A/c, where the
  lambda-free T_A = M_A diag(1/D0_A) M_A' over the active columns A starts
  at G0 and each step adds the columns that entered A and subtracts those
  that left; it is formed again from A when more columns changed since its
  last such form than A holds, or when its factorization fails. The dual
  residual's n x k product waits until the primal residual passes (or the
  exit). The duality gap objective(x) + h certifies the result.
* **Primal-dual active set.** When the base is an explicit matrix (kernel
  mode), the program is solved by the primal-dual active-set method, a
  semismooth Newton method on the KKT conditions (Hintermueller, Ito &
  Kunisch 2002). Each step fixes x = 0 off a free set F, solves the
  equality-constrained program on F by one Cholesky factorization of P_FF,
  in place in one copy of P's free block (of P while all units are free),
  and a Schur solve for the multipliers mu of E, sets the bound multipliers
  s = P x + q - E'mu and takes the next free set {x - s > 0}. It stops when
  the free set repeats, at an exact KKT point, like OSQP's solution polish
  (Stellato et al. 2020). If the free set keeps changing for
  ``_ACTIVE_SET_MAX_STEPS`` steps, a factorization fails or the result
  misses the residual test, the program goes to ADMM.
* **ADMM** for every other program (a zero in D, inequality rows, other
  bounds): an operator-splitting iteration with over-relaxation,
  residual-balancing step-size adaptation, and divergence certificates for
  primal/dual infeasibility, on the stacked rows C = [A; I_S]. Each
  iteration solves the reduced KKT system
  (P + sigma I + C' diag(rho) C) x = sigma x - q + C'(rho z - y) of OSQP:
  through a diagonal-plus-low-rank (Woodbury) factorization when P is
  factored and of low rank, otherwise through a dense Cholesky
  factorization.

All paths return y in one layout and sign convention (P x + q + C'y = 0 at
the optimum) and stop on the same eps_abs/eps_rel residual test, so each can
warm-start the others. A program with an explicit P is solved with the BLAS
capped at one thread (:func:`~sitetransport.blas.single_threaded_blas`): on
a two-core machine its dense factorizations and products at n = 500 ran
faster on one thread than on two.

P is an explicit or factored base plus diag(p_diag). As in OSQP's vector
updates, what the solver derives from the rest (see ``_Structure``) is
computed once per program and shared by its ``with_p_diag`` copies.
"""

from __future__ import annotations

import numbers
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_factor
from scipy.linalg.lapack import dpotrf, dpotrs

from .blas import single_threaded_blas
from .errors import DimensionMismatchError, NonConvexError

SOLVED = "solved"
MAX_ITERATIONS = "max_iterations"
PRIMAL_INFEASIBLE = "primal_infeasible"
DUAL_INFEASIBLE = "dual_infeasible"

_SYMMETRY_TOL = 1e-10
_NONCONVEX_TOL = 1e-8
_EQ_TOL = 1e-12
# ADMM's initial step size, proximal term and over-relaxation, and the
# divergence tolerance of its (and the dual path's) infeasibility tests
_RHO = 0.1
_SIGMA = 1e-6
_ALPHA = 1.6
_EPS_INFEAS = 1e-4
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
# free-set changes the active-set path may take before handing over to ADMM
_ACTIVE_SET_MAX_STEPS = 50
# a ridge counts as c times another when every entry matches to this many
# ulps; the ridges 2 lam reg of one site's lambda copies match to three
_RIDGE_ULPS = 8


def _vector(value, size: int, fill: float, name: str) -> np.ndarray:
    """``value`` as a float vector of ``size`` entries, ``fill`` in each when None."""
    v = np.full(size, fill) if value is None else np.asarray(value, dtype=float).ravel()
    if v.size != size:
        raise DimensionMismatchError(f"{name} has {v.size} entries, expected {size}")
    return v


def _diagonal(d, n: int) -> np.ndarray:
    d = _vector(d, n, 0.0, "p_diag")
    if not np.isfinite(d).all():
        raise ValueError("program data must be finite (bounds may be infinite, not NaN)")
    return d


class _Structure:
    """What the solver derives from a program's constraints, ``q`` and base
    (``P``, or the factor ``F`` of F'F): the set S of bounded variables and
    the bounds of the stacked rows [A; I_S] at once, every other piece once,
    on first use; a program shares it with every ``with_p_diag`` copy. The
    pieces that depend on ``p_diag``, the dual path's Gram, r0 and running
    active Gram (``dual_gram``, ``active_gram``), are kept for the first
    ridge that path solves with and serve every copy whose ridge is a
    multiple of it."""

    def __init__(self, prob: QuadraticProgram):
        self.A, self.l, self.u, self.q = prob.A, prob.l, prob.u, prob.q
        self.lb, self.ub = prob.lb, prob.ub
        self.P, self.F = prob.P, prob.p_factor
        self.m_a = self.A.shape[0]
        self.bounded = np.flatnonzero(np.isfinite(self.lb) | np.isfinite(self.ub))
        self.lower = np.concatenate([self.l, self.lb[self.bounded]])
        self.upper = np.concatenate([self.u, self.ub[self.bounded]])
        self._ridge: np.ndarray | None = None
        self._gram: tuple[np.ndarray, np.ndarray] | None = None
        self._running = None  # (A, T_A, rows changed since T_A was last formed directly)

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

    def rows(self, x: np.ndarray) -> np.ndarray:
        """[A; I_S] x: the rows of A, then the bounded variables."""
        return np.concatenate([self.A @ x, x[self.bounded]])

    def rows_t(self, y: np.ndarray) -> np.ndarray:
        """[A; I_S]' y: A' times y's first m_a entries, plus the rest on S."""
        out = self.A.T @ y[: self.m_a]
        out[self.bounded] += y[self.m_a :]
        return out

    @cached_property
    def balancing(self) -> bool:
        """Whether the program has the balancing shape: every row of A an
        equality (l == u, finite) and 0 <= x < inf on every variable."""
        return bool(
            np.all(self.l == self.u) and np.isfinite(self.l).all()
            and np.all(self.lb == 0.0) and np.all(self.ub == np.inf)
        )

    @cached_property
    def dual(self) -> np.ndarray | None:
        """The dual Newton path's Mt = [F', -E'] with E = A, one row per
        column of the program, or None when the base is explicit or the
        program is not of the balancing shape."""
        if self.P is not None or not self.balancing:
            return None
        return np.hstack([self.F.T, -self.A.T])

    def dual_gram(self, D: np.ndarray) -> tuple[np.ndarray, np.ndarray, float] | None:
        """(G0, r0, c) for a ridge D = c * D0 to a few ulps of each entry,
        where D0 is the first ridge asked about (a copy is kept),
        G0 = Mt' diag(1/D0) Mt over every column, the dual path's Hessian
        without its unit block when every column is active, and
        r0 = Mt'(q/D0). None for D0 itself, so a program's first solve
        builds no G0, and for a D that is no such multiple. G0 and r0 are
        built at the first multiple."""
        if self._ridge is None:
            self._ridge = D.copy()
            return None
        c = float(D[0] / self._ridge[0])
        if not np.all(np.abs(D - c * self._ridge) <= _RIDGE_ULPS * np.spacing(D)):
            return None
        if self._gram is None:
            Mt, inv_d0 = self.dual, 1.0 / self._ridge
            self._gram = _row_gram(Mt, slice(None), inv_d0), Mt.T @ (self.q * inv_d0)
            self._running = np.ones(D.size, dtype=bool), self._gram[0].copy(), 0
        return *self._gram, c

    def active_gram(self, active: np.ndarray, direct: bool = False) -> np.ndarray:
        """T_A = Mt_A' diag(1/D0_A) Mt_A over the active rows A (after
        ``dual_gram`` built G0, where it starts), updated from the last A by the
        rows that entered and left it; formed again from the active rows when
        ``direct`` or when the rows changed since its last such form outnumber
        them, which bounds both the work and the rounding drift."""
        (last, T, drift), Mt, inv_d0 = self._running, self.dual, 1.0 / self._ridge
        changed = active != last
        drift += np.count_nonzero(changed)
        if direct or drift > np.count_nonzero(active):
            T, drift = _row_gram(Mt, active, inv_d0), 0
        else:
            T += _row_gram(Mt, changed & active, inv_d0) - _row_gram(Mt, changed & ~active, inv_d0)
        self._running = active, T, drift
        return T


@dataclass(frozen=True, eq=False)
class QuadraticProgram:
    """Problem data: minimize 1/2 x'Px + q'x subject to l <= A x <= u and
    lb <= x <= ub, every bound unbounded and ``A`` without rows by default.

    ``A`` holds the general rows, l == u for an equality; a bound on one
    variable goes in ``lb``/``ub``. A solution's ``y`` has ``m`` entries, on
    the stacked rows [A; I_S] with S the variables with a finite bound: one
    per row of A, then one per variable of S in variable order.

    The quadratic term is P = base + diag(p_diag). The base is an explicit
    symmetric PSD matrix ``P`` (kept dense, as ``A``; sparse input is
    densified) or p_factor' p_factor for a k x n ``p_factor``, not both;
    ``p_diag`` (length n) defaults to zeros. All data must be finite, except
    that bounds may be infinite.

    What does not depend on ``p_diag`` (see ``_Structure``) is derived once
    and shared by every copy that ``with_p_diag`` makes.
    """

    q: np.ndarray
    A: np.ndarray | None = None
    l: np.ndarray | None = None
    u: np.ndarray | None = None
    P: np.ndarray | None = None
    p_factor: np.ndarray | None = None
    p_diag: np.ndarray | None = None
    lb: np.ndarray | None = None
    ub: np.ndarray | None = None
    _structure: _Structure = field(init=False, repr=False)

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float).ravel()
        object.__setattr__(self, "q", q)
        n = q.size
        A = np.empty((0, n)) if self.A is None else self.A
        A = np.asarray(A.toarray() if sp.issparse(A) else A, dtype=float)
        if A.ndim != 2 or A.shape[1] != n:
            raise DimensionMismatchError(f"A has shape {A.shape}, expected {n} columns")
        object.__setattr__(self, "A", A)
        m, bounds = A.shape[0], ("l", "u", "lb", "ub")
        for name, size, fill in zip(bounds, (m, m, n, n), (-np.inf, np.inf, -np.inf, np.inf)):
            object.__setattr__(self, name, _vector(getattr(self, name), size, fill, name))
        if np.any(self.l > self.u) or np.any(self.lb > self.ub):
            raise ValueError("lower bounds exceed upper bounds")

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
        finite = np.isfinite(q).all() and np.isfinite(base).all() and np.isfinite(A).all()
        if not finite or any(np.isnan(getattr(self, name)).any() for name in bounds):
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
        """The length of y: the rows of A and the bounded variables."""
        return self._structure.lower.size

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
    """Stopping settings.

    Every path stops when the primal and dual residuals fall below
    ``eps_abs + eps_rel * scale``. ADMM and the dual Newton path give up
    after ``max_iter`` iterations (Newton steps on the dual path); the
    active-set path hands over to ADMM instead. A tolerance that is not finite
    and nonnegative, or a ``max_iter`` not a whole number >= 1, raises ValueError.
    """

    eps_abs: float = 1e-6
    eps_rel: float = 1e-6
    max_iter: int = 20000

    def __post_init__(self):
        for name in ("eps_abs", "eps_rel"):
            value = float(getattr(self, name))
            if not 0.0 <= value < np.inf:
                raise ValueError(f"{name} must be a finite nonnegative number, got {getattr(self, name)!r}")
            object.__setattr__(self, name, value)
        object.__setattr__(self, "max_iter", whole_number(self.max_iter, "max_iter", 1))


def whole_number(value, name: str, low: int | None = None) -> int:
    """``value`` as an int, or ValueError naming ``name`` unless it is a whole
    number (an integral float such as 3.0 included), of at least ``low`` if given."""
    try:
        number = value if isinstance(value, numbers.Integral) else float(value)
    except (TypeError, ValueError):
        number = np.nan  # not a number: rejected below by its own text
    if not (isinstance(number, numbers.Integral) or number.is_integer()):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    if low is not None and number < low:
        raise ValueError(f"{name} must be at least {low}, got {value!r}")
    return int(number)


@dataclass(frozen=True, eq=False)
class QpSolution:
    """Solver output; ``y``, laid out as the stacked rows [A; I_S] (see
    QuadraticProgram), satisfies P x + q + [A; I_S]'y = 0 at the optimum.

    ``duality_gap`` is objective(x) + h(nu, mu) on the dual Newton path,
    which equals 1/2 |F x - nu|^2 + mu'(E x - b). By weak duality it bounds
    objective(x) minus the optimum from above, and it is at least
    -|mu|_1 * primal_residual. x meets E x = b only to primal_residual, so
    the gap certifies near-optimality only together with a small
    primal_residual; a tiny or negative gap alone does not.
    On the active-set path it is x's+ + mu'(E x - b) with
    s = P x + q - E'mu: objective(x) minus the Lagrangian dual at
    (mu, s+), an upper bound on objective(x) minus the optimum whenever
    s >= 0, i.e. when dual_residual is zero.
    ADMM does not compute a gap and reports NaN.
    ``method`` names the path that ran: "newton" (the dual Newton path),
    "active_set" (the primal-dual active-set path) or "admm", also when
    the active-set path handed the program over to ADMM.
    ``iterations`` counts Newton steps, active-set steps or ADMM
    iterations; it is 0 when the dual path's start is already optimal, as
    at the all-positive start theta* of a program's later copies.
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
    """What both ADMM linear systems share. They solve
    M x = sigma x - q + C'(rho z - y) with M = P + sigma I + C' diag(rho) C
    over the stacked rows C = [A; I_S]: the bound rows add their rho to the
    diagonal of M, the rows of A a dense block.
    """

    def __init__(self, prob: QuadraticProgram, sigma: float):
        self.prob = prob
        self.sigma = sigma
        self.A, self.m_a = prob.A, prob._structure.m_a

    def _diag(self, rho: np.ndarray) -> np.ndarray:
        """The diagonal of M beyond the base and the rows of A: p_diag,
        sigma and the bound rows' rho."""
        bound_rho = np.zeros(self.prob.n)
        bound_rho[self.prob._structure.bounded] = rho[self.m_a :]
        return self.prob.p_diag + (self.sigma + bound_rho)

    def solve(self, x, z, y, q):
        """(x~, z~) of one ADMM step, with z~ = C x~."""
        structure = self.prob._structure
        x_t = self._solve(self.sigma * x - q + structure.rows_t(self._rho * z - y))
        return x_t, structure.rows(x_t)


class _DirectKkt(_ReducedKkt):
    """Dense Cholesky factorization of M."""

    def factor(self, rho: np.ndarray) -> None:
        general = (self.A.T * rho[: self.m_a]) @ self.A
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
    the rows of A scaled by sqrt(rho), at O(n * rank) per iteration."""

    def factor(self, rho: np.ndarray) -> None:
        diag = self._diag(rho)
        C = np.vstack([self.prob.p_factor, np.sqrt(rho[: self.m_a])[:, None] * self.A])
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
    lower, upper = prob._structure.lower, prob._structure.upper
    rho = np.full(prob.m, rho_scalar)
    finite = np.isfinite(lower) & np.isfinite(upper)
    eq = finite & (upper - lower <= _EQ_TOL)
    rho[eq] = rho_scalar * _RHO_EQ_SCALE
    return rho


def _residuals(prob, Ax, z, Px, Aty, q_norm) -> tuple[float, float, float, float]:
    """Primal and dual residuals |Cx - z|, |Px + q + C'y| (max norms) and
    their scales, as ADMM and the active-set path test them."""
    r_prim = float(np.abs(Ax - z).max(initial=0.0))
    r_dual = float(np.abs(Px + prob.q + Aty).max(initial=0.0))
    scale_p = max(float(np.abs(Ax).max(initial=0.0)), float(np.abs(z).max(initial=0.0)))
    scale_d = max(float(np.abs(Px).max(initial=0.0)), float(np.abs(Aty).max(initial=0.0)), q_norm)
    return r_prim, r_dual, scale_p, scale_d


def _primal_infeasible(prob, dy, eps):
    scale = float(np.abs(dy).max(initial=0.0))
    if scale <= 0:
        return False
    structure = prob._structure
    if float(np.abs(structure.rows_t(dy)).max(initial=0.0)) > eps * scale:
        return False
    pos = dy > 0
    neg = dy < 0
    support = float(np.sum(structure.upper[pos] * dy[pos])) + float(np.sum(structure.lower[neg] * dy[neg]))
    return support <= -eps * scale


def _dual_infeasible(prob, dx, eps):
    scale = float(np.abs(dx).max(initial=0.0))
    if scale <= 0:
        return False
    if float(np.abs(prob.p_matvec(dx)).max(initial=0.0)) > eps * scale:
        return False
    if float(prob.q @ dx) > -eps * scale:
        return False
    # C dx may not leave any row by a finite bound
    structure, tol = prob._structure, eps * scale
    Cdx = structure.rows(dx)
    return not (np.any(Cdx[np.isfinite(structure.upper)] > tol) or np.any(Cdx[np.isfinite(structure.lower)] < -tol))


def _row_gram(Mt, rows, w) -> np.ndarray:
    """Mt_r' diag(w_r) Mt_r over the rows r selected by ``rows``."""
    W = Mt[rows] * np.sqrt(w[rows])[:, None]
    return W.T @ W


def _all_positive_start(Mt, q, unit, c, gram, r0, ratio) -> tuple[np.ndarray, np.ndarray] | None:
    """(theta*, s*) with s* = q + Mt theta* for the minimizer theta* of the
    dual's quadratic piece on which every column is active,
    (diag(unit) + G0/ratio) theta* = c - r0/ratio at a ridge D = ratio D0,
    when s* < 0 puts theta* on that piece (then it is the dual optimum);
    None when some entry of s* is not negative or the matrix does not
    factor."""
    H = gram / ratio
    H[np.diag_indices_from(H)] += unit
    chol, info = dpotrf(H, lower=1, overwrite_a=1)
    if info:
        return None
    theta = dpotrs(chol, c - r0 / ratio, lower=1)[0]
    sv = q + Mt @ theta
    return (theta, sv) if np.all(sv < 0.0) else None


def _solve_dual(prob, s: QpSettings, warm_start) -> QpSolution:
    """Semismooth Newton on the dual h(theta), theta = (nu, mu); see the
    module docstring. With M = [F; -E], the gradient is
    (nu, 0) - M x - (0, b) and the generalized Hessian is
    diag(1_k, 0) + M_a diag(1/D_a) M_a' over the active columns (x > 0)."""
    structure = prob._structure
    Mt, E, b = structure.dual, prob.A, prob.l
    F, D, q = prob.p_factor, prob.p_diag, prob.q
    k = F.shape[0]
    unit = np.concatenate([np.ones(k), np.zeros(b.size)])
    c = np.concatenate([np.zeros(k), b])
    inv_d = 1.0 / D
    gram, r0, ridge_ratio = structure.dual_gram(D) or (None, None, 1.0)

    # s is carried along the steps (s += t M'step) instead of recomputed from
    # theta, and the line search measures the change in h directly: at small
    # D, x = max(0, -s)/D magnifies the rounding of q + M'theta beyond the
    # stopping tolerance, and h itself loses the digits Armijo compares
    start = None if gram is None else _all_positive_start(Mt, q, unit, c, gram, r0, ridge_ratio)
    if start is not None:
        theta, sv = start
    else:
        if warm_start is None:
            # the least-norm point of Ex = b, with its least-squares multipliers
            x0 = np.linalg.lstsq(E, b, rcond=None)[0]
            mu = np.linalg.lstsq(E.T, prob.p_matvec(x0) + q, rcond=None)[0]
        else:
            x0, mu = warm_start[0], -warm_start[1][: b.size]
        theta = np.concatenate([F @ x0, mu])
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
        y = -np.concatenate([theta[k:], bound_y])
        r_prim = float(np.abs(g[k:]).max(initial=0.0))
        scale_p = max(float(np.abs(g[k:] + b).max(initial=0.0)), b_norm, float(x.max(initial=0.0)))
        r_dual = None  # its n x k product only once the primal residual passes
        if r_prim <= s.eps_abs + s.eps_rel * scale_p:
            # P x + q + C'y = F'(F x - nu) = -F'g_nu, and P x = F'nu - F'g_nu + D x
            # with F'nu = s - q - Mt[:, k:] mu: no n x k product beyond F'g_nu
            mt_mu = Mt[:, k:] @ theta[k:]
            f_g = Mt[:, :k] @ g[:k]
            r_dual = float(np.abs(f_g).max(initial=0.0))
            scale_d = max(
                float(np.abs(sv - q - mt_mu - f_g + a).max(initial=0.0)),
                float(np.abs(mt_mu - bound_y).max(initial=0.0)),
                q_norm,
            )
            if r_dual <= s.eps_abs + s.eps_rel * scale_d:
                status = SOLVED
                break
        if y_prev is not None and _primal_infeasible(prob, y - y_prev, _EPS_INFEAS):
            status = PRIMAL_INFEASIBLE
            break
        if iteration == s.max_iter:
            break
        y_prev = y

        active = x > 0.0
        H = _row_gram(Mt, active, inv_d) if gram is None else structure.active_gram(active) / ridge_ratio
        H[np.diag_indices_from(H)] += unit
        chol, info = dpotrf(H, lower=1)
        if info and gram is not None:  # what left A may have cancelled: form T_A again
            H = structure.active_gram(active, direct=True) / ridge_ratio
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

    if r_dual is None:  # the last check's primal residual did not pass
        r_dual = float(np.abs(Mt[:, :k] @ g[:k]).max(initial=0.0))
    if status == PRIMAL_INFEASIBLE:
        obj, gap = np.inf, float("nan")
    else:
        # F x = nu - g_nu and D x = a, so no n x k product is repeated
        fx = theta[:k] - g[:k]
        obj = float(0.5 * (fx @ fx + a @ x) + q @ x)
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


def _covers_rows(E: np.ndarray, free: np.ndarray) -> bool:
    """Whether every row of E has a nonzero entry in a free column, which
    E_F x_F = b needs for a solution (and the Schur matrix for a factor)."""
    return bool(free.any() and (E[:, free] != 0.0).any(axis=1).all())


def _solve_active_set(prob, s: QpSettings, warm_start) -> QpSolution | None:
    """The primal-dual active-set path (see the module docstring), or None
    to hand the program to ADMM. A warm start (x0, y0) gives the first free
    set {x0 - s0 > 0} with s0 = -y0 on the bound rows, unless that set
    leaves a row of E without a free column; otherwise every column starts
    free."""
    structure = prob._structure
    P, d, q, E, b = prob.P, prob.p_diag, prob.q, prob.A, prob.l
    if b.size == 0:  # x >= 0 alone: no multipliers for the Schur step to fix
        return None
    n = prob.n
    free = np.ones(n, dtype=bool)
    if warm_start is not None:
        warm_free = warm_start[0] + warm_start[1][b.size :] > 0.0
        if _covers_rows(E, warm_free):
            free = warm_free
    for step in range(1, _ACTIVE_SET_MAX_STEPS + 1):
        if not _covers_rows(E, free):  # an arm without free units
            return None
        idx = np.flatnonzero(free)
        # one copy of P_FF (a plain copy of P while every unit is free): P_FF
        # is symmetric, so its transpose is P_FF in Fortran order, factored in place
        H = (P.copy() if idx.size == n else P.take(idx, 0).take(idx, 1)).T
        H[np.diag_indices_from(H)] += d[idx]
        chol, info = dpotrf(H, lower=1, overwrite_a=1)
        if info:
            return None
        E_f = E[:, idx]
        # x_F = H^-1 (E_F'mu - q_F), and E_F x_F = b fixes mu
        solved = dpotrs(chol, np.column_stack([E_f.T, q[idx]]), lower=1)[0]
        h_e, h_q = solved[:, :-1], solved[:, -1]
        schur, info = dpotrf(E_f @ h_e, lower=1)
        if info:  # rows of E_F linearly dependent
            return None
        mu = dpotrs(schur, b + E_f @ h_q, lower=1)[0]
        x = np.zeros(n)
        x[idx] = h_e @ mu - h_q
        px = prob.p_matvec(x)
        sv = px + q - E.T @ mu
        next_free = x - sv > 0.0
        if np.array_equal(next_free, free):
            break
        free = next_free
    else:
        return None

    bound_y = np.maximum(sv, 0.0)
    y = -np.concatenate([mu, bound_y])
    Ax = structure.rows(x)
    r_prim, r_dual, scale_p, scale_d = _residuals(
        prob, Ax, np.clip(Ax, structure.lower, structure.upper), px, structure.rows_t(y),
        float(np.abs(q).max(initial=0.0)),
    )
    if r_prim > s.eps_abs + s.eps_rel * scale_p or r_dual > s.eps_abs + s.eps_rel * scale_d:
        return None
    return QpSolution(
        x=x,
        y=y,
        status=SOLVED,
        method="active_set",
        primal_residual=r_prim,
        dual_residual=r_dual,
        iterations=step,
        objective=float(0.5 * x @ px + q @ x),
        duality_gap=float(x @ bound_y) + float(mu @ (E @ x - b)),
    )


def solve_qp(
    prob: QuadraticProgram,
    settings: QpSettings | None = None,
    warm_start: tuple[np.ndarray, np.ndarray] | None = None,
) -> QpSolution:
    """Solve the QP; deterministic given the inputs and settings.

    The path (dual Newton, active set or ADMM, see the module docstring)
    follows from the program's shape. ``warm_start`` is an (x0, y0) pair,
    typically a previous solution for a nearby problem, from any path. On
    ``solved`` the returned residuals satisfy the eps_abs/eps_rel
    termination bounds; on ``max_iterations`` ADMM returns the iterate with
    the smallest combined normalized residual and Newton its last
    (lowest-h) iterate. The active-set path ends solved or hands over to
    ADMM; ``max_iter`` does not bound its steps.
    """
    with single_threaded_blas() if prob.P is not None else nullcontext():
        return _solve(prob, settings or QpSettings(), warm_start)


def _solve(prob: QuadraticProgram, s: QpSettings, warm_start) -> QpSolution:
    _check_convexity(prob)
    n, m = prob.n, prob.m

    if warm_start is not None:
        x = np.asarray(warm_start[0], dtype=float).copy()
        y = np.asarray(warm_start[1], dtype=float).copy()
        if x.size != n or y.size != m:
            raise DimensionMismatchError("warm start dimensions do not match the program")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("warm start must be finite")
    structure = prob._structure
    if np.all(prob.p_diag > 0):
        start = None if warm_start is None else (x, y)
        if structure.dual is not None:
            return _solve_dual(prob, s, start)
        if prob.P is not None and structure.balancing:
            sol = _solve_active_set(prob, s, start)
            if sol is not None:
                return sol
    if warm_start is None:
        x, y = np.zeros(n), np.zeros(m)
    Ax = structure.rows(x)
    z = np.clip(Ax, structure.lower, structure.upper)

    # Woodbury while the factor and the rows of A have rank <= max(8, n // 2)
    lowrank = prob.P is None and prob.p_factor.shape[0] + structure.m_a <= max(8, n // 2)
    kkt = (_LowRankKkt if lowrank else _DirectKkt)(prob, _SIGMA)

    rho_scalar = _RHO
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
        x_new = _ALPHA * x_t + (1.0 - _ALPHA) * x
        v = _ALPHA * z_t + (1.0 - _ALPHA) * z + y / rho
        z_new = np.clip(v, structure.lower, structure.upper)
        y_new = rho * (v - z_new)

        # C x_new follows from C x_t without another matvec
        Ax = _ALPHA * z_t + (1.0 - _ALPHA) * Ax
        x, z, y = x_new, z_new, y_new

        check = (
            iteration <= _EARLY_CHECKS
            or iteration % _CHECK_INTERVAL == 0
            or iteration == s.max_iter
        )
        if not check:
            continue

        r_prim, r_dual, scale_p, scale_d = _residuals(
            prob, Ax, z, prob.p_matvec(x), structure.rows_t(y), q_norm
        )

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
        if _primal_infeasible(prob, dy, _EPS_INFEAS):
            status = PRIMAL_INFEASIBLE
            break
        if _dual_infeasible(prob, dx, _EPS_INFEAS):
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
