"""Small regression engines used by the comparison estimators."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import SeparableDataError

# Linear predictors beyond this magnitude pin fitted probabilities to 0/1 at
# double precision; reaching it signals (quasi-)separation.
_SEPARATION_ETA = 30.0
# IRLS stops once the mean gradient's max norm is at most _LOGISTIC_TOL, or
# after _LOGISTIC_MAX_ITER Newton steps (the fit then reports converged=False).
_LOGISTIC_MAX_ITER = 100
_LOGISTIC_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class RegressionFit:
    """Fitted coefficients for a least-squares or logistic model.

    ``dropped`` lists design-matrix columns removed as collinear (their
    coefficients are zero).
    """

    coefficients: np.ndarray
    converged: bool
    dropped: tuple[int, ...] = ()

    def linear_predictor(self, design: np.ndarray) -> np.ndarray:
        return np.asarray(design, dtype=float) @ self.coefficients


def rank_tolerance(shape: tuple[int, int]) -> float:
    """fit_least_squares drops the columns whose pivoted-QR diagonal is at
    most this times the first, for a design of this shape."""
    return max(shape) * np.finfo(float).eps


def fit_least_squares(design: np.ndarray, y: np.ndarray) -> RegressionFit:
    """Rank-revealing least squares via one pivoted QR; collinear columns dropped.

    The kept coefficients solve R[:rank, :rank] b = (Q'y)[:rank], with Q'y
    formed during the factorization (``qr_multiply``).
    """
    X = np.atleast_2d(np.asarray(design, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    if X.shape[0] != y.size:
        raise ValueError(f"design has {X.shape[0]} rows but y has {y.size}")
    beta = np.zeros(X.shape[1])
    if X.size == 0:
        return RegressionFit(beta, converged=True, dropped=tuple(range(X.shape[1])))

    qty, r, pivots = scipy.linalg.qr_multiply(X, y, mode="right", pivoting=True)
    diag = np.abs(np.diag(r))
    rank = 0 if diag[0] == 0.0 else int(np.sum(diag > diag[0] * rank_tolerance(X.shape)))
    if rank > 0:
        beta[pivots[:rank]] = scipy.linalg.solve_triangular(r[:rank, :rank], qty[:rank])
    dropped = tuple(sorted(int(c) for c in pivots[rank:]))
    return RegressionFit(coefficients=beta, converged=True, dropped=dropped)


def sigmoid(eta: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(eta, -35.0, 35.0)))


def fit_logistic(design: np.ndarray, labels: np.ndarray, counts: np.ndarray | None = None) -> RegressionFit:
    """Logistic regression by iteratively reweighted least squares.

    Row i counts ``counts[i]`` times (default once), as if repeated that
    often; a row with count 0 is left out, of the separation tests too.
    Convergence is declared when the mean gradient drops to _LOGISTIC_TOL;
    without ``counts`` no count enters the arithmetic (a count of 1 would
    change no bit of it). Raises :class:`SeparableDataError` when the linear
    predictor diverges, which signals (quasi-)separable classes.
    """
    X = np.atleast_2d(np.asarray(design, dtype=float))
    y = np.asarray(labels, dtype=float).ravel()
    if X.shape[0] != y.size:
        raise ValueError(f"design has {X.shape[0]} rows but labels have {y.size}")
    if not np.all(np.isin(y, (0.0, 1.0))):
        raise ValueError("labels must be 0/1")
    c = None if counts is None else np.asarray(counts, dtype=float).ravel()
    # the separation tests look only at present rows: every row without counts
    where = {} if c is None else {"where": c > 0}

    n = float(y.size if c is None else c.sum())
    beta = np.zeros(X.shape[1])
    converged = False
    for _ in range(_LOGISTIC_MAX_ITER):
        eta = X @ beta
        if np.abs(eta).max(initial=0.0, **where) > _SEPARATION_ETA:
            raise SeparableDataError(
                "logistic regression diverged; the classes are (quasi-)separable"
            )
        prob = sigmoid(eta)
        resid = y - prob
        grad = X.T @ (resid if c is None else c * resid) / n
        if np.abs(grad).max(initial=0.0) <= _LOGISTIC_TOL:
            converged = True
            break
        w = prob * (1.0 - prob) if c is None else c * prob * (1.0 - prob)
        hess = (X * w[:, None]).T @ X / n
        hess.flat[:: hess.shape[0] + 1] += 1e-12
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, grad, rcond=None)[0]
        beta = beta + step
    else:  # the cap: prob is not yet at the last step's beta
        prob = sigmoid(X @ beta)
    if np.all(np.where(y == 1, prob > 1.0 - 1e-6, prob < 1e-6), **where):
        raise SeparableDataError(
            "logistic regression saturated every fitted probability; "
            "the classes are separable"
        )
    return RegressionFit(coefficients=beta, converged=converged)
