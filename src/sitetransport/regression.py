"""Small regression engines used by the comparison estimators."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import SeparableDataError

# Linear predictors beyond this magnitude pin fitted probabilities to 0/1 at
# double precision; reaching it signals (quasi-)separation.
_SEPARATION_ETA = 30.0


@dataclass(frozen=True)
class RegressionFit:
    """Fitted coefficients for a least-squares or logistic model.

    ``dropped`` lists design-matrix columns removed as collinear (their
    coefficients are zero).
    """

    coefficients: np.ndarray
    kind: str  # "least_squares" | "logistic"
    converged: bool
    dropped: tuple[int, ...] = ()

    def linear_predictor(self, design: np.ndarray) -> np.ndarray:
        return np.asarray(design, dtype=float) @ self.coefficients


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
        return RegressionFit(beta, "least_squares", converged=True, dropped=tuple(range(X.shape[1])))

    qty, r, pivots = scipy.linalg.qr_multiply(X, y, mode="right", pivoting=True)
    diag = np.abs(np.diag(r))
    rank = 0 if diag[0] == 0.0 else int(np.sum(diag > diag[0] * max(X.shape) * np.finfo(float).eps))
    if rank > 0:
        beta[pivots[:rank]] = scipy.linalg.solve_triangular(r[:rank, :rank], qty[:rank])
    dropped = tuple(sorted(int(c) for c in pivots[rank:]))
    return RegressionFit(coefficients=beta, kind="least_squares", converged=True, dropped=dropped)


def sigmoid(eta: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(eta, -35.0, 35.0)))


def fit_logistic(
    design: np.ndarray,
    labels: np.ndarray,
    max_iter: int = 100,
    tol: float = 1e-8,
) -> RegressionFit:
    """Logistic regression by iteratively reweighted least squares.

    Convergence is declared when the mean gradient drops below ``tol``.
    Raises :class:`SeparableDataError` when the linear predictor diverges,
    which signals (quasi-)separable classes.
    """
    X = np.atleast_2d(np.asarray(design, dtype=float))
    y = np.asarray(labels, dtype=float).ravel()
    if X.shape[0] != y.size:
        raise ValueError(f"design has {X.shape[0]} rows but labels have {y.size}")
    if not np.all(np.isin(y, (0.0, 1.0))):
        raise ValueError("labels must be 0/1")

    n, p = X.shape
    beta = np.zeros(p)
    converged = False
    for _ in range(max_iter):
        eta = X @ beta
        if np.abs(eta).max(initial=0.0) > _SEPARATION_ETA:
            raise SeparableDataError(
                "logistic regression diverged; the classes are (quasi-)separable"
            )
        prob = sigmoid(eta)
        grad = X.T @ (y - prob) / n
        if np.abs(grad).max(initial=0.0) <= tol:
            converged = True
            break
        w = prob * (1.0 - prob)
        hess = (X * w[:, None]).T @ X / n
        hess[np.diag_indices_from(hess)] += 1e-12
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, grad, rcond=None)[0]
        beta = beta + step

    prob = sigmoid(X @ beta)
    if np.all(prob[y == 1] > 1.0 - 1e-6) and np.all(prob[y == 0] < 1e-6):
        raise SeparableDataError(
            "logistic regression saturated every fitted probability; "
            "the classes are separable"
        )
    return RegressionFit(coefficients=beta, kind="logistic", converged=converged)
