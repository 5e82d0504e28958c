"""Feature maps (standardization, pairwise interactions) and kernel functions."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy.spatial.distance import cdist, pdist

from .errors import (
    AllPointsIdenticalError,
    ConfigError,
    DimensionMismatchError,
    EmptySampleError,
    UnfittedMapError,
)
from .qp import as_number, whole_number

# Subsample cap for the median-heuristic bandwidth; pairwise distances are
# quadratic in the sample size.
BANDWIDTH_SUBSAMPLE_CAP = 2000


@dataclass(frozen=True, eq=False)
class FeatureMap:
    """Identity-plus-interactions feature map with optional unit-variance scaling.

    The map starts unfitted: ``fit_feature_map`` computes per-feature standard
    deviations on a pooled sample, drops zero-variance features, and returns a
    fitted copy whose ``kept`` holds the indices of the kept features among
    the raw ones (:func:`raw_feature_names`). Applying an unfitted map raises
    :class:`UnfittedMapError`. Each interaction is a pair of covariate
    indices, whole numbers >= 0, listed once in either order, or ConfigError
    names the setting. A map compares and hashes by identity.
    """

    interactions: tuple[tuple[int, int], ...] = ()
    standardize: bool = True

    # populated by fit_feature_map
    n_raw: int | None = None
    kept: tuple[int, ...] | None = None
    fitted_scale: np.ndarray | None = None
    dropped: tuple[str, ...] = ()

    def __post_init__(self):
        try:
            pairs = tuple((whole_number(i, "index", 0), whole_number(j, "index", 0)) for i, j in self.interactions)
        except (TypeError, ValueError):
            raise ConfigError(f"interactions must be pairs of whole numbers >= 0, got {self.interactions!r}") from None
        if repeated := [(i, j) for k, (i, j) in enumerate(pairs) if {(i, j), (j, i)} & set(pairs[:k])]:
            raise ConfigError(f"interaction(s) {repeated} repeat an earlier pair in either order")
        object.__setattr__(self, "interactions", pairs)

    @property
    def fitted(self) -> bool:
        return self.fitted_scale is not None

    @property
    def output_dim(self) -> int:
        if not self.fitted:
            raise UnfittedMapError("feature map has not been fitted")
        return len(self.kept)


def raw_feature_names(d: int, interactions: Sequence[tuple[int, int]]) -> tuple[str, ...]:
    """Names of a map's features before scaling and dropping: the covariates
    ``x1..xd``, then each interaction product as ``xi*xj`` (1-based).
    ConfigError names the interactions with an index past the covariates."""
    if outside := [pair for pair in interactions if max(pair) >= d]:
        raise ConfigError(f"interaction(s) {outside} out of range for {d} covariates")
    return tuple(f"x{i + 1}" for i in range(d)) + tuple(f"x{i + 1}*x{j + 1}" for i, j in interactions)


def _raw_features(spec: FeatureMap, X: np.ndarray) -> np.ndarray:
    """Base covariates followed by the interaction products, unscaled."""
    cols = [X]
    for i, j in spec.interactions:
        cols.append((X[:, i] * X[:, j])[:, None])
    return np.hstack(cols) if len(cols) > 1 else X


def fit_feature_map(spec: FeatureMap, pooled: np.ndarray | Sequence[Sequence[float]]) -> FeatureMap:
    """Fit scale factors on a pooled sample and drop constant features.

    Scales are population standard deviations (ddof=0). Zero-variance features
    are dropped regardless of the ``standardize`` flag and recorded in
    ``dropped``. The pooled sample should cover both the experimental units and
    the target sample so that both sides share one feature space.
    """
    X = np.atleast_2d(np.asarray(pooled, dtype=float))
    if X.size == 0:
        raise EmptySampleError("cannot fit a feature map on an empty sample")
    d = X.shape[1]
    names = raw_feature_names(d, spec.interactions)
    raw = _raw_features(spec, X)
    sd = raw.std(axis=0)  # population sd

    keep = sd > 0
    dropped = tuple(name for name, k in zip(names, keep) if not k)

    scale = sd[keep] if spec.standardize else np.ones(int(keep.sum()))
    scale = scale.copy()
    scale.setflags(write=False)
    return replace(spec, n_raw=d, kept=tuple(np.flatnonzero(keep).tolist()), fitted_scale=scale, dropped=dropped)


def apply_feature_map(spec: FeatureMap, x: np.ndarray | Sequence[float]) -> np.ndarray:
    """Map raw covariates to the fitted feature space.

    Accepts a single vector or an (n, d) matrix; the output has one column per
    retained base feature followed by one per retained interaction.
    """
    if not spec.fitted:
        raise UnfittedMapError("feature map has not been fitted")
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    X = np.atleast_2d(arr)
    if X.shape[1] != spec.n_raw:
        raise DimensionMismatchError(
            f"expected {spec.n_raw} raw covariates, got {X.shape[1]}"
        )
    out = _raw_features(spec, X)[:, spec.kept] / spec.fitted_scale
    return out[0] if single else out


def regression_design(spec: FeatureMap, X: np.ndarray) -> np.ndarray:
    """The regression design of raw covariate rows: an intercept column, then
    the fitted map's features."""
    phi = apply_feature_map(spec, np.atleast_2d(X))
    return np.column_stack([np.ones(phi.shape[0]), phi])


def map_raw_means(spec: FeatureMap, means: np.ndarray) -> np.ndarray:
    """The fitted map applied to means of its raw features (ordered as
    :func:`raw_feature_names`): the kept entries over their scales. The map
    is linear in its raw features, so this is the mean of the mapped rows."""
    k = spec.n_raw + len(spec.interactions)
    if means.size != k:
        raise DimensionMismatchError(f"target moments have length {means.size}, the map has {k} raw features")
    return means[list(spec.kept)] / spec.fitted_scale


def identity_map(d: int) -> FeatureMap:
    """Fitted identity map on d covariates (unit scales, nothing dropped)."""
    scale = np.ones(d)
    scale.setflags(write=False)
    return FeatureMap(
        interactions=(),
        standardize=False,
        n_raw=d,
        kept=tuple(range(d)),
        fitted_scale=scale,
    )


@dataclass(frozen=True)
class KernelSpec:
    """Kernel function: ``linear`` (dot product) or ``rbf`` with a bandwidth.

    ``bandwidth=None`` on an RBF kernel means "resolve by the median
    heuristic": a run resolves it once, on every site's covariates stacked
    with the target sample (:func:`resolve_kernels`), so that all its sites
    share one bandwidth. A given bandwidth must be a finite positive number
    (a bool is not one) and is kept as a float. A linear kernel takes no
    bandwidth. A setting that breaks these rules raises ConfigError.
    """

    kind: str = "linear"
    bandwidth: float | None = None

    def __post_init__(self):
        bandwidth = None if self.bandwidth is None else as_number(self.bandwidth)
        if self.kind not in ("linear", "rbf"):
            raise ConfigError(f"unknown kernel kind {self.kind!r}")
        if bandwidth is not None and self.kind == "linear":
            raise ConfigError(f"a linear kernel takes no bandwidth, got {self.bandwidth}")
        if bandwidth is not None and not 0 < bandwidth < np.inf:
            raise ConfigError(f"bandwidth must be a finite positive number, got {self.bandwidth}")
        object.__setattr__(self, "bandwidth", bandwidth)

    @property
    def resolved(self) -> bool:
        return self.kind == "linear" or self.bandwidth is not None


def kernel_matrix(spec: KernelSpec, X: np.ndarray, Y: np.ndarray | None = None) -> np.ndarray:
    """Gram matrix k(X_i, Y_j); Y defaults to X. A 1-D X or Y is one point
    (a single row), unlike a 1-D sample in :func:`resolve_bandwidth`."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = X if Y is None else np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[1] != Y.shape[1]:
        raise DimensionMismatchError(
            f"kernel arguments have widths {X.shape[1]} and {Y.shape[1]}"
        )
    if spec.kind == "linear":
        return X @ Y.T
    if spec.bandwidth is None:
        raise ValueError("RBF bandwidth unresolved; call resolve_bandwidth first")
    sq = cdist(X, Y, metric="sqeuclidean")
    return np.exp(-sq / (2.0 * spec.bandwidth**2))


def _median(v: np.ndarray) -> float:
    """Median by one selection (reorders ``v``), bitwise equal to ``np.median``."""
    h = v.size // 2
    v.partition(h)
    return float(v[h] if v.size % 2 else (v[:h].max() + v[h]) / 2)


def resolve_bandwidth(sample: np.ndarray | Sequence[Sequence[float]]) -> float:
    """Median heuristic: median pairwise Euclidean distance of the sample.

    Computed by one selection over the pairwise distances of at most
    ``BANDWIDTH_SUBSAMPLE_CAP`` points: past the cap, an evenly spaced
    subsample of the rows in ``np.lexsort`` order, so that the bandwidth
    depends on the rows as a set, not on their order. If the median
    distance is zero but distinct points exist, the median of the strictly
    positive distances is used so the bandwidth stays positive. A sample
    with a NaN or infinite entry is rejected. A 1-D sample holds n scalar
    observations.
    """
    X = np.asarray(sample, dtype=float)
    X = X.reshape(-1, 1) if X.ndim < 2 else X
    if X.shape[0] < 2:
        raise EmptySampleError("bandwidth resolution needs at least two points")
    if not np.isfinite(X).all():
        raise ValueError("bandwidth resolution needs a finite sample")
    if X.shape[0] > BANDWIDTH_SUBSAMPLE_CAP:
        idx = np.linspace(0, X.shape[0] - 1, BANDWIDTH_SUBSAMPLE_CAP).round().astype(int)
        X = X[np.lexsort(X.T)[idx]]
    dists = pdist(X)
    if not np.any(dists > 0):
        raise AllPointsIdenticalError("all points identical; median distance is zero")
    med = _median(dists)
    if med == 0.0:
        med = _median(dists[dists > 0])
    return med


def resolve_kernels(specs: Sequence[KernelSpec], samples: Sequence[np.ndarray]) -> tuple[KernelSpec, ...]:
    """The kernels, each unresolved RBF one with the bandwidth of one
    :func:`resolve_bandwidth` on the samples stacked by rows (a 1-D sample
    holds n scalar observations); the rest pass through."""
    if all(spec.resolved for spec in specs):
        return tuple(specs)
    bandwidth = resolve_bandwidth(np.vstack([np.asarray(s, dtype=float).reshape(len(s), -1) for s in samples]))
    return tuple(spec if spec.resolved else replace(spec, bandwidth=bandwidth) for spec in specs)
