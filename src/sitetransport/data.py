"""Core domain types: experimental units, unit tables, site datasets, target specifications."""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    DegenerateSiteError,
    MixedArityError,
    NonBinaryTreatmentError,
)
from .features import FeatureMap, regression_design


def _check_unit(covariates, treatment, outcome, site_id) -> None:
    """Raise for a unit whose treatment is not 0 or 1, whose outcome is not
    finite or whose covariates are not all finite, checked in that order."""
    if treatment not in (0, 1):
        raise NonBinaryTreatmentError(f"treatment must be 0 or 1, got {treatment!r} in site {site_id!r}")
    if not math.isfinite(outcome):
        raise ValueError(f"outcome must be finite, got {outcome!r}")
    if not all(math.isfinite(v) for v in covariates):
        raise ValueError(f"covariates must be finite (missing values are rejected) in site {site_id!r}")


@dataclass(frozen=True)
class UnitRecord:
    """One experimental unit: raw covariates, treatment arm, outcome, site label.

    Covariates are stored as a plain tuple of floats so records are hashable,
    comparable, and safe to share across threads. A record checks nothing:
    :class:`SiteDataset` checks the values of the records it is built from.
    """

    covariates: tuple[float, ...]
    treatment: int
    outcome: float
    site_id: str

    def __post_init__(self):
        object.__setattr__(self, "covariates", tuple(float(v) for v in self.covariates))


@dataclass(frozen=True, eq=False)
class UnitTable:
    """A whole unit-level table as columns, one row per unit in input order
    (what :func:`validate_dataset` groups into sites). Covariates are (n, d)
    and each column has one entry per row, or ValueError names the shapes."""

    site_ids: list
    covariates: np.ndarray
    treatment: np.ndarray
    outcomes: np.ndarray

    def __post_init__(self):
        if np.ndim(self.covariates) != 2:
            raise ValueError(f"covariates must be 2-D (one row per unit), got shape {np.shape(self.covariates)}")
        lengths = {name: len(getattr(self, name)) for name in self.__dataclass_fields__}
        if len(set(lengths.values())) != 1:
            raise ValueError(f"unit table columns differ in length: {lengths}")


@dataclass(frozen=True, init=False, eq=False)
class SiteDataset:
    """All units of one site as arrays, plus its propensity score.

    ``covariates`` (n, d), ``treatment`` (0/1) and ``outcomes`` are copied,
    validated once and read-only. Pass them as keywords with ``site_id``, or
    pass records of one site as ``units``: they are stacked into the arrays
    and not kept. The first unit with a treatment not 0/1, a non-finite
    outcome or a non-finite covariate raises, naming the first of these it
    breaks. ``row_indices`` (read-only integers, 0..n-1 unless given) holds
    each unit's row in the input table; given ones must be whole numbers
    >= 0, or ValueError names the first that is not. ``n1`` and ``n0``
    count the arms, ``arms`` holds their row indices (treated, then
    control), and ``propensity`` is the treated share n1 / (n1 + n0) of a
    completely randomized site. Like every object that holds arrays, a site
    compares and hashes by identity.
    """

    site_id: str
    covariates: np.ndarray = field(repr=False)
    treatment: np.ndarray = field(repr=False)
    outcomes: np.ndarray = field(repr=False)
    row_indices: np.ndarray = field(repr=False)

    def __init__(
        self,
        units: Iterable[UnitRecord] | None = None,
        row_indices: Sequence[int] | None = None,
        *,
        site_id: str | None = None,
        covariates: np.ndarray | None = None,
        treatment: np.ndarray | None = None,
        outcomes: np.ndarray | None = None,
    ):
        if units is not None:
            units = tuple(units)
            if not units:
                raise DegenerateSiteError("a site must contain at least one unit")
            site_ids = {u.site_id for u in units}
            if len(site_ids) != 1:
                raise ValueError(f"units of one SiteDataset must share a site_id, got {site_ids}")
            if len(arities := {len(u.covariates) for u in units}) != 1:
                raise MixedArityError(f"covariate lengths differ across rows: {sorted(arities)}")
            site_id = site_ids.pop()
            covariates, treatment, outcomes = zip(*((u.covariates, u.treatment, u.outcome) for u in units))
        X, z, y = (np.array(a, dtype=float) for a in (covariates, treatment, outcomes))
        if X.ndim != 2 or z.shape != (len(X),) or y.shape != z.shape:
            raise ValueError("covariates must be (n, d) with one treatment and outcome per row")
        bad = ~np.isin(z, (0, 1)) | ~np.isfinite(y) | ~np.isfinite(X).all(axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            _check_unit(X[i].tolist(), z[i].item(), y[i].item(), site_id)
        arms = np.flatnonzero(z == 1), np.flatnonzero(z == 0)
        n1, n0 = arms[0].size, arms[1].size
        if n1 == 0 or n0 == 0:
            raise DegenerateSiteError(f"site {site_id!r} has n1={n1}, n0={n0}; both arms are required")
        rows = np.arange(z.size) if row_indices is None else np.asarray(row_indices)
        if rows.shape != z.shape:
            raise ValueError("row_indices must align with units")
        # a bool, text or object entry is never one
        whole = rows.dtype.kind in "iuf" and (rows >= 0) & (rows < np.iinfo(np.intp).max) & (np.floor(rows) == rows)
        if not np.all(whole):
            i = int(np.argmin(whole))
            raise ValueError(f"row_indices must be whole numbers >= 0, got {rows[i].item()!r} at position {i}")
        rows = rows.astype(np.intp)
        for arr in (X, z, y, rows):
            arr.setflags(write=False)
        for name, value in zip(self.__dataclass_fields__, (site_id, X, z, y, rows)):
            object.__setattr__(self, name, value)
        self.__dict__.update(n1=n1, n0=n0, arms=arms, propensity=n1 / (n1 + n0))

    @property
    def n(self) -> int:
        return self.outcomes.size

    @property
    def d(self) -> int:
        return self.covariates.shape[1]


@dataclass(frozen=True, eq=False)
class TargetSpec:
    """Target covariate distribution: a unit-level sample or feature means.

    Exactly one of ``sample`` (an (m, d) matrix of raw covariate rows) and
    ``moments`` is set. ``moments`` are the target's means of the effect-side
    feature map's features before scaling and dropping: the covariates
    x1..xd, then each configured interaction product, in that order
    (:func:`~sitetransport.features.raw_feature_names`). Linear-mode
    balancing keeps the entries its fitted map keeps and scales them as the
    map does, so moments and covariates share one scale. Kernel-mode
    balancing requires a sample; linear mode accepts either.
    """

    sample: np.ndarray | None = None
    moments: np.ndarray | None = None
    _memo: dict = field(default_factory=dict, init=False, repr=False)
    _designs: weakref.WeakKeyDictionary = field(default_factory=weakref.WeakKeyDictionary, init=False, repr=False)

    def __post_init__(self):
        if (self.sample is None) == (self.moments is None):
            raise ValueError("exactly one of sample/moments must be given")
        if self.sample is not None:
            arr = np.atleast_2d(np.asarray(self.sample, dtype=float))
            if arr.size == 0:
                raise ValueError("target sample must be nonempty")
            if not np.all(np.isfinite(arr)):
                raise ValueError("target sample must be finite")
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, "sample", arr)
        else:
            vec = np.asarray(self.moments, dtype=float).ravel()
            if vec.size == 0:
                raise ValueError("target moments must be nonempty")
            if not np.all(np.isfinite(vec)):
                raise ValueError("target moments must be finite")
            vec = vec.copy()
            vec.setflags(write=False)
            object.__setattr__(self, "moments", vec)

    @property
    def is_sample(self) -> bool:
        return self.sample is not None

    def memo(self, key, compute: Callable[[], float]) -> float:
        """``compute()``, called on the first use of ``key`` and kept on this
        target (its arrays are read-only), as for an RBF kernel's target Gram mean."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def design(self, fmap: FeatureMap) -> np.ndarray:
        """The sample's regression design under the fitted map ``fmap``
        (:func:`~sitetransport.features.regression_design`, read-only),
        built on the first use of ``fmap`` and kept while ``fmap`` lives:
        each run fits its own map, so a target shared by many runs would
        otherwise keep every run's design."""
        if not self.is_sample:
            raise ValueError("a moments target has no design; it needs a unit-level sample")
        if fmap not in self._designs:
            design = regression_design(fmap, self.sample)
            design.setflags(write=False)
            self._designs[fmap] = design
        return self._designs[fmap]

    @classmethod
    def from_sample(cls, rows: Sequence[Sequence[float]] | np.ndarray) -> "TargetSpec":
        return cls(sample=np.asarray(rows, dtype=float))

    @classmethod
    def from_moments(cls, means: Sequence[float] | np.ndarray) -> "TargetSpec":
        return cls(moments=np.asarray(means, dtype=float))

    @classmethod
    def pooled(cls, sites: Iterable[SiteDataset]) -> "TargetSpec":
        """Overall-population target: union of all sites' units (sites included)."""
        mats = [s.covariates for s in sites]
        if not mats:
            raise ValueError("pooled target requires at least one site")
        return cls(sample=np.vstack(mats))


@dataclass(frozen=True)
class PotentialOutcomeOracle:
    """True prognostic score and CATE functions, for simulation and testing only.

    Both callables take a 1-D covariate vector and return a float, and must be
    deterministic.
    """

    m0: Callable[[np.ndarray], float]
    tau: Callable[[np.ndarray], float]

    def m0_vec(self, X: np.ndarray) -> np.ndarray:
        return np.array([self.m0(x) for x in np.atleast_2d(X)], dtype=float)

    def tau_vec(self, X: np.ndarray) -> np.ndarray:
        return np.array([self.tau(x) for x in np.atleast_2d(X)], dtype=float)


def validate_dataset(table: UnitTable) -> list[SiteDataset]:
    """Group a unit table by site and validate each site.

    Sites are returned in order of first appearance. Raises
    :class:`DegenerateSiteError` for any site missing an arm.
    """
    if len(table.site_ids) == 0:
        raise ValueError("a unit table needs at least one row")
    by_site: dict[str, list[int]] = {}
    for i, site_id in enumerate(table.site_ids):
        by_site.setdefault(site_id, []).append(i)
    groups = {site_id: np.array(rows, dtype=np.intp) for site_id, rows in by_site.items()}  # indexes faster than a list
    return [
        SiteDataset(
            site_id=site_id,
            covariates=table.covariates[idx],
            treatment=table.treatment[idx],
            outcomes=table.outcomes[idx],
            row_indices=idx,
        )
        for site_id, idx in groups.items()
    ]
