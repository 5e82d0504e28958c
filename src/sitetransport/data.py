"""Core domain types: experimental units, unit tables, site datasets, target specifications."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    DegenerateSiteError,
    MixedArityError,
    NonBinaryTreatmentError,
)


@dataclass(frozen=True)
class UnitRecord:
    """One experimental unit: raw covariates, treatment arm, outcome, site label.

    Covariates are stored as a plain tuple so records are hashable, comparable,
    and safe to share across threads.
    """

    covariates: tuple[float, ...]
    treatment: int
    outcome: float
    site_id: str

    def __post_init__(self):
        object.__setattr__(self, "covariates", tuple(float(v) for v in self.covariates))
        if self.treatment not in (0, 1):
            raise NonBinaryTreatmentError(
                f"treatment must be 0 or 1, got {self.treatment!r} in site {self.site_id!r}"
            )
        if not math.isfinite(self.outcome):
            raise ValueError(f"outcome must be finite, got {self.outcome!r}")
        if not all(math.isfinite(v) for v in self.covariates):
            raise ValueError(
                f"covariates must be finite (missing values are rejected) in site {self.site_id!r}"
            )


@dataclass(frozen=True, eq=False)
class UnitTable:
    """A whole unit-level table as columns, one row per unit in input order
    (what :func:`validate_dataset` groups into sites)."""

    site_ids: list
    covariates: np.ndarray
    treatment: np.ndarray
    outcomes: np.ndarray

    @classmethod
    def from_records(cls, records: Iterable[UnitRecord]) -> "UnitTable":
        records = list(records)
        if not records:
            raise ValueError("at least one record is required")
        arities = {len(r.covariates) for r in records}
        if len(arities) != 1:
            raise MixedArityError(f"covariate lengths differ across rows: {sorted(arities)}")
        return cls(
            site_ids=[r.site_id for r in records],
            covariates=np.array([r.covariates for r in records], dtype=float),
            treatment=np.array([r.treatment for r in records], dtype=float),
            outcomes=np.array([r.outcome for r in records], dtype=float),
        )


@dataclass(frozen=True, init=False, eq=False)
class SiteDataset:
    """All units of one site as arrays, plus its (constant) propensity score.

    ``covariates`` (n, d), ``treatment`` (0/1) and ``outcomes`` are copied,
    validated once and read-only. Pass them as keywords with ``site_id``, or
    pass records as ``units``: they are turned into the arrays and not kept.
    A bad value raises what :class:`UnitRecord` raises for the first unit
    holding one. ``row_indices`` (read-only integers, 0..n-1 unless given)
    holds each unit's row in the input table. ``n1`` and ``n0`` count the
    arms, ``arms`` holds their row indices (treated, then control), and
    ``propensity`` defaults to the treated fraction n1 / (n1 + n0). Like
    every object that holds arrays, a site compares and hashes by identity.
    """

    site_id: str
    covariates: np.ndarray = field(repr=False)
    treatment: np.ndarray = field(repr=False)
    outcomes: np.ndarray = field(repr=False)
    propensity: float = None  # type: ignore[assignment]
    row_indices: np.ndarray = field(repr=False)

    def __init__(
        self,
        units: Iterable[UnitRecord] | None = None,
        propensity: float | None = None,
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
            site_id, table = site_ids.pop(), UnitTable.from_records(units)
            covariates, treatment, outcomes = table.covariates, table.treatment, table.outcomes
        X, z, y = (np.array(a, dtype=float) for a in (covariates, treatment, outcomes))
        if X.ndim != 2 or z.shape != (len(X),) or y.shape != z.shape:
            raise ValueError("covariates must be (n, d) with one treatment and outcome per row")
        bad = ~np.isin(z, (0, 1)) | ~np.isfinite(y) | ~np.isfinite(X).all(axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            UnitRecord(tuple(X[i].tolist()), z[i].item(), y[i].item(), site_id)
        arms = np.flatnonzero(z == 1), np.flatnonzero(z == 0)
        n1, n0 = arms[0].size, arms[1].size
        if n1 == 0 or n0 == 0:
            raise DegenerateSiteError(f"site {site_id!r} has n1={n1}, n0={n0}; both arms are required")
        if propensity is None:
            propensity = n1 / (n1 + n0)
        if not 0.0 < propensity < 1.0:
            raise ValueError(f"propensity must lie in (0, 1), got {propensity}")
        rows = np.arange(z.size) if row_indices is None else np.array(row_indices, dtype=np.intp)
        if rows.shape != z.shape:
            raise ValueError("row_indices must align with units")
        for arr in (X, z, y, rows):
            arr.setflags(write=False)
        for name, value in zip(self.__dataclass_fields__, (site_id, X, z, y, propensity, rows)):
            object.__setattr__(self, name, value)
        self.__dict__.update(n1=n1, n0=n0, arms=arms)

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


def validate_dataset(records: Iterable[UnitRecord] | UnitTable) -> list[SiteDataset]:
    """Group a unit table (or unit records) by site and validate each site.

    Sites are returned in order of first appearance, each with the treated
    fraction as its propensity. Raises
    :class:`MixedArityError` if covariate lengths differ anywhere in the input
    and :class:`DegenerateSiteError` for any site missing an arm.
    """
    table = records if isinstance(records, UnitTable) else UnitTable.from_records(records)
    if not table.site_ids:
        raise ValueError("at least one record is required")
    by_site: dict[str, list[int]] = {}
    for i, site_id in enumerate(table.site_ids):
        by_site.setdefault(site_id, []).append(i)
    return [
        SiteDataset(
            site_id=site_id,
            covariates=table.covariates[idx],
            treatment=table.treatment[idx],
            outcomes=table.outcomes[idx],
            row_indices=idx,
        )
        for site_id, idx in by_site.items()
    ]
