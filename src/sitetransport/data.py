"""Core domain types: experimental units, site datasets, target specifications."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

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


@dataclass(frozen=True)
class SiteDataset:
    """All units of one site plus its (constant) propensity score.

    If ``propensity`` is not supplied it defaults to the within-site treated
    fraction n1 / (n1 + n0). Arrays derived from the units are cached at
    construction; the dataset is immutable afterwards.
    """

    units: tuple[UnitRecord, ...]
    propensity: float = None  # type: ignore[assignment]
    row_indices: tuple[int, ...] | None = None

    # cached arrays, filled in __post_init__
    covariates: np.ndarray = field(init=False, repr=False, compare=False)
    treatment: np.ndarray = field(init=False, repr=False, compare=False)
    outcomes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        units = tuple(self.units)
        object.__setattr__(self, "units", units)
        if not units:
            raise DegenerateSiteError("a site must contain at least one unit")
        site_ids = {u.site_id for u in units}
        if len(site_ids) != 1:
            raise ValueError(f"units of one SiteDataset must share a site_id, got {site_ids}")
        arities = {len(u.covariates) for u in units}
        if len(arities) != 1:
            raise MixedArityError(f"covariate lengths differ within site: {sorted(arities)}")

        z = np.array([u.treatment for u in units], dtype=float)
        n1 = int(z.sum())
        n0 = len(units) - n1
        if n1 == 0 or n0 == 0:
            raise DegenerateSiteError(
                f"site {units[0].site_id!r} has n1={n1}, n0={n0}; both arms are required"
            )
        if self.propensity is None:
            object.__setattr__(self, "propensity", n1 / (n1 + n0))
        if not 0.0 < self.propensity < 1.0:
            raise ValueError(f"propensity must lie in (0, 1), got {self.propensity}")
        if self.row_indices is not None and len(self.row_indices) != len(units):
            raise ValueError("row_indices must align with units")

        X = np.array([u.covariates for u in units], dtype=float)
        y = np.array([u.outcome for u in units], dtype=float)
        object.__setattr__(self, "covariates", X)
        object.__setattr__(self, "treatment", z)
        object.__setattr__(self, "outcomes", y)
        self.covariates.setflags(write=False)
        self.treatment.setflags(write=False)
        self.outcomes.setflags(write=False)

    @property
    def site_id(self) -> str:
        return self.units[0].site_id

    @property
    def n(self) -> int:
        return len(self.units)

    @property
    def n1(self) -> int:
        return int(self.treatment.sum())

    @property
    def n0(self) -> int:
        return self.n - self.n1

    @property
    def d(self) -> int:
        return len(self.units[0].covariates)

    def __eq__(self, other):
        if not isinstance(other, SiteDataset):
            return NotImplemented
        return (
            self.units == other.units
            and self.propensity == other.propensity
            and self.row_indices == other.row_indices
        )

    def __hash__(self):
        return hash((self.units, self.propensity, self.row_indices))


@dataclass(frozen=True)
class TargetSpec:
    """Target covariate distribution: a unit-level sample or feature-space means.

    Exactly one of ``sample`` (an (m, d) matrix of raw covariate rows) and
    ``moments`` (the mean of the effect-side feature map over the target) is
    set. Kernel-mode balancing requires a sample; linear mode accepts either.
    """

    sample: np.ndarray | None = None
    moments: np.ndarray | None = None

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


def validate_dataset(
    records: Iterable[UnitRecord],
    propensities: Mapping[str, float] | None = None,
) -> list[SiteDataset]:
    """Group unit records by site and validate each site.

    Sites are returned in order of first appearance. A user-supplied per-site
    propensity overrides the default treated-fraction. Raises
    :class:`MixedArityError` if covariate lengths differ anywhere in the input
    and :class:`DegenerateSiteError` for any site missing an arm.
    """
    records = list(records)
    if not records:
        raise ValueError("at least one record is required")
    arities = {len(r.covariates) for r in records}
    if len(arities) != 1:
        raise MixedArityError(f"covariate lengths differ across rows: {sorted(arities)}")

    by_site: dict[str, list[int]] = {}
    for i, rec in enumerate(records):
        by_site.setdefault(rec.site_id, []).append(i)

    propensities = propensities or {}
    sites = []
    for site_id, idx in by_site.items():
        sites.append(
            SiteDataset(
                units=tuple(records[i] for i in idx),
                propensity=propensities.get(site_id),
                row_indices=tuple(idx),
            )
        )
    return sites

