"""Core domain types: experimental units, unit tables, site datasets, target specifications."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
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
    pass records as ``units`` (see :meth:`from_records`); ``units`` is derived
    from the arrays on first use. A bad value raises what :class:`UnitRecord`
    raises for the first unit holding one. ``propensity`` defaults to the
    treated fraction n1 / (n1 + n0).
    """

    site_id: str
    covariates: np.ndarray = field(repr=False)
    treatment: np.ndarray = field(repr=False)
    outcomes: np.ndarray = field(repr=False)
    propensity: float = None  # type: ignore[assignment]
    row_indices: tuple[int, ...] | None = None

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
            self.__dict__["units"] = units
            site_id, table = site_ids.pop(), UnitTable.from_records(units)
            covariates, treatment, outcomes = table.covariates, table.treatment, table.outcomes
        X, z, y = (np.array(a, dtype=float) for a in (covariates, treatment, outcomes))
        if X.ndim != 2 or z.shape != (len(X),) or y.shape != z.shape:
            raise ValueError("covariates must be (n, d) with one treatment and outcome per row")
        bad = ~np.isin(z, (0, 1)) | ~np.isfinite(y) | ~np.isfinite(X).all(axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            UnitRecord(tuple(X[i].tolist()), z[i].item(), y[i].item(), site_id)
        n1 = int(z.sum())
        n0 = z.size - n1
        if n1 == 0 or n0 == 0:
            raise DegenerateSiteError(f"site {site_id!r} has n1={n1}, n0={n0}; both arms are required")
        if propensity is None:
            propensity = n1 / (n1 + n0)
        if not 0.0 < propensity < 1.0:
            raise ValueError(f"propensity must lie in (0, 1), got {propensity}")
        if row_indices is not None and len(row_indices) != z.size:
            raise ValueError("row_indices must align with units")
        for arr in (X, z, y):
            arr.setflags(write=False)
        row_indices = None if row_indices is None else tuple(row_indices)
        for name, value in zip(self.__dataclass_fields__, (site_id, X, z, y, propensity, row_indices)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_records(cls, records: Iterable[UnitRecord], propensity=None, row_indices=None) -> SiteDataset:
        return cls(units=records, propensity=propensity, row_indices=row_indices)

    @cached_property
    def units(self) -> tuple[UnitRecord, ...]:
        rows = zip(self.covariates.tolist(), self.treatment.tolist(), self.outcomes.tolist())
        return tuple(UnitRecord(tuple(x), int(t), y, self.site_id) for x, t, y in rows)

    @property
    def n(self) -> int:
        return self.outcomes.size

    @property
    def n1(self) -> int:
        return int(self.treatment.sum())

    @property
    def n0(self) -> int:
        return self.n - self.n1

    @property
    def d(self) -> int:
        return self.covariates.shape[1]

    def __eq__(self, other):
        if not isinstance(other, SiteDataset):
            return NotImplemented
        mine, theirs = self._state(), other._state()
        return mine[:3] == theirs[:3] and all(np.array_equal(a, b) for a, b in zip(mine[3:], theirs[3:]))

    def __hash__(self):
        # + 0.0 maps -0.0 to 0.0, which compares equal to it
        state = self._state()
        return hash(state[:3] + (self.covariates.shape,) + tuple((a + 0.0).tobytes() for a in state[3:]))

    def _state(self) -> tuple:
        arrays = self.covariates, self.treatment, self.outcomes
        return (self.site_id, self.propensity, self.row_indices) + arrays


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
    records: Iterable[UnitRecord] | UnitTable,
    propensities: Mapping[str, float] | None = None,
) -> list[SiteDataset]:
    """Group a unit table (or unit records) by site and validate each site.

    Sites are returned in order of first appearance. A user-supplied per-site
    propensity overrides the default treated-fraction. Raises
    :class:`MixedArityError` if covariate lengths differ anywhere in the input
    and :class:`DegenerateSiteError` for any site missing an arm.
    """
    table = records if isinstance(records, UnitTable) else UnitTable.from_records(records)
    if not table.site_ids:
        raise ValueError("at least one record is required")
    by_site: dict[str, list[int]] = {}
    for i, site_id in enumerate(table.site_ids):
        by_site.setdefault(site_id, []).append(i)

    propensities = propensities or {}
    return [
        SiteDataset(
            site_id=site_id,
            covariates=table.covariates[idx],
            treatment=table.treatment[idx],
            outcomes=table.outcomes[idx],
            propensity=propensities.get(site_id),
            row_indices=idx,
        )
        for site_id, idx in by_site.items()
    ]
