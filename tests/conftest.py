import numpy as np
import pytest

from sitetransport import SiteDataset, TargetSpec, UnitRecord


def build_site(X, z, y, site_id="s1", propensity=None) -> SiteDataset:
    units = tuple(
        UnitRecord(
            covariates=tuple(np.atleast_1d(x)),
            treatment=int(t),
            outcome=float(v),
            site_id=site_id,
        )
        for x, t, v in zip(np.atleast_2d(X), z, y)
    )
    return SiteDataset(units=units, propensity=propensity)


def site_records(site: SiteDataset) -> list[UnitRecord]:
    """A site's units as records, rebuilt from its arrays."""
    rows = zip(site.covariates.tolist(), site.treatment.tolist(), site.outcomes.tolist())
    return [UnitRecord(tuple(x), int(t), y, site.site_id) for x, t, y in rows]


def assert_sites_identical(got: SiteDataset, want: SiteDataset) -> None:
    """Two sites hold the same id, propensity, arrays and row positions (sites
    compare by identity, so ``==`` cannot say this)."""
    assert (got.site_id, got.propensity, got.n1, got.n0) == (want.site_id, want.propensity, want.n1, want.n0)
    for name in ("covariates", "treatment", "outcomes", "row_indices"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)


def random_site(rng, n=30, d=3, site_id="s1", outcome_fn=None, covariate_shift=0.0):
    """Random site with both arms guaranteed and a default linear outcome."""
    X = rng.normal(covariate_shift, 1.0, size=(n, d))
    z = np.zeros(n)
    n1 = int(rng.integers(max(2, n // 4), n - max(2, n // 4)))
    z[rng.permutation(n)[:n1]] = 1
    if outcome_fn is None:
        beta = rng.normal(size=d)
        y = X @ beta + z * (0.5 + 0.4 * X[:, 0]) + rng.normal(0, 0.4, n)
    else:
        y = outcome_fn(X, z)
    return build_site(X, z, y, site_id=site_id)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def target_sample(rng):
    return TargetSpec.from_sample(rng.normal(0.4, 1.0, size=(80, 3)))
