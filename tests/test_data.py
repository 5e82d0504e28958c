import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from conftest import assert_sites_identical, site_records
from sitetransport import SiteDataset, TargetSpec, UnitRecord, UnitTable, identity_map, validate_dataset
from sitetransport.errors import (
    DegenerateSiteError,
    MixedArityError,
    NonBinaryTreatmentError,
)


def rec(site, z, y=1.0, x=(0.0, 1.0)):
    return UnitRecord(covariates=x, treatment=z, outcome=y, site_id=site)


def table(units):
    """The unit table of records' values, in their order."""
    return UnitTable(
        [u.site_id for u in units],
        np.array([u.covariates for u in units]),
        treatment=np.array([u.treatment for u in units], dtype=float),
        outcomes=np.array([u.outcome for u in units]),
    )


class TestValidateDataset:
    def test_two_sites_with_default_propensity(self):
        rows = [rec("a", 1), rec("a", 0), rec("b", 1), rec("b", 0)]
        sites = validate_dataset(table(rows))
        assert len(sites) == 2
        assert [s.site_id for s in sites] == ["a", "b"]
        assert all(s.propensity == 0.5 for s in sites)
        assert all((s.n1, s.n0) == (1, 1) for s in sites)

    def test_all_treated_site_is_degenerate(self):
        rows = [rec("a", 1), rec("a", 1), rec("a", 1)]
        with pytest.raises(DegenerateSiteError):
            validate_dataset(table(rows))

    def test_unit_counts_partition_rows(self):
        rng = np.random.default_rng(0)
        rows = []
        for i in range(200):
            site = f"s{rng.integers(4)}"
            rows.append(rec(site, int(rng.random() < 0.5), float(rng.normal()), (1.0, float(i % 3))))
        # guarantee both arms everywhere
        for s in {"s0", "s1", "s2", "s3"}:
            rows += [rec(s, 1), rec(s, 0)]
        sites = validate_dataset(table(rows))
        assert sum(s.n for s in sites) == len(rows)

    def test_site_ids_as_an_array_group_like_a_list(self):
        # an array of ids used to raise numpy's "truth value ... is ambiguous"
        rows = [rec("a", 1), rec("b", 1), rec("a", 0), rec("b", 0)]
        listed = table(rows)
        ids = np.array(listed.site_ids)
        sites = validate_dataset(UnitTable(ids, listed.covariates, listed.treatment, listed.outcomes))
        assert [s.site_id for s in sites] == ["a", "b"]
        assert [s.row_indices.tolist() for s in sites] == [[0, 2], [1, 3]]
        with pytest.raises(ValueError, match="a unit table needs at least one row"):
            validate_dataset(UnitTable(np.array([], dtype=str), np.empty((0, 2)), np.empty(0), np.empty(0)))

    def test_row_indices_track_input_positions(self):
        rows = [rec("a", 1), rec("b", 1), rec("a", 0), rec("b", 0)]
        sites = validate_dataset(table(rows))
        assert sites[0].row_indices.tolist() == [0, 2]
        assert sites[1].row_indices.tolist() == [1, 3]


class TestUnitRecords:
    """``SiteDataset(units=...)`` checks the values that a record holds."""

    def test_mixed_arity_rejected(self):
        rows = [rec("a", 1, x=(1.0, 2.0, 3.0)), rec("a", 0, x=(1.0, 2.0, 3.0, 4.0))]
        with pytest.raises(MixedArityError, match=r"covariate lengths differ across rows: \[3, 4\]"):
            SiteDataset(units=rows)

    def test_non_binary_treatment(self):
        with pytest.raises(NonBinaryTreatmentError, match="treatment must be 0 or 1, got 2.0 in site 'a'"):
            SiteDataset(units=[rec("a", 1), rec("a", 2), rec("a", 0)])

    def test_missing_covariate_rejected(self):
        with pytest.raises(ValueError, match=r"covariates must be finite \(missing values are rejected\) in site 'a'"):
            SiteDataset(units=[rec("a", 1), rec("a", 0, x=(1.0, float("nan")))])

    def test_non_finite_outcome_rejected(self):
        with pytest.raises(ValueError, match="outcome must be finite, got inf"):
            SiteDataset(units=[rec("a", 1, y=float("inf")), rec("a", 0)])

    def test_a_record_keeps_its_values_and_checks_nothing(self):
        bad = rec("a", 2, y=float("nan"), x=(1, float("inf")))
        assert bad.covariates == (1.0, float("inf")) and type(bad.covariates[0]) is float
        assert (bad.treatment, bad.site_id) == (2, "a")


class TestSiteDataset:
    def test_arrays_match_units(self):
        rows = [rec("a", 1, 2.0, (1.0, 0.0)), rec("a", 0, 3.0, (0.0, 1.0))]
        site = SiteDataset(units=rows)
        np.testing.assert_array_equal(site.covariates, [[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(site.treatment, [1.0, 0.0])
        np.testing.assert_array_equal(site.outcomes, [2.0, 3.0])

    def test_the_propensity_is_the_treated_share_and_not_an_input(self):
        rows = [rec("a", 1), rec("a", 0), rec("a", 0)]
        assert SiteDataset(units=rows).propensity == 1 / 3
        with pytest.raises(TypeError):
            SiteDataset(units=rows, propensity=0.4)

    @settings(max_examples=25, deadline=None)
    @given(
        st_.lists(
            st_.tuples(
                st_.integers(0, 1),
                st_.floats(-50, 50, allow_nan=False),
                st_.floats(-5, 5, allow_nan=False),
            ),
            min_size=2,
            max_size=20,
        )
    )
    def test_roundtrip_through_validation(self, raw):
        # force both arms
        raw = raw + [(1, 0.0, 0.0), (0, 0.0, 0.0)]
        rows = [rec("a", z, y, (x, x * 2)) for z, y, x in raw]
        (site,) = validate_dataset(table(rows))
        assert_sites_identical(SiteDataset(units=rows), site)
        assert_sites_identical(SiteDataset(units=site_records(site)), site)


class TestTargetSpec:
    def test_exactly_one_variant(self):
        with pytest.raises(ValueError):
            TargetSpec(sample=np.ones((2, 2)), moments=np.ones(2))
        with pytest.raises(ValueError):
            TargetSpec()

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            TargetSpec.from_sample(np.empty((0, 3)))

    def test_pooled_includes_all_sites(self):
        a = SiteDataset(units=[rec("a", 1), rec("a", 0)])
        b = SiteDataset(units=[rec("b", 1, x=(9.0, 9.0)), rec("b", 0, x=(9.0, 9.0))])
        pooled = TargetSpec.pooled([a, b])
        assert pooled.sample.shape == (4, 2)
        assert (pooled.sample == 9.0).sum() == 4


def site_at_rows(rows):
    return lambda X, z, y: SiteDataset(row_indices=rows, site_id="a", covariates=X, treatment=z, outcomes=y)


class TestOutsideInputErrors:
    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda X, z, y: SiteDataset(site_id="a", covariates=X[:, 0], treatment=z, outcomes=y),
             ValueError, "covariates must be (n, d) with one treatment and outcome per row"),
            (lambda X, z, y: SiteDataset(site_id="a", covariates=X, treatment=z[:2], outcomes=y),
             ValueError, "covariates must be (n, d) with one treatment and outcome per row"),
            (lambda X, z, y: SiteDataset(site_id="a", covariates=X, treatment=z, outcomes=y[:, None]),
             ValueError, "covariates must be (n, d) with one treatment and outcome per row"),
            (lambda X, z, y: SiteDataset(row_indices=[0, 1], site_id="a", covariates=X, treatment=z, outcomes=y),
             ValueError, "row_indices must align with units"),
            (site_at_rows([0.7, 1.7, 2.9]),
             ValueError, "row_indices must be whole numbers >= 0, got 0.7 at position 0"),
            (site_at_rows([0, 1.0, 2.5]),
             ValueError, "row_indices must be whole numbers >= 0, got 2.5 at position 2"),
            (site_at_rows([-5, -4, -3]),
             ValueError, "row_indices must be whole numbers >= 0, got -5 at position 0"),
            (site_at_rows([0, 1, np.nan]),
             ValueError, "row_indices must be whole numbers >= 0, got nan at position 2"),
            (site_at_rows([True, False, True]),
             ValueError, "row_indices must be whole numbers >= 0, got True at position 0"),
            (lambda X, z, y: UnitTable(["a"] * 3, X[:, 0], z, y),
             ValueError, "covariates must be 2-D (one row per unit), got shape (3,)"),
            (lambda X, z, y: UnitTable(["a"] * 3, np.vstack([X, X[:1]]), z, y),
             ValueError, "unit table columns differ in length: {'site_ids': 3, 'covariates': 4, 'treatment': 3, "
                         "'outcomes': 3}"),
            (lambda X, z, y: validate_dataset(UnitTable(["a"] * 5, X, z, y)),
             ValueError, "unit table columns differ in length: {'site_ids': 5, 'covariates': 3, 'treatment': 3, "
                         "'outcomes': 3}"),
            (lambda X, z, y: UnitTable(["a"] * 3, X, z[:2], y),
             ValueError, "unit table columns differ in length: {'site_ids': 3, 'covariates': 3, 'treatment': 2, "
                         "'outcomes': 3}"),
            (lambda X, z, y: SiteDataset(units=[]), DegenerateSiteError, "a site must contain at least one unit"),
            (lambda X, z, y: SiteDataset(units=[rec("a", 1), rec("b", 0)]),
             ValueError, "units of one SiteDataset must share a site_id, got "),
            (lambda X, z, y: TargetSpec.from_moments([]), ValueError, "target moments must be nonempty"),
            (lambda X, z, y: TargetSpec.from_moments([0.5, np.nan]), ValueError, "target moments must be finite"),
            (lambda X, z, y: TargetSpec.from_moments([np.inf]), ValueError, "target moments must be finite"),
            (lambda X, z, y: TargetSpec.pooled([]), ValueError, "pooled target requires at least one site"),
            (lambda X, z, y: TargetSpec.from_moments([0.5]).design(identity_map(1)),
             ValueError, "a moments target has no design; it needs a unit-level sample"),
        ],
        ids=["1-d-covariates", "short-treatment", "2-d-outcomes", "short-row-indices", "fractional-row-indices",
             "one-fractional-row-index", "negative-row-indices", "nan-row-index", "bool-row-indices",
             "1-d-table-covariates", "extra-table-row", "extra-site-id", "short-table-treatment", "no-units",
             "two-sites",
             "empty-moments", "nan-moment", "infinite-moment", "pooled-nothing", "design-of-moments"],
    )
    def test_a_bad_input_names_what_is_wrong(self, build, error, message):
        # the two-site message ends in a set, whose order is not fixed
        X, z, y = np.ones((3, 2)), np.array([1.0, 0.0, 0.0]), np.zeros(3)
        with pytest.raises(error) as info:
            build(X, z, y)
        assert str(info.value).startswith(message)
