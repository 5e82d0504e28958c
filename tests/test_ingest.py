"""Columnar CSV ingest and the arrays-first SiteDataset."""

import csv
import math
import re
import weakref

import numpy as np
import pytest

from conftest import assert_sites_identical, site_records
from sitetransport import SiteDataset, UnitRecord, UnitTable, validate_dataset
from sitetransport.cli import read_target_sample, read_unit_table
from sitetransport.errors import NonBinaryTreatmentError, SchemaError

HEADER = "site_id,z,y,x1,x2,x3"
GOOD = ["a,1,0.5,1.0,2.0,3.0", "b,0,1.5,-1.0,0.25,4.0", "a,0,2.5,1e-3,-0.0,5.5", "b,1,3.5,2.0,3.0,6.0"]


def write(tmp_path, lines, name="data.csv"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def reference_table(path):
    """Cell-by-cell parse with csv.DictReader and float(), the row-wise reader's semantics."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    xcols = sorted((c for c in rows[0] if re.fullmatch(r"x\d+", c)), key=lambda c: int(c[1:]))
    return UnitTable(
        site_ids=[r["site_id"] for r in rows],
        covariates=np.array([[float(r[c]) for c in xcols] for r in rows]),
        treatment=np.array([float(r["z"]) for r in rows]),
        outcomes=np.array([float(r["y"]) for r in rows]),
    )


def assert_tables_identical(got, want):
    assert got.site_ids == want.site_ids
    for name in ("covariates", "treatment", "outcomes"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


class TestBadCells:
    """Each bad cell raises the type and text of the row-by-row reader."""

    @pytest.mark.parametrize(
        "row, error, message",
        [
            ("a,1,0.5,1.0,,3.0", SchemaError, "{path}: missing value in column 'x2'"),
            ("a,1,0.5,1.0", SchemaError, "{path}: missing value in column 'x2'"),
            ("a,1,0.5,1.0,2.0,abc", SchemaError, "{path}: non-numeric value 'abc' in column 'x3'"),
            ("a,2,0.5,1.0,2.0,3.0", NonBinaryTreatmentError, "{path}: treatment value '2' is not 0/1"),
            ("a,nan,0.5,1.0,2.0,3.0", NonBinaryTreatmentError, "{path}: treatment value 'nan' is not 0/1"),
            ("a,,0.5,1.0,2.0,3.0", SchemaError, "{path}: missing value in column 'z'"),
            ("a,1,,1.0,2.0,3.0", SchemaError, "{path}: missing value in column 'y'"),
            ("a,1,0.5,nan,2.0,3.0", ValueError, "covariates must be finite (missing values are rejected) in site 'a'"),
            ("a,1,inf,1.0,2.0,3.0", ValueError, "outcome must be finite, got inf"),
            (" ", SchemaError, "{path}: missing value in column 'z'"),
        ],
    )
    def test_bad_row_in_the_middle(self, tmp_path, row, error, message):
        path = write(tmp_path, [HEADER, *GOOD[:2], row, *GOOD[2:]])
        with pytest.raises(error) as info:
            read_unit_table(path)
        assert type(info.value) is error
        assert str(info.value) == message.format(path=path)

    @pytest.mark.parametrize(
        "first, second, error",
        [
            ("a,2,0.5,1.0,2.0,3.0", "a,1,0.5,1.0,2.0,abc", NonBinaryTreatmentError),
            ("a,1,0.5,1.0,2.0,abc", "a,2,0.5,1.0,2.0,3.0", SchemaError),
            ("a,1,0.5,nan,2.0,3.0", "a,1,0.5,1.0,2.0,abc", ValueError),
            ("a,1,0.5,1.0,2.0,abc", "a,1,0.5,nan,2.0,3.0", SchemaError),
        ],
    )
    def test_first_bad_row_in_file_order_wins(self, tmp_path, first, second, error):
        path = write(tmp_path, [HEADER, GOOD[0], first, GOOD[1], second, *GOOD[2:]])
        with pytest.raises(error) as info:
            read_unit_table(path)
        assert type(info.value) is error

    def test_header_only_and_empty_file(self, tmp_path):
        path = write(tmp_path, [HEADER])
        with pytest.raises(SchemaError, match="no data rows"):
            read_unit_table(path)
        path = write(tmp_path, [HEADER, "", ""], name="blank.csv")
        with pytest.raises(SchemaError, match="no data rows"):
            read_unit_table(path)
        empty = tmp_path / "empty.csv"
        empty.write_text("", encoding="utf-8")
        with pytest.raises(SchemaError, match="empty file"):
            read_unit_table(str(empty))

    def test_target_sample_bad_cells(self, tmp_path):
        path = write(tmp_path, ["x1,x2", "1.0,2.0", "3.0,abc"])
        with pytest.raises(SchemaError) as info:
            read_target_sample(path)
        assert str(info.value) == f"{path}: non-numeric value 'abc' in column 'x2'"
        path = write(tmp_path, ["x1,x2", "1.0,2.0", "3.0,nan"], name="nan.csv")
        with pytest.raises(ValueError, match="target sample must be finite"):
            read_target_sample(path)


class TestParsedArrays:
    def test_quoted_site_id_with_comma_and_blank_trailing_line(self, tmp_path):
        lines = [HEADER, '"a,b",1,0.5,1.0,2.0,3.0', *GOOD, '"a,b",0,1.0,0.0,0.0,0.0', ""]
        path = write(tmp_path, lines)
        table = read_unit_table(path)
        assert table.site_ids[0] == "a,b"
        assert_tables_identical(table, reference_table(path))
        sites = validate_dataset(table)
        assert [s.site_id for s in sites] == ["a,b", "a", "b"]
        assert sites[0].row_indices.tolist() == [0, 5]

    def test_number_spellings_match_float(self, tmp_path):
        # loadtxt rejects the underscore and full-width spellings that float()
        # accepts; the file then goes through the row-wise reader
        rows = ["a,1,+3,1e-3, 2.5 ,-0.0", "a,0,.5,5.,1E+2,-1.5e-300", "b,1,7,0.1,0.2,0.3", "b,0,1,2,3,4"]
        for extra in ([], ["b,0,1_000,1,2,3"], ["b,0,１,1,2,3"]):
            path = write(tmp_path, [HEADER, *rows, *extra])
            assert_tables_identical(read_unit_table(path), reference_table(path))

    def test_columns_in_any_order_and_extra_cells_ignored(self, tmp_path):
        lines = ["x2,y,site_id,w,z,x1", "1.5,2.5,a,w,1,3,extra", "4,5,a,w,0,6", "7,8,b,w,0,9", "10,11,b,w,1,12"]
        path = write(tmp_path, lines)
        table = read_unit_table(path)
        np.testing.assert_array_equal(table.covariates, [[3, 1.5], [6, 4], [9, 7], [12, 10]])
        np.testing.assert_array_equal(table.treatment, [1, 0, 0, 1])
        np.testing.assert_array_equal(table.outcomes, [2.5, 5, 8, 11])
        assert table.site_ids == ["a", "a", "b", "b"]

    def test_target_sample_matches_float(self, tmp_path):
        path = write(tmp_path, ["x2,x1", "1e-3, 2 ", "-0.0,+4"])
        np.testing.assert_array_equal(read_target_sample(path).sample, [[2.0, 1e-3], [4.0, -0.0]])


def records_and_arrays(rng, n=12, d=3, site_id="s"):
    X = rng.normal(size=(n, d))
    z = np.array([1.0, 0.0] * (n // 2))
    y = rng.normal(size=n)
    records = [UnitRecord(tuple(x), int(t), float(v), site_id) for x, t, v in zip(X, z, y)]
    return records, X, z, y


class TestArraysFirstSiteDataset:
    def test_arrays_and_records_build_equal_sites(self, rng):
        records, X, z, y = records_and_arrays(rng)
        from_arrays = SiteDataset(site_id="s", covariates=X, treatment=z, outcomes=y, propensity=0.4)
        from_records = SiteDataset(units=records, propensity=0.4)
        assert_sites_identical(from_records, from_arrays)
        np.testing.assert_array_equal(from_arrays.row_indices, np.arange(len(records)))
        assert SiteDataset(site_id="s", covariates=X, treatment=z, outcomes=y).propensity == 0.5
        # a site is its arrays: equality and hash are identity
        assert from_arrays != from_records and hash(from_arrays) == object.__hash__(from_arrays)

    @pytest.mark.parametrize(
        "build",
        [lambda records: SiteDataset(units=records), lambda records: validate_dataset(records)[0]],
        ids=["units", "validate_dataset"],
    )
    def test_records_are_not_kept(self, rng, build):
        records, X, z, y = records_and_arrays(rng)
        refs = [weakref.ref(r) for r in records]
        site = build(records)
        del records
        assert all(ref() is None for ref in refs)
        assert_sites_identical(site, SiteDataset(site_id="s", covariates=X, treatment=z, outcomes=y))
        assert (site.n1, site.n0) == (6, 6)

    @pytest.mark.parametrize("field, value", [("treatment", 2.0), ("outcome", np.inf), ("covariates", (0.0, np.nan, 1.0))])
    def test_bad_record_raises_what_unit_record_raises(self, rng, field, value):
        records, *_ = records_and_arrays(rng)
        object.__setattr__(records[3], field, value)  # past UnitRecord's own check
        bad = records[3]
        with pytest.raises(Exception) as expected:
            UnitRecord(bad.covariates, bad.treatment, bad.outcome, bad.site_id)
        with pytest.raises(Exception) as got:
            SiteDataset(units=records)
        assert type(got.value) is type(expected.value)
        assert str(got.value) == str(expected.value)

    def test_negative_zero_survives_the_records_route(self, rng):
        _, X, z, y = records_and_arrays(rng)
        X[0, 0] = -0.0
        b = SiteDataset(site_id="s", covariates=X, treatment=z, outcomes=y)
        c = SiteDataset(units=site_records(b))
        assert math.copysign(1.0, c.covariates[0, 0]) == -1.0
        assert_sites_identical(c, b)

    def test_arrays_are_copied_and_read_only(self, rng):
        _, X, z, y = records_and_arrays(rng)
        site = SiteDataset(site_id="s", covariates=X, treatment=z, outcomes=y)
        X[0, 0] = 99.0
        assert site.covariates[0, 0] != 99.0
        with pytest.raises(ValueError):
            site.outcomes[0] = 1.0

    @pytest.mark.parametrize(
        "field, index, value",
        [("treatment", 3, 2.0), ("outcomes", 2, np.inf), ("covariates", (4, 1), np.nan)],
    )
    def test_bad_values_raise_what_unit_record_raises(self, rng, field, index, value):
        _, X, z, y = records_and_arrays(rng)
        arrays = {"covariates": X, "treatment": z, "outcomes": y}
        arrays[field][index] = value
        row = index[0] if isinstance(index, tuple) else index
        with pytest.raises(Exception) as expected:
            UnitRecord(tuple(X[row].tolist()), z[row].item(), y[row].item(), "s")
        with pytest.raises(Exception) as got:
            SiteDataset(site_id="s", **arrays)
        assert type(got.value) is type(expected.value)
        assert str(got.value) == str(expected.value)

    def test_validate_dataset_row_indices_match_records_path(self, rng, tmp_path):
        lines = [HEADER]
        for i in range(40):
            x = rng.normal(size=3).tolist()
            lines.append(f"s{rng.integers(3)},{i % 2},{float(rng.normal())!r},{x[0]!r},{x[1]!r},{x[2]!r}")
        path = write(tmp_path, lines)
        table = read_unit_table(path)
        records = [
            UnitRecord(tuple(x), int(t), v, s)
            for s, x, t, v in zip(table.site_ids, table.covariates.tolist(), table.treatment, table.outcomes.tolist())
        ]
        from_table, from_records = validate_dataset(table), validate_dataset(records)
        assert len(from_table) == 3
        for got, want in zip(from_table, from_records, strict=True):
            assert_sites_identical(got, want)
