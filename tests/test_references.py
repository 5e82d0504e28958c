"""Recomputed outputs against the committed references in tests/data/.

The references are written by tests/make_references.py (see there for what
each holds and how to regenerate one). Identifiers and counts (site ids, row
numbers, λ, estimator names, seeds, failure counts) must match exactly, and
NaN cells (failed simulation cells) must sit in the same places. Every other
value must match to REL_TOL relative to the larger of its reference value and
its column's largest reference magnitude, since another BLAS build can move
the last bits of a solve.
"""

import numpy as np
import pytest

import make_references as refs

REL_TOL = 1e-12
EXACT_COLUMNS = {"site_id", "row", "lambda", "n_failed", "seed", "estimator", "rep", "site"}


@pytest.fixture(scope="module")
def sim_tables():
    rows, cells = refs.sim_outputs()
    return {refs.SIM_ROWS: rows, refs.SIM_CELLS: cells}


def assert_matches_reference(name, table):
    expected = refs.read_reference(name)
    assert table[0] == expected[0], f"{name}: header"
    assert len(table) == len(expected), f"{name}: {len(table) - 1} rows, reference has {len(expected) - 1}"
    for c, column in enumerate(expected[0]):
        got = [row[c] for row in table[1:]]
        want = [row[c] for row in expected[1:]]
        if column in EXACT_COLUMNS:
            assert got == want, f"{name}: column {column!r} differs"
            continue
        got, want = np.array(got, dtype=float), np.array(want, dtype=float)
        assert np.array_equal(np.isnan(got), np.isnan(want)), f"{name}: NaN cells of {column!r} differ"
        scale = np.nanmax(np.abs(want), initial=0.0)
        tol = REL_TOL * np.maximum(np.abs(want), scale)
        bad = np.flatnonzero(np.abs(got - want) > tol)
        assert bad.size == 0, (
            f"{name}: {column!r} differs in {bad.size} rows, first row {bad[0] + 1}: "
            f"{got[bad[0]]!r} against {want[bad[0]]!r}"
        )


@pytest.mark.parametrize("name", sorted(refs.CLI_RUNS))
def test_cli_output_matches_reference(name):
    assert_matches_reference(name, refs.cli_output(name))


@pytest.mark.parametrize("name", [refs.SIM_ROWS, refs.SIM_CELLS])
def test_simulation_matches_reference(name, sim_tables):
    assert_matches_reference(name, sim_tables[name])


def test_comparison_rejects_a_moved_value():
    name = "reference_sweep_linear.csv"
    table = refs.read_reference(name)
    assert_matches_reference(name, table)
    moved = [list(row) for row in table]
    moved[1][1] = repr(float(moved[1][1]) * (1 + 1e-9))
    with pytest.raises(AssertionError, match="cate_imbalance"):
        assert_matches_reference(name, moved)


def test_make_references_rewrites_only_the_named_references(monkeypatch):
    written = []
    monkeypatch.setattr(refs, "write_reference", lambda name, table: written.append((name, table)))
    monkeypatch.setattr(refs, "sim_outputs", lambda: pytest.fail("the simulation ran for a CLI reference"))
    assert refs.main(["reference_sweep_linear.csv"]) == 0
    assert [name for name, _ in written] == ["reference_sweep_linear.csv"]
    assert_matches_reference("reference_sweep_linear.csv", written[0][1])


def test_make_references_writes_one_simulation_table_alone(monkeypatch):
    written = []
    monkeypatch.setattr(refs, "write_reference", lambda name, table: written.append(name))
    monkeypatch.setattr(refs, "cli_output", lambda name: pytest.fail(f"{name} ran for a simulation reference"))
    monkeypatch.setattr(refs, "sim_outputs", lambda: ([["rows"]], [["cells"]]))
    assert refs.main([refs.SIM_CELLS]) == 0
    assert written == [refs.SIM_CELLS]


def test_make_references_rejects_an_unknown_name_and_lists_the_valid_ones(monkeypatch, capsys):
    monkeypatch.setattr(refs, "write_reference", lambda name, table: pytest.fail("wrote a reference"))
    assert refs.main(["reference_sweep_linear.csv", "reference_nope.csv"]) == 2
    err = capsys.readouterr().err
    assert "reference_nope.csv" in err
    assert all(name in err for name in refs.NAMES)
    assert len(refs.NAMES) == 7 and refs.SIM_ROWS in refs.NAMES
