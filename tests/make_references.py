"""Writes the output references under tests/data/ from the current source.

Run from the repository root:

    PYTHONPATH=src python tests/make_references.py [NAME ...]

With no NAME it rewrites every reference; with names (file names under
tests/data/, as in NAMES) it rewrites only those, so a change that moves one
reference leaves the others' bytes as they are (a rerun can move their last
bits on another BLAS build).
The references are kernel-mode ``weights`` (λ = 0.03) and ``sweep`` runs on
the golden inputs with two kernel pairs, a linear-mode ``sweep``, and the
rows and per-cell errors of ``SimConfig(reps=4, seed=s)`` for s in
SIM_SEEDS. Each file's first line names the command above;
tests/test_references.py recomputes every output with the functions here and
compares it with its file. A change that moves a reference regenerates it
with this script and says why.
"""

from __future__ import annotations

import contextlib
import csv
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

DATA_DIR = Path(__file__).parent / "data"
COMMAND = "PYTHONPATH=src python tests/make_references.py"
HEADER = f"# generated by: {COMMAND}\n"

RBF = "{kind: rbf, bandwidth: median}"
KERNEL_PAIRS = {
    "rbf_rbf": f"kernels:\n  cate: {RBF}\n  prognostic: {RBF}\n",
    "linear_rbf": f"kernels:\n  cate: linear\n  prognostic: {RBF}\n",
}
# reference file -> (CLI arguments before the inputs, YAML config)
CLI_RUNS = {
    **{
        f"reference_weights_kernel_{pair}.csv": (["weights", "--lambda", "0.03"], cfg)
        for pair, cfg in KERNEL_PAIRS.items()
    },
    **{
        f"reference_sweep_kernel_{pair}.csv": (["sweep"], cfg)
        for pair, cfg in KERNEL_PAIRS.items()
    },
    "reference_sweep_linear.csv": (["sweep"], ""),
}
SIM_SEEDS = (1, 2, 7)
SIM_ROWS = "reference_sim_rows.csv"
SIM_CELLS = "reference_sim_cell_errors.csv"
NAMES = (*CLI_RUNS, SIM_ROWS, SIM_CELLS)


def cli_output(name: str) -> list[list[str]]:
    """Header and rows of the CSV that the CLI run behind reference ``name``
    writes on the golden inputs."""
    from sitetransport.cli import main

    args, config = CLI_RUNS[name]
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "run.yaml", Path(tmp) / "out.csv"
        cfg.write_text(config, encoding="utf-8")
        inputs = ["--data", str(DATA_DIR / "golden_data.csv"), "--target", str(DATA_DIR / "golden_target.csv")]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main(args + inputs + ["--config", str(cfg), "--out", str(out)])
        if rc != 0:
            raise RuntimeError(f"{name}: exit code {rc}")
        with open(out, newline="", encoding="utf-8") as fh:
            return list(csv.reader(fh))


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return "" if value is None else str(value)


def sim_outputs() -> tuple[list[list[str]], list[list[str]]]:
    """The simulation rows, and every cell's (rep, site) errors, at each seed."""
    from sitetransport.sim import SimConfig, run_simulation

    rows = [["seed", "estimator", "lambda", "rmse", "mean_abs_bias", "n_failed"]]
    cells = [["seed", "estimator", "lambda", "rep", "site", "error"]]
    for seed in SIM_SEEDS:
        result = run_simulation(SimConfig(reps=4, seed=seed))
        for r in result.rows:
            rows.append([_cell(v) for v in (seed, r.estimator, r.lam, r.rmse, r.mean_abs_bias, r.n_failed)])
        for (estimator, lam), errors in result.cell_errors.items():
            for (rep, site), error in np.ndenumerate(errors):
                cells.append([_cell(v) for v in (seed, estimator, lam, rep, site, float(error))])
    return rows, cells


def outputs(names: tuple[str, ...] = NAMES) -> dict[str, list[list[str]]]:
    """The named references' tables, computed from the current source."""
    tables = {name: cli_output(name) for name in names if name in CLI_RUNS}
    if SIM_ROWS in names or SIM_CELLS in names:
        sim = dict(zip((SIM_ROWS, SIM_CELLS), sim_outputs()))
        tables.update((name, sim[name]) for name in names if name in sim)
    return tables


def read_reference(name: str) -> list[list[str]]:
    with open(DATA_DIR / name, newline="", encoding="utf-8") as fh:
        if fh.readline() != HEADER:
            raise ValueError(f"{name}: first line does not name {COMMAND!r}")
        return list(csv.reader(fh))


def write_reference(name: str, table: list[list[str]]) -> None:
    with open(DATA_DIR / name, "w", newline="", encoding="utf-8") as fh:
        fh.write(HEADER)
        csv.writer(fh, lineterminator="\n").writerows(table)


def main(names: list[str]) -> int:
    unknown = [name for name in names if name not in NAMES]
    if unknown:
        print(f"unknown reference {', '.join(unknown)}; the references are {', '.join(NAMES)}", file=sys.stderr)
        return 2
    for name, table in outputs(tuple(names) or NAMES).items():
        write_reference(name, table)
        nan = sum(1 for row in table[1:] for v in row if v == "nan")
        print(f"wrote tests/data/{name}: {len(table) - 1} rows" + (f", {nan} NaN cells" if nan else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
