"""End-to-end runs of the command line on the golden inputs and on generated
multisite tables.

Outputs that must not depend on how a run is arranged: which estimators
share it, the order of the sites, units and target rows, the BLAS thread
count, or a warm start along a sweep. And the exact-balance (λ = 0) runs,
which must solve every site. Each test calls ``cli.main`` in process, except
the thread-count test: OpenBLAS reads its thread count when numpy loads, so
it starts one interpreter per count.
"""

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sitetransport import BalanceProblem, QpSettings, TransportConfig, solve_weights, validate_dataset
from sitetransport.cli import main, read_target_sample, read_unit_table
from sitetransport.multisite import run_setup

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_DATA = str(DATA_DIR / "golden_data.csv")
GOLDEN = ["--data", GOLDEN_DATA, "--target", str(DATA_DIR / "golden_target.csv")]
ESTIMATORS = ("naive", "weighting", "ipw", "outcome_model", "doubly_robust")
LINEAR_RBF = "kernels:\n  cate: linear\n  prognostic: {kind: rbf, bandwidth: median}\n"
KERNEL_MODE = "mode: kernel\n" + LINEAR_RBF


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def run(capsys, tmp_path, name, args, config=""):
    """Runs ``sitetransport ARGS --config NAME.yaml --out NAME.csv``, the
    config holding ``config``; returns what it printed and the output path."""
    cfg, out = tmp_path / f"{name}.yaml", tmp_path / f"{name}.csv"
    cfg.write_text(config, encoding="utf-8")
    assert main([*args, "--config", str(cfg), "--out", str(out)]) == 0
    return capsys.readouterr().out, out


def write_trial(directory, name, seed, n_sites, n, d, site_sd, m, target_mu, slope=0.0):
    """Writes NAME_data.csv and NAME_target.csv; returns their paths.

    Each site has n units with d covariates around its own means (drawn with
    sd ``site_sd``), half of them treated, and the effect 0.4 + slope * x1.
    The target is m rows around ``target_mu``.
    """
    rng = np.random.default_rng(seed)
    cols = ",".join(f"x{i}" for i in range(1, d + 1))
    blocks = []
    for j in range(n_sites):
        X = rng.normal(rng.normal(0, site_sd, d), 1.0, size=(n, d))
        z = np.zeros(n)
        z[rng.permutation(n)[: n // 2]] = 1
        y = X @ rng.normal(0, 0.2, d) + z * (0.4 + slope * X[:, 0]) + rng.normal(0, 0.5, n)
        blocks.append(np.column_stack([np.full(n, j), z, y, X]))
    data, target = directory / f"{name}_data.csv", directory / f"{name}_target.csv"
    np.savetxt(data, np.vstack(blocks), fmt="%.17g", delimiter=",", header=f"site_id,z,y,{cols}", comments="")
    np.savetxt(target, rng.normal(target_mu, 1.0, size=(m, d)), fmt="%.17g", delimiter=",", header=cols,
               comments="")
    return str(data), str(target)


def test_each_estimator_alone_writes_its_columns_of_the_five_estimator_run(tmp_path, capsys):
    # what a run computes once and shares (the map, the model fits, the
    # bootstrap) changes no estimate
    def table(name, estimators):
        config = f"estimators: [{', '.join(estimators)}]\nn_boot: 20\nseed: 1\n"
        return read_csv(run(capsys, tmp_path, name, ["transport", *GOLDEN], config)[1])

    together = table("all", ESTIMATORS)
    for name in ESTIMATORS:
        alone = table(name, [name])
        columns = [c for c in alone[0] if c.startswith(name + "_")]
        assert len(columns) == 4 and len(alone) == len(together) > 0, (name, columns, len(alone))
        assert [[row["site_id"], *(row[c] for c in columns)] for row in alone] == [
            [row["site_id"], *(row[c] for c in columns)] for row in together
        ], name


def test_kernel_mode_solver_lines_show_a_numeric_duality_gap(tmp_path, capsys):
    printed, _ = run(capsys, tmp_path, "weights", ["weights", *GOLDEN], KERNEL_MODE)
    lines = [line for line in printed.splitlines() if "solver:" in line]
    assert len(lines) > 0
    numeric = re.compile(r"solver: .*duality gap -?[0-9.]+(e[-+][0-9]+)?$")
    assert all(numeric.search(line) for line in lines), lines


def test_kernel_weights_past_the_bandwidth_cap_do_not_depend_on_the_target_row_order(tmp_path, capsys):
    # 70 units and 2100 target rows pool past the bandwidth's subsample cap
    rng = np.random.default_rng(3)
    target = np.vstack([rng.normal(-0.5, 1.0, size=(1050, 3)), rng.normal(0.8, 0.6, size=(1050, 3))])
    weights = []
    for name, rows in (("target", target), ("reversed", target[::-1])):
        path = tmp_path / f"{name}.csv"
        np.savetxt(path, rows, fmt="%.17g", delimiter=",", header="x1,x2,x3", comments="")
        _, out = run(capsys, tmp_path, name, ["weights", "--data", GOLDEN_DATA, "--target", str(path)], KERNEL_MODE)
        weights.append(np.loadtxt(out, delimiter=",", skiprows=1, usecols=2))
    w, w_reversed = weights
    assert w.shape == w_reversed.shape == (70,), (w.shape, w_reversed.shape)
    np.testing.assert_allclose(w_reversed, w, rtol=1e-12, atol=0.0)


def test_kernel_weights_do_not_depend_on_the_order_of_the_sites_or_their_rows(tmp_path, capsys):
    header, *rows = Path(GOLDEN_DATA).read_text(encoding="utf-8").splitlines()
    reversed_data = tmp_path / "golden_reversed.csv"
    reversed_data.write_text("\n".join([header, *rows[::-1]]) + "\n", encoding="utf-8")
    kernels, tables = [], []
    for name, data in (("golden", GOLDEN_DATA), ("reversed", str(reversed_data))):
        args = ["weights", "--data", data, "--target", str(DATA_DIR / "golden_target.csv")]
        printed, out = run(capsys, tmp_path, name, args, KERNEL_MODE)
        kernels.append([line for line in printed.splitlines() if line.startswith("kernels:")])
        tables.append(read_csv(out))
    assert len(kernels[0]) == 1 and kernels[1] == kernels[0], kernels
    n = len(tables[0])
    # row r of the reversed file is row n - 1 - r of the golden data
    w, w_reversed = (
        {(row["site_id"], flip(int(row["row"]))): float(row["gamma"]) for row in table}
        for table, flip in zip(tables, (lambda r: r, lambda r: n - 1 - r))
    )
    assert n == 70 and w.keys() == w_reversed.keys(), (n, sorted(w.keys() ^ w_reversed.keys())[:5])
    keys = sorted(w)
    np.testing.assert_allclose([w_reversed[k] for k in keys], [w[k] for k in keys], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("config", ["mode: linear\n", KERNEL_MODE], ids=["linear", "kernel"])
def test_exact_balance_solves_every_site_and_weights_every_unit(tmp_path, capsys, config):
    printed, out = run(capsys, tmp_path, "weights", ["weights", "--lambda", "0", *GOLDEN], config)
    lines = [line for line in printed.splitlines() if "solver:" in line]
    assert len(lines) > 0 and all("solver: solved in" in line for line in lines), lines
    assert len(read_csv(out)) == len(read_csv(GOLDEN_DATA))


@pytest.mark.parametrize("mode", ["linear", "kernel"])
def test_a_sweep_through_exact_balance_solves_every_lambda(tmp_path, capsys, mode):
    args = ["sweep", "--mode", mode, "--lambdas", "0,1e-4,0.03", *GOLDEN]
    rows = read_csv(run(capsys, tmp_path, "sweep", args, LINEAR_RBF)[1])
    assert [float(row["lambda"]) for row in rows] == [0.0, 1e-4, 0.03], rows
    assert all(int(row["n_failed"]) == 0 for row in rows), rows


# Runs the commands given as JSON in argv[1] and prints, last, the thread
# count of each bundled OpenBLAS as JSON.
RUN_COMMANDS = """
import contextlib, io, json, sys
from sitetransport import blas
from sitetransport.cli import main

def count(setter):
    threads = setter(1)
    setter(threads)
    return threads

counts = [count(setter) for setter in blas._thread_setters()]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    if rc != 0:
        sys.exit(f"exit code {rc} from {argv}")
print(json.dumps(counts))
"""


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    sim = tmp_path / "sim.yaml"
    sim.write_text("sim: {reps: 3}\n", encoding="utf-8")
    # 4 sites x 2000 units x 60 covariates, and x 30 with a 3000-row target
    wide = write_trial(tmp_path, "wide", seed=1, n_sites=4, n=2000, d=60, site_sd=0.2, m=3000, target_mu=0.25)
    trial = write_trial(tmp_path, "trial", seed=4, n_sites=4, n=2000, d=30, site_sd=0.2, m=3000, target_mu=0.2,
                        slope=0.2)
    cfg = tmp_path / "trial.yaml"
    cfg.write_text(f"estimators: [{', '.join(ESTIMATORS)}]\nn_boot: 20\nseed: 3\n", encoding="utf-8")
    commands = {
        "simulate": ["simulate", "--seed", "2", "--config", str(sim)],
        "sweep": ["sweep", "--lambdas", "1e-4,1e-3,1e-2", "--data", wide[0], "--target", wide[1]],
        "transport": ["transport", "--config", str(cfg), "--data", trial[0], "--target", trial[1]],
        "weights": ["weights", "--config", str(cfg), "--data", trial[0], "--target", trial[1]],
    }
    src = str(Path(__file__).parent.parent / "src")
    counts = {}
    for threads in (1, 2):
        argv = [[*args, "--out", str(tmp_path / f"{name}_{threads}.csv")] for name, args in commands.items()]
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", RUN_COMMANDS, json.dumps(argv)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        counts[threads] = json.loads(proc.stdout.splitlines()[-1])
    # the variable reached each bundled OpenBLAS
    assert counts[1] == [1] * len(counts[1])
    if len(os.sched_getaffinity(0)) >= 2:
        assert counts[2] == [2] * len(counts[2]), counts
    for name in commands:
        assert (tmp_path / f"{name}_1.csv").read_bytes() == (tmp_path / f"{name}_2.csv").read_bytes(), name


def test_a_warm_started_sweep_gives_the_rows_of_fresh_solves(tmp_path, capsys):
    # 2 sites x 800 units x 20 covariates and 25 lambda, the sweep and the
    # fresh solves both at eps 1e-10
    data, target_path = write_trial(tmp_path, "grid", seed=5, n_sites=2, n=800, d=20, site_sd=0.3, m=1200,
                                    target_mu=0.3)
    grid = ",".join(repr(v) for v in np.logspace(-4, 2, 25).tolist())
    args = ["sweep", "--mode", "linear", "--lambdas", grid, "--data", data, "--target", target_path]
    _, out = run(capsys, tmp_path, "sweep", args, "solver: {eps_abs: 1.0e-10, eps_rel: 1.0e-10}\n")
    sites = validate_dataset(read_unit_table(data))
    target = read_target_sample(target_path)
    _, sides = run_setup(TransportConfig(estimators=("weighting",)), sites, target)
    rows = read_csv(out)
    assert len(sites) == 2 and len(rows) == 25, (len(sites), len(rows))
    names = ("cate_imbalance", "prognostic_imbalance", "ess")
    tight = QpSettings(eps_abs=1e-10, eps_rel=1e-10)
    for row in rows:
        lam = float(row["lambda"])
        fresh = [solve_weights(BalanceProblem(site=site, target=target, lam=lam, **sides), tight) for site in sites]
        expected = [np.mean([getattr(ws, name) for ws in fresh]) for name in names]
        assert int(row["n_failed"]) == 0, row
        np.testing.assert_allclose([float(row[name]) for name in names], expected, rtol=1e-9, atol=0.0,
                                   err_msg=f"lambda {lam!r}")
