"""The benchmark's workloads: inputs made from a seed, the timed body, and
the checks on its outputs.

Each workload gives the library only arrays, CSV files and configs built in
``setup``. ``body`` calls the library through module attributes looked up at
call time, so the tracer's replacements take effect. ``check`` returns one
problem string per failed operation.
"""

from __future__ import annotations

import io
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sitetransport import balance, cli, features, sim
from sitetransport.data import SiteDataset, TargetSpec, UnitRecord
from sitetransport.qp import SOLVED

# Relative tolerance on a weight program's optimality gap and on its
# objective against a stored reference: a thousand times the solver's
# default eps_abs/eps_rel (1e-6), which covers the clip-and-rescale polish
# applied after ADMM stops.
GAP_RTOL = 1e3 * 1e-6
# Values recomputed here from the same arithmetic must agree to rounding.
EXACT_RTOL = 1e-9


@dataclass
class Outcome:
    """What one body did, as seen by the checks."""

    attempted: int
    problems: list[str] = field(default_factory=list)
    # operations the library itself reported as failed, by estimator
    lib_failed: dict[str, int] = field(default_factory=dict)


def make_site(X: np.ndarray, z: np.ndarray, y: np.ndarray, site_id: str) -> SiteDataset:
    units = tuple(
        UnitRecord(covariates=tuple(x), treatment=int(t), outcome=float(v), site_id=site_id)
        for x, t, v in zip(X, z, y)
    )
    return SiteDataset(units=units)


def close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1.0)


def solve_problems(qp, ws, site, where: str) -> tuple[list[str], float | None]:
    """Check one weight solve; return its problems and QP objective.

    The optimality gap uses the arm multipliers mu_a = min over arm a of the
    gradient g = P x + q, which makes s = g - mu >= 0 dual feasible, so s'x
    bounds the distance of f(x) from the optimum.
    """
    x = ws.gamma
    treated = site.treatment == 1
    if ws.solver.status != SOLVED:
        return [f"{where}: status {ws.solver.status}"], None
    if not np.all(np.isfinite(x)) or x.min() < 0.0:
        return [f"{where}: weights not finite and nonnegative"], None
    problems = []
    if not (close(x[treated].sum(), site.n1, EXACT_RTOL) and close(x[~treated].sum(), site.n0, EXACT_RTOL)):
        problems.append(f"{where}: arm sums miss (n1, n0)")
    px = qp.p_matvec(x)
    g = px + qp.q
    mu = np.where(treated, g[treated].min(), g[~treated].min())
    gap = float((g - mu) @ x)
    obj = qp.objective(x)
    scale = max(abs(obj), float(x @ px), 1.0)
    if gap > GAP_RTOL * scale:
        problems.append(f"{where}: optimality gap {gap:.3e} exceeds {GAP_RTOL:g} x {scale:.3e}")
    return problems, obj


class SolveLog:
    """Checks each weight solve of the checked body as it happens.

    ``solve_weights`` calls ``solve_qp`` exactly once, so the last program
    seen belongs to the next weight solution. The program is dropped after
    its check, which keeps memory flat on the n=2000 sweep.
    """

    def __init__(self):
        self.program = None
        self.problems: list[str] = []
        self.objectives: list[float] = []
        self.solutions: list = []  # (site, WeightSolution)
        self.transport = None  # (sites, TransportReport) of the CLI run

    def hooks(self) -> dict:
        return {
            ("qp", "solve_qp"): self._on_program,
            ("balance", "solve_weights"): self._on_weights,
            ("multisite", "transport_all"): self._on_transport,
        }

    def _on_program(self, args, kwargs, result):
        self.program = args[0] if args else kwargs["prob"]

    def _on_weights(self, args, kwargs, ws):
        prob = args[0] if args else kwargs["prob"]
        if ws is None:  # a raised solve is counted by the library's n_failed
            return
        where = f"solve {len(self.solutions)} (site {prob.site.site_id}, lambda {ws.lam:g})"
        problems, obj = solve_problems(self.program, ws, prob.site, where)
        self.problems += problems
        if obj is not None:
            self.objectives.append(obj)
        self.solutions.append((prob.site, ws))
        self.program = None

    def _on_transport(self, args, kwargs, report):
        self.transport = (list(args[0] if args else kwargs["sites"]), report)


def compare_reference(values: list[float], ref: list[float] | None, rtol: float, label: str) -> list[str]:
    if ref is None:
        return []
    if len(ref) != len(values):
        return [f"{label}: {len(values)} values, reference has {len(ref)}"]
    return [
        f"{label} {i}: {v!r} differs from reference {r!r}"
        for i, (v, r) in enumerate(zip(values, ref))
        if not close(v, r, rtol)
    ]


class SimDefault:
    """The paper's harness at its default config, ``reps`` replications per
    body. Body k runs its own config seed, so a run averages over several
    site-size draws instead of timing one draw over and over.

    Criterion 5's bias-argmin condition needs on the order of a hundred
    replications to rise above noise, so it is left to the acceptance
    suite. The checks here are the exact ones: the top-lambda weighting row
    equals naive, naive and weighting never fail, and every weight solve of
    the checked body is nonnegative, meets the arm sums and is optimal.
    """

    name = "sim_default"
    work_unit = "replications"
    reps = 2

    def setup(self, seed: int, workdir: Path):
        return {"seed": seed}

    def config(self, inputs, k: int):
        return sim.SimConfig(reps=self.reps, seed=inputs["seed"] * 1000 + k)

    def body(self, inputs, k: int):
        return sim.run_simulation(self.config(inputs, k), threads=1)

    def work(self, inputs) -> float:
        return float(self.reps)

    def check(self, inputs, k, result, log, reference) -> Outcome:
        config = self.config(inputs, k)
        out = Outcome(attempted=len(result.rows) * result.reps * result.n_sites)
        for row in result.rows:
            if row.estimator in ("naive", "weighting"):
                # these never fail on the default config; a failure is a fault
                out.problems += [f"body {k}: a {row.estimator} cell failed (lambda {row.lam})"] * row.n_failed
            elif row.n_failed:
                out.lib_failed[row.estimator] = out.lib_failed.get(row.estimator, 0) + row.n_failed
        expected = {(e, None) for e in config.estimators if e != "weighting"}
        expected |= {("weighting", float(lam)) for lam in config.lambda_grid}
        got = {(r.estimator, r.lam) for r in result.rows}
        if got != expected:
            out.problems.append(f"body {k}: table rows {sorted(map(str, got ^ expected))} missing or extra")
            return out
        naive = result.row("naive")
        top = result.row("weighting", max(config.lambda_grid))
        if abs(top.rmse - naive.rmse) > 1e-6 or abs(top.mean_abs_bias - naive.mean_abs_bias) > 1e-6:
            out.problems.append(f"body {k}: top-lambda weighting row differs from naive")
        if log is not None:
            out.problems += log.problems
            if len(log.solutions) != result.reps * result.n_sites * len(config.lambda_grid):
                out.problems.append(f"body {k}: {len(log.solutions)} weight solves recorded")
        return out


class _Sweep:
    """Shared checks of the two lambda-sweep workloads."""

    work_unit = "weight solves"

    def work(self, inputs) -> float:
        return float(len(inputs["sites"]) * len(inputs["grid"]))

    def check(self, inputs, k, rows, log, reference) -> Outcome:
        n_solves = len(inputs["sites"]) * len(inputs["grid"])
        out = Outcome(attempted=n_solves)
        failed = sum(r.n_failed for r in rows)
        out.problems += [f"body {k}: a weight solve at lambda {r.lam:g} failed" for r in rows for _ in range(r.n_failed)]
        if len(rows) != len(inputs["grid"]) or not all(
            math.isfinite(v) for r in rows for v in (r.cate_imbalance, r.prognostic_imbalance, r.ess)
        ):
            out.problems.append(f"body {k}: sweep table incomplete or not finite")
        if log is None:
            # timed bodies: the table must repeat the checked body exactly
            if rows != inputs["checked_rows"]:
                out.problems.append(f"body {k}: sweep table differs from the checked body")
            return out
        inputs["checked_rows"] = rows
        if len(log.solutions) != n_solves - failed:
            out.problems.append(f"{len(log.solutions)} weight solves recorded, expected {n_solves - failed}")
        out.problems += log.problems
        ref = None if reference is None else reference["objectives"]
        out.problems += compare_reference(log.objectives, ref, GAP_RTOL, "objective")
        return out

    def reference_values(self, inputs, log) -> dict:
        return {"objectives": log.objectives}


class SweepWide(_Sweep):
    """The criterion-10 shape (n=2000 per site, 1000 treated, d=60, m=3000)
    with linear standardized maps over 25 lambda in logspace(1e-4, 1e2): the
    large-n Woodbury path, where each ADMM iteration is BLAS-bound."""

    name = "sweep_wide"
    n_sites = 4

    def setup(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 10])
        d, n = 60, 2000
        sites = []
        for j in range(self.n_sites):
            X = rng.normal(rng.normal(0, 0.2, d), 1.0, size=(n, d))
            z = np.zeros(n)
            z[rng.permutation(n)[:1000]] = 1
            y = X @ rng.normal(0, 0.2, d) + z * 0.4 + rng.normal(0, 0.5, n)
            sites.append(make_site(X, z, y, f"s{j:02d}"))
        target = TargetSpec.from_sample(rng.normal(0.25, 1.0, size=(3000, d)))
        return {"sites": sites, "target": target, "grid": np.logspace(-4, 2, 25)}

    def body(self, inputs, k: int):
        sites, target = inputs["sites"], inputs["target"]
        pooled = np.vstack([s.covariates for s in sites] + [target.sample])
        fmap = features.fit_feature_map(features.FeatureMap(standardize=True), pooled)
        return balance.lambda_sweep(sites, target, inputs["grid"], cate_map=fmap, prognostic_map=fmap)


class KernelRbfSweep(_Sweep):
    """Linear CATE kernel, RBF prognostic kernel with the median-heuristic
    bandwidth: the only workload on the explicit-P (sparse LU) path and on
    the kernel code."""

    name = "kernel_rbf_sweep"

    def setup(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 20])
        d, n = 8, 500
        sites = []
        for j in range(4):
            X = rng.normal(rng.normal(0, 0.3, d), 1.0, size=(n, d))
            z = np.zeros(n)
            z[rng.permutation(n)[:250]] = 1
            y = np.sin(X[:, 0]) + 0.5 * X[:, 1] ** 2 + z * (0.4 + 0.3 * X[:, 2]) + rng.normal(0, 0.5, n)
            sites.append(make_site(X, z, y, f"k{j}"))
        target = TargetSpec.from_sample(rng.normal(0.2, 1.0, size=(1500, d)))
        return {"sites": sites, "target": target, "grid": np.logspace(-3, 1, 8)}

    def body(self, inputs, k: int):
        return balance.lambda_sweep(
            inputs["sites"],
            inputs["target"],
            inputs["grid"],
            cate_kernel=features.KernelSpec("linear"),
            prognostic_kernel=features.KernelSpec("rbf"),
        )


CLI_ESTIMATORS = ("naive", "weighting", "outcome_model", "ipw")


class CliTransport:
    """``sitetransport transport`` then ``heterogeneity`` through
    ``cli.main`` on a generated 50k-row CSV: the only workload that parses
    files, and its weights are cold single-lambda solves."""

    name = "cli_transport"
    work_unit = "input rows"
    n_sites, n_per_site, d, m = 20, 2500, 20, 5000

    def setup(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 30])
        J, n, d = self.n_sites, self.n_per_site, self.d
        beta = rng.normal(0, 0.3, d)
        # site effects spread well beyond their standard errors, so the
        # Q-profile is not degenerate
        site_effect = rng.normal(0.0, 0.3, J)
        arrays = {}
        data = workdir / "data.csv"
        # written a site at a time, so the benchmark's own memory stays out
        # of peak_rss_mb
        with open(data, "w", encoding="utf-8") as fh:
            fh.write(",".join(["site_id", "z", "y"] + [f"x{i + 1}" for i in range(d)]) + "\n")
            for j in range(J):
                X = rng.normal(rng.normal(0, 0.3, d), 1.0, size=(n, d))
                z = np.zeros(n)
                z[rng.permutation(n)[: n // 2]] = 1
                tau = 0.5 + site_effect[j] + 0.3 * X[:, 0] - 0.2 * X[:, 1]
                y = X @ beta + z * tau + rng.normal(0, 1.0, n)
                site_id = f"site{j:02d}"
                arrays[site_id] = (X, z, y)
                fh.writelines(
                    f"{site_id},{int(zi)},{yi!r}," + ",".join(map(repr, x_row)) + "\n"
                    for x_row, zi, yi in zip(X.tolist(), z.tolist(), y.tolist())
                )
        target_X = rng.normal(0.2, 1.0, size=(self.m, d))
        target = workdir / "target.csv"
        rows = [",".join(f"x{i + 1}" for i in range(d))] + [",".join(map(repr, r)) for r in target_X.tolist()]
        target.write_text("\n".join(rows) + "\n", encoding="utf-8")
        config = workdir / "config.yaml"
        config.write_text(
            f"estimators: [{', '.join(CLI_ESTIMATORS)}]\nn_boot: 20\nseed: {seed}\n", encoding="utf-8"
        )
        return {
            "data": data,
            "target": target,
            "config": config,
            "estimates": workdir / "estimates.csv",
            "report": workdir / "heterogeneity.txt",
            "arrays": arrays,
            "target_X": target_X,
        }

    def work(self, inputs) -> float:
        return float(self.n_sites * self.n_per_site)

    def body(self, inputs, k: int):
        transport = ["transport", "--config", str(inputs["config"]), "--data", str(inputs["data"])]
        transport += ["--target", str(inputs["target"]), "--out", str(inputs["estimates"])]
        heterogeneity = ["heterogeneity", "--effects", str(inputs["estimates"])]
        heterogeneity += ["--baseline", "naive", "--method", "weighting", "--out", str(inputs["report"])]
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            codes = (cli.main(transport), cli.main(heterogeneity))
        return codes, stderr.getvalue()

    def _read_back(self, inputs) -> dict[str, dict]:
        """Estimates CSV as read by the CLI's own readers, keyed by site."""
        path = str(inputs["estimates"])
        _, rows = cli._read_rows(path)
        for m in CLI_ESTIMATORS:
            cli._read_effects(path, m)
        table = {}
        for row in rows:
            values = {c: cli._parse_float(row, c, path) for c in row if c.startswith(CLI_ESTIMATORS)}
            values["errors"] = row["errors"]
            table[row["site_id"]] = values
        return table

    def check(self, inputs, k, result, log, reference) -> Outcome:
        (rc_transport, rc_het), stderr = result
        out = Outcome(attempted=self.n_sites * len(CLI_ESTIMATORS))
        if rc_transport != 0 or rc_het != 0:
            out.problems.append(f"body {k}: exit codes {rc_transport}, {rc_het}: {stderr.strip()}")
            return out
        try:
            table = self._read_back(inputs)
        except Exception as exc:  # any reader failure is a failed check
            out.problems.append(f"body {k}: estimates CSV does not read back: {exc!r}")
            return out
        for values in table.values():
            for part in filter(None, values["errors"].split("; ")):
                method = part.split(":")[0]
                out.lib_failed[method] = out.lib_failed.get(method, 0) + 1
        report = inputs["report"].read_text(encoding="utf-8")
        if "pseudo_r2:" not in report or "degenerate" in report:
            out.problems.append(f"body {k}: heterogeneity report degenerate or incomplete")
        if log is None:
            if table != inputs["checked_table"]:
                out.problems.append(f"body {k}: estimates differ from the checked body")
            return out
        inputs["checked_table"] = table
        out.problems += self._value_problems(inputs, table, log)
        if reference is not None:
            out.problems += compare_reference(_flat(table), reference["values"], GAP_RTOL, "estimate")
        return out

    def _value_problems(self, inputs, table, log) -> list[str]:
        problems = list(log.problems)
        _, report = log.transport
        for res in report.results:
            row = table[res.site_id]
            for m, est in res.estimates.items():
                if (row[f"{m}_estimate"], row[f"{m}_std_error"]) != (est.estimate, est.std_error):
                    problems.append(f"site {res.site_id} {m}: CSV value does not round-trip")
        target_design = np.column_stack([np.ones(len(inputs["target_X"])), inputs["target_X"]])
        for site_id, (X, z, y) in inputs["arrays"].items():
            row = table[site_id]
            t, c = z == 1, z == 0
            naive = y[t].mean() - y[c].mean()
            naive_se = math.sqrt(y[t].var(ddof=1) / t.sum() + y[c].var(ddof=1) / c.sum())
            if not (close(row["naive_estimate"], naive, EXACT_RTOL) and close(row["naive_std_error"], naive_se, EXACT_RTOL)):
                problems.append(f"site {site_id}: naive estimate differs from the difference in means")
            design = np.column_stack([np.ones(len(y)), X])
            b1 = np.linalg.lstsq(design[t], y[t], rcond=None)[0]
            b0 = np.linalg.lstsq(design[c], y[c], rcond=None)[0]
            if not close(row["outcome_model_estimate"], float(np.mean(target_design @ (b1 - b0))), 1e-8):
                problems.append(f"site {site_id}: outcome-model estimate differs from least squares")
        if len(log.solutions) != self.n_sites:
            problems.append(f"{len(log.solutions)} weight solves recorded, expected {self.n_sites}")
        for site, ws in log.solutions:
            z, y, g = site.treatment, site.outcomes, ws.gamma
            est = (g * z) @ y / site.n1 - (g * (1 - z)) @ y / site.n0
            if not close(table[site.site_id]["weighting_estimate"], est, EXACT_RTOL):
                problems.append(f"site {site.site_id}: weighting estimate differs from its weights")
        return problems

    def reference_values(self, inputs, log) -> dict:
        return {"values": _flat(self._read_back(inputs))}


def _flat(table: dict) -> list[float]:
    return [v for site in sorted(table) for col, v in sorted(table[site].items()) if col != "errors"]


WORKLOADS = {w.name: w for w in (SimDefault(), SweepWide(), KernelRbfSweep(), CliTransport())}
