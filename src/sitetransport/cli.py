"""Command-line interface: data ingestion, configuration, and report emission.

Subcommands: ``weights``, ``transport``, ``heterogeneity``, ``simulate``,
``sweep``. Inputs and outputs are UTF-8 CSV files with headers; float values
are written with full round-trip precision. Failures produce a nonzero exit
code and a JSON error record on stderr. The ``SITETRANSPORT_THREADS``
environment variable sets the worker count for site- and repetition-level
parallelism.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
import warnings
from dataclasses import replace

import numpy as np
import yaml

from .balance import lambda_sweep
from .data import TargetSpec, UnitRecord, UnitTable, validate_dataset
from .errors import ConfigError, NonBinaryTreatmentError, SchemaError, SiteTransportError
from .estimators import NAIVE
from .features import KernelSpec
from .heterogeneity import SiteEffectSet, estimate_theta, pseudo_r2
from .multisite import KNOWN_ESTIMATORS, TransportConfig, transport_all
from .qp import QpSettings
from .sim import SimConfig, run_simulation

DEFAULT_LAMBDA = 0.03

# Logarithmic default grid plus the production default value 0.03.
DEFAULT_LAMBDA_GRID = tuple(sorted(set(np.logspace(-4, 2, 25).tolist() + [DEFAULT_LAMBDA])))


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _read_header(path: str) -> list[str]:
    with open(path, newline="", encoding="utf-8") as fh:
        fields = next(csv.reader(fh), None)
    if fields is None:
        raise SchemaError(f"{path}: empty file")
    return fields


def _read_rows(path: str) -> tuple[list[str], list[dict]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise SchemaError(f"{path}: empty file")
        return list(reader.fieldnames), list(reader)


def _covariate_columns(fields: list[str], path: str) -> list[str]:
    pat = re.compile(r"^x(\d+)$")
    found = {}
    for name in fields:
        m = pat.match(name)
        if m:
            found[int(m.group(1))] = name
    if not found:
        raise SchemaError(f"{path}: no covariate columns x1..xd found")
    d = max(found)
    missing = [f"x{i}" for i in range(1, d + 1) if i not in found]
    if missing:
        raise SchemaError(f"{path}: missing covariate column(s) {missing}")
    return [found[i] for i in range(1, d + 1)]


def _parse_float(row: dict, col: str, path: str) -> float:
    raw = row.get(col)
    if raw is None or raw == "":
        raise SchemaError(f"{path}: missing value in column {col!r}")
    try:
        return float(raw)
    except ValueError as exc:
        raise SchemaError(f"{path}: non-numeric value {raw!r} in column {col!r}") from exc


def _load_columns(path: str, fields: list[str], names: list[str], text: str | None = None):
    """Float matrix of columns ``names`` and strings of column ``text`` in one
    ``np.loadtxt`` pass, or None if loadtxt cannot parse some cell. loadtxt
    splits and unquotes like ``csv.reader`` and parses floats with the C
    routine behind ``float``; like ``csv.DictReader`` it skips blank lines,
    ignores extra cells and takes the last of repeated column names."""
    index = {name: i for i, name in enumerate(fields)}
    usecols = [index[c] for c in ([text] if text else []) + names]
    dtype = ([("s", object)] if text else []) + [("v", float, (len(names),))]
    with open(path, newline="", encoding="utf-8") as fh, warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # loadtxt's warning on a file without data rows
        next(csv.reader(fh))
        try:
            table = np.loadtxt(
                fh, dtype=dtype, delimiter=",", comments=None, quotechar='"', usecols=usecols, ndmin=1
            )
        except ValueError:
            return None
    if table.size == 0:
        raise SchemaError(f"{path}: no data rows")
    return table["v"], table["s"].tolist() if text else None


def read_unit_table(path: str) -> UnitTable:
    """Read a unit-level table with columns site_id, z, y, x1..xd."""
    fields = _read_header(path)
    for required in ("site_id", "z", "y"):
        if required not in fields:
            raise SchemaError(f"{path}: missing required column {required!r}")
    xcols = _covariate_columns(fields, path)
    loaded = _load_columns(path, fields, ["z", "y", *xcols], text="site_id")
    if loaded is not None:
        values, site_ids = loaded
        if np.isin(values[:, 0], (0.0, 1.0)).all() and np.isfinite(values).all():
            return UnitTable(site_ids, values[:, 2:], treatment=values[:, 0], outcomes=values[:, 1])
    # row by row, to raise at the first bad cell in file order
    records = []
    for row in _read_rows(path)[1]:
        z = _parse_float(row, "z", path)
        if z not in (0.0, 1.0):
            raise NonBinaryTreatmentError(f"{path}: treatment value {row['z']!r} is not 0/1")
        records.append(
            UnitRecord(
                covariates=tuple(_parse_float(row, c, path) for c in xcols),
                treatment=int(z),
                outcome=_parse_float(row, "y", path),
                site_id=row["site_id"],
            )
        )
    return UnitTable.from_records(records)


def read_target_sample(path: str) -> TargetSpec:
    """Target units: any table carrying covariate columns x1..xd."""
    fields = _read_header(path)
    xcols = _covariate_columns(fields, path)
    loaded = _load_columns(path, fields, xcols)
    if loaded is not None:
        return TargetSpec.from_sample(loaded[0])
    rows = _read_rows(path)[1]  # row by row, to raise at the first bad cell in file order
    return TargetSpec.from_sample(np.array([[_parse_float(r, c, path) for c in xcols] for r in rows]))


def read_target_moments(path: str) -> TargetSpec:
    """Moments file: one header row of feature names, one row of means."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        table = [row for row in reader if row]
    if len(table) != 2:
        raise SchemaError(f"{path}: a moments file needs a header row and one data row")
    try:
        means = [float(v) for v in table[1]]
    except ValueError as exc:
        raise SchemaError(f"{path}: non-numeric moment value") from exc
    return TargetSpec.from_moments(np.array(means))


def _load_yaml(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, encoding="utf-8") as fh:
        cfg = yaml.safe_load(fh)
    if cfg is None:
        return {}
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    return cfg


def _kernel_from_config(value) -> KernelSpec:
    if value is None or value == "linear":
        return KernelSpec("linear")
    if value == "rbf":
        return KernelSpec("rbf")
    if isinstance(value, dict):
        kind = value.get("kind", "rbf")
        bw = value.get("bandwidth", "median")
        return KernelSpec(kind, None if bw in (None, "median") else float(bw))
    raise ConfigError(f"cannot parse kernel spec {value!r}")


def _solver_from_config(cfg: dict) -> QpSettings:
    solver = cfg.get("solver", {})
    if not isinstance(solver, dict):
        raise ConfigError("config key 'solver' must be a mapping")
    defaults = QpSettings()
    allowed = {f for f in QpSettings.__dataclass_fields__}
    unknown = set(solver) - allowed
    if unknown:
        raise ConfigError(f"unknown solver setting(s) {sorted(unknown)}")
    coerced = {}
    for key, value in solver.items():
        default = getattr(defaults, key)
        if isinstance(default, bool) or isinstance(value, type(default)):
            coerced[key] = value
        else:
            coerced[key] = type(default)(value)
    return QpSettings(**coerced)


def _transport_config(cfg: dict, args) -> TransportConfig:
    features = cfg.get("features", {})
    interactions = tuple(tuple(p) for p in features.get("interactions", ()))
    estimators = cfg.get("estimators", [NAIVE, "weighting"])
    kernels = cfg.get("kernels", {})
    lam = args.lam if getattr(args, "lam", None) is not None else cfg.get("lambda", DEFAULT_LAMBDA)
    mode = getattr(args, "mode", None) or cfg.get("mode", "linear")
    seed = args.seed if getattr(args, "seed", None) is not None else cfg.get("seed", 0)
    return TransportConfig(
        estimators=tuple(estimators),
        lam=float(lam),
        mode=mode,
        interactions=interactions,
        standardize=bool(features.get("standardize", True)),
        cate_kernel=_kernel_from_config(kernels.get("cate")),
        prognostic_kernel=_kernel_from_config(kernels.get("prognostic")),
        solver=_solver_from_config(cfg),
        n_boot=int(cfg.get("n_boot", 200)),
        seed=int(seed),
        ipw_hajek=bool(cfg.get("ipw_hajek", False)),
    )


def _threads() -> int:
    raw = os.environ.get("SITETRANSPORT_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _resolve_target(args, sites):
    if getattr(args, "target", None):
        return read_target_sample(args.target)
    if getattr(args, "target_moments", None):
        return read_target_moments(args.target_moments)
    return TargetSpec.pooled(sites)


# --- subcommands ---


def _cmd_weights(args) -> int:
    cfg = _load_yaml(args.config)
    config = _transport_config(cfg, args)
    sites = validate_dataset(read_unit_table(args.data))
    if args.site is not None:
        sites = [s for s in sites if s.site_id == args.site]
        if not sites:
            raise SchemaError(f"site {args.site!r} not found in {args.data}")
    target = _resolve_target(args, sites)

    if config.mode == "kernel" and not target.is_sample:
        raise ConfigError(
            "kernel mode requires a unit-level target sample; a moments file only "
            "supports linear mode"
        )

    report = transport_all(
        sites, target, config=replace(config, estimators=("weighting",)), threads=_threads()
    )
    rows = []
    for res in report.results:
        if res.weights is None:
            print(
                f"site {res.site_id}: FAILED {res.errors.get('weighting', 'unknown error')}",
                file=sys.stderr,
            )
            continue
        site = next(s for s in sites if s.site_id == res.site_id)
        positions = site.row_indices or tuple(range(site.n))
        for pos, g in zip(positions, res.weights.gamma):
            rows.append([res.site_id, pos, g])
        ws = res.weights
        print(f"site {res.site_id}: lambda={ws.lam:g} ess={ws.ess:.2f}")
        print(f"  treated-vs-target imbalance:  {ws.cate_imbalance:.6g}")
        print(f"  treated-vs-control imbalance: {ws.prognostic_imbalance:.6g}")
        print(f"  solver: {ws.solver.status} in {ws.solver.iterations} iterations")
        for note in ws.notes:
            print(f"  note: {note}")
    if not rows:
        raise SiteTransportError("no site produced weights")
    _write_csv(args.out, ["site_id", "row", "gamma"], rows)
    print(f"wrote {args.out}")
    return 0


def _cmd_transport(args) -> int:
    cfg = _load_yaml(args.config)
    config = _transport_config(cfg, args)
    sites = validate_dataset(read_unit_table(args.data))
    target = _resolve_target(args, sites)
    report = transport_all(sites, target, config=config, threads=_threads())

    methods = [m for m in (NAIVE,) + tuple(KNOWN_ESTIMATORS) if m in config.estimators]
    methods = list(dict.fromkeys(methods))  # naive first, stable order
    header = ["site_id", "n", "n1", "n0"]
    for m in methods:
        header += [f"{m}_estimate", f"{m}_std_error", f"{m}_ess_treated", f"{m}_ess_control"]
    header.append("errors")

    rows = []
    for res in report.results:
        row = [res.site_id, res.n, res.n1, res.n0]
        for m in methods:
            est = res.estimates.get(m)
            if est is None:
                row += ["", "", "", ""]
            else:
                row += [est.estimate, est.std_error, est.ess_treated, est.ess_control]
        row.append("; ".join(f"{k}: {v}" for k, v in sorted(res.errors.items())))
        rows.append(row)
    _write_csv(args.out, header, rows)
    for res in report.results:
        for method, msg in sorted(res.errors.items()):
            print(f"site {res.site_id} {method}: {msg}", file=sys.stderr)
    print(f"wrote {args.out}")
    return 0


def _read_effects(path: str, method: str | None) -> SiteEffectSet:
    fields, rows = _read_rows(path)
    if not rows:
        raise SchemaError(f"{path}: no data rows")
    if method is not None:
        est_col, se_col = f"{method}_estimate", f"{method}_std_error"
    elif "estimate" in fields and "std_error" in fields:
        est_col, se_col = "estimate", "std_error"
    else:
        raise SchemaError(
            f"{path}: expected columns 'estimate' and 'std_error', or pass --method "
            "to select columns of a transport table"
        )
    for col in (est_col, se_col):
        if col not in fields:
            raise SchemaError(f"{path}: missing required column {col!r}")
    usable = [r for r in rows if r[est_col] not in ("", None) and r[se_col] not in ("", None)]
    if len(usable) < 2:
        raise SchemaError(f"{path}: need at least two rows with {est_col!r} present")
    est = np.array([_parse_float(r, est_col, path) for r in usable])
    se = np.array([_parse_float(r, se_col, path) for r in usable])
    return SiteEffectSet(estimates=est, std_errors=se)


def _report_lines(label: str, effects: SiteEffectSet, alpha: float) -> tuple[list[str], object]:
    rep = estimate_theta(effects, alpha=alpha)
    lines = [
        f"[{label}]",
        f"  sites:             {effects.J}",
        f"  q_at_zero:         {rep.q_at_zero:.6g}",
        f"  theta_variance:    {rep.theta_hat:.6g}",
        f"  theta_sd:          {rep.theta_sd:.6g}",
        f"  ci_sd_{100 * (1 - alpha):.0f}%:         ({rep.ci_sd[0]:.6g}, {rep.ci_sd[1]:.6g})",
    ]
    if rep.degenerate:
        lines.append("  note: profile degenerate; interval collapsed at zero")
    return lines, rep


def _cmd_heterogeneity(args) -> int:
    out: list[str] = []
    rep_untransported = rep_transported = None

    if args.transported:
        # two-table form: --effects holds the untransported effects
        eff_u = _read_effects(args.effects, args.method)
        eff_t = _read_effects(args.transported, args.method2 or args.method)
        lines, rep_untransported = _report_lines("untransported", eff_u, args.alpha)
        out += lines
        lines, rep_transported = _report_lines("transported", eff_t, args.alpha)
        out += lines
    elif args.baseline:
        # wide-table form: --baseline names the untransported column prefix
        if not args.method:
            raise ConfigError("--baseline requires --method for the transported columns")
        eff_u = _read_effects(args.effects, args.baseline)
        eff_t = _read_effects(args.effects, args.method)
        lines, rep_untransported = _report_lines("untransported", eff_u, args.alpha)
        out += lines
        lines, rep_transported = _report_lines("transported", eff_t, args.alpha)
        out += lines
    else:
        effects = _read_effects(args.effects, args.method)
        lines, _ = _report_lines("effects", effects, args.alpha)
        out += lines

    if rep_transported is not None:
        if rep_untransported.theta_sd > 0:
            r2 = pseudo_r2(rep_untransported.theta_sd, rep_transported.theta_sd)
            out.append(f"pseudo_r2: {r2:.6g}")
        else:
            out.append("pseudo_r2: n/a (baseline heterogeneity is zero)")

    text = "\n".join(out)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0


def _sim_config(cfg: dict, args) -> SimConfig:
    sim = cfg.get("sim", {})
    if not isinstance(sim, dict):
        raise ConfigError("config key 'sim' must be a mapping")
    allowed = set(SimConfig.__dataclass_fields__) - {"solver"}
    unknown = set(sim) - allowed
    if unknown:
        raise ConfigError(f"unknown sim setting(s) {sorted(unknown)}")
    kwargs = dict(sim)
    # YAML reads unsigned exponents like 1.0e8 as strings; coerce numerics
    casts = {
        "site_size_range": int,
        "cate_coefficients": float,
        "experiment_intercepts": float,
        "lambda_grid": float,
        "estimators": str,
    }
    for key, cast in casts.items():
        if key in kwargs and kwargs[key] is not None:
            kwargs[key] = tuple(cast(v) for v in kwargs[key])
    if getattr(args, "seed", None) is not None:
        kwargs["seed"] = args.seed
    elif "seed" not in kwargs:
        kwargs["seed"] = int(cfg.get("seed", 0))
    kwargs["solver"] = _solver_from_config(cfg)
    try:
        return SimConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid sim config: {exc}") from exc


def _cmd_simulate(args) -> int:
    cfg = _load_yaml(args.config)
    config = _sim_config(cfg, args)
    result = run_simulation(config, threads=_threads())
    header = ["estimator", "lambda", "rmse", "mean_abs_bias", "n_failed"]
    rows = [
        [r.estimator, "" if r.lam is None else r.lam, r.rmse, r.mean_abs_bias, r.n_failed]
        for r in result.rows
    ]
    _write_csv(args.out, header, rows)
    print(f"wrote {args.out}")

    if args.emit_plot_data:
        lams = sorted({r.lam for r in result.rows if r.lam is not None})
        bylam = {(r.estimator, r.lam): r for r in result.rows}
        flat = sorted({r.estimator for r in result.rows if r.lam is None})
        curved = sorted({r.estimator for r in result.rows if r.lam is not None})
        for metric in ("rmse", "mean_abs_bias"):
            head = ["lambda"] + curved + flat
            data = []
            for lam in lams:
                row = [lam]
                row += [getattr(bylam[(e, lam)], metric) for e in curved]
                row += [getattr(bylam[(e, None)], metric) for e in flat]
                data.append(row)
            path = f"{args.emit_plot_data}_{metric}.csv"
            _write_csv(path, head, data)
            print(f"wrote {path}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_yaml(args.config)
    config = _transport_config(cfg, args)
    sites = validate_dataset(read_unit_table(args.data))
    target = _resolve_target(args, sites)

    if args.lambdas:
        grid = [float(v) for v in args.lambdas.split(",") if v.strip() != ""]
    else:
        grid = list(cfg.get("lambda_grid", DEFAULT_LAMBDA_GRID))
    if config.mode == "kernel" and not target.is_sample:
        raise ConfigError("kernel mode requires a unit-level target sample")

    from .features import FeatureMap, fit_feature_map

    kwargs = {}
    if config.mode == "linear":
        pooled = [s.covariates for s in sites]
        if target.is_sample:
            pooled.append(target.sample)
        fmap = fit_feature_map(
            FeatureMap(interactions=config.interactions, standardize=config.standardize),
            np.vstack(pooled),
        )
        kwargs = {"cate_map": fmap, "prognostic_map": fmap}
    else:
        kwargs = {"cate_kernel": config.cate_kernel, "prognostic_kernel": config.prognostic_kernel}

    rows = lambda_sweep(sites, target, grid, settings=config.solver, **kwargs)
    _write_csv(
        args.out,
        ["lambda", "cate_imbalance", "prognostic_imbalance", "ess", "n_failed"],
        [[r.lam, r.cate_imbalance, r.prognostic_imbalance, r.ess, r.n_failed] for r in rows],
    )
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sitetransport",
        description="Transport site-level treatment effects to a target covariate "
        "distribution with approximate balancing weights.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, target=True):
        p.add_argument("--config", help="YAML config file")
        p.add_argument("--seed", type=int, help="overrides the config seed")
        if target:
            p.add_argument("--data", required=True, help="unit-level CSV: site_id,z,y,x1..xd")
            group = p.add_mutually_exclusive_group()
            group.add_argument("--target", help="unit-level target sample CSV")
            group.add_argument(
                "--target-moments", help="feature-means target CSV (linear mode only)"
            )

    p = sub.add_parser("weights", help="solve balancing weights for one or all sites")
    add_common(p)
    p.add_argument("--site", help="restrict to one site id")
    p.add_argument("--lambda", dest="lam", type=float, help="regularization strength")
    p.add_argument("--mode", choices=["linear", "kernel"])
    p.add_argument("--out", default="weights.csv")
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("transport", help="per-site transported-effect table")
    add_common(p)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--mode", choices=["linear", "kernel"])
    p.add_argument("--out", default="estimates.csv")
    p.set_defaults(func=_cmd_transport)

    p = sub.add_parser("heterogeneity", help="Q-profile report from an effects table")
    p.add_argument("--effects", required=True, help="CSV with estimate/std_error columns")
    p.add_argument("--method", help="method prefix when reading a transport table")
    p.add_argument("--baseline", help="baseline method prefix for the pseudo-R2 line")
    p.add_argument("--transported", help="second effects table (transported)")
    p.add_argument("--method2", help="method prefix for the second table")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--out", help="also write the report to this file")
    p.set_defaults(func=_cmd_heterogeneity)

    p = sub.add_parser("simulate", help="run the estimator benchmark simulation")
    p.add_argument("--config", help="YAML config file (sim: section)")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default="simulation.csv")
    p.add_argument("--emit-plot-data", metavar="PREFIX", help="write per-lambda curve files")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="lambda trade-off table (imbalance vs. ESS)")
    add_common(p)
    p.add_argument("--lambdas", help="comma-separated grid; default log grid 1e-4..1e2")
    p.add_argument("--mode", choices=["linear", "kernel"])
    p.add_argument("--out", default="sweep.csv")
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    except (SiteTransportError, ValueError, OSError) as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
