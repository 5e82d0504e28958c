"""Command-line interface: data ingestion, configuration, and report emission.

Subcommands: ``weights``, ``transport``, ``heterogeneity``, ``simulate``,
``sweep``. Inputs and outputs are UTF-8 CSV files with headers (inputs may start
with a byte-order mark); floats are written with full round-trip precision.
Failures produce a nonzero exit code and a JSON error record on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
import warnings
from dataclasses import replace

import numpy as np
import yaml

from .balance import BalanceProblem, check_lambda, lambda_sweep, solve_weights
from .blas import single_threaded_blas
from .data import SiteDataset, TargetSpec, UnitTable, _check_unit, validate_dataset
from .errors import ConfigError, NonBinaryTreatmentError, SchemaError, SiteTransportError
from .features import KernelSpec, raw_feature_names
from .heterogeneity import SiteEffectSet, estimate_theta, pseudo_r2
from .multisite import DEFAULT_LAMBDA, KNOWN_ESTIMATORS, TransportConfig, run_setup, transport_all
from .qp import QpSettings
from .sim import SimConfig, run_simulation

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
    with open(path, newline="", encoding="utf-8-sig") as fh:
        fields = next(csv.reader(fh), None)
    if fields is None:
        raise SchemaError(f"{path}: empty file")
    return fields


def _read_rows(path: str) -> tuple[list[str], list[dict]]:
    with open(path, newline="", encoding="utf-8-sig") as fh:
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
    with open(path, newline="", encoding="utf-8-sig") as fh, warnings.catch_warnings():
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
    units = []
    for row in _read_rows(path)[1]:
        z = _parse_float(row, "z", path)
        if z not in (0.0, 1.0):
            raise NonBinaryTreatmentError(f"{path}: treatment value {row['z']!r} is not 0/1")
        units.append(([_parse_float(row, c, path) for c in xcols], z, _parse_float(row, "y", path), row["site_id"]))
        _check_unit(*units[-1])
    X, z, y, site_ids = zip(*units)
    return UnitTable(list(site_ids), np.array(X), treatment=np.array(z), outcomes=np.array(y))


def read_target_sample(path: str) -> TargetSpec:
    """Target units: any table carrying covariate columns x1..xd."""
    fields = _read_header(path)
    xcols = _covariate_columns(fields, path)
    loaded = _load_columns(path, fields, xcols)
    if loaded is not None:
        return TargetSpec.from_sample(loaded[0])
    rows = _read_rows(path)[1]  # row by row, to raise at the first bad cell in file order
    return TargetSpec.from_sample(np.array([[_parse_float(r, c, path) for c in xcols] for r in rows]))


def read_target_moments(path: str, names: tuple[str, ...]) -> TargetSpec:
    """Moments file: a header row of feature names and one row of the
    target's means of them. The names are matched, in any order, against
    ``names``: the map's features before scaling and dropping."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        table = [row for row in csv.reader(fh) if row]
    if len(table) != 2 or len(table[0]) != len(table[1]):
        raise SchemaError(f"{path}: a moments file needs a header row and one data row of equal length")
    header = [name.strip() for name in table[0]]
    missing = [name for name in names if name not in header]
    unknown = [name for name in header if name not in names or header.count(name) > 1]
    for label, found in (("missing", missing), ("unknown or repeated", unknown)):
        if found:
            raise SchemaError(f"{path}: {label} moment column(s) {found}; expected {list(names)}")
    row = dict(zip(header, table[1]))
    return TargetSpec.from_moments([_parse_float(row, name, path) for name in names])


# Every key a config file may hold at its top level, for any subcommand.
_CONFIG_KEYS = (
    "seed", "lambda", "estimators", "features", "kernels", "solver", "n_boot", "ipw_hajek",
    "lambda_grid", "sim",
)


def _load_yaml(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, encoding="utf-8") as fh:
        cfg = yaml.safe_load(fh)
    if cfg is None:
        return {}
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    return _section(cfg, "top-level", _CONFIG_KEYS)


def _section(value, name: str, allowed) -> dict:
    """One level of the config: a mapping with no key outside ``allowed``."""
    if not isinstance(value, dict):
        raise ConfigError(f"config key {name!r} must be a mapping")
    unknown = sorted(set(value) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {name} setting(s) {unknown}")
    return value


def _kernel_from_config(value) -> KernelSpec:
    if value is None or value == "linear":
        return KernelSpec("linear")
    if value == "rbf":
        return KernelSpec("rbf")
    if isinstance(value, dict):
        value = _section(value, "kernel", ("kind", "bandwidth"))
        kind = value.get("kind", "rbf")
        bw = value.get("bandwidth", "median")
        return KernelSpec(kind, None if bw in (None, "median") else bw)
    raise ConfigError(f"cannot parse kernel spec {value!r}")


def _solver_from_config(cfg: dict) -> QpSettings:
    """The solver settings; QpSettings casts and checks each value."""
    return QpSettings(**_section(cfg.get("solver", {}), "solver", QpSettings.__dataclass_fields__))


def _transport_config(cfg: dict, args) -> TransportConfig:
    """The settings that the flags or else the YAML give, which
    TransportConfig checks; the rest keep its defaults."""
    features = _section(cfg.get("features", {}), "features", ("standardize", "interactions"))
    if not isinstance(cfg.get("estimators", []), list):
        raise ConfigError("config key 'estimators' must be a list")
    # each YAML key is its field's name, except lambda (lam)
    given = {key: cfg[key] for key in ("estimators", "n_boot", "seed", "ipw_hajek") if key in cfg}
    given.update(features)
    if "lambda" in cfg:
        given["lam"] = cfg["lambda"]
    if "kernels" in cfg:  # turns kernel mode on; a side that it leaves out is linear
        kernels = _section(cfg["kernels"], "kernels", ("cate", "prognostic"))
        given.update((f"{side}_kernel", _kernel_from_config(kernels.get(side))) for side in ("cate", "prognostic"))
    flags = {name: getattr(args, name, None) for name in ("lam", "seed")}
    given.update((name, value) for name, value in flags.items() if value is not None)
    return TransportConfig(**given, solver=_solver_from_config(cfg))


def _read_inputs(args) -> tuple[dict, TransportConfig, list[SiteDataset], TargetSpec]:
    """The config file, the run's settings, the validated sites and the
    target (the pooled sites unless a target file is given) of ``weights``,
    ``transport`` and ``sweep``."""
    cfg = _load_yaml(args.config)
    config = _transport_config(cfg, args)
    sites = validate_dataset(read_unit_table(args.data))
    if args.target:
        target = read_target_sample(args.target)
    elif args.target_moments:
        target = read_target_moments(args.target_moments, raw_feature_names(sites[0].d, config.interactions))
    else:
        target = TargetSpec.pooled(sites)
    return cfg, config, sites, target


def _print_kernels(config: TransportConfig, sides: dict) -> None:
    """In kernel mode, one line naming the run's resolved kernels."""
    if config.cate_kernel is None:
        return
    parts = []
    for side in ("cate", "prognostic"):
        kernel = sides[f"{side}_kernel"]
        if kernel.kind == "rbf":
            source = "given" if getattr(config, f"{side}_kernel").resolved else "median heuristic"
            parts.append(f"{side} rbf, bandwidth {kernel.bandwidth:.6g} ({source})")
        else:
            parts.append(f"{side} {kernel.kind}")
    print("kernels: " + "; ".join(parts))


# --- subcommands ---


def _cmd_weights(args) -> int:
    # the target and the pooled map come from every site, whichever is shown
    _, config, sites, target = _read_inputs(args)
    if args.site is not None and all(s.site_id != args.site for s in sites):
        raise SchemaError(f"site {args.site!r} not found in {args.data}")
    _, sides = run_setup(replace(config, estimators=("weighting",)), sites, target)
    _print_kernels(config, sides)

    rows = []
    for site in sites:
        if args.site is not None and site.site_id != args.site:
            continue
        try:
            with single_threaded_blas():
                ws = solve_weights(BalanceProblem(site=site, target=target, lam=config.lam, **sides), config.solver)
        except SiteTransportError as exc:
            print(f"site {site.site_id}: FAILED {type(exc).__name__}: {exc}", file=sys.stderr)
            continue
        for pos, g in zip(site.row_indices.tolist(), ws.gamma):
            rows.append([site.site_id, pos, g])
        print(f"site {site.site_id}: lambda={ws.lam:g} ess={ws.ess:.2f}")
        print(f"  treated-vs-target imbalance:  {ws.cate_imbalance:.6g}")
        print(f"  treated-vs-control imbalance: {ws.prognostic_imbalance:.6g}")
        gap_text = "n/a (ADMM)" if ws.solver.method == "admm" else f"{ws.solver.duality_gap:.3g}"
        print(f"  solver: {ws.solver.status} in {ws.solver.iterations} iterations, duality gap {gap_text}")
        for note in ws.notes:
            print(f"  note: {note}")
    if not rows:
        raise SiteTransportError("no site produced weights")
    _write_csv(args.out, ["site_id", "row", "gamma"], rows)
    print(f"wrote {args.out}")
    return 0


def _cmd_transport(args) -> int:
    _, config, sites, target = _read_inputs(args)
    report = transport_all(sites, target, config=config)

    methods = [m for m in KNOWN_ESTIMATORS if m in config.estimators]
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
        for method, est in res.estimates.items():
            for note in est.notes:
                print(f"site {res.site_id} {method} note: {note}", file=sys.stderr)
    print(f"wrote {args.out}")
    return 0


def _read_effects(path: str, method: str | None) -> tuple[dict[str, tuple[float, float]], dict[str, str]]:
    """The effects of a table by site id (the row number if it has no
    ``site_id`` column), in row order, and its dropped sites: those whose
    estimate or standard error is empty, each with its ``errors`` cell as
    the reason when there is one."""
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
    effects, dropped = {}, {}
    for i, r in enumerate(rows, 1):
        site = r["site_id"] if "site_id" in fields else f"row {i}"
        if site in effects or site in dropped:
            raise SchemaError(f"{path}: site {site!r} appears in more than one row")
        if r[est_col] in ("", None) or r[se_col] in ("", None):
            dropped[site] = r.get("errors") or f"no {est_col!r} value"
        else:
            effects[site] = (_parse_float(r, est_col, path), _parse_float(r, se_col, path))
    return effects, dropped


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
    if not 0.0 < args.alpha < 1.0:
        raise ConfigError(f"--alpha must lie in (0, 1), got {args.alpha}")
    if args.method2 and not args.transported:
        raise ConfigError("--method2 selects columns of the --transported table, which is not given")
    if args.baseline and args.transported:
        raise ConfigError("--baseline selects columns of a wide table; the two-table form takes --transported")
    if args.baseline and not args.method:
        raise ConfigError("--baseline requires --method for the transported columns")
    # (table, column prefix) of the untransported then the transported effects
    if args.transported:
        sides = [(args.effects, args.method), (args.transported, args.method2 or args.method)]
    elif args.baseline:
        sides = [(args.effects, args.baseline), (args.effects, args.method)]
    else:
        sides = [(args.effects, args.method)]
    tables = [_read_effects(path, method) for path, method in sides]

    def drop_reason(site):  # from the first side that lacks the site
        for (path, _), (effects, dropped) in zip(sides, tables):
            if site not in effects:
                return dropped.get(site, f"not in {path}")

    paired = [site for site in tables[0][0] if all(site in effects for effects, _ in tables)]
    every_site = dict.fromkeys(site for effects, dropped in tables for site in [*effects, *dropped])
    out = [f"dropped site {site}: {drop_reason(site)}" for site in every_site if site not in paired]
    if len(paired) < 2:
        raise ConfigError(f"{len(paired)} site(s) with effects on every side; heterogeneity needs two")
    for (path, _), (effects, _) in zip(sides, tables):
        for site in paired:
            for name, value in zip(("estimate", "standard error"), effects[site]):
                if not np.isfinite(value):
                    raise ValueError(f"{path}: the {name} of site {site} is {value}; it must be finite")
            if (se := effects[site][1]) <= 0:  # n_boot: 0 writes 0.0 for the bootstrapped estimators
                raise ValueError(f"{path}: the standard error of site {site} is {se}; it must be positive")
    eff = [
        SiteEffectSet(np.array([effects[s][0] for s in paired]), np.array([effects[s][1] for s in paired]))
        for effects, _ in tables
    ]
    if len(eff) == 1:
        out += _report_lines("effects", eff[0], args.alpha)[0]
    else:
        lines, rep_untransported = _report_lines("untransported", eff[0], args.alpha)
        out += lines
        lines, rep_transported = _report_lines("transported", eff[1], args.alpha)
        out += lines
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
    kwargs = dict(_section(cfg.get("sim", {}), "sim", set(SimConfig.__dataclass_fields__) - {"solver"}))
    # lists of numbers and of estimator names, whose values SimConfig checks; a null cate_coefficients is the default
    for key in ("site_size_range", "cate_coefficients", "experiment_intercepts", "lambda_grid", "estimators"):
        if key in kwargs and not isinstance(kwargs[key], list) and (key, kwargs[key]) != ("cate_coefficients", None):
            raise ConfigError(f"sim setting {key!r} must be a list")
    if getattr(args, "seed", None) is not None:
        kwargs["seed"] = args.seed
    elif "seed" not in kwargs:
        kwargs["seed"] = cfg.get("seed", 0)
    return SimConfig(**kwargs, solver=_solver_from_config(cfg))


def _cmd_simulate(args) -> int:
    cfg = _load_yaml(args.config)
    config = _sim_config(cfg, args)
    result = run_simulation(config)
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
    cfg, config, sites, target = _read_inputs(args)
    if args.lambdas is not None:
        source, grid = "--lambdas", [v for v in args.lambdas.split(",") if v.strip() != ""]
    else:
        source, grid = "lambda_grid", cfg.get("lambda_grid", DEFAULT_LAMBDA_GRID)
    if not isinstance(grid, (list, tuple)) or not grid:
        raise ConfigError(f"{source} must list at least one lambda, got {grid!r}")
    grid = [check_lambda(v) for v in grid]  # before the set-up's work and the kernels line
    _, sides = run_setup(replace(config, estimators=("weighting",)), sites, target)
    _print_kernels(config, sides)
    rows = lambda_sweep(sites, target, grid, settings=config.solver, **sides)
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

    def add_common(p):
        p.add_argument("--config", help="YAML config file")
        p.add_argument("--data", required=True, help="unit-level CSV: site_id,z,y,x1..xd")
        group = p.add_mutually_exclusive_group()
        group.add_argument("--target", help="unit-level target sample CSV")
        group.add_argument(
            "--target-moments", help="feature-means target CSV (linear mode only)"
        )

    p = sub.add_parser("weights", help="solve balancing weights for one or all sites")
    add_common(p)
    p.add_argument("--site", help="solve, print and write one site id (the target and map still pool every site)")
    p.add_argument("--lambda", dest="lam", type=float, help="regularization strength")
    p.add_argument("--out", default="weights.csv")
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("transport", help="per-site transported-effect table")
    add_common(p)
    p.add_argument("--seed", type=int, help="overrides the config seed")
    p.add_argument("--lambda", dest="lam", type=float)
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
    p.add_argument(
        "--lambdas", help="comma-separated grid, a repeated lambda solved and reported once; default log grid 1e-4..1e2"
    )
    p.add_argument("--out", default="sweep.csv")
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SiteTransportError, ValueError, OSError) as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 2 if isinstance(exc, ConfigError) else 1


if __name__ == "__main__":
    sys.exit(main())
