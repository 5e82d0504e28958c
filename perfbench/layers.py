"""Timing loop and per-layer metrics.

``measure`` runs one checked body first: it is untimed, warms caches and
lazy imports, and is the body whose intermediate results are checked in
depth. Timed bodies follow until the time budget is spent. In a traced run
each timed body is run twice on the same input, untraced then traced, so
the tracing overhead compares like with like.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
from workloads import SolveLog

# Span names whose exceptions count as estimator failures.
ESTIMATOR_SPANS = (
    "estimators.naive_estimate",
    "estimators.weighting_estimate",
    "estimators.outcome_model_estimate",
    "estimators.density_ratio_fit",
    "estimators.ipw_estimate",
    "estimators.doubly_robust_estimate",
)

# (metric name, span name, field, unit); field is s, self_s or calls.
SPAN_METRICS = (
    ("cli.main.self_s", "cli.main", "self_s", "s"),
    ("cli.read_unit_table.s", "cli.read_unit_table", "s", "s"),
    ("cli.read_target_sample.s", "cli.read_target_sample", "s", "s"),
    ("cli.write_csv.s", "cli.write_csv", "s", "s"),
    ("data.validate_dataset.s", "data.validate_dataset", "s", "s"),
    ("sim.run_simulation.self_s", "sim.run_simulation", "self_s", "s"),
    ("sim.generate_rep.s", "sim.generate_rep", "s", "s"),
    ("features.fit_feature_map.s", "features.fit_feature_map", "s", "s"),
    ("features.apply_feature_map.s", "features.apply_feature_map", "s", "s"),
    ("features.apply_feature_map.calls", "features.apply_feature_map", "calls", "count"),
    ("features.resolve_bandwidth.s", "features.resolve_bandwidth", "s", "s"),
    ("features.resolve_bandwidth.calls", "features.resolve_bandwidth", "calls", "count"),
    ("features.kernel_matrix.s", "features.kernel_matrix", "s", "s"),
    ("features.kernel_matrix.calls", "features.kernel_matrix", "calls", "count"),
    ("balance.build_qp.s", "balance.build_qp", "s", "s"),
    ("balance.build_qp.calls", "balance.build_qp", "calls", "count"),
    ("balance.imbalance_report.s", "balance.imbalance_report", "s", "s"),
    ("balance.solve_weights.self_s", "balance.solve_weights", "self_s", "s"),
    ("balance.solve_weights.calls", "balance.solve_weights", "calls", "count"),
    ("qp.solve_qp.s", "qp.solve_qp", "s", "s"),
    ("qp.solve_qp.self_s", "qp.solve_qp", "self_s", "s"),
    ("qp.solve_qp.calls", "qp.solve_qp", "calls", "count"),
    ("regression.fit_least_squares.s", "regression.fit_least_squares", "s", "s"),
    ("regression.fit_least_squares.calls", "regression.fit_least_squares", "calls", "count"),
    ("regression.fit_logistic.s", "regression.fit_logistic", "s", "s"),
    ("estimators.outcome_model_estimate.self_s", "estimators.outcome_model_estimate", "self_s", "s"),
    ("estimators.density_ratio_fit.self_s", "estimators.density_ratio_fit", "self_s", "s"),
    ("estimators.doubly_robust_estimate.self_s", "estimators.doubly_robust_estimate", "self_s", "s"),
    ("multisite.transport_all.self_s", "multisite.transport_all", "self_s", "s"),
    ("heterogeneity.estimate_theta.s", "heterogeneity.estimate_theta", "s", "s"),
    ("heterogeneity.q_statistic.calls", "heterogeneity.q_statistic", "calls", "count"),
)

# Largest |self times + unwrapped remainder - traced wall| accepted, in seconds.
ACCOUNTING_TOL = 1e-6


@dataclass
class Run:
    walls: list[float] = field(default_factory=list)
    traced_walls: list[float] = field(default_factory=list)
    attempted: int = 0
    lib_failed: dict[str, int] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    layers: dict = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)
    qp_solves: list = field(default_factory=list)  # (iterations, status) per traced solve
    covered: float = 0.0  # traced time inside some root span
    factor_wrapped: bool = False

    @property
    def fail_share(self) -> float:
        """Library-reported failures plus failed checks, over operations."""
        return (sum(self.lib_failed.values()) + len(self.problems)) / self.attempted


def load_reference(path: Path, workload: str, seed: int):
    """Stored reference values for this workload and seed, or None."""
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8")).get(workload, {}).get(str(seed))


def _tally(run: Run, outcome) -> None:
    run.attempted += outcome.attempted
    run.problems += outcome.problems
    for name, n in outcome.lib_failed.items():
        run.lib_failed[name] = run.lib_failed.get(name, 0) + n


def _merge(layers: dict, summary: dict) -> None:
    for name, agg in summary.items():
        into = layers.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "errors": {}})
        for key in ("calls", "s", "self_s"):
            into[key] += agg[key]
        for err, count in agg["errors"].items():
            into["errors"][err] = into["errors"].get(err, 0) + count


def _traced_body(run: Run, workload, inputs, k: int, reference) -> None:
    recorder = tracer.Recorder()
    with tracer.tracing(recorder) as run.factor_wrapped:
        t0 = time.perf_counter()
        result = workload.body(inputs, k)
        t1 = time.perf_counter()
    run.traced_walls.append(t1 - t0)
    _tally(run, workload.check(inputs, k, result, None, reference))
    spans = recorder.spans
    err = tracer.accounting_error(spans, t0, t1)
    if not abs(err) <= ACCOUNTING_TOL:
        run.problems.append(f"body {k}: span self times do not add up to the traced wall ({err:.3g} s)")
    _merge(run.layers, tracer.summarize(spans))
    run.covered += sum(s.duration for s in spans if s.parent is None)
    for s in spans:
        if s.name == "qp.solve_qp":
            run.qp_solves.append((s.attrs.get("iterations", 0), s.attrs.get("status")))
        run.spans.append(
            {"body": k, "name": s.name, "parent": s.parent, "start": s.start - t0, "end": s.end - t0, **s.attrs}
        )


def measure(workload, inputs, seconds: float, trace: bool, reference) -> Run:
    run = Run()
    log = SolveLog()
    with tracer.observing(log.hooks()):
        result = workload.body(inputs, 0)
    _tally(run, workload.check(inputs, 0, result, log, reference))
    # the observed objects (the CLI's 50k unit records among them) must not
    # stay alive next to the timed bodies' own, or they inflate peak_rss_mb
    del log

    # a traced run spends each step on an untraced and a traced body
    per_step = 2 if trace else 1
    start = time.perf_counter()
    k = 1
    while not run.walls or time.perf_counter() - start + per_step * statistics.median(run.walls) <= seconds:
        t = time.perf_counter()
        result = workload.body(inputs, k)
        run.walls.append(time.perf_counter() - t)
        _tally(run, workload.check(inputs, k, result, None, reference))
        if trace:
            _traced_body(run, workload, inputs, k, reference)
        k += 1
    return run


def per_layer(run: Run) -> dict:
    """Per-layer metrics per traced body, from the summed spans."""
    n = len(run.traced_walls)
    layers = run.layers

    def field_of(span, key):
        return layers.get(span, {}).get(key, 0) / n

    metrics = {name: {"value": field_of(span, key), "unit": unit} for name, span, key, unit in SPAN_METRICS}
    solve = layers.get("qp.solve_qp", {"calls": 0, "s": 0.0})
    iterations = sum(it for it, _ in run.qp_solves)
    solved = sum(1 for _, status in run.qp_solves if status == "solved")
    metrics["qp.iterations"] = {"value": iterations / n, "unit": "count"}
    metrics["qp.iter_us"] = {"value": 1e6 * solve["s"] / iterations if iterations else 0.0, "unit": "us"}
    factor = field_of(tracer.FACTOR_SPAN, "calls") if run.factor_wrapped else None
    metrics["qp.factorizations"] = {"value": factor, "unit": "count"}
    metrics["qp.solved_share"] = {"value": solved / solve["calls"] if solve["calls"] else 0.0, "unit": "ratio"}
    logistic = layers.get("regression.fit_logistic", {}).get("errors", {})
    metrics["regression.fit_logistic.failed"] = {"value": sum(logistic.values()) / n, "unit": "count"}
    failed = sum(sum(layers.get(s, {}).get("errors", {}).values()) for s in ESTIMATOR_SPANS)
    metrics["estimators.failed"] = {"value": failed / n, "unit": "count"}
    untraced = statistics.median(run.walls)
    metrics["trace.overhead_share"] = {
        "value": (statistics.median(run.traced_walls) - untraced) / untraced,
        "unit": "ratio",
    }
    metrics["trace.unwrapped_share"] = {"value": 1.0 - run.covered / sum(run.traced_walls), "unit": "ratio"}
    metrics["fail_share"] = {"value": run.fail_share, "unit": "ratio"}
    return metrics
