"""Tests of the benchmark's own machinery: span arithmetic, the wrapping of
re-imported names, and failure accounting against the library's counts.

    python3 -m pytest perfbench/tests -q
"""

import math

import numpy as np
import pytest

import layers
import tracer
import workloads
from sitetransport import balance, qp, sim
from sitetransport.data import TargetSpec
from sitetransport.features import identity_map


def span(name, parent, start, end):
    return tracer.Span(name, parent, start, end)


def nested_spans():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7]
    return [span("root", None, 0.0, 10.0), span("a", 0, 1.0, 4.0), span("b", 0, 5.0, 9.0), span("c", 2, 6.0, 7.0)]


def test_self_time_is_duration_minus_direct_children():
    assert tracer.self_times(nested_spans()) == [3.0, 3.0, 3.0, 1.0]


def test_self_times_plus_remainder_equal_the_traced_wall():
    spans = nested_spans() + [span("later", None, 11.0, 11.5)]
    assert tracer.accounting_error(spans, -1.0, 12.0) == pytest.approx(0.0, abs=1e-12)
    summary = tracer.summarize(spans)
    assert summary["root"] == {"calls": 1, "s": 10.0, "self_s": 3.0, "errors": {}}


@pytest.mark.parametrize(
    "spans",
    [
        [span("r1", None, 0.0, 5.0), span("r2", None, 4.0, 6.0)],  # roots overlap
        [span("r", None, 0.0, 5.0), span("child", 0, 1.0, 7.0)],  # child outlives parent
        [span("r", None, 0.0, float("nan"))],  # never closed
        [span("r", None, 0.0, 20.0)],  # outside the traced interval
    ],
)
def test_broken_nesting_is_not_accounted_as_zero(spans):
    assert not abs(tracer.accounting_error(spans, 0.0, 10.0)) <= 1e-6


def tiny_problem():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(12, 2))
    z = np.array([1.0, 0.0] * 6)
    site = workloads.make_site(X, z, X[:, 0] + z, "t")
    target = TargetSpec.from_sample(rng.normal(0.3, 1.0, size=(20, 2)))
    fmap = identity_map(2)
    return balance.BalanceProblem(site=site, target=target, lam=0.1, cate_map=fmap, prognostic_map=fmap)


def test_wrapping_catches_calls_through_reimported_names():
    import sitetransport

    original = qp.solve_qp
    holders = [m for m in tracer.namespaces() if vars(m).get("solve_qp") is original]
    assert {m.__name__ for m in holders} >= {"sitetransport", "sitetransport.qp", "sitetransport.balance"}

    recorder = tracer.Recorder()
    prob = tiny_problem()
    with tracer.tracing(recorder) as factor_wrapped:
        ws = balance.solve_weights(prob)  # reaches solve_qp through balance's copy
        sitetransport.solve_qp(balance.build_linear_qp(prob))  # the package's copy

    names = [s.name for s in recorder.spans]
    solves = [s for s in recorder.spans if s.name == "qp.solve_qp"]
    assert len(solves) == 2
    assert recorder.spans[solves[0].parent].name == "balance.solve_weights"
    assert solves[0].attrs["iterations"] == ws.solver.iterations
    assert factor_wrapped and tracer.FACTOR_SPAN in names
    assert names.count("balance.build_qp") == 2
    assert all(vars(m)["solve_qp"] is original for m in holders)
    assert not hasattr(qp._LowRankKkt.factor, "__wrapped__")


def test_missing_factor_classes_are_reported_unavailable(monkeypatch):
    monkeypatch.delattr(qp._DirectKkt, "factor")
    with tracer.tracing(tracer.Recorder()) as factor_wrapped:
        pass
    assert factor_wrapped is False


class SmallSim(workloads.SimDefault):
    """Few small sites and many covariates, so density-ratio and
    outcome-model fits fail in some cells."""

    def config(self, inputs, k):
        return sim.SimConfig(n_sites=4, site_size_range=(40, 60), reps=2, seed=inputs["seed"] * 1000 + k)


def test_fail_share_equals_the_library_failure_counts():
    workload = SmallSim()
    inputs = workload.setup(5, None)
    run = layers.measure(workload, inputs, 0.05, False, None)

    failed = cells = 0
    for k in range(len(run.walls) + 1):  # the checked body plus the timed ones
        result = sim.run_simulation(workload.config(inputs, k))
        failed += sum(r.n_failed for r in result.rows)
        cells += len(result.rows) * result.reps * result.n_sites
    assert failed > 0
    assert run.attempted == cells
    assert sum(run.lib_failed.values()) == failed
    assert run.problems == []
    assert run.fail_share == pytest.approx(failed / cells)


def test_traced_run_reports_every_layer_metric():
    workload = SmallSim()
    inputs = workload.setup(6, None)
    run = layers.measure(workload, inputs, 0.05, True, None)
    metrics = layers.per_layer(run)
    assert len(run.traced_walls) == len(run.walls) >= 1
    assert {name for name, *_ in layers.SPAN_METRICS} <= set(metrics)
    assert metrics["qp.solve_qp.calls"]["value"] > 0
    assert metrics["qp.factorizations"]["value"] >= metrics["qp.solve_qp.calls"]["value"]
    assert all(math.isfinite(m["value"]) for m in metrics.values())
