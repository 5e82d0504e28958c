"""Outside-in span recorder: times the library's layers by wrapping their
public functions from the benchmark's own code.

A ``from .qp import solve_qp`` import copies the binding into the importing
module, so replacing ``qp.solve_qp`` alone misses calls made through
``balance.solve_qp``. ``patch`` therefore replaces the function object in
every loaded ``sitetransport`` namespace that holds it, and puts the
original back on exit.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

PACKAGE = "sitetransport"

# (module, attribute, span name). The two QP builders share one span name so
# that ``balance.build_qp`` covers linear and kernel assembly together.
WRAPPED = (
    ("cli", "main", "cli.main"),
    ("cli", "read_unit_table", "cli.read_unit_table"),
    ("cli", "read_target_sample", "cli.read_target_sample"),
    ("cli", "_write_csv", "cli.write_csv"),
    ("data", "validate_dataset", "data.validate_dataset"),
    ("sim", "run_simulation", "sim.run_simulation"),
    ("sim", "generate_rep", "sim.generate_rep"),
    ("features", "fit_feature_map", "features.fit_feature_map"),
    ("features", "apply_feature_map", "features.apply_feature_map"),
    ("features", "resolve_bandwidth", "features.resolve_bandwidth"),
    ("features", "kernel_matrix", "features.kernel_matrix"),
    ("balance", "build_linear_qp", "balance.build_qp"),
    ("balance", "build_kernel_qp", "balance.build_qp"),
    ("balance", "imbalance_report", "balance.imbalance_report"),
    ("balance", "solve_weights", "balance.solve_weights"),
    ("balance", "lambda_sweep", "balance.lambda_sweep"),
    ("qp", "solve_qp", "qp.solve_qp"),
    ("estimators", "naive_estimate", "estimators.naive_estimate"),
    ("estimators", "weighting_estimate", "estimators.weighting_estimate"),
    ("estimators", "outcome_model_estimate", "estimators.outcome_model_estimate"),
    ("estimators", "density_ratio_fit", "estimators.density_ratio_fit"),
    ("estimators", "ipw_estimate", "estimators.ipw_estimate"),
    ("estimators", "doubly_robust_estimate", "estimators.doubly_robust_estimate"),
    ("regression", "fit_least_squares", "regression.fit_least_squares"),
    ("regression", "fit_logistic", "regression.fit_logistic"),
    ("multisite", "transport_all", "multisite.transport_all"),
    ("heterogeneity", "estimate_theta", "heterogeneity.estimate_theta"),
    ("heterogeneity", "q_statistic", "heterogeneity.q_statistic"),
)

# KKT factorization happens in a method of private solver classes. If they
# are renamed or lose ``factor``, the factorization count is reported as
# unavailable; the library source is never edited to restore it.
FACTOR_CLASSES = ("_DirectKkt", "_LowRankKkt")
FACTOR_SPAN = "qp.factor"


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Keeps spans in memory; each span links to the span that called it."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, on_result=None):
        """A wrapper that records one span per call of ``fn``.

        ``on_result(span, result)`` may copy fields of the result onto the
        span; an exception's type name is stored as ``attrs["error"]``.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(name, stack[-1] if stack else None, 0.0)
            self.spans.append(span)
            stack.append(len(self.spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(span, result)
            return result

        return traced


def namespaces() -> list:
    """Every loaded module of the package, the package itself included."""
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


@contextmanager
def patch(replacements: dict):
    """Replace function objects by wrappers in every package namespace.

    ``replacements`` maps ``id(original)`` to ``(original, wrapper)``; ids,
    because module attributes need not be hashable. Each module attribute
    that *is* an original is swapped, and restored on exit.
    """
    swapped = []
    try:
        for mod in namespaces():
            for attr, value in list(vars(mod).items()):
                pair = replacements.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(mod, attr, pair[1])
                    swapped.append((mod, attr, value))
        yield
    finally:
        for mod, attr, value in reversed(swapped):
            setattr(mod, attr, value)


def _record_qp_solution(span: Span, sol) -> None:
    span.attrs["iterations"] = int(sol.iterations)
    span.attrs["status"] = str(sol.status)


def _factor_classes(qp_module) -> list | None:
    classes = [getattr(qp_module, name, None) for name in FACTOR_CLASSES]
    if any(cls is None or not callable(getattr(cls, "factor", None)) for cls in classes):
        return None
    return classes


@contextmanager
def tracing(recorder: Recorder):
    """Wrap every function in ``WRAPPED`` and the KKT ``factor`` methods.

    Yields True when the factor methods were wrapped, False when they were
    not found.
    """
    replacements = {}
    for module, attr, span_name in WRAPPED:
        fn = getattr(importlib.import_module(f"{PACKAGE}.{module}"), attr)
        hook = _record_qp_solution if span_name == "qp.solve_qp" else None
        replacements[id(fn)] = (fn, recorder.wrap(span_name, fn, hook))

    classes = _factor_classes(importlib.import_module(f"{PACKAGE}.qp"))
    originals = [(cls, cls.factor) for cls in classes or ()]
    try:
        for cls, factor in originals:
            cls.factor = recorder.wrap(FACTOR_SPAN, factor)
        with patch(replacements):
            yield classes is not None
    finally:
        for cls, factor in originals:
            cls.factor = factor


@contextmanager
def observing(hooks: dict):
    """Call ``hook(args, kwargs, result)`` after each call of a hooked
    function, with ``result`` None when the call raised.

    ``hooks`` maps (module, attribute) to the hook. Used on the checked
    body to see the library's intermediate results without timing them.
    """
    def observed(fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                hook(args, kwargs, result)

        return wrapper

    replacements = {}
    for (module, attr), hook in hooks.items():
        fn = getattr(importlib.import_module(f"{PACKAGE}.{module}"), attr)
        replacements[id(fn)] = (fn, observed(fn, hook))
    with patch(replacements):
        yield


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Children run inside their parent on the parent's thread, so their
    intervals do not overlap and their sum is the part of the parent they
    cover.
    """
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def accounting_error(spans: list[Span], t0: float, t1: float) -> float:
    """Self times plus the unwrapped remainder, minus the traced wall time.

    The remainder is the part of [t0, t1] that no root span covers. The
    result is zero up to rounding when the spans nest properly. Root spans
    that overlap or leave the interval, a child that outlives its parent,
    or a span never closed make it nonzero (or NaN).
    """
    roots = sorted((s.start, s.end) for s in spans if s.parent is None)
    covered = 0.0
    reach = t0
    for start, end in roots:
        if start < reach or end > t1:
            return float("inf")
        covered += end - start
        reach = end
    selfs = self_times(spans)
    if selfs and min(selfs) < -1e-9:
        return min(selfs)
    remainder = (t1 - t0) - covered
    return sum(selfs) + remainder - (t1 - t0)


def summarize(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, total seconds, self seconds, errors by type."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for s, self_s in zip(spans, selfs):
        agg = out.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "errors": {}})
        agg["calls"] += 1
        agg["s"] += s.duration
        agg["self_s"] += self_s
        err = s.attrs.get("error")
        if err is not None:
            agg["errors"][err] = agg["errors"].get(err, 0) + 1
    return out
