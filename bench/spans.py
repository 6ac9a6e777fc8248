"""Span tracing of one pcrkit operation, run by the real code.

The traced run never edits the package.  For the duration of one
operation it wraps pcrkit's public functions where the calling module
binds them (the stages where ``pcrkit.pipeline`` and ``pcrkit.cli`` look
them up, the eigensolver and least squares wherever they are bound,
``CorrelationMatrix.submatrix`` on its class), then calls ``cli.main``
or ``run_pipeline`` itself.  Each call into a wrapped function opens a
span, so the trace follows whatever the program does.

A span is a dict with ``id``, ``name``, ``parent``, ``start`` and
``end`` (``perf_counter`` seconds) plus optional attributes.  Spans stay
in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from time import perf_counter

import numpy as np

# (span name, object that defines the function, its name, objects whose
# binding is replaced).  Objects are dotted paths under ``pcrkit``.
WRAPPED = (
    ("pipeline.run_pipeline", "pipeline", "run_pipeline", ("pipeline", "cli")),
    ("fixtures.load_fixture", "fixtures", "load_fixture", ("pipeline",)),
    ("pipeline.load_table", "pipeline", "load_table", ("pipeline",)),
    ("preprocess.difference", "preprocess", "difference", ("pipeline",)),
    ("preprocess.standardize", "preprocess", "standardize", ("pipeline",)),
    ("preprocess.correlation_matrix", "preprocess", "correlation_matrix", ("pipeline",)),
    ("preprocess.vif", "preprocess", "vif", ("pipeline",)),
    ("preprocess.scatter_pairs", "preprocess", "scatter_pairs", ("pipeline",)),
    ("preprocess.submatrix", "preprocess.CorrelationMatrix", "submatrix",
     ("preprocess.CorrelationMatrix",)),
    ("pca.extract", "pca", "extract", ("pipeline",)),
    ("pca.rotate_varimax", "pca", "rotate_varimax", ("pipeline",)),
    ("pca.score_weights", "pca", "score_weights", ("pipeline",)),
    ("pca.component_scores", "pca", "component_scores", ("pipeline",)),
    ("regression.fit_ols", "regression", "fit_ols", ("pipeline",)),
    ("regression.fit_pcr", "regression", "fit_pcr", ("pipeline",)),
    ("regression.reconstruct_prices", "regression", "reconstruct_prices", ("pipeline",)),
    ("pipeline.render_text", "pipeline", "render_report_text", ("pipeline", "cli")),
    ("pipeline.render_delim", "pipeline", "render_report_delim", ("pipeline",)),
    ("pipeline.emit_report", "pipeline", "emit_report", ("pipeline", "cli")),
    ("linalg.eigen", "linalg", "eigen_symmetric", ("linalg", "preprocess", "pca", "fixtures")),
    ("linalg.lstsq", "linalg", "solve_least_squares", ("linalg", "regression")),
)


def _report_attrs(args, report) -> dict:
    attrs = {"varimax_sweeps": report.solution.rotation_sweeps}
    if report.mode == "table":  # the raw-variable baseline is tried only on tables
        attrs.update(baseline_attempts=1, baseline_ok=int(report.baseline is not None))
    return attrs


# Span attributes taken from a call's arguments and result.
ATTRS = {
    "linalg.eigen": lambda args, _result: {"n": int(np.shape(args[0])[0])},
    "pipeline.run_pipeline": _report_attrs,
}


class Tracer:
    """In-memory span recorder with a parent stack."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    record.update(attrs(args, result))
                return result

        return traced


def _resolve(path: str):
    module, _, cls = path.partition(".")
    obj = importlib.import_module(f"pcrkit.{module}")
    return getattr(obj, cls) if cls else obj


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Wrap each function in :data:`WRAPPED` where the listed objects bind it.

    Every binding gets the same wrapper around the original, and a
    binding that no longer holds the original is left alone, so each
    call is recorded once.
    """
    # import every module first: one imported while others are patched
    # would bind a wrapper that outlives the trace
    targets = [(name, getattr(_resolve(owner), attr), attr, [_resolve(b) for b in bindings])
               for name, owner, attr, bindings in WRAPPED]
    patched = []
    try:
        for span_name, original, attr, bindings in targets:
            wrapper = tracer.wrap(span_name, original)
            for obj in bindings:
                if getattr(obj, attr, None) is original:
                    setattr(obj, attr, wrapper)
                    patched.append((obj, attr, original))
        yield
    finally:
        for obj, attr, original in reversed(patched):
            setattr(obj, attr, original)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id to self time in seconds: duration minus direct children."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def op_layers(spans: list[dict]) -> dict[str, float]:
    """Per-layer numbers for the spans of one operation.

    ``<span name>_ms`` is the summed self time of that span name; the
    linalg spans also give call counts and the largest matrix order, and
    the ``run_pipeline`` span the varimax sweeps and the baseline result.
    """
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        key = f"{s['name']}_ms"
        out[key] = out.get(key, 0.0) + 1000.0 * selfs[s["id"]]
    eigen = [s for s in spans if s["name"] == "linalg.eigen"]
    out["linalg.eigen_calls"] = len(eigen)
    out["linalg.eigen_max_n"] = max((s["n"] for s in eigen), default=0)
    out["linalg.lstsq_calls"] = sum(1 for s in spans if s["name"] == "linalg.lstsq")
    top = next(s for s in spans if s["name"] == "pipeline.run_pipeline")
    out["pca.varimax_sweeps"] = top["varimax_sweeps"]
    out["baseline_attempts"] = top.get("baseline_attempts", 0)
    out["baseline_ok"] = top.get("baseline_ok", 0)
    return out
