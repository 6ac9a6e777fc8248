"""The traced benchmark still finds every function it wraps.

``bench/spans.py`` times pcrkit by rebinding the public functions it
lists in ``WRAPPED`` and looks each one up with a strict ``getattr``, so
a refactor that renames or moves one of them breaks ``--trace 1``.  These
tests run the real tracer around one table run and one fixture run, so
such a break fails here.  ``bench/`` is only read.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402

from pcrkit import pipeline, preprocess  # noqa: E402

GOLDEN = Path(__file__).parent / "golden"


def traced(config):
    tracer = spans.Tracer()
    with spans.instrumented(tracer):
        report = pipeline.run_pipeline(config)
    return report, tracer.spans


def test_every_wrapped_target_resolves():
    for _name, owner, attr, bindings in spans.WRAPPED:
        assert callable(getattr(spans._resolve(owner), attr))
        for binding in bindings:
            spans._resolve(binding)


@pytest.mark.parametrize(
    "config, eigen_calls, lstsq_calls",
    [
        (pipeline.RunConfig(input_path=GOLDEN / "panel9.csv"), 0, 2),
        (pipeline.RunConfig(fixture="fig3"), 3, 0),
    ],
    ids=["table", "fixture"],
)
def test_traced_run_records_its_spans(config, eigen_calls, lstsq_calls):
    original = pipeline.run_pipeline
    report, recorded = traced(config)
    assert pipeline.run_pipeline is original
    names = [s["name"] for s in recorded]
    assert names[0] == "pipeline.run_pipeline"
    assert "pca.extract" in names and "preprocess.submatrix" in names
    if report.mode == "table":
        assert {"preprocess.correlation_matrix", "preprocess.vif"} <= set(names)
    layers = spans.op_layers(recorded)
    assert layers["linalg.eigen_calls"] == eigen_calls
    assert layers["linalg.lstsq_calls"] == lstsq_calls


def test_a_stage_patched_before_the_trace_is_left_alone(monkeypatch):
    # The tracer wraps a binding only while it holds the original, so a
    # stage that someone else replaced is neither wrapped nor restored.
    calls = []

    def patched(r):
        calls.append(r.names)
        return preprocess.vif(r)

    monkeypatch.setattr(pipeline, "vif", patched)
    report, recorded = traced(pipeline.RunConfig(input_path=GOLDEN / "panel9.csv"))
    names = {s["name"] for s in recorded}
    assert "preprocess.vif" not in names
    assert {
        "preprocess.correlation_matrix", "preprocess.submatrix", "pca.extract",
        "regression.fit_ols", "regression.fit_pcr",
    } <= names
    assert pipeline.vif is patched
    assert len(calls) == 1 and report.vif is not None
