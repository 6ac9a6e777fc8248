"""Tests of the benchmark itself: generator, output checks, tracing, contract.

Run from the repository root with ``python3 -m pytest bench -q``.
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import panels
import run
import spans

sys.path.insert(0, str(run.SRC))

from pcrkit import pca, pipeline, preprocess  # noqa: E402
from pcrkit.pipeline import (  # noqa: E402
    RunConfig,
    emit_report,
    render_report_delim,
    render_report_text,
    run_pipeline,
)

SPEC = run.Panel30Inproc.spec


@pytest.fixture(scope="module")
def panel_run(tmp_path_factory):
    """One generated panel, its CSV, and pcrkit's report on it."""
    work = tmp_path_factory.mktemp("panel")
    panel = panels.generate(SPEC, seed=5, index=0)
    path = panels.write_csv(panel, work / "panel.csv")
    report = run_pipeline(RunConfig(input_path=path))
    return panel, path, report, work


@pytest.fixture(scope="module")
def fig3_stdout():
    return render_report_text(run_pipeline(RunConfig(fixture="fig3"))).encode()


def replace_number(text: str, old: float, new: float) -> str:
    assert text.count(repr(old)) >= 1
    return text.replace(repr(old), repr(new), 1)


# -- generator ---------------------------------------------------------------


def test_generator_is_deterministic_per_seed(tmp_path):
    a = panels.generate(SPEC, seed=3, index=7)
    b = panels.generate(SPEC, seed=3, index=7)
    assert np.array_equal(a.levels, b.levels) and a.names == b.names
    assert panels.write_csv(a, tmp_path / "a.csv").read_bytes() == (
        panels.write_csv(b, tmp_path / "b.csv").read_bytes()
    )
    assert not np.array_equal(a.levels, panels.generate(SPEC, seed=4, index=7).levels)
    assert not np.array_equal(a.levels, panels.generate(SPEC, seed=3, index=8).levels)


def test_generator_shape_and_planted_factors():
    panel = panels.generate(run.Panel60Cli.spec, seed=1, index=0)
    assert panel.levels.shape == (71, 61)
    assert panel.names[0] == panels.RESPONSE
    spectrum = np.linalg.eigvalsh(checks.panel_predictor_correlation(panel.levels))
    assert int(np.sum(spectrum > 1.0)) == run.Panel60Cli.spec.n_factors == 6


# -- output checks -----------------------------------------------------------


def test_checks_accept_real_reports(panel_run, fig3_stdout):
    panel, _path, report, _work = panel_run
    for text, parse in ((render_report_text(report), checks.parse_text),
                        (render_report_delim(report), checks.parse_delim)):
        assert checks.check_panel_report(parse(text), panel.levels) == []
    corr = checks.fig3_predictor_correlation()
    assert checks.check_fig3_report(checks.parse_text(fig3_stdout.decode()), corr) == []


@pytest.mark.parametrize("render,parse", [
    (render_report_text, checks.parse_text),
    (render_report_delim, checks.parse_delim),
])
def test_eigenvalue_perturbed_by_1e6_is_rejected(panel_run, render, parse):
    panel, _path, report, _work = panel_run
    value = float(report.solution.eigenvalues[4])
    bad = replace_number(render(report), value, value + 1e-6)
    problems = checks.check_panel_report(parse(bad), panel.levels)
    assert any(p.startswith("eigenvalues") for p in problems)


def test_perturbed_score_is_rejected(panel_run):
    panel, _path, report, _work = panel_run
    value = float(report.scores[10, 1])
    bad = replace_number(render_report_text(report), value, value + 1e-6)
    problems = checks.check_panel_report(checks.parse_text(bad), panel.levels)
    assert any(p.startswith("scores") for p in problems)


def test_perturbed_price_level_is_rejected(panel_run):
    panel, _path, report, _work = panel_run
    value = float(report.prices.levels[-1])
    bad = replace_number(render_report_delim(report), value, value * (1 + 1e-6))
    problems = checks.check_panel_report(checks.parse_delim(bad), panel.levels)
    assert any(p.startswith("prices") for p in problems)


def test_dropped_scatter_row_is_rejected(panel_run):
    _panel, _path, report, work = panel_run
    out = work / "out"
    emit_report(report, out, "delim")
    scatter = out / "scatter_pairs.csv"
    p, n = SPEC.n_predictors, SPEC.n_years
    assert checks.check_scatter_rows(scatter, p, n) == []
    lines = scatter.read_text().splitlines(keepends=True)
    scatter.write_text("".join(lines[:100] + lines[101:]))
    assert checks.check_scatter_rows(scatter, p, n) != []


def test_fig3_checks_reject_changed_stdout_and_exit_code(tmp_path, fig3_stdout):
    workload = run.Fig3Cli(0, tmp_path)
    ctx = workload.prepare(0)
    assert workload.check(ctx, (0, fig3_stdout)) == []
    assert workload.check(ctx, (0, fig3_stdout)) == []
    assert workload.check(ctx, (0, fig3_stdout + b"\n")) != []
    assert workload.check(ctx, (4, fig3_stdout)) == ["exit code 4"]


def test_fig3_perturbed_eigenvalue_and_weight_are_rejected(fig3_stdout):
    corr = checks.fig3_predictor_correlation()
    text = fig3_stdout.decode()
    report = run_pipeline(RunConfig(fixture="fig3"))
    value = float(report.solution.eigenvalues[2])
    bad = checks.parse_text(replace_number(text, value, value + 1e-6))
    assert any(p.startswith("eigenvalues") for p in checks.check_fig3_report(bad, corr))
    weight = float(report.weights.weights[3, 0])
    bad = checks.parse_text(replace_number(text, weight, weight + 1e-6))
    assert any(p.startswith("score weights") for p in checks.check_fig3_report(bad, corr))


# -- tracing -----------------------------------------------------------------


def test_trace_runs_the_real_program_and_counts_each_eigen_call_once(panel_run, tmp_path):
    panel, path, report, _work = panel_run
    original = pca.eigen_symmetric
    workload = run.Panel30Inproc(seed=5, work=tmp_path)
    tracer = spans.Tracer()
    with spans.instrumented(tracer):
        text, nbytes = workload.replay(tracer, {"panel": panel, "path": path})
    assert pca.eigen_symmetric is original
    assert text == render_report_text(report) and nbytes == len(text.encode())
    layers = spans.op_layers(tracer.spans)
    assert layers["linalg.eigen_calls"] == 4
    assert layers["linalg.eigen_max_n"] == SPEC.n_predictors + 1
    assert layers["linalg.lstsq_calls"] == 2
    assert layers["pca.varimax_sweeps"] == report.solution.rotation_sweeps
    assert layers["baseline_attempts"] == 1
    stages = {s["name"] for s in tracer.spans}
    assert {name for name, *_ in spans.WRAPPED} - stages == {
        "fixtures.load_fixture", "pipeline.render_delim", "pipeline.emit_report"
    }

    tracer = spans.Tracer()
    with spans.instrumented(tracer):
        stdout = run.cli_in_process(tracer, ["--fixture", "fig3"])
    assert stdout == render_report_text(run_pipeline(RunConfig(fixture="fig3")))
    layers = spans.op_layers(tracer.spans)
    assert layers["linalg.eigen_calls"] == 5
    assert layers["baseline_attempts"] == 0


def test_trace_follows_a_changed_pipeline(panel_run, monkeypatch):
    """A stage that the pipeline stops calling drops out of the trace."""
    _panel, path, _report, _work = panel_run
    monkeypatch.setattr(pipeline, "scatter_pairs", lambda table: ())
    tracer = spans.Tracer()
    with spans.instrumented(tracer):
        pipeline.run_pipeline(RunConfig(input_path=path))
    assert "preprocess.scatter_pairs" not in {s["name"] for s in tracer.spans}
    assert pipeline.scatter_pairs is not preprocess.scatter_pairs


def test_self_times_subtract_direct_children():
    records = [
        {"id": 0, "name": "a", "parent": None, "start": 0.0, "end": 1.0},
        {"id": 1, "name": "b", "parent": 0, "start": 0.1, "end": 0.5},
        {"id": 2, "name": "c", "parent": 1, "start": 0.2, "end": 0.3},
    ]
    selfs = spans.self_times(records)
    assert selfs == pytest.approx({0: 0.6, 1: 0.3, 2: 0.1})


# -- timing ------------------------------------------------------------------


def test_speed_scales_each_piece_by_the_kernel_samples_around_it(monkeypatch):
    samples = iter([2.0, 1.0, 3.0, 2.0])
    monkeypatch.setattr(run, "reference_ms", lambda units: next(samples))
    speed = run.Speed()  # bracket before: 2.0
    speed.probe()  # 1.0 ms of CPU, taken during the first piece
    # after: 3.0; the probe's 1 ms is not the piece's own time
    assert speed.add(1.0) == pytest.approx(0.999 * run.REF_UNIT_MS / 2.0)
    assert speed.add(1.0) == pytest.approx(run.REF_UNIT_MS / 2.5)  # 3.0 then 2.0
    assert speed.raw == [1.0, 1.0]


# -- contract ----------------------------------------------------------------


def benchmark_json() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in benchmark_json()["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace,units", [(0, run.END_TO_END), (1, run.PER_LAYER)])
def test_printed_metrics_match_benchmark_json(trace, units):
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", "fig3-cli",
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fig3-cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
