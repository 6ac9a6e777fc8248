"""Metamorphic properties of whole pipeline runs on ``golden/panel9.csv``.

Each test changes the input table in a way whose effect on the results
is known in advance, runs both tables through ``run_pipeline`` and
compares the reports: permuting the predictors only permutes the rows
of the loadings and weights, rescaling the predictors changes none of
the unit-free results, shifting the levels changes none of the
increments' results, and flipping a predictor's sign flips its rows.
Three components are kept, so that varimax has planes to rotate in.
The largest deviations measured on this panel are 6.5e-14 for the
weights, 1.3e-14 for the eigenvalues (a shift of 1e3; absolute
differencing cancels the shift, so the deviation grows with it, to
1.1e-8 at 1e9), 6.7e-16 for the R² values and 7.2e-14 relative for the
VIFs.  A sign flip gives exactly the negated rows.

The last test feeds arbitrary bytes to the command line: every file is
either a report or an error message naming the stage, never a
traceback.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcrkit import cli
from pcrkit.pipeline import RunConfig, load_table, run_pipeline, write_table
from pcrkit.preprocess import TimeSeriesTable

PANEL9 = Path(__file__).parent / "golden" / "panel9.csv"
ROTATIONS = ["none", "varimax"]


def run(table, path, rotation):
    config = RunConfig(input_path=write_table(table, path), components=3, rotation=rotation)
    report = run_pipeline(config)
    assert (report.solution.rotation_sweeps > 0) == (rotation == "varimax")
    return report


def loadings(report):
    solution = report.solution
    if solution.rotated_loadings is None:
        return solution.loadings
    return solution.rotated_loadings


@pytest.fixture(scope="module")
def panel9():
    return load_table(PANEL9)


@pytest.mark.parametrize("rotation", ROTATIONS)
def test_permuting_predictors_permutes_rows(panel9, rotation, tmp_path):
    # The response stays the first column; the predictors are shuffled.
    order = [0, *np.random.default_rng(5).permutation(np.arange(1, len(panel9.names)))]
    permuted = TimeSeriesTable(
        years=panel9.years,
        names=tuple(panel9.names[i] for i in order),
        values=panel9.values[:, order],
    )
    base = run(panel9, tmp_path / "base.csv", rotation)
    other = run(permuted, tmp_path / "permuted.csv", rotation)
    # rows[i] is the row of the base run that holds the i-th permuted predictor.
    rows = [base.predictor_names.index(name) for name in other.predictor_names]
    assert rows != sorted(rows)
    np.testing.assert_allclose(loadings(other), loadings(base)[rows], rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        other.weights.weights, base.weights.weights[rows], rtol=0, atol=1e-12
    )
    assert np.abs(other.solution.eigenvalues - base.solution.eigenvalues).max() <= 1e-12
    assert abs(other.pcr.r_squared - base.pcr.r_squared) <= 1e-12
    assert abs(other.baseline.r_squared - base.baseline.r_squared) <= 1e-12


@pytest.mark.parametrize("scale", [1e6, 1e-6])
@pytest.mark.parametrize("rotation", ROTATIONS)
def test_rescaling_predictors_keeps_unit_free_results(panel9, rotation, scale, tmp_path):
    factors = np.where(np.array(panel9.names) == panel9.response, 1.0, scale)
    scaled = TimeSeriesTable(
        years=panel9.years, names=panel9.names, values=panel9.values * factors
    )
    base = run(panel9, tmp_path / "base.csv", rotation)
    other = run(scaled, tmp_path / "scaled.csv", rotation)
    assert np.abs(other.solution.eigenvalues - base.solution.eigenvalues).max() <= 1e-12
    assert abs(other.pcr.r_squared - base.pcr.r_squared) <= 1e-12
    assert list(other.vif) == list(base.vif)
    for name, value in base.vif.items():
        assert other.vif[name] == pytest.approx(value, rel=1e-11, abs=0)


@pytest.mark.parametrize("rotation", ROTATIONS)
def test_shifting_levels_keeps_eigenvalues(panel9, rotation, tmp_path):
    shifted = TimeSeriesTable(
        years=panel9.years, names=panel9.names, values=panel9.values + 1e3
    )
    base = run(panel9, tmp_path / "base.csv", rotation)
    other = run(shifted, tmp_path / "shifted.csv", rotation)
    assert np.abs(other.solution.eigenvalues - base.solution.eigenvalues).max() <= 1e-12


@pytest.mark.parametrize("rotation", ROTATIONS)
def test_flipping_a_predictor_flips_its_rows(panel9, rotation, tmp_path):
    # X05 holds the largest entry of one retained column in either
    # rotation, so the sign convention flips that whole column too.
    name = 'X05,"adj"'
    flipped = TimeSeriesTable(
        years=panel9.years,
        names=panel9.names,
        values=panel9.values * np.where(np.array(panel9.names) == name, -1.0, 1.0),
    )
    base = run(panel9, tmp_path / "base.csv", rotation)
    other = run(flipped, tmp_path / "flipped.csv", rotation)
    rows = np.where(np.array(base.predictor_names) == name, -1.0, 1.0)[:, None]
    columns = np.sign(np.sum(loadings(other) * loadings(base) * rows, axis=0))
    assert -1.0 in columns
    np.testing.assert_allclose(
        loadings(other), loadings(base) * rows * columns, rtol=0, atol=1e-12
    )
    np.testing.assert_allclose(
        other.weights.weights, base.weights.weights * rows * columns, rtol=0, atol=1e-12
    )
    assert np.abs(other.solution.eigenvalues - base.solution.eigenvalues).max() <= 1e-12
    assert abs(other.pcr.r_squared - base.pcr.r_squared) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(content=st.binary())
def test_arbitrary_bytes_give_a_stage_exit_code(content):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.csv"
        path.write_bytes(content)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(["--input", str(path)])
    assert code in (0, 2, 3, 4, 5)
    assert "Traceback" not in stdout.getvalue() + stderr.getvalue()
    if code == 2:
        assert stderr.getvalue().startswith("error: [input] ")
