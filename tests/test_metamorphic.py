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
VIFs.  Rescaling holds from 1e-300 to 1e300, the response included,
because standardization, the baseline's rank test and the fit's sums of
squares first divide each column by a power of two; rescaling the whole
table scales the PCR intercept, coefficients and residual standard
error with it and leaves R² alone (measured: 1e-15 for R², 1.2e-13
relative for the coefficients).  Subnormal scales such as 1e-310 have
lost precision in the data itself, and the baseline reports that its
coefficients overflow while the PCR product stays finite.  A sign flip
gives exactly the negated rows.  Over generated tables, flipping one
predictor's sign or rescaling it by a power of two is exact: the runs
exit alike, and the results are bit-identical up to those signs.
Permuting the predictors of a generated table is not exact; the runs
exit alike, and the results move with their predictors within bounds
that scale with the eigenvalue gaps rounding is sensitive to.  Shifting
one column's levels, or rescaling it by a factor that is not a power of
two, is not exact either: it rounds the column's increments by a
relative amount that grows with the ratio of its levels to its
increments, and the runs exit alike and agree within bounds stated in
units of that rounding.

Two properties hold the fit fixed whatever the spectrum feeds it:
varimax only rotates the retained score space, so the PCR fit with and
without it agrees (measured on panel9 and panel30: R² bit-equal,
fitted values within 3.6e-15; also checked over generated tables), and
with every component retained the scores span the predictors, so the
PCR fit is the baseline OLS fit (on panel9 and over generated tables,
whatever the scales of the predictors and the response).

Wide panels run under the defaults: over wide random walks and
planted-factor panels, the automatic count keeps Kaiser's count capped
at the largest count L that fits, says so in the report exactly when
the cap binds, and the run completes with the fit of an unrotated run,
whether or not varimax settles within its sweep cap; an explicit L + 1
fails in the pca stage naming L.

The last test feeds arbitrary bytes to the command line: every file is
either a report or an error message naming the stage, never a
traceback.
"""

import contextlib
import csv
import io
import itertools
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pcrkit import cli
from pcrkit.errors import STAGE_EXIT_CODES, StageError
from pcrkit.pipeline import (
    RunConfig,
    load_table,
    render_report_delim,
    render_report_text,
    run_pipeline,
    write_table,
)
from pcrkit.preprocess import VIF_RCOND, TimeSeriesTable

PANEL9 = Path(__file__).parent / "golden" / "panel9.csv"
PANEL30 = Path(__file__).parent / "golden" / "panel30.csv"
# Table 18 of ``tools/wide_tally.py``'s sample (p = 33, n = 15): Kaiser
# keeps 12 components, and varimax stops at its sweep cap, its last sweep
# turning 1.5e-5 rad.
UNSETTLED = Path(__file__).parent / "golden" / "unsettled.csv"
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
    rows = [base.solution.names.index(name) for name in other.solution.names]
    assert rows != sorted(rows)
    np.testing.assert_allclose(loadings(other), loadings(base)[rows], rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        other.weights.weights, base.weights.weights[rows], rtol=0, atol=1e-12
    )
    assert np.abs(other.solution.eigenvalues - base.solution.eigenvalues).max() <= 1e-12
    assert abs(other.pcr.r_squared - base.pcr.r_squared) <= 1e-12
    assert abs(other.baseline.r_squared - base.baseline.r_squared) <= 1e-12


@pytest.mark.parametrize("scale", [1e6, 1e-6, 1e150, 1e160, 1e300, 1e-300])
@pytest.mark.parametrize("rotation", ROTATIONS)
def test_rescaling_predictors_keeps_unit_free_results(panel9, rotation, scale, tmp_path):
    factors = np.where(np.array(panel9.names) == "IY", 1.0, scale)
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


@pytest.mark.parametrize("scale", [1e155, 1e-155, 1e200, 1e-200, 1e300, 1e-300])
@pytest.mark.parametrize("rotation", ROTATIONS)
def test_rescaling_the_whole_table_scales_the_fit(panel9, rotation, scale, tmp_path):
    # The response too: the fit's sums of squares must neither overflow
    # nor underflow, so R² holds and the fit's units follow the data's.
    scaled = TimeSeriesTable(
        years=panel9.years, names=panel9.names, values=panel9.values * scale
    )
    base = run(panel9, tmp_path / "base.csv", rotation).pcr
    other = run(scaled, tmp_path / "scaled.csv", rotation).pcr
    assert abs(other.r_squared - base.r_squared) <= 1e-12
    assert other.residual_se == pytest.approx(base.residual_se * scale, rel=1e-11, abs=0)
    assert other.intercept == pytest.approx(base.intercept * scale, rel=1e-11, abs=0)
    np.testing.assert_allclose(other.coefficients, base.coefficients * scale, rtol=1e-11)


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
    rows = np.where(np.array(base.solution.names) == name, -1.0, 1.0)[:, None]
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


@pytest.mark.parametrize("components", [2, 3, "auto"])
@pytest.mark.parametrize("path", [PANEL9, PANEL30], ids=["panel9", "panel30"])
def test_rotation_does_not_change_the_fit(path, components):
    fits = [
        run_pipeline(RunConfig(input_path=path, components=components, rotation=rotation)).pcr
        for rotation in ROTATIONS
    ]
    assert abs(fits[0].r_squared - fits[1].r_squared) <= 1e-12
    np.testing.assert_allclose(fits[0].fitted, fits[1].fitted, rtol=0, atol=1e-12)


@pytest.mark.parametrize("rotation", ROTATIONS)
def test_all_components_reproduce_the_baseline_fit(panel9, rotation):
    k = len(panel9.names) - 1
    report = run_pipeline(RunConfig(input_path=PANEL9, components=k, rotation=rotation))
    np.testing.assert_allclose(report.pcr.fitted, report.baseline.fitted, rtol=0, atol=1e-10)
    assert abs(report.pcr.r_squared - report.baseline.r_squared) <= 1e-10


def test_subnormal_predictors_turn_the_baseline_into_an_error(panel9, tmp_path, capsys):
    # Scaled by 1e-310 the predictors are subnormal: the baseline's
    # coefficients overflow a float, the PCR scores do not.
    factors = np.where(np.array(panel9.names) == "IY", 1.0, 1e-310)
    scaled = TimeSeriesTable(
        years=panel9.years, names=panel9.names, values=panel9.values * factors
    )
    source = write_table(scaled, tmp_path / "subnormal.csv")
    out = tmp_path / "out"
    args = ["--input", str(source), "--components", "3", "--out", str(out)]
    assert cli.main(args) == 0
    assert capsys.readouterr().err == ""
    text = (out / "report.txt").read_text(encoding="utf-8")
    baseline = text.split("[baseline ols]\n", 1)[1].split("\n", 1)[0]
    assert baseline.startswith("error: least-squares coefficient of column ")
    assert baseline.endswith(" overflows")
    report = run_pipeline(RunConfig(input_path=source, components=3))
    assert report.baseline is None
    assert np.isfinite(report.pcr.coefficients).all() and np.isfinite(report.pcr.fitted).all()
    assert np.isfinite(report.pcr.r_squared)


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


NAME = st.text(alphabet='AbyZ09 ,"%é{Δ', min_size=1, max_size=5).filter(
    lambda name: name == name.strip() and name != "IY"
)
COLUMN_KINDS = ("scaled", "constant", "duplicate", "near-collinear", "subnormal")


@st.composite
def well_formed_tables(draw, name=NAME):
    """Consecutive years, n from 3 to 30, the response IY and 1 to 12
    predictors drawn from ``name``, whose names may need CSV quoting and
    rarely sort in header order; each column is a random walk at a scale
    from 1e-300 to 1e300, a constant, a copy or a near copy of another
    column, or subnormal."""
    n = draw(st.integers(3, 30))
    predictors = draw(st.lists(name, min_size=1, max_size=12, unique=True))
    names = list(predictors)
    names.insert(draw(st.integers(0, len(predictors))), "IY")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for _ in names:
        kind = draw(st.sampled_from(COLUMN_KINDS))
        scale = 10.0 ** draw(st.integers(-300, 300))
        walk = np.cumsum(rng.standard_normal(n))
        if kind == "constant":
            column = np.full(n, scale)
        elif kind in ("duplicate", "near-collinear") and columns:
            column = columns[draw(st.integers(0, len(columns) - 1))]
            if kind == "near-collinear":
                column = column * (1.0 + 1e-9 * rng.standard_normal(n))
        elif kind == "subnormal":
            column = walk * 1e-310
        else:
            column = walk * scale
        columns.append(column)
    start = draw(st.integers(-3000, 3000))
    return TimeSeriesTable(
        years=np.arange(start, start + n),
        names=tuple(names),
        values=np.column_stack(columns),
    )


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


@settings(max_examples=200, deadline=None)
@given(table=well_formed_tables())
def test_well_formed_tables_exit_by_stage_and_write_exact_increments(table):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        source = write_table(table, Path(tmp) / "input.csv")
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(["--input", str(source), "--out", str(out), "--format", "delim"])
        assert code in (0, 2, 3, 4, 5)
        if code != 0:
            stage = {value: key for key, value in STAGE_EXIT_CODES.items()}[code]
            assert stderr.getvalue().startswith(f"error: [{stage}] ")
            return
        assert stderr.getvalue() == ""
        with open(out / "scatter_pairs.csv", encoding="utf-8", newline="") as file:
            rows = list(csv.reader(file))
    increments = table.values[1:] - table.values[:-1]
    years = [str(year) for year in table.years[1:].tolist()]
    assert rows[0] == ["x_name", "y_name", "year", "x", "y"]
    body = iter(rows[1:])
    for x_name, y_name in itertools.combinations(sorted(table.names), 2):
        pair = [next(body) for _ in years]
        assert [row[:3] for row in pair] == [[x_name, y_name, year] for year in years]
        x = [float(row[3]) for row in pair]
        y = [float(row[4]) for row in pair]
        assert np.array_equal(bits(x), bits(increments[:, table.names.index(x_name)]))
        assert np.array_equal(bits(y), bits(increments[:, table.names.index(y_name)]))
    assert next(body, None) is None


@settings(max_examples=200, deadline=None)
@given(table=well_formed_tables())
def test_rotation_does_not_change_the_fit_on_well_formed_tables(table):
    # R² is unit-free: within 1e-12.  Fitted values carry the response's
    # units, from 1e-300 to 1e300 and subnormal, so they agree within
    # 1024 units in the last place (np.spacing) of the largest response
    # increment: at most 2.3e-13 relative at a normal scale, 5e-321 for
    # a subnormal response.  Measured over 3,000 tables (983 fitted both
    # ways): 1.1e-15 relative and 3.3e-16 in R² at normal scales; 5
    # subnormal units and 5.4e-14 in R² for a subnormal response.
    with tempfile.TemporaryDirectory() as tmp:
        source = write_table(table, Path(tmp) / "input.csv")
        fits = []
        for rotation in ROTATIONS:
            try:
                fits.append(run_pipeline(RunConfig(input_path=source, rotation=rotation)).pcr)
            except StageError as err:
                fits.append(err.exit_code)
    # Rotation cannot fail a run, and the fit does not depend on it: the
    # two runs fail alike or complete alike.
    if isinstance(fits[0], int) or isinstance(fits[1], int):
        assert fits[0] == fits[1]
        return
    increments = np.diff(table.values[:, table.names.index("IY")])
    tolerance = 1024 * np.spacing(np.abs(increments).max())
    assert abs(fits[0].r_squared - fits[1].r_squared) <= 1e-12
    np.testing.assert_allclose(fits[0].fitted, fits[1].fitted, rtol=0, atol=tolerance)


def far_apart_scales():
    """One predictor at 1e241 and the response at 1e-198: in raw units the
    baseline coefficient, about 1e-440, is below the float range."""
    rng = np.random.default_rng(3)
    x = rng.standard_normal(15)
    y = 0.4 * x + rng.standard_normal(15)
    increments = np.column_stack([y * 1e-198, x * 1e241])
    return TimeSeriesTable(
        years=np.arange(2000, 2016),
        names=("IY", "X"),
        values=np.vstack([np.zeros(2), np.cumsum(increments, axis=0)]),
    )


@settings(max_examples=200, deadline=None)
@given(table=well_formed_tables())
@example(table=far_apart_scales())
def test_all_components_reproduce_the_baseline_on_well_formed_tables(table):
    # With k = p the scores span the predictors (Jolliffe 2002, §8.1), so
    # where both fits complete they agree.  R² within 1e-12; fitted values
    # within 1024 units in the last place of the largest response
    # increment, as in the rotation property above.  Measured over 5,000
    # tables (2,032 fitted both ways): 10 units and 4.4e-16 in R², and
    # 1 unit for a subnormal response.
    with tempfile.TemporaryDirectory() as tmp:
        source = write_table(table, Path(tmp) / "input.csv")
        try:
            report = run_pipeline(RunConfig(input_path=source, components=len(table.names) - 1))
        except StageError:
            return
    if report.baseline is None:
        return
    increments = np.diff(table.values[:, table.names.index("IY")])
    tolerance = 1024 * np.spacing(np.abs(increments).max())
    assert abs(report.pcr.r_squared - report.baseline.r_squared) <= 1e-12
    np.testing.assert_allclose(report.pcr.fitted, report.baseline.fitted, rtol=0, atol=tolerance)


def run_or_exit_code(table, path):
    """The report of a default run, or the exit code of the stage it fails in."""
    try:
        return run_pipeline(RunConfig(input_path=write_table(table, path)))
    except StageError as err:
        return err.exit_code


def with_column(table, j, column):
    values = table.values.copy()
    values[:, j] = column
    return TimeSeriesTable(years=table.years, names=table.names, values=values)


def assert_rows_flipped(other, base, rows):
    # Equal to ``base`` with ``rows`` negated, up to one sign per column.
    expected = base * rows
    columns = np.where(np.sum(other * expected, axis=0) < 0.0, -1.0, 1.0)
    assert np.array_equal(other, expected * columns)


@settings(max_examples=50, deadline=None)
@given(table=well_formed_tables(), data=st.data())
def test_flipping_a_predictor_flips_its_rows_on_well_formed_tables(table, data):
    # Negation is exact in every operation, so the sign-free results
    # are bit-identical and the rest differ by signs alone.
    predictors = [j for j, name in enumerate(table.names) if name != "IY"]
    j = data.draw(st.sampled_from(predictors))
    with tempfile.TemporaryDirectory() as tmp:
        base = run_or_exit_code(table, Path(tmp) / "base.csv")
        other = run_or_exit_code(
            with_column(table, j, -table.values[:, j]), Path(tmp) / "flipped.csv"
        )
    if isinstance(base, int) or isinstance(other, int):
        assert other == base
        return
    assert np.array_equal(bits(other.solution.eigenvalues), bits(base.solution.eigenvalues))
    assert other.vif == base.vif
    assert np.array_equal(bits(other.pcr.fitted), bits(base.pcr.fitted))
    assert bits(other.pcr.r_squared) == bits(base.pcr.r_squared)
    rows = np.where(np.array(base.solution.names) == table.names[j], -1.0, 1.0)[:, None]
    assert_rows_flipped(other.solution.loadings, base.solution.loadings, rows)
    assert_rows_flipped(other.solution.rotated_loadings, base.solution.rotated_loadings, rows)
    assert_rows_flipped(other.weights.weights, base.weights.weights, rows)


@settings(max_examples=50, deadline=None)
@given(table=well_formed_tables(), data=st.data())
def test_rescaling_a_predictor_by_a_power_of_two_changes_nothing(table, data):
    # k keeps every value and increment of the column below overflow and
    # out of the subnormal range, so scaling by 2^k is exact; and
    # standardization divides by a power of two first, so every
    # unit-free result is bit-identical.
    predictors = [j for j, name in enumerate(table.names) if name != "IY"]
    j = data.draw(st.sampled_from(predictors))
    column = table.values[:, j]
    magnitudes = np.abs(np.concatenate([column, np.diff(column)]))
    exponents = np.frexp(magnitudes[magnitudes > 0.0])[1]
    k = data.draw(st.integers(-1000 - int(exponents.min()), 1000 - int(exponents.max())))
    with tempfile.TemporaryDirectory() as tmp:
        base = run_or_exit_code(table, Path(tmp) / "base.csv")
        other = run_or_exit_code(
            with_column(table, j, np.ldexp(column, k)), Path(tmp) / "scaled.csv"
        )
    if isinstance(base, int) or isinstance(other, int):
        assert other == base
        return
    assert np.array_equal(bits(other.solution.eigenvalues), bits(base.solution.eigenvalues))
    assert np.array_equal(bits(other.weights.weights), bits(base.weights.weights))
    assert np.array_equal(bits(other.scores), bits(base.scores))
    assert other.vif == base.vif
    assert np.array_equal(bits(other.pcr.fitted), bits(base.pcr.fitted))
    assert bits(other.pcr.r_squared) == bits(base.pcr.r_squared)


@st.composite
def random_walk_tables(draw):
    """IY and 2 to 60 predictors, each a random walk, over 4 to 30 years:
    the short wide panels PCR exists for, mostly wider than long."""
    n = draw(st.integers(4, 30))
    p = draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return TimeSeriesTable(
        years=np.arange(2000, 2000 + n),
        names=("IY",) + tuple(f"X{j:02d}" for j in range(1, p + 1)),
        values=100.0 + np.cumsum(rng.standard_normal((n, p + 1)), axis=0),
    )


def short_wide_panel():
    """30 random walks and IY over 6 years: Kaiser keeps 4 components, 3 fit."""
    rng = np.random.default_rng(5)
    return TimeSeriesTable(
        years=np.arange(2000, 2006),
        names=("IY",) + tuple(f"X{j:02d}" for j in range(1, 31)),
        values=100.0 + np.cumsum(rng.standard_normal((6, 31)), axis=0),
    )


@st.composite
def planted_factor_tables(draw):
    """IY and 2 to 60 predictors over 4 to 30 years, built as
    ``bench/panels.py`` builds its panels: the increments carry k planted
    factors, one per equal block of predictors, with signed loadings in
    [0.7, 1.3] and noise of standard deviation 0.2; the response mixes
    all factors; the levels cumulate the increments onto base levels in
    [50, 150).  k runs from 1 to p // 10, so a short panel keeps more
    factors than its increments leave room for."""
    n = draw(st.integers(4, 30))
    p = draw(st.integers(2, 60))
    k = draw(st.integers(1, max(1, p // 10)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    factors = rng.standard_normal((n - 1, k))
    loading = rng.uniform(0.7, 1.3, p) * rng.choice((-1.0, 1.0), p)
    predictors = factors[:, np.arange(p) * k // p] * loading
    predictors += 0.2 * rng.standard_normal((n - 1, p))
    response = factors @ rng.uniform(0.5, 1.5, k) + 0.2 * rng.standard_normal(n - 1)
    base = rng.uniform(50.0, 150.0, p + 1)
    increments = np.column_stack([response, predictors])
    return TimeSeriesTable(
        years=np.arange(1950, 1950 + n),
        names=("IY",) + tuple(f"X{j:02d}" for j in range(1, p + 1)),
        values=np.vstack([base, base + np.cumsum(increments, axis=0)]),
    )


# The message of an explicit count above the largest count L that fits.
LIMIT = re.compile(r"component count must be in \[1, (\d+)\], got (\d+)$")


def limit_named(source, components):
    """The L that a run keeping ``components`` (more than fit) names."""
    with pytest.raises(StageError) as excinfo:
        run_pipeline(RunConfig(input_path=source, components=components))
    assert excinfo.value.exit_code == 4
    match = LIMIT.search(str(excinfo.value))
    assert match and match.group(2) == str(components)
    return int(match.group(1))


@settings(max_examples=40, deadline=None)
@given(table=st.one_of(random_walk_tables(), planted_factor_tables()))
@example(table=short_wide_panel())
@example(table=load_table(UNSETTLED))
def test_auto_keeps_at_most_the_count_that_fits_and_one_more_does_not(table):
    # Under the defaults a run completes, with the fit of an unrotated
    # run whether or not varimax settled.  It keeps Kaiser's count capped
    # at L, the count an explicit p + 1 names, and says so exactly when
    # the cap binds; L + 1 fails naming L again.
    with tempfile.TemporaryDirectory() as tmp:
        source = write_table(table, Path(tmp) / "input.csv")
        rotated = run_pipeline(RunConfig(input_path=source)).pcr
        report = run_pipeline(RunConfig(input_path=source, rotation="none"))
        scale = np.abs(report.pcr.fitted).max()
        np.testing.assert_allclose(rotated.fitted, report.pcr.fitted, rtol=0, atol=1e-12 * scale)
        limit = limit_named(source, len(table.names))
        kaiser = int(np.sum(report.solution.eigenvalues > 1.0))
        assert report.solution.n_components == min(kaiser, limit)
        capped = f"kaiser rule kept {kaiser}; capped at {limit}\n"
        assert (capped in render_report_text(report)) == (kaiser > limit)
        assert (",kaiser,capped," in render_report_delim(report)) == (kaiser > limit)
        assert limit_named(source, limit + 1) == limit


@settings(max_examples=50, deadline=None)
@given(table=st.one_of(random_walk_tables(), well_formed_tables()), data=st.data())
def test_permuting_predictors_permutes_results_on_generated_tables(table, data):
    # Permuting the predictors permutes the columns of Z, so both runs exit
    # alike and every result moves with its predictor, up to rounding.
    # Rounding moves an eigenvalue by ~eps * lambda_1 (Weyl), an
    # eigenvector by ~eps * lambda_1 / gap, where gap is the distance to
    # the nearest other eigenvalue (Davis-Kahan), the retained score
    # space, and so the fit, by ~eps * lambda_1 / (lambda_k - lambda_k+1),
    # and a VIF by ~eps * kappa, kappa = sqrt(lambda_1 / the smallest
    # eigenvalue it divides by).  Each bound is 256 of those units.
    # Measured over 10,000 tables (4,749 ran to completion): at most 37
    # for the eigenvalues, 25 for a loading column, 32 for the fitted
    # values, 23 for R^2 and 29 for a VIF.  No exit code differed over
    # 16,000 tables.
    predictors = [j for j, name in enumerate(table.names) if name != "IY"]
    order = list(range(len(table.names)))
    for j, k in zip(predictors, data.draw(st.permutations(predictors))):
        order[j] = k
    permuted = TimeSeriesTable(
        years=table.years,
        names=tuple(table.names[i] for i in order),
        values=table.values[:, order],
    )
    with tempfile.TemporaryDirectory() as tmp:
        base = run_or_exit_code(table, Path(tmp) / "base.csv")
        other = run_or_exit_code(permuted, Path(tmp) / "permuted.csv")
    if isinstance(base, int) or isinstance(other, int):
        assert other == base
        return
    eps = np.finfo(np.float64).eps
    lam, k = base.solution.eigenvalues, base.solution.n_components
    # Kaiser keeps eigenvalues above 1, which sum to p, so k < p.
    gaps = lam[:-1] - lam[1:]
    assert np.abs(other.solution.eigenvalues - lam).max() <= 256 * eps * lam[0]

    kappa = np.sqrt(lam[0] / lam[lam > VIF_RCOND**2 * lam[0]][-1])
    for name, value in base.vif.items():
        assert other.vif[name] == value or (
            abs(other.vif[name] - value) <= 256 * eps * kappa * value
        ), name

    increments = np.diff(table.values[:, table.names.index("IY")])
    condition = lam[0] / gaps[k - 1]
    assert abs(other.pcr.r_squared - base.pcr.r_squared) <= 256 * eps * condition
    np.testing.assert_allclose(
        other.pcr.fitted,
        base.pcr.fitted,
        rtol=0,
        atol=256 * condition * np.spacing(np.abs(increments).max()),
    )

    rows = [base.solution.names.index(name) for name in other.solution.names]
    expected = base.solution.loadings[rows]
    signs = np.where(np.sum(other.solution.loadings * expected, axis=0) < 0.0, -1.0, 1.0)
    nearest = np.minimum(np.concatenate(([np.inf], gaps[: k - 1])), gaps[:k])
    deviation = np.abs(other.solution.loadings - expected * signs).max(axis=0)
    assert np.all(deviation * nearest <= 256 * eps * np.sqrt(lam[:k]) * lam[0])


def increment_rounding(column):
    """The relative error that rounding the levels of ``column`` puts into
    its increments: a unit in the last place of its largest level over
    its largest increment, plus the rounding of the increments themselves."""
    eps = np.finfo(np.float64).eps
    return eps + np.spacing(np.abs(column).max()) / np.abs(np.diff(column)).max()


def moved_units(table, j, column):
    """How far a run with column ``j`` of ``table`` replaced by ``column``
    moves from a run on ``table``, after checking that both exit alike.

    Returns the largest move of an eigenvalue, a VIF and R², each in units
    of the rounding it is sensitive to, as in the permutation property
    above, with eps replaced by ``increment_rounding(column)``; zeros
    when both runs fail.  VIFs are compared only when both runs keep as
    many singular values above the ``VIF_RCOND`` cut: a copy of a column
    that the change rounds apart from it by more than the cut is an
    independent column to ``vif``, which then regresses every other
    column on their difference too.
    """
    with tempfile.TemporaryDirectory() as tmp:
        base = run_or_exit_code(table, Path(tmp) / "base.csv")
        other = run_or_exit_code(with_column(table, j, column), Path(tmp) / "other.csv")
    if isinstance(base, int) or isinstance(other, int):
        assert other == base
        return 0.0, 0.0, 0.0
    unit = increment_rounding(column)
    lam, k = base.solution.eigenvalues, base.solution.n_components
    eigenvalues = np.abs(other.solution.eigenvalues - lam).max() / (unit * lam[0])
    kept = lam[lam > VIF_RCOND**2 * lam[0]]
    vif = 0.0
    if len(kept) == np.sum(other.solution.eigenvalues > VIF_RCOND**2 * lam[0]):
        kappa = np.sqrt(lam[0] / kept[-1])
        vif = max(
            0.0 if other.vif[n] == value else abs(other.vif[n] - value) / (unit * kappa * value)
            for n, value in base.vif.items()
        )
    condition = lam[0] / (lam[k - 1] - lam[k])
    r_squared = abs(other.pcr.r_squared - base.pcr.r_squared) / (unit * condition)
    return eigenvalues, vif, r_squared


GENERATED_TABLES = st.one_of(random_walk_tables(), well_formed_tables())


@st.composite
def shifted_columns(draw):
    """A generated table, one of its columns j, response included, and
    that column's levels shifted by up to 1e9 times its largest increment."""
    table = draw(GENERATED_TABLES)
    j = draw(st.integers(0, len(table.names) - 1))
    column = table.values[:, j]
    size = float(np.abs(np.diff(column)).max())
    shift = draw(st.sampled_from([-1.0, 1.0])) * size * 10.0 ** draw(st.floats(0, 9))
    assume(float(np.abs(column).max()) + abs(shift) < 1e307)
    return table, j, column + shift


@st.composite
def rescaled_columns(draw):
    """A generated table, one of its columns j, response included, and
    that column rescaled by a factor from 1e-3 to 1e3 that is not a power
    of two."""
    table = draw(GENERATED_TABLES)
    j = draw(st.integers(0, len(table.names) - 1))
    factor = 10.0 ** draw(st.floats(-3, 3))
    assume(math.frexp(factor)[0] != 0.5)
    return table, j, table.values[:, j] * factor


# Each bound is 32 of the units ``moved_units`` measures.  Measured over
# 5,000 shifts (1,688 ran to completion both ways, 6 of them with the
# numerical rank changed) and 5,000 rescalings (2,379 ran): at most 3.9
# and 2.8 for the eigenvalues, 2.3 and 3.7 for a VIF, 1.7 and 3.0 for
# R².  No exit code differed.
@settings(max_examples=30, deadline=None)
@given(case=shifted_columns())
def test_shifting_a_column_moves_results_within_its_rounding(case):
    assert max(moved_units(*case)) <= 32


@settings(max_examples=30, deadline=None)
@given(case=rescaled_columns())
def test_rescaling_a_column_moves_results_within_its_rounding(case):
    assert max(moved_units(*case)) <= 32
