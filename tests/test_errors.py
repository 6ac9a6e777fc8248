"""The text of every error the package raises, pinned call by call.

Each case drives one public call into one failure and asserts the whole
message, which is all a caller (and the command line, after its
``[stage]`` prefix) ever sees.  Every error is a ``PcrError``; the
message alone names the cause.  Two messages end in a float that the
eigensolver or the rotation computes, so those cases pin the text up to
that number and check the number separately.
"""

import errno
import os
import re

import numpy as np
import pytest

from pcrkit import pca
from pcrkit.errors import PcrError, StageError
from pcrkit.fixtures import load_fixture
from pcrkit.linalg import check_symmetric, solve_least_squares
from pcrkit.pca import component_scores, extract, rotate_varimax, score_weights
from pcrkit.pipeline import (
    Report,
    RunConfig,
    emit_report,
    load_table,
    render_report,
    run_pipeline,
    write_table,
)
from pcrkit.preprocess import (
    CorrelationMatrix,
    TimeSeriesTable,
    correlation_matrix,
    difference,
    standardize,
)
from pcrkit.regression import fit_ols, reconstruct_prices

NAMES = ("IY", "A")


def table(values, years=None, names=NAMES):
    values = np.asarray(values, dtype=np.float64)
    if years is None:
        years = np.arange(2000, 2000 + values.shape[0])
    return TimeSeriesTable(years=years, names=names, values=values)


EQUICORRELATED = CorrelationMatrix(
    ("a", "b", "c"), [[1.0, 0.5, 0.5], [0.5, 1.0, 0.5], [0.5, 0.5, 1.0]]
)
SINGULAR = CorrelationMatrix(("a", "b"), [[1.0, 1.0], [1.0, 1.0]])
TWO_COMPONENTS = extract(EQUICORRELATED, 2)

CASES = {
    # dense linear algebra
    "non-square": (
        lambda: check_symmetric(np.zeros((2, 3))),
        "expected a square 2-d matrix, got shape (2, 3)",
    ),
    "asymmetric": (
        lambda: check_symmetric([[1.0, 0.5], [0.2, 1.0]]),
        "matrix is not symmetric: |a[0,1] - a[1,0]| = 0.3",
    ),
    "non-finite-matrix": (
        lambda: check_symmetric([[1.0, 0.0], [np.nan, 1.0]]),
        "non-finite entry in matrix at index (1, 0)",
    ),
    "non-finite-base": (
        lambda: reconstruct_prices(np.inf, [1.0, 2.0]),
        "non-finite entry in base level at index (0,)",
    ),
    "response-shape": (
        lambda: solve_least_squares(np.ones((3, 2)), np.ones(4)),
        "response vector: expected shape (3,), got (4,)",
    ),
    "design-rank": (
        lambda: solve_least_squares(np.ones(3), np.ones(3)),
        "design matrix: expected shape (m, n), got (3,)",
    ),
    "design-wide": (
        lambda: solve_least_squares(np.ones((2, 3)), np.ones(2)),
        "design matrix: expected shape at least as many rows as columns, got (2, 3)",
    ),
    # 2**-1029 is the exact pivot; the coefficient beyond it overflows.
    "coefficient-overflow": (
        lambda: solve_least_squares(
            [[1.0, -(2.0**-1030)], [1.0, 2.0**-1030]] * 2, [0.0, 1.0] * 2, names=("i", "x")
        ),
        "least-squares coefficient of column 1 (x) is not finite: dividing by its "
        "pivot -1.73833895195875e-310 overflows",
    ),
    "increments-shape": (
        lambda: reconstruct_prices(0.0, np.ones((2, 2))),
        "increments: expected shape (n,), got (2, 2)",
    ),
    "rank-deficient": (
        lambda: fit_ols([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0]], [1.0, 3.0, 2.0, 5.0],
                        names=("a", "b")),
        "design matrix is rank deficient: column 2 (b) is linearly dependent on "
        "earlier columns (pivot 0.0)",
    ),
    # table preparation
    "values-not-2d": (
        lambda: table([1.0, 2.0, 3.0]),
        "table values must be 2-d, got shape (3,)",
    ),
    "years-for-rows": (
        lambda: table(np.ones((3, 2)), years=[2000, 2001]),
        "2 years for 3 rows",
    ),
    "names-for-columns": (
        lambda: table(np.ones((3, 2)), names=("IY",)),
        "1 names for 2 columns",
    ),
    "empty-name": (
        lambda: table(np.ones((3, 2)), names=("IY", "")),
        "column name 2 of 2 is empty",
    ),
    "duplicate-names": (
        lambda: table(np.ones((3, 3)), names=("IY", "A", "A")),
        "duplicate column name 'A'",
    ),
    "years-gap": (
        lambda: table(np.ones((3, 2)), years=[2000, 2001, 2003]),
        "years must be consecutive: 2001 is followed by 2003",
    ),
    "unknown-column": (
        lambda: table(np.ones((3, 2))).column("Z"),
        "variable names do not match: missing ['Z'], extra []",
    ),
    "unknown-mode": (
        lambda: difference(table(np.ones((3, 2))), "log"),
        "unknown difference mode 'log'",
    ),
    "difference-rows": (
        lambda: difference(table(np.ones((2, 2)))),
        "differencing needs at least 3 observations, got 2",
    ),
    "percent-of-zero": (
        lambda: difference(table([[1.0, 2.0], [2.0, 0.0], [3.0, 1.0]]), "percent"),
        "percent differencing divides by zero at year 2001, column 'A'",
    ),
    "standardize-rows": (
        lambda: standardize(table(np.ones((1, 2)))),
        "standardization needs at least 2 observations, got 1",
    ),
    "zero-variance": (
        lambda: standardize(table([[1.0, 5.0], [2.0, 5.0], [4.0, 5.0]])),
        "column 'A' has zero variance and cannot be standardized",
    ),
    "correlation-rows": (
        lambda: correlation_matrix(table(np.zeros((1, 2)))),
        "correlation needs at least 2 observations, got 1",
    ),
    "no-variables": (
        lambda: CorrelationMatrix((), np.zeros((0, 0))),
        "correlation matrix has no variables",
    ),
    "names-for-matrix": (
        lambda: CorrelationMatrix(("a",), np.eye(2)),
        "1 names for a 2-row matrix",
    ),
    "diagonal": (
        lambda: CorrelationMatrix(("a", "b"), [[1.0, 0.0], [0.0, 0.5]]),
        "diagonal entry for 'b' is 0.5, not 1.0",
    ),
    "matrix-empty-name": (
        lambda: CorrelationMatrix(("a", ""), np.eye(2)),
        "column name 2 of 2 is empty",
    ),
    "matrix-duplicate-names": (
        lambda: CorrelationMatrix(("a", "a"), [[1.0, 0.5], [0.5, 1.0]]),
        "duplicate column name 'a'",
    ),
    "out-of-range": (
        lambda: CorrelationMatrix(("a", "b"), [[1.0, 1.5], [1.5, 1.0]]),
        "correlation out of [-1, 1] at (a, b): 1.5",
    ),
    "data-names": (
        lambda: CorrelationMatrix(("a", "b"), data=table(np.zeros((3, 2)), names=("b", "a"))),
        "data columns ('b', 'a') do not match ('a', 'b')",
    ),
    "values-and-data": (
        lambda: CorrelationMatrix(
            ("a", "b"), np.eye(2), data=table(np.zeros((3, 2)), names=("a", "b"))
        ),
        "a correlation matrix takes exactly one of values and data",
    ),
    "no-source": (
        lambda: CorrelationMatrix(("a", "b")),
        "a correlation matrix takes exactly one of values and data",
    ),
    "submatrix-unknown": (
        lambda: EQUICORRELATED.submatrix(("a", "z")),
        "variable names do not match: missing ['z'], extra []",
    ),
    # component extraction
    "kaiser-keeps-none": (
        lambda: extract(CorrelationMatrix(("a", "b"), np.eye(2))),
        "automatic retention kept no components: largest eigenvalue 1.0 does not exceed 1.0",
    ),
    "count-out-of-range": (
        lambda: extract(EQUICORRELATED, 4),
        "component count must be in [1, 3], got 4",
    ),
    "null-component": (
        lambda: extract(SINGULAR, 2),
        "component count must be in [1, 1], got 2",
    ),
    # Two increments leave the regression on the scores no residual
    # degree of freedom, so no count fits, while Kaiser keeps one.
    "no-count-fits": (
        lambda: extract(correlation_matrix(standardize(difference(
            table([[1.0, 5.0], [4.0, 9.0], [2.0, 4.0]])
        )))),
        "automatic retention kept 1 components; no component count fits",
    ),
    "scores-names": (
        lambda: component_scores(
            table(np.zeros((3, 3)), names=("a", "b", "d")),
            score_weights(TWO_COMPONENTS),
        ),
        "variable names do not match: missing ['c'], extra ['d']",
    ),
    # regression
    "ols-rows": (
        lambda: fit_ols(np.ones((3, 2)), np.ones(3)),
        "ols with 2 predictors needs at least 4 observations, got 3",
    ),
    # Solved on columns scaled to [0.5, 1), the coefficient is finite
    # until it goes back to the units of the subnormal predictor.
    "ols-coefficient-overflow": (
        lambda: fit_ols([[-(2.0**-1030)], [2.0**-1030]] * 2, [0.0, 1.0] * 2, names=("x",)),
        "least-squares coefficient of column 1 (x) is 0.49999999999999994 * 2**1030, "
        "which overflows",
    ),
    # configuration and output
    "config-source": (
        lambda: RunConfig().validate(),
        "exactly one of input_path and fixture must be set",
    ),
    "config-diff": (
        lambda: RunConfig(fixture="fig3", diff="log").validate(),
        "diff must be one of ('absolute', 'percent', 'off'), got 'log'",
    ),
    "config-rotation": (
        lambda: RunConfig(fixture="fig3", rotation="promax").validate(),
        "rotation must be one of ('varimax', 'none'), got 'promax'",
    ),
    "config-components": (
        lambda: RunConfig(fixture="fig3", components=0).validate(),
        'components must be "auto" or a positive integer, got 0',
    ),
    # A bool is an int to Python, but not a count.
    "config-components-bool": (
        lambda: RunConfig(fixture="fig3", components=True).validate(),
        'components must be "auto" or a positive integer, got True',
    ),
    # A run checks its configuration in the input stage.
    "run-config": (
        lambda: run_pipeline(RunConfig(fixture="fig3", components=0)),
        '[input] components must be "auto" or a positive integer, got 0',
    ),
    "report-format": (
        lambda: render_report(Report(), "json"),
        "format must be one of ('text', 'delim'), got 'json'",
    ),
    "unknown-fixture": (
        lambda: load_fixture("fig9"),
        "unknown fixture 'fig9'; available: fig3",
    ),
    # The run checks its response against the names it read, in either input mode.
    "missing-response": (
        lambda: run_pipeline(RunConfig(fixture="fig3", response="Y")),
        "[input] response column 'Y' not among "
        "['IY', 'REI', 'PDS', 'PDC', 'IR', 'GVA', 'CPI', 'PD', 'GDHI']",
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_message(case):
    call, message = CASES[case]
    with pytest.raises(PcrError) as excinfo:
        call()
    assert str(excinfo.value) == message


def test_indefinite_correlation_names_its_smallest_eigenvalue():
    minus = np.full((3, 3), -1.0)
    np.fill_diagonal(minus, 1.0)
    with pytest.raises(PcrError) as excinfo:
        CorrelationMatrix(("a", "b", "c"), minus)
    message = str(excinfo.value)
    prefix = "correlation matrix is not positive definite: smallest eigenvalue "
    assert message.startswith(prefix)
    smallest = float(message[len(prefix):])
    assert message == prefix + repr(smallest)
    assert smallest == pytest.approx(-1.0, abs=1e-12)


def test_varimax_names_its_sweep_cap_and_residual(monkeypatch):
    monkeypatch.setattr(pca, "VARIMAX_MAX_SWEEPS", 1)
    fig3 = load_fixture("fig3").matrix
    solution = extract(fig3.submatrix(tuple(n for n in fig3.names if n != "IY")), 2)
    with pytest.raises(PcrError) as excinfo:
        rotate_varimax(solution)
    message = str(excinfo.value)
    match = re.fullmatch(
        r"varimax rotation did not converge in 1 sweeps, residual (\S+); "
        r"use rotation 'none' or retain at most 1 components",
        message,
    )
    assert match is not None, message
    assert float(match.group(1)) > 0.0


def test_output_into_a_file_names_the_path_and_the_cause(tmp_path):
    blocker = tmp_path / "taken"
    blocker.write_text("", encoding="utf-8")
    with pytest.raises(PcrError) as excinfo:
        emit_report(Report(), blocker)
    cause = f"[Errno {errno.EEXIST}] {os.strerror(errno.EEXIST)}: {str(blocker)!r}"
    assert str(excinfo.value) == f"cannot write {blocker}: {cause}"


def test_writing_a_table_onto_a_directory_names_the_path_and_the_cause(tmp_path):
    with pytest.raises(PcrError) as excinfo:
        write_table(table(np.ones((3, 2))), tmp_path)
    cause = f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {str(tmp_path)!r}"
    assert str(excinfo.value) == f"cannot write {tmp_path}: {cause}"


def test_header_without_data_columns_names_line_1(tmp_path):
    path = tmp_path / "years.csv"
    path.write_text("year\n2000\n2001\n", encoding="utf-8")
    with pytest.raises(PcrError) as excinfo:
        load_table(path)
    assert str(excinfo.value) == "line 1: header has no data columns"


@pytest.mark.parametrize("cell", ["nan", "-inf", "1e999"])
def test_non_finite_cell_names_its_line_and_column(tmp_path, cell):
    path = tmp_path / "cells.csv"
    path.write_text(f"year,IY,A,B\n2000,1,2,3\n2001,2, {cell},4\n2002,3,4,5\n", encoding="utf-8")
    with pytest.raises(StageError) as excinfo:
        run_pipeline(RunConfig(input_path=str(path)))
    assert excinfo.value.exit_code == 2
    assert str(excinfo.value) == f"[input] line 3: column 'A': {cell!r} is not a finite number"


@pytest.mark.parametrize(
    "text, message",
    [
        ('year,IY,"A\nB",C\n2000,1,2,3\nx2001,2,3,4\n', "year 'x2001' is not a 64-bit integer"),
        ('year,IY,"A\nB",C\n2000,1,2,3\n2001,x,3,4\n', "column 'IY': 'x' is not a number"),
        (
            'year,IY,A,B\n2000,1,"3\n",3\n2001,2,nan,4\n2002,3,4,5\n',
            "column 'A': 'nan' is not a finite number",
        ),
    ],
    ids=["year", "number", "finite"],
)
def test_line_numbers_count_lines_of_the_file_not_records(tmp_path, text, message):
    # A quoted cell spanning two lines comes first, so the bad record is
    # the third one but starts on line 4.
    path = tmp_path / "spanning.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(PcrError) as excinfo:
        load_table(path)
    assert str(excinfo.value) == f"line 4: {message}"


@pytest.mark.parametrize("header, shift", [("year,IY,A", 0), ('year,IY,"A\nB"', 1)],
                         ids=["plain-header", "spanning-header"])
@pytest.mark.parametrize(
    "rows, line, message",
    [
        (["2000,1,2", "2001,x,3", "2002,4"], 3, "column 'IY': 'x' is not a number"),
        (["2000,1,2", "20x1,x,3"], 3, "year '20x1' is not a 64-bit integer"),
        (["2000,1,nan", "2001,x,3"], 3, "column 'IY': 'x' is not a number"),
        (["2000,1,nan", "2001,2,3", "2002,4"], 4, "expected 3 fields, got 2"),
    ],
    ids=["number-before-short-row", "year-before-number", "number-after-nan",
         "short-row-after-nan"],
)
def test_the_first_defect_in_reading_order_is_reported(tmp_path, header, shift, rows,
                                                        line, message):
    # Field counts, the year and then each cell are checked row by row; a
    # cell that parses is checked for finiteness only once every cell has.
    path = tmp_path / "defects.csv"
    path.write_text("\n".join((header, *rows, "")), encoding="utf-8")
    with pytest.raises(PcrError) as excinfo:
        load_table(path)
    assert str(excinfo.value) == f"line {line + shift}: {message}"


def test_report_onto_a_directory_names_the_path_and_the_cause(tmp_path):
    taken = tmp_path / "report.txt"
    taken.mkdir()
    with pytest.raises(PcrError) as excinfo:
        emit_report(Report(), tmp_path)
    cause = f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {str(taken)!r}"
    assert str(excinfo.value) == f"cannot write {taken}: {cause}"
