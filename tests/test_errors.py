"""The text of every error the package raises, pinned call by call.

Each case drives one public call into one failure and asserts the whole
message, which is all a caller (and the command line, after its
``[stage]`` prefix) ever sees.  Every error is a ``PcrError``; the
message alone names the cause.  One message ends in a float that the
eigensolver computes, so that case pins the text up to that number and
checks the number separately.
"""

import errno
import os
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from pcrkit.errors import PcrError, StageError
from pcrkit.fixtures import load_fixture
from pcrkit.linalg import solve_least_squares
from pcrkit.pca import component_scores, extract
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
    "non-finite-base": (
        lambda: reconstruct_prices(np.inf, [1.0, 2.0]),
        "non-finite entry in base level at index (0,)",
    ),
    "response-shape": (
        lambda: fit_ols(np.ones((3, 2)), np.ones(4), names=("a", "b")),
        "response vector: expected shape (3,), got (4,)",
    ),
    # A response column, not a vector, once escaped as a bare TypeError.
    "response-column": (
        lambda: fit_ols(np.arange(4.0)[:, None], np.arange(4.0)[:, None], names=("x",)),
        "response vector: expected shape (4,), got (4, 1)",
    ),
    "design-rank": (
        lambda: fit_ols(np.ones((4, 1, 1)), np.ones(4), names=("x",)),
        "predictors: expected shape (n, p), got (4, 1, 1)",
    ),
    "design-one-dimensional": (
        lambda: fit_ols(np.arange(4.0), np.arange(4.0), names=("x",)),
        "predictors: expected shape (n, p), got (4,)",
    ),
    "design-wide": (
        lambda: fit_ols(np.ones((2, 3)), np.ones(2), names=("a", "b", "c")),
        "ols with 3 predictors needs at least 5 observations, got 2",
    ),
    "design-names": (
        lambda: fit_ols(np.arange(4.0)[:, None], np.ones(4), names=("a", "b")),
        "2 names for 1 predictors",
    ),
    # 2**-1029 is the exact pivot; the coefficient beyond it overflows.
    # fit_ols scales every column into [0.5, 1), where no pivot is that
    # small, so the solver is called with such a design directly.
    "coefficient-overflow": (
        lambda: solve_least_squares(
            np.array([[1.0, -(2.0**-1030)], [1.0, 2.0**-1030]] * 2),
            np.array([0.0, 1.0] * 2),
            names=("i", "x"),
        ),
        "least-squares coefficient of column 1 (x) is not finite: dividing by its "
        "pivot -1.73833895195875e-310 overflows",
    ),
    "increments-shape": (
        lambda: reconstruct_prices(0.0, np.ones((2, 2))),
        "increments: expected shape (n,), got (2, 2)",
    ),
    # Outside numbers are read in one place, ``as_checked_array``: complex
    # input once lost its imaginary part with a ComplexWarning, and text
    # that is not a number escaped as a bare ValueError.
    "predictors-complex": (
        lambda: fit_ols(np.arange(5.0)[:, None] + 0j, np.arange(5.0) ** 2, names=("x",)),
        "predictors must be real, got complex128",
    ),
    "response-text": (
        lambda: fit_ols(np.arange(5.0)[:, None], ["a"] * 5, names=("x",)),
        "cannot read response as numbers: could not convert string to float: 'a'",
    ),
    "increments-text": (
        lambda: reconstruct_prices(1.0, ["x"]),
        "cannot read increments as numbers: could not convert string to float: 'x'",
    ),
    # A base of more than one number once escaped as a bare TypeError.
    "base-shape": (
        lambda: reconstruct_prices(np.array([1.0, 2.0]), [1.0, 2.0]),
        "base level: expected one number, got shape (2,)",
    ),
    "base-text": (
        lambda: reconstruct_prices("x", [1.0]),
        "cannot read base level as numbers: could not convert string to float: 'x'",
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
    "names-not-text": (
        lambda: table(np.ones((3, 2)), names=(1, 2)),
        "column name 1 of 2 is int, not str",
    ),
    "duplicate-names": (
        lambda: table(np.ones((3, 3)), names=("IY", "A", "A")),
        "duplicate column name 'A'",
    ),
    "values-complex": (
        lambda: TimeSeriesTable([2000, 2001, 2002], NAMES, np.ones((3, 2)) + 0j),
        "table values must be real, got complex128",
    ),
    "values-text": (
        lambda: TimeSeriesTable([2000, 2001], ("IY",), [["1"], ["x"]]),
        "cannot read table values as numbers: could not convert string to float: 'x'",
    ),
    # Years are read from integer, float, object and numeric-text arrays alone.
    "years-complex": (
        lambda: TimeSeriesTable(np.array([2000, 2001]) + 0j, ("IY",), [[1.0], [2.0]]),
        "cannot read years of dtype complex128",
    ),
    "years-bool": (
        lambda: TimeSeriesTable([False, True], ("IY",), [[1.0], [2.0]]),
        "cannot read years of dtype bool",
    ),
    "years-datetime": (
        lambda: TimeSeriesTable(
            np.array(["2000", "2001"], dtype="datetime64[Y]"), ("IY",), [[1.0], [2.0]]
        ),
        "cannot read years of dtype datetime64[Y]",
    ),
    "years-none": (
        lambda: TimeSeriesTable(np.array([2000, None]), ("IY",), [[1.0], [2.0]]),
        "cannot read years as whole numbers: '>=' not supported between instances of "
        "'NoneType' and 'int'",
    ),
    "years-gap": (
        lambda: table(np.ones((3, 2)), years=[2000, 2001, 2003]),
        "years must be consecutive: 2001 is followed by 2003",
    ),
    # Whole-valued float years are read as integers; others are not truncated.
    "years-fractional": (
        lambda: table(np.ones((3, 2)), years=[1990.5, 1991.5, 1992.5]),
        "year 1990.5 is not a whole number",
    ),
    "years-fractional-later": (
        lambda: table(np.ones((3, 2)), years=np.array([2000.0, 2001.25, 2002.0])),
        "year 2001.25 is not a whole number",
    ),
    "years-object-fractional": (
        lambda: table(np.ones((2, 2)), years=np.array([2000.5, 2001.5], dtype=object)),
        "year 2000.5 is not a whole number",
    ),
    "years-fraction": (
        lambda: table(np.ones((2, 2)), years=[Fraction(4001, 2), Fraction(4003, 2)]),
        "year Fraction(4001, 2) is not a whole number",
    ),
    # A year outside int64 is named, never wrapped by the cast.
    "years-float-beyond-64-bits": (
        lambda: table(np.ones((1, 2)), years=[1e19]),
        "year 1e+19 is not a 64-bit integer",
    ),
    "years-uint64-beyond-64-bits": (
        lambda: table(np.ones((2, 2)), years=np.array([2**63, 2**63 + 1], dtype=np.uint64)),
        "year 9223372036854775808 is not a 64-bit integer",
    ),
    # numpy reads this list as float64, so its first year is already 2**63.
    "years-list-beyond-64-bits": (
        lambda: table(np.ones((2, 2)), years=[2**63 - 1, 2**63]),
        "year 9.223372036854776e+18 is not a 64-bit integer",
    ),
    "years-object-beyond-64-bits": (
        lambda: table(np.ones((2, 2)), years=np.array([2**64, 2**64 + 1], dtype=object)),
        "year 18446744073709551616 is not a 64-bit integer",
    ),
    # Beyond float range too: the range test comes before any float conversion.
    "years-object-beyond-floats": (
        lambda: table(np.ones((2, 2)), years=np.array([10**400, 10**400 + 1], dtype=object)),
        f"year {10**400} is not a 64-bit integer",
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
    "non-square": (
        lambda: CorrelationMatrix(("a", "b"), np.zeros((2, 3))),
        "expected a square 2-d matrix, got shape (2, 3)",
    ),
    "asymmetric": (
        lambda: CorrelationMatrix(("a", "b"), [[1.0, 0.5], [0.2, 1.0]]),
        "matrix is not symmetric: |a[0,1] - a[1,0]| = 0.3",
    ),
    "non-finite-matrix": (
        lambda: CorrelationMatrix(("a", "b"), [[1.0, 0.0], [np.nan, 1.0]]),
        "non-finite entry in correlation matrix at index (1, 0)",
    ),
    "infinite-matrix": (
        lambda: CorrelationMatrix(("a", "b"), [[np.inf, 0.0], [0.0, 1.0]]),
        "non-finite entry in correlation matrix at index (0, 0)",
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
    "matrix-names-not-text": (
        lambda: CorrelationMatrix(("a", 2), np.eye(2)),
        "column name 2 of 2 is int, not str",
    ),
    "matrix-duplicate-names": (
        lambda: CorrelationMatrix(("a", "a"), [[1.0, 0.5], [0.5, 1.0]]),
        "duplicate column name 'a'",
    ),
    "matrix-text": (
        lambda: CorrelationMatrix(("a", "b"), [["1", "x"], ["x", "1"]]),
        "cannot read correlation matrix as numbers: could not convert string to float: 'x'",
    ),
    "out-of-range": (
        lambda: CorrelationMatrix(("a", "b"), [[1.0, 1.5], [1.5, 1.0]]),
        "correlation out of [-1, 1] at (a, b): 1.5",
    ),
    # A matrix takes names and bare values, or data alone: the data's
    # columns are its names, so names given beside data are refused
    # whether or not they match.
    "data-names": (
        lambda: CorrelationMatrix(("a", "b"), data=table(np.zeros((3, 2)), names=("b", "a"))),
        "a correlation matrix takes names and values, or data alone",
    ),
    "names-with-data": (
        lambda: CorrelationMatrix(("a", "b"), data=table(np.zeros((3, 2)), names=("a", "b"))),
        "a correlation matrix takes names and values, or data alone",
    ),
    "values-and-data": (
        lambda: CorrelationMatrix(
            ("a", "b"), np.eye(2), data=table(np.zeros((3, 2)), names=("a", "b"))
        ),
        "a correlation matrix takes names and values, or data alone",
    ),
    "values-without-names": (
        lambda: CorrelationMatrix(values=np.eye(2)),
        "a correlation matrix takes names and values, or data alone",
    ),
    "no-source": (
        lambda: CorrelationMatrix(("a", "b")),
        "a correlation matrix takes names and values, or data alone",
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
    # ``extract`` applies the count rule of ``RunConfig``; an integer
    # count outside [1, L] keeps the range message above.
    "count-float": (
        lambda: extract(EQUICORRELATED, 2.7),
        'components must be "auto" or a positive integer, got 2.7',
    ),
    "count-bool": (
        lambda: extract(EQUICORRELATED, True),
        'components must be "auto" or a positive integer, got True',
    ),
    "count-numpy-bool": (
        lambda: extract(EQUICORRELATED, np.True_),
        f'components must be "auto" or a positive integer, got {np.True_!r}',
    ),
    "count-digit-string": (
        lambda: extract(EQUICORRELATED, "2"),
        'components must be "auto" or a positive integer, got \'2\'',
    ),
    "count-word": (
        lambda: extract(EQUICORRELATED, "x"),
        'components must be "auto" or a positive integer, got \'x\'',
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
            TWO_COMPONENTS,
        ),
        "variable names do not match: missing ['c'], extra ['d']",
    ),
    # regression
    "ols-rows": (
        lambda: fit_ols(np.ones((3, 2)), np.ones(3), names=("a", "b")),
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
    # Any integral type counts, numpy's too, but not numpy's bool.
    "config-components-numpy-bool": (
        lambda: RunConfig(fixture="fig3", components=np.True_).validate(),
        f'components must be "auto" or a positive integer, got {np.True_!r}',
    ),
    "config-components-numpy-zero": (
        lambda: RunConfig(fixture="fig3", components=np.int64(0)).validate(),
        f'components must be "auto" or a positive integer, got {np.int64(0)!r}',
    ),
    "config-components-float": (
        lambda: RunConfig(fixture="fig3", components=2.0).validate(),
        'components must be "auto" or a positive integer, got 2.0',
    ),
    "config-components-numpy-float": (
        lambda: RunConfig(fixture="fig3", components=np.float64(2.0)).validate(),
        f'components must be "auto" or a positive integer, got {np.float64(2.0)!r}',
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


def test_unreadable_year_is_named():
    # numpy 2 shows the text as np.str_('x'); the cause is int()'s own.
    with pytest.raises(PcrError) as excinfo:
        TimeSeriesTable(["1", "x"], ("IY",), [[1.0], [2.0]])
    assert re.fullmatch(
        r"cannot read years as whole numbers: invalid literal for int\(\) with base 10: "
        r"(np\.str_\('x'\)|'x')",
        str(excinfo.value),
    )


def test_decimal_nan_year_is_a_pcr_error():
    # A quiet decimal NaN raises InvalidOperation, not TypeError, when compared.
    with pytest.raises(PcrError, match="^cannot read years as whole numbers: "):
        TimeSeriesTable(np.array([Decimal("NaN"), Decimal(1)]), ("IY",), [[1.0], [2.0]])


def test_numeric_text_still_reads():
    t = TimeSeriesTable(["2000", "2001"], ("IY",), [["1.5"], [" 2 "]])
    assert t.years.tolist() == [2000, 2001] and t.values.tolist() == [[1.5], [2.0]]
    assert reconstruct_prices("1.5", ["1"]).levels.tolist() == [2.5]


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
        (["2000,\x1c1\x1f,2", "2001,2,3", "2002,x,3"], 4, "column 'IY': 'x' is not a number"),
        (["2000,1,2", "2001,\x1cx\x1f,3"], 3, "column 'IY': 'x' is not a number"),
    ],
    ids=["number-before-short-row", "year-before-number", "number-after-nan",
         "short-row-after-nan", "number-after-padded-row", "padded-number"],
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


def test_a_year_beyond_64_bits_names_its_line(tmp_path):
    path = tmp_path / "years.csv"
    path.write_text("year,IY\n2000,1\n99999999999999999999,2\n", encoding="utf-8")
    with pytest.raises(PcrError) as excinfo:
        load_table(path)
    assert str(excinfo.value) == "line 3: year '99999999999999999999' is not a 64-bit integer"


def test_report_onto_a_directory_names_the_path_and_the_cause(tmp_path):
    taken = tmp_path / "report.txt"
    taken.mkdir()
    with pytest.raises(PcrError) as excinfo:
        emit_report(Report(), tmp_path)
    cause = f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {str(taken)!r}"
    assert str(excinfo.value) == f"cannot write {taken}: {cause}"
