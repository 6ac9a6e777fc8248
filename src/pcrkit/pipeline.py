"""End-to-end driver: load, difference, correlate, extract, regress, emit.

``run_pipeline`` strings the library operations together in the order
the analysis dictates and returns a :class:`Report` holding every
intermediate product.  A failure in any stage raises
:class:`~pcrkit.errors.StageError` tagged with the stage name; the
partially filled report rides along on the error so a driver can still
write out whatever completed.

Reports are rendered deterministically: no timestamps, no environment
echoes, floats serialized by ``repr`` (shortest round-trip form).  Two
runs over the same inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import io
import itertools
import operator
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .errors import PcrError, StageError
from .fixtures import load_fixture, published_correlations
from .pca import (
    VARIMAX_TOL,
    PcaSolution,
    check_components,
    component_scores,
    extract,
    kaiser_count,
    rotate_varimax,
    score_weights,
)
from .preprocess import (
    DIFFERENCE_MODES,
    CorrelationMatrix,
    TimeSeriesTable,
    correlation_matrix,
    difference,
    scatter_pairs,
    standardize,
    vif,
)
from .regression import OlsFit, PricePath, fit_ols, fit_pcr, reconstruct_prices

ROTATION_MODES = ("varimax", "none")
REPORT_FORMATS = ("text", "delim")


@dataclass
class RunConfig:
    """Everything a pipeline run needs to know.

    Exactly one of ``input_path`` and ``fixture`` must be set.  With a
    fixture the pipeline runs matrix-only: no differencing, no scores,
    no regression, just extraction, rotation and weights from the
    bundled correlation matrix.  ``response`` is the variable the run
    keeps out of the predictors and, on a table, regresses on them; the
    run checks it against the names it reads.
    """

    input_path: str | Path | None = None
    fixture: str | None = None
    response: str = "IY"
    diff: str = "absolute"
    components: int | str = "auto"
    rotation: str = "varimax"

    @property
    def mode(self) -> str | None:
        """``matrix`` with a fixture, ``table`` with a file, ``None`` with both or neither."""
        if (self.input_path is None) == (self.fixture is None):
            return None
        return "table" if self.fixture is None else "matrix"

    def validate(self) -> None:
        if self.mode is None:
            raise PcrError("exactly one of input_path and fixture must be set")
        if self.diff not in DIFFERENCE_MODES:
            raise PcrError(f"diff must be one of {DIFFERENCE_MODES}, got {self.diff!r}")
        if self.rotation not in ROTATION_MODES:
            raise PcrError(f"rotation must be one of {ROTATION_MODES}, got {self.rotation!r}")
        check_components(self.components)


@dataclass
class Report:
    """Accumulated products of a pipeline run, filled stage by stage.

    ``config`` is the configuration the run used; the report echoes it.
    ``increments`` is the differenced table of a table run, once its
    correlation matrix exists: it gives the report its years, the price
    path included, and the scatter file its columns.
    """

    config: RunConfig = field(default_factory=RunConfig)
    names: tuple[str, ...] = ()
    increments: TimeSeriesTable | None = None
    correlation: CorrelationMatrix | None = None
    vif: dict[str, float] | None = None
    baseline: OlsFit | None = None
    baseline_error: str | None = None
    solution: PcaSolution | None = None
    scores: np.ndarray | None = None
    pcr: OlsFit | None = None
    prices: PricePath | None = None
    failure: tuple[str, str] | None = None

    @property
    def mode(self) -> str | None:
        """The mode of the run's config: ``matrix``, ``table`` or ``None``."""
        return self.config.mode

    @property
    def weights(self) -> SimpleNamespace:
        """``score_weights(solution)`` as ``.weights``; only bench/test_bench.py reads it."""
        return SimpleNamespace(weights=score_weights(self.solution))


def load_table(path) -> TimeSeriesTable:
    """Read a delimited yearly table.

    Expected layout: a header ``year,<name>,...`` followed by one row
    per year, comma-separated, UTF-8 with or without a byte-order mark,
    lines ended by LF, CRLF or CR.
    One loop reads each data row in file order: its field count, its
    cells stripped (padding that ``float()`` rejects, ``\\x1c`` to
    ``\\x1f``, is read too), a 64-bit integer year, float values.  Then
    every value must be finite.  The first defect raises a
    :class:`PcrError` whose message starts ``line N: ``, N the line its
    record starts on.
    Gaps or repeats in the years and repeated or empty names are
    rejected by :class:`TimeSeriesTable`, whose message names them.
    An unreadable ``path``, or one of any other type, raises a :class:`PcrError` naming it.
    """
    try:
        path = Path(path)
        text = path.read_bytes().decode("utf-8-sig")
    except (TypeError, ValueError, OSError) as err:
        raise PcrError(f"cannot read {path}: {err}") from err
    # Untranslated line ends, as the csv module requires: a quoted CR or
    # LF stays in its cell, and CR, LF and CRLF each end a line.
    reader = csv.reader(io.StringIO(text, newline=""))
    # records[k] starts on line starts[k]: a quoted cell may span lines,
    # so records and lines differ.
    records, starts = [], [1]
    try:
        for record in reader:
            records.append(record)
            starts.append(reader.line_num + 1)
    except csv.Error as err:
        raise PcrError(f"line {reader.line_num}: {err}") from err
    while records and not "".join(records[-1]).strip():
        records.pop()
    if not records:
        raise PcrError(f"{path} is empty")
    header = [cell.strip() for cell in records[0]]
    if not header or header[0] != "year":
        raise PcrError("line 1: first header column must be 'year'")
    names = tuple(header[1:])
    if not names:
        raise PcrError("line 1: header has no data columns")
    rows, lines = records[1:], starts[1:]
    if not rows:
        raise PcrError(f"{path} has a header but no data rows")
    years, flat = [], []
    for record, line in zip(rows, lines):
        if len(record) != len(header):
            raise PcrError(f"line {line}: expected {len(header)} fields, got {len(record)}")
        year, *cells = map(str.strip, record)
        try:
            years.append(np.int64(int(year)))
        except (ValueError, OverflowError) as err:
            raise PcrError(f"line {line}: year {year!r} is not a 64-bit integer") from err
        try:
            flat.extend(map(float, cells))
        except ValueError:
            for name, cell in zip(names, cells):
                try:
                    float(cell)
                except ValueError as err:
                    raise PcrError(
                        f"line {line}: column {name!r}: {cell!r} is not a number"
                    ) from err
    values = np.array(flat, dtype=np.float64).reshape(len(rows), len(names))
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        i, j = bad[0]
        raise PcrError(
            f"line {lines[i]}: column {names[j]!r}: {rows[i][j + 1].strip()!r} "
            "is not a finite number"
        )
    return TimeSeriesTable(years=years, names=names, values=values)


def write_table(table: TimeSeriesTable, path) -> Path:
    """Serialize a table back to the delimited layout, full precision.

    Names are quoted by ``_csv_field``; years and floats, written with
    ``repr``, never need quoting.  ``load_table`` of the file returns the
    same names, years and value bits whenever no name has leading or
    trailing whitespace, which ``load_table`` strips; a name may hold
    commas, quotes, CR and LF.  An unwritable ``path``, or one of any
    other type, raises a :class:`PcrError` naming it.
    """
    header = ",".join(_csv_field(name) for name in ("year", *table.names))
    rows = (
        f"{year},{','.join(map(repr, row))}\n"
        for year, row in zip(table.years.tolist(), table.values.tolist())
    )
    return _write(path, itertools.chain((f"{header}\n",), rows))


def run_pipeline(config: RunConfig) -> Report:
    """Execute the full analysis described by ``config``.

    Table mode: difference, standardize, correlate, take the VIF and the
    component spectrum from one thin SVD of the standardized predictors,
    extract and rotate components, score, regress the response increment
    on the scores, rebuild the price path from the fitted increments.
    The report keeps the increments for the scatter file.  Matrix mode
    (fixture input): extraction and rotation only.  The report keeps the
    solution and no score weights: ``score_weights(report.solution)``
    gives them, and the renderers call it.

    The raw-variable baseline regression is deliberately non-fatal: on
    strongly collinear data it is expected to fail, and its verbatim
    error message is part of the story the report tells.  Every other
    error aborts the run as a :class:`StageError` whose ``report``
    attribute carries all products of the stages that completed; an
    invalid ``config`` fails the input stage.
    """
    report = Report(config=config)
    stage = "input"
    try:
        config.validate()
        if report.mode == "matrix":
            correlation = load_fixture(config.fixture)
            names = correlation.names
        else:
            table = load_table(config.input_path)
            names = table.names
        if config.response not in names:
            raise PcrError(f"response column {config.response!r} not among {list(names)}")
        predictors = tuple(n for n in names if n != config.response)
        if not predictors:
            raise PcrError(
                f"{config.input_path} has no predictor columns besides the "
                f"response {config.response!r}"
            )
        report.names = names

        if report.mode == "table":
            stage = "preprocess"
            diffed = difference(table, config.diff)
            correlation = correlation_matrix(standardize(diffed))
            report.increments = diffed
        report.correlation = correlation

        stage = "pca"
        subset = correlation.submatrix(predictors)
        if report.mode == "table":
            report.vif = vif(subset)
        solution = extract(subset, config.components)
        if config.rotation == "varimax":
            solution = rotate_varimax(solution)
        report.solution = solution
        if report.mode == "matrix":
            return report
        report.scores = component_scores(subset.data, solution)

        stage = "regression"
        response_inc = diffed.column(config.response)
        # Keeps the table's C order, as values[:, idx] would not: the fit's bits follow it.
        predictor_values = np.delete(diffed.values, names.index(config.response), axis=1)
        try:
            report.baseline = fit_ols(predictor_values, response_inc, names=predictors)
        except PcrError as err:
            report.baseline_error = str(err)
        report.pcr = fit_pcr(report.scores, response_inc, solution.component_names)
        if config.diff == "absolute":
            base = float(table.column(config.response)[0])
            report.prices = reconstruct_prices(base, report.pcr.fitted)
    except PcrError as err:
        report.failure = (stage, str(err))
        raise StageError(stage, err, report) from err
    return report


# ---------------------------------------------------------------------------
# rendering


class _Table(NamedTuple):
    """A labelled grid of floats.

    Text prints a ``corner column...`` header and one ``label value...``
    line per row; CSV prints one ``section,label,column,value`` row per
    cell.
    """

    corner: str
    columns: tuple[str, ...]
    labels: Sequence[str]
    values: np.ndarray

    def rows(self):
        """Each row label with its cells in ``repr`` form.

        A square grid equal to its transpose bit for bit, such as a
        correlation matrix, formats its upper triangle and mirrors it.
        """
        values = np.asarray(self.values, dtype=np.float64)
        cells, bits = values.tolist(), values.view(np.uint64)
        if np.array_equal(bits, bits.T):
            upper = [[repr(v) for v in row[i:]] for i, row in enumerate(cells)]
            text = [[upper[k][i - k] for k in range(i)] + upper[i] for i in range(len(upper))]
        else:
            text = [[repr(v) for v in row] for row in cells]
        return zip(self.labels, text, strict=True)


class _Line(NamedTuple):
    """One text line and one ``key,field,value`` CSV row for the same fact.

    Either is ``None`` where only one layout carries the fact.
    """

    text: str | None
    row: tuple[str, str, str] | None


def _reprs(values) -> list[str]:
    return [repr(v) for v in np.asarray(values, dtype=np.float64).tolist()]


def _sequence(values: Sequence[str]) -> list[_Line]:
    """One space-joined text line; one CSV row per value, keyed 1..n."""
    return [
        _Line(" ".join(values), None),
        *(_Line(None, (str(i), "", v)) for i, v in enumerate(values, start=1)),
    ]


def _fit_lines(fit: OlsFit) -> list[_Line]:
    intercept, r_squared, residual_se = _reprs(
        (fit.intercept, fit.r_squared, fit.residual_se)
    )
    return [
        _Line(f"intercept {intercept}", ("intercept", "", intercept)),
        *(
            _Line(f"{name} {coef}", ("coefficient", name, coef))
            for name, coef in zip(fit.predictor_names, _reprs(fit.coefficients))
        ),
        _Line(f"r_squared {r_squared}", ("r_squared", "", r_squared)),
        _Line(f"residual_se {residual_se}", ("residual_se", "", residual_se)),
    ]


def _sections(report: Report):
    """Yield ``(text title, CSV section, items)`` in output order.

    This is the only description of the report; the text and CSV
    renderers lay the same items out in their own way.
    """
    config = report.config
    requested = str(config.components)
    mode = report.mode
    source = f"file {config.input_path}" if mode == "table" else f"fixture {config.fixture}"
    run = {"source": source, "mode": mode} if mode is not None else {}
    run |= {
        "response": config.response,
        "difference": config.diff,
        "components": requested,
        "rotation": config.rotation,
        "scores": "regression",
    }
    yield "run", "run", [_Line(f"{k}: {v}", (k, "", v)) for k, v in run.items()]
    if report.names:
        yield "variables", "variables", _sequence(report.names)
    years = None
    if report.increments is not None:
        years = [str(y) for y in report.increments.years.tolist()]
        yield "years", "years", _sequence(years)
    if mode == "matrix" and report.correlation is not None:
        shift = repr(float(np.abs(report.correlation.values - published_correlations()).max()))
        yield "fixture adjustment", "fixture_adjustment", [
            _Line(f"max entry change after validity repair: {shift}", ("", "", shift))
        ]
    if report.correlation is not None:
        names = report.correlation.names
        yield "correlation", "correlation", [
            _Table("name", names, names, report.correlation.values)
        ]
    if report.vif is not None:
        yield "vif", "vif", [
            _Line(f"{name} {value}", (name, "", value))
            for name, value in zip(report.vif, _reprs(list(report.vif.values())))
        ]
    if report.baseline_error is not None:
        error = report.baseline_error
        yield "baseline ols", "baseline", [_Line(f"error: {error}", ("error", "", error))]
    elif report.baseline is not None:
        yield "baseline ols", "baseline", _fit_lines(report.baseline)

    solution = report.solution
    if solution is not None:
        k = solution.n_components
        pc = tuple(f"PC{j + 1}" for j in range(k))
        rc = solution.component_names
        rotated = solution.rotated_loadings is not None
        share = ("proportion", "cumulative")
        yield "eigenvalues", "eigenvalues", _sequence(_reprs(solution.eigenvalues))
        kaiser = kaiser_count(solution.eigenvalues) if requested == "auto" else k
        capped = f"kaiser rule kept {kaiser}; capped at {k}"
        yield "retention", "retention", [
            _Line(f"retained {k} of {solution.p} components ({requested})", None),
            _Line(None, ("requested", "", requested)),
            _Line(None, ("kept", "", str(k))),
            *([_Line(capped, ("kaiser", "capped", str(kaiser)))] if kaiser > k else []),
        ]
        if rotated and solution.last_sweep_angle > VARIMAX_TOL:
            sweeps, angle = str(solution.rotation_sweeps), repr(solution.last_sweep_angle)
            stopped = f"varimax stopped after {sweeps} sweeps; last sweep turned {angle} rad"
            yield "rotation", "rotation", [_Line(stopped, ("stopped", sweeps, angle))]
        yield "proportion of variance", "proportion", [
            _Table("component", share, pc, np.column_stack(
                (solution.proportion, np.cumsum(solution.proportion))))
        ]
        if rotated:
            yield "rotated proportion of variance", "rotated_proportion", [
                _Table("component", share, rc, np.column_stack(
                    (solution.rotated_proportion, np.cumsum(solution.rotated_proportion))))
            ]
        yield "loadings", "loadings", [
            _Table("name", pc, solution.names, solution.loadings)
        ]
        if rotated:
            yield "rotated loadings", "rotated_loadings", [
                _Table("name", rc, solution.names, solution.rotated_loadings)
            ]
        yield "communality", "communality", [
            _Table("name", ("h2", "u2"), solution.names, np.column_stack(
                (solution.communality, 1.0 - solution.communality)))
        ]
        yield "score weights", "score_weights", [
            _Table("name", rc, solution.names, score_weights(solution))
        ]
        if report.scores is not None and years is not None:
            yield "component scores", "scores", [
                _Table("year", rc, years, report.scores)
            ]
    if report.pcr is not None:
        yield "pcr", "pcr", _fit_lines(report.pcr)
    if report.prices is not None:
        base = repr(float(report.prices.base))
        yield "price path", "prices", [
            _Line(f"base {base}", ("base", "", base)),
            _Line("year level", None),
            *(
                _Line(f"{year} {level}", ("level", year, level))
                for year, level in zip(years, _reprs(report.prices.levels))
            ),
        ]
    elif report.pcr is not None and config.diff != "absolute":
        note = (
            f"price path omitted: {config.diff!r} increments are not "
            "additive differences of levels"
        )
        yield "price path", "prices", [_Line(note, ("note", "", note))]
    if report.failure is not None:
        stage, message = report.failure
        yield "failure", "failure", [
            _Line(f"stage: {stage}", (stage, "", message)),
            _Line(f"error: {message}", None),
        ]


def render_report(report: Report, format: str = "text") -> str:
    """Render the report in ``format``: ``text`` or ``delim`` (CSV)."""
    if format not in REPORT_FORMATS:
        raise PcrError(f"format must be one of {REPORT_FORMATS}, got {format!r}")
    if format == "text":
        return render_report_text(report)
    return render_report_delim(report)


def render_report_text(report: Report) -> str:
    """Render the report to the human-readable text layout."""
    title = "principal-components regression report"
    lines = [title, "=" * len(title)]
    for heading, _, items in _sections(report):
        lines += ("", f"[{heading}]")
        for item in items:
            if isinstance(item, _Table):
                lines.append(" ".join((item.corner, *item.columns)))
                lines += (f"{label} {' '.join(cells)}" for label, cells in item.rows())
            elif item.text is not None:
                lines.append(item.text)
    lines.append("")
    return "\n".join(lines)


def render_report_delim(report: Report) -> str:
    """Render the report as flat ``section,key,field,value`` CSV rows."""
    lines = ["section,key,field,value"]
    for _, section, items in _sections(report):
        for item in items:
            if isinstance(item, _Table):
                # Float reprs never need quoting: each row is one join.
                columns = [f"{_csv_field(column)}," for column in item.columns]
                for label, cells in item.rows():
                    lead = f"{section},{_csv_field(label)},"
                    lines.append(lead + f"\n{lead}".join(map(operator.add, columns, cells)))
            elif item.row is not None:
                lines.append(",".join(map(_csv_field, (section, *item.row))))
    lines.append("")
    return "\n".join(lines)


def _csv_field(text: str) -> str:
    """``text`` as one CSV field (RFC 4180): quoted, its quotes doubled,
    only if it holds a comma, a quote, CR or LF."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _scatter_parts(table: TimeSeriesTable) -> Iterator[str]:
    """The scatter file of ``table`` as CSV, one piece per pair.

    One ``x_name,y_name,year,x,y`` row per increment and pair, led by
    the quoted names.  Each column is formatted once and its x cells and
    y cells are built once, so the p+1 columns that all pairs share cost
    O(p*n) formatting, not O(p^2*n).  Each pair's rows are one join over
    a list that slice assignment fills with those cells, so no row
    becomes a string of its own.
    """
    names, n = table.names, table.n_years
    quoted = [_csv_field(name) for name in names]
    years = [str(y) for y in table.years.tolist()]
    columns = [[repr(v) for v in column] for column in table.values.T.tolist()]
    xs = [[f"{year},{x}," for year, x in zip(years, column)] for column in columns]
    ys = [[f"{y}\n" for y in column] for column in columns]
    yield "x_name,y_name,year,x,y\n"
    for i, j in scatter_pairs(names):
        parts = [f"{quoted[i]},{quoted[j]},"] * (3 * n)
        parts[1::3], parts[2::3] = xs[i], ys[j]
        yield "".join(parts)


def _write(path, parts: Iterable[str]) -> Path:
    try:
        path = Path(path)
        # A 1 MiB buffer sends a wide scatter file (6.9 MB at p = 60) to the
        # system in a few writes instead of one per default 8 KiB buffer.
        with open(path, "w", buffering=1 << 20, encoding="utf-8", newline="") as file:
            file.writelines(parts)
    except (TypeError, ValueError, OSError) as err:
        raise PcrError(f"cannot write {path}: {err}") from err
    return path


def emit_report(report: Report, out_dir, format: str = "text") -> tuple[Path, ...]:
    """Write the report, and a table run's scatter pairs, under ``out_dir``.

    ``format`` picks the report alone: ``report.txt`` for ``text``,
    ``report.csv`` for ``delim``.  A table run also writes
    ``scatter_pairs.csv``, pair by pair, never held whole in memory;
    matrix-only runs have no observations and write none.  Returns the
    paths written; any filesystem problem, or an ``out_dir`` of any other
    type than a path, raises a :class:`~pcrkit.errors.PcrError` naming it.
    """
    content = render_report(report, format)
    try:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    except (TypeError, ValueError, OSError) as err:
        raise PcrError(f"cannot write {out_dir}: {err}") from err
    suffix = "txt" if format == "text" else "csv"
    written = [_write(out_dir / f"report.{suffix}", (content,))]
    if report.increments is not None:
        written.append(_write(out_dir / "scatter_pairs.csv", _scatter_parts(report.increments)))
    return tuple(written)
