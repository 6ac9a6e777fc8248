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
import operator
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigError,
    OutputError,
    PcrError,
    StageError,
    TableFormatError,
)
from .fixtures import load_fixture
from .pca import (
    PcaSolution,
    ScoreWeights,
    component_scores,
    extract,
    rotate_varimax,
    score_weights,
)
from .preprocess import (
    DIFFERENCE_MODES,
    CorrelationMatrix,
    ScatterPair,
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
    bundled correlation matrix.
    """

    input_path: str | Path | None = None
    fixture: str | None = None
    response: str = "IY"
    diff: str = "absolute"
    components: int | str = "auto"
    rotation: str = "varimax"

    def validate(self) -> None:
        if (self.input_path is None) == (self.fixture is None):
            raise ConfigError("exactly one of input_path and fixture must be set")
        if self.diff not in DIFFERENCE_MODES:
            raise ConfigError(
                f"diff must be one of {DIFFERENCE_MODES}, got {self.diff!r}"
            )
        if self.rotation not in ROTATION_MODES:
            raise ConfigError(
                f"rotation must be one of {ROTATION_MODES}, got {self.rotation!r}"
            )
        if self.components != "auto":
            if not isinstance(self.components, int) or self.components < 1:
                raise ConfigError(
                    f'components must be "auto" or a positive integer, '
                    f"got {self.components!r}"
                )


@dataclass
class Report:
    """Accumulated products of a pipeline run, filled stage by stage.

    ``config`` is the configuration the run used; the report echoes it.
    """

    config: RunConfig = field(default_factory=RunConfig)
    source: str = ""
    mode: str = ""
    names: tuple[str, ...] = ()
    predictor_names: tuple[str, ...] = ()
    years: np.ndarray | None = None
    fixture_adjustment: float | None = None
    correlation: CorrelationMatrix | None = None
    vif: dict[str, float] | None = None
    baseline: OlsFit | None = None
    baseline_error: str | None = None
    solution: PcaSolution | None = None
    weights: ScoreWeights | None = None
    scores: np.ndarray | None = None
    pcr: OlsFit | None = None
    prices: PricePath | None = None
    price_note: str | None = None
    scatter: tuple[ScatterPair, ...] = ()
    failure: tuple[str, str] | None = None


def load_table(path, response: str = "IY") -> TimeSeriesTable:
    """Read a delimited yearly table.

    Expected layout: a header ``year,<name>,...`` followed by one row
    per year, comma-separated, UTF-8 with or without a byte-order mark.
    Years must parse as 64-bit integers, values as floats; every
    structural defect raises :class:`TableFormatError` naming the line.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as err:
        raise TableFormatError(f"cannot read {path}: {err}") from err
    reader = csv.reader(io.StringIO(text))
    try:
        rows = list(reader)
    except csv.Error as err:
        raise TableFormatError(str(err), line=reader.line_num) from err
    while rows and all(cell.strip() == "" for cell in rows[-1]):
        rows.pop()
    if not rows:
        raise TableFormatError(f"{path} is empty")
    header = [cell.strip() for cell in rows[0]]
    if not header or header[0] != "year":
        raise TableFormatError("first header column must be 'year'", line=1)
    names = tuple(header[1:])
    if not names:
        raise TableFormatError("header has no data columns", line=1)
    if len(rows) < 2:
        raise TableFormatError(f"{path} has a header but no data rows")
    years = []
    values = []
    for i, row in enumerate(rows[1:], start=2):
        cells = [cell.strip() for cell in row]
        if len(cells) != len(header):
            raise TableFormatError(
                f"expected {len(header)} fields, got {len(cells)}", line=i
            )
        try:
            years.append(np.int64(int(cells[0])))
        except (ValueError, OverflowError) as err:
            raise TableFormatError(
                f"year {cells[0]!r} is not a 64-bit integer", line=i
            ) from err
        row_values = []
        for j, cell in enumerate(cells[1:]):
            try:
                row_values.append(float(cell))
            except ValueError as err:
                raise TableFormatError(
                    f"column {names[j]!r}: {cell!r} is not a number", line=i
                ) from err
        values.append(row_values)
    return TimeSeriesTable(
        years=np.asarray(years, dtype=np.int64),
        names=names,
        values=np.asarray(values, dtype=np.float64),
        response=response,
    )


def write_table(table: TimeSeriesTable, path) -> Path:
    """Serialize a table back to the delimited layout, full precision.

    Floats are written with ``repr`` so a load/write/load round trip
    reproduces every value bit for bit.
    """
    path = Path(path)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(("year",) + table.names)
    for i in range(table.n_years):
        writer.writerow(
            [str(int(table.years[i]))] + [repr(float(v)) for v in table.values[i]]
        )
    try:
        path.write_text(buffer.getvalue(), encoding="utf-8", newline="")
    except OSError as err:
        raise OutputError(str(path), str(err)) from err
    return path


def run_pipeline(config: RunConfig) -> Report:
    """Execute the full analysis described by ``config``.

    Table mode: difference, standardize, correlate, diagnose (VIF and
    scatter pairs), extract and rotate components, score, regress the
    response increment on the scores, rebuild the price path from the
    fitted increments.  Matrix mode (fixture input): extraction,
    rotation and weights only.

    The raw-variable baseline regression is deliberately non-fatal: on
    strongly collinear data it is expected to fail, and its verbatim
    error message is part of the story the report tells.  Every other
    error aborts the run as a :class:`StageError` whose ``report``
    attribute carries all products of the stages that completed.
    """
    config.validate()
    report = Report(config=config)
    stage = "input"
    try:
        if config.fixture is not None:
            report.source, report.mode = f"fixture {config.fixture}", "matrix"
            fixture = load_fixture(config.fixture)
            if config.response not in fixture.matrix.names:
                raise TableFormatError(
                    f"response {config.response!r} is not a fixture variable; "
                    f"available: {', '.join(fixture.matrix.names)}"
                )
            report.names = fixture.matrix.names
            report.fixture_adjustment = fixture.max_adjustment
            correlation = fixture.matrix
        else:
            report.source, report.mode = f"file {config.input_path}", "table"
            table = load_table(config.input_path, response=config.response)
            if not table.predictor_names:
                raise TableFormatError(
                    f"{config.input_path} has no predictor columns besides the "
                    f"response {config.response!r}"
                )
            report.names = table.names
        predictors = tuple(n for n in report.names if n != config.response)
        report.predictor_names = predictors

        if report.mode == "table":
            stage = "preprocess"
            diffed = difference(table, config.diff)
            z = standardize(diffed)
            correlation = correlation_matrix(z)
            report.years = diffed.years
            z = z.select(predictors)
            report.vif = vif(z)
            report.scatter = scatter_pairs(diffed)
        report.correlation = correlation

        stage = "pca"
        subset = correlation.submatrix(predictors)
        solution = extract(subset, config.components)
        if config.rotation == "varimax":
            solution = rotate_varimax(solution)
        report.solution = solution
        report.weights = score_weights(subset, solution)
        if report.mode == "matrix":
            return report
        report.scores = component_scores(z, report.weights)

        stage = "regression"
        response_inc = diffed.column(config.response)
        predictor_values = np.column_stack([diffed.column(n) for n in predictors])
        try:
            report.baseline = fit_ols(
                predictor_values, response_inc, names=predictors
            )
        except PcrError as err:
            report.baseline_error = str(err)
        report.pcr = fit_pcr(
            report.scores, response_inc, report.weights.component_names
        )
        if config.diff == "absolute":
            base = float(table.column(config.response)[0])
            report.prices = reconstruct_prices(
                base, report.pcr.fitted, years=diffed.years
            )
        else:
            report.price_note = (
                f"price path omitted: {config.diff!r} increments are not "
                "additive differences of levels"
            )
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
        """Each row label with its cells in ``repr`` form."""
        cells = np.asarray(self.values, dtype=np.float64).tolist()
        return zip(self.labels, ([repr(v) for v in row] for row in cells), strict=True)


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
    run = {
        "source": report.source,
        "mode": report.mode,
        "response": config.response,
        "difference": config.diff,
        "components": requested,
        "rotation": config.rotation,
        "scores": "regression",
    }
    yield "run", "run", [_Line(f"{k}: {v}", (k, "", v)) for k, v in run.items()]
    if report.names:
        yield "variables", "variables", _sequence(report.names)
    years = None if report.years is None else [str(int(y)) for y in report.years]
    if years is not None:
        yield "years", "years", _sequence(years)
    if report.fixture_adjustment is not None:
        shift = repr(float(report.fixture_adjustment))
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
        share = ("proportion", "cumulative")
        yield "eigenvalues", "eigenvalues", _sequence(_reprs(solution.eigenvalues))
        yield "retention", "retention", [
            _Line(f"retained {k} of {solution.p} components ({requested})", None),
            _Line(None, ("requested", "", requested)),
            _Line(None, ("kept", "", str(k))),
        ]
        yield "proportion of variance", "proportion", [
            _Table("component", share, pc, np.column_stack(
                (solution.proportion, solution.cumulative)))
        ]
        if solution.rotated_proportion is not None:
            yield "rotated proportion of variance", "rotated_proportion", [
                _Table("component", share, rc, np.column_stack(
                    (solution.rotated_proportion, solution.rotated_cumulative)))
            ]
        yield "loadings", "loadings", [
            _Table("name", pc, solution.names, solution.loadings)
        ]
        if solution.rotated_loadings is not None:
            yield "rotated loadings", "rotated_loadings", [
                _Table("name", rc, solution.names, solution.rotated_loadings)
            ]
        yield "communality", "communality", [
            _Table("name", ("h2", "u2"), solution.names, np.column_stack(
                (solution.communality, solution.uniqueness)))
        ]

    weights = report.weights
    if weights is not None:
        yield "score weights", "score_weights", [
            _Table("name", weights.component_names, weights.names, weights.weights)
        ]
    if report.scores is not None and years is not None:
        yield "component scores", "scores", [
            _Table("year", weights.component_names, years, report.scores)
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
                for year, level in zip(
                    (str(int(y)) for y in report.prices.years),
                    _reprs(report.prices.levels),
                )
            ),
        ]
    elif report.price_note is not None:
        note = report.price_note
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
        raise ConfigError(f"format must be one of {REPORT_FORMATS}, got {format!r}")
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
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(("section", "key", "field", "value"))
    for _, section, items in _sections(report):
        for item in items:
            if isinstance(item, _Table):
                # Values are float reprs, which never need quoting, so each
                # label and column is quoted once and each row is one join.
                columns = [f"{_csv_field(column)}," for column in item.columns]
                for label, cells in item.rows():
                    lead = f"{section},{_csv_field(label)},"
                    rows = f"\n{lead}".join(map(operator.add, columns, cells))
                    buffer.write(f"{lead}{rows}\n")
            elif item.row is not None:
                writer.writerow((section, *item.row))
    return buffer.getvalue()


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it in a row of several fields."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow((text, ""))
    return buffer.getvalue()[: -len(",\n")]


def _scatter_rows(report: Report, x_cells, y_cells):
    """Yield each scatter pair with its x cells and its y cells, equally many.

    ``x_cells(years, xs)`` turns the years and the ``repr`` strings of an
    x array into that array's x cells, ``y_cells(ys)`` the strings of a y
    array into its y cells.  Every distinct array goes through ``_reprs``
    once per render, both roles build their cells from that one list, and
    each role's cells are built once per array, so the p+1 columns that
    all pairs share cost O(p*n) formatting, not O(p^2*n).  The caches are
    keyed on the array object, never on the name, so a hand-built report
    whose pairs carry separate arrays still renders each pair's own
    values.  A pair whose arrays differ in length is cut to the shorter.
    """
    n = max((pair.x.shape[0] for pair in report.scatter), default=0)
    if report.years is None:
        years = [str(i) for i in range(1, n + 1)]
    else:
        years = [str(int(y)) for y in report.years[:n]]
    reprs: dict[int, list[str]] = {}
    cells: dict[tuple[bool, int], list[str]] = {}

    def role(is_x: bool, values: np.ndarray) -> list[str]:
        key = (is_x, id(values))  # the report keeps every array alive while rendering
        if key not in cells:
            if id(values) not in reprs:
                reprs[id(values)] = _reprs(values)
            strings = reprs[id(values)]
            cells[key] = x_cells(years, strings) if is_x else y_cells(strings)
        return cells[key]

    for pair in report.scatter:
        xs, ys = role(True, pair.x), role(False, pair.y)
        if len(xs) != len(ys):
            m = min(len(xs), len(ys))
            xs, ys = xs[:m], ys[:m]
        yield pair, xs, ys


def _scatter_parts(report: Report, format: str) -> Iterator[str]:
    """The scatter file of ``report`` in ``format``, one piece per pair.

    Each piece is one join over a list that slice assignment fills with
    the shared cells, so no row becomes a string of its own.
    """
    if format == "text":
        yield "scatter pairs\n============="
        for pair, xs, ys in _scatter_rows(
            report,
            lambda years, xs: [f"\n{year} {x} " for year, x in zip(years, xs)],
            lambda ys: ys,
        ):
            parts = [f"\n\npair {pair.x_name} {pair.y_name}\nyear x y"] * (2 * len(xs) + 1)
            parts[1::2], parts[2::2] = xs, ys
            yield "".join(parts)
        yield "\n"
    else:
        names = {name for pair in report.scatter for name in (pair.x_name, pair.y_name)}
        quoted = {name: _csv_field(name) for name in names}
        yield "x_name,y_name,year,x,y\n"
        for pair, xs, ys in _scatter_rows(
            report,
            lambda years, xs: [f"{year},{x}," for year, x in zip(years, xs)],
            lambda ys: [f"{y}\n" for y in ys],
        ):
            parts = [f"{quoted[pair.x_name]},{quoted[pair.y_name]},"] * (3 * len(xs))
            parts[1::3], parts[2::3] = xs, ys
            yield "".join(parts)


def _write(path: Path, parts: Iterable[str]) -> Path:
    try:
        # A 1 MiB buffer sends a wide scatter file (6.9 MB at p = 60) to the
        # system in a few writes instead of one per default 8 KiB buffer.
        with open(path, "w", buffering=1 << 20, encoding="utf-8", newline="") as file:
            file.writelines(parts)
    except OSError as err:
        raise OutputError(str(path), str(err)) from err
    return path


def emit_report(report: Report, out_dir, format: str = "text") -> tuple[Path, ...]:
    """Write the report (and scatter pairs, when present) under ``out_dir``.

    ``text`` produces ``report.txt`` / ``scatter_pairs.txt``; ``delim``
    produces ``report.csv`` / ``scatter_pairs.csv``.  Matrix-only runs
    have no observations, so no scatter file is written.  The scatter
    file is written pair by pair and never held whole in memory.
    Returns the paths written; any filesystem problem raises
    :class:`OutputError`.
    """
    content = render_report(report, format)
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise OutputError(str(out), str(err)) from err
    suffix = "txt" if format == "text" else "csv"
    written = [_write(out / f"report.{suffix}", (content,))]
    if report.scatter:
        scatter_path = out / f"scatter_pairs.{suffix}"
        written.append(_write(scatter_path, _scatter_parts(report, format)))
    return tuple(written)
