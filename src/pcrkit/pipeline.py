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
from dataclasses import dataclass, field
from pathlib import Path

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
SCORE_METHODS = ("regression",)
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
    scores: str = "regression"

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
        if self.scores not in SCORE_METHODS:
            raise ConfigError(
                f"scores must be one of {SCORE_METHODS}, got {self.scores!r}"
            )
        if self.components != "auto":
            if not isinstance(self.components, int) or self.components < 1:
                raise ConfigError(
                    f'components must be "auto" or a positive integer, '
                    f"got {self.components!r}"
                )


@dataclass
class Report:
    """Accumulated products of a pipeline run, filled stage by stage."""

    source: str = ""
    mode: str = ""
    response: str = ""
    diff_mode: str = ""
    components_requested: str = ""
    rotation_mode: str = ""
    score_method: str = ""
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
    scatter: tuple[ScatterPair, ...] = field(default=())
    failure: tuple[str, str] | None = None


def load_table(path, response: str = "IY") -> TimeSeriesTable:
    """Read a delimited yearly table.

    Expected layout: a header ``year,<name>,...`` followed by one row
    per year, comma-separated.  Years must parse as integers, values as
    floats; every structural defect raises :class:`TableFormatError`
    naming the line.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        raise TableFormatError(f"cannot read {path}: {err}") from err
    rows = [row for row in csv.reader(io.StringIO(text))]
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
            years.append(int(cells[0]))
        except ValueError as err:
            raise TableFormatError(f"year {cells[0]!r} is not an integer", line=i) from err
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


def _fail(report: Report, stage: str, err: PcrError):
    report.failure = (stage, str(err))
    raise StageError(stage, err, report) from err


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
    report = Report(
        response=config.response,
        diff_mode=config.diff,
        components_requested=str(config.components),
        rotation_mode=config.rotation,
        score_method=config.scores,
    )

    table: TimeSeriesTable | None = None
    correlation: CorrelationMatrix | None = None
    diffed: TimeSeriesTable | None = None
    z = None

    try:
        if config.fixture is not None:
            fixture = load_fixture(config.fixture)
            if config.response not in fixture.matrix.names:
                raise TableFormatError(
                    f"response {config.response!r} is not a fixture variable; "
                    f"available: {', '.join(fixture.matrix.names)}"
                )
            report.mode = "matrix"
            report.source = f"fixture {fixture.name}"
            report.names = fixture.matrix.names
            report.fixture_adjustment = fixture.max_adjustment
            correlation = fixture.matrix
        else:
            table = load_table(config.input_path, response=config.response)
            report.mode = "table"
            report.source = f"file {config.input_path}"
            report.names = table.names
    except PcrError as err:
        _fail(report, "input", err)

    report.predictor_names = tuple(n for n in report.names if n != config.response)

    if report.mode == "table":
        try:
            diffed = difference(table, config.diff)
            z = standardize(diffed)
            correlation = correlation_matrix(z)
            report.years = diffed.years
            report.vif = vif(z.select(report.predictor_names))
            report.scatter = scatter_pairs(diffed)
        except PcrError as err:
            _fail(report, "preprocess", err)
    report.correlation = correlation

    try:
        subset = correlation.submatrix(report.predictor_names)
        solution = extract(subset, config.components)
        if config.rotation == "varimax":
            solution = rotate_varimax(solution)
        report.solution = solution
        weights = score_weights(subset, solution)
        report.weights = weights
        if report.mode == "table":
            report.scores = component_scores(
                z.select(report.predictor_names), weights
            )
    except PcrError as err:
        _fail(report, "pca", err)

    if report.mode == "table":
        try:
            response_inc = diffed.column(config.response)
            predictor_values = np.column_stack(
                [diffed.column(n) for n in report.predictor_names]
            )
            try:
                report.baseline = fit_ols(
                    predictor_values, response_inc, names=report.predictor_names
                )
            except PcrError as err:
                report.baseline_error = str(err)
            pcr_fit = fit_pcr(
                report.scores, response_inc, report.weights.component_names
            )
            report.pcr = pcr_fit
            if config.diff == "absolute":
                base = float(table.column(config.response)[0])
                report.prices = reconstruct_prices(
                    base, pcr_fit.fitted, years=diffed.years
                )
            else:
                report.price_note = (
                    f"price path omitted: {config.diff!r} increments are not "
                    "additive differences of levels"
                )
        except PcrError as err:
            _fail(report, "regression", err)

    return report


# ---------------------------------------------------------------------------
# rendering


def _fmt(x) -> str:
    return repr(float(x))


def _pc_labels(k: int) -> tuple[str, ...]:
    return tuple(f"PC{j + 1}" for j in range(k))


def _rc_labels(k: int) -> tuple[str, ...]:
    return tuple(f"RC{j + 1}" for j in range(k))


def render_report_text(report: Report) -> str:
    """Render the report to the human-readable text layout."""
    lines: list[str] = []
    title = "principal-components regression report"
    lines.append(title)
    lines.append("=" * len(title))

    lines.append("")
    lines.append("[run]")
    lines.append(f"source: {report.source}")
    lines.append(f"mode: {report.mode}")
    lines.append(f"response: {report.response}")
    lines.append(f"difference: {report.diff_mode}")
    lines.append(f"components: {report.components_requested}")
    lines.append(f"rotation: {report.rotation_mode}")
    lines.append(f"scores: {report.score_method}")

    if report.names:
        lines.append("")
        lines.append("[variables]")
        lines.append(" ".join(report.names))

    if report.years is not None:
        lines.append("")
        lines.append("[years]")
        lines.append(" ".join(str(int(y)) for y in report.years))

    if report.fixture_adjustment is not None:
        lines.append("")
        lines.append("[fixture adjustment]")
        lines.append(
            f"max entry change after validity repair: {_fmt(report.fixture_adjustment)}"
        )

    if report.correlation is not None:
        lines.append("")
        lines.append("[correlation]")
        names = report.correlation.names
        lines.append("name " + " ".join(names))
        for i, name in enumerate(names):
            row = " ".join(_fmt(v) for v in report.correlation.values[i])
            lines.append(f"{name} {row}")

    if report.vif is not None:
        lines.append("")
        lines.append("[vif]")
        for name, value in report.vif.items():
            lines.append(f"{name} {'inf' if value == float('inf') else _fmt(value)}")

    if report.baseline is not None or report.baseline_error is not None:
        lines.append("")
        lines.append("[baseline ols]")
        if report.baseline_error is not None:
            lines.append(f"error: {report.baseline_error}")
        else:
            fit = report.baseline
            lines.append(f"intercept {_fmt(fit.intercept)}")
            for name, coef in zip(fit.predictor_names, fit.coefficients):
                lines.append(f"{name} {_fmt(coef)}")
            lines.append(f"r_squared {_fmt(fit.r_squared)}")
            lines.append(f"residual_se {_fmt(fit.residual_se)}")

    solution = report.solution
    if solution is not None:
        lines.append("")
        lines.append("[eigenvalues]")
        lines.append(" ".join(_fmt(v) for v in solution.eigenvalues))

        lines.append("")
        lines.append("[retention]")
        lines.append(
            f"retained {solution.n_components} of {solution.p} components "
            f"({report.components_requested})"
        )

        pc = _pc_labels(solution.n_components)
        lines.append("")
        lines.append("[proportion of variance]")
        lines.append("component proportion cumulative")
        for j, label in enumerate(pc):
            lines.append(
                f"{label} {_fmt(solution.proportion[j])} {_fmt(solution.cumulative[j])}"
            )

        if solution.rotated_proportion is not None:
            rc = _rc_labels(solution.n_components)
            lines.append("")
            lines.append("[rotated proportion of variance]")
            lines.append("component proportion cumulative")
            for j, label in enumerate(rc):
                lines.append(
                    f"{label} {_fmt(solution.rotated_proportion[j])} "
                    f"{_fmt(solution.rotated_cumulative[j])}"
                )

        lines.append("")
        lines.append("[loadings]")
        lines.append("name " + " ".join(pc))
        for i, name in enumerate(solution.names):
            row = " ".join(_fmt(v) for v in solution.loadings[i])
            lines.append(f"{name} {row}")

        if solution.rotated_loadings is not None:
            lines.append("")
            lines.append("[rotated loadings]")
            lines.append("name " + " ".join(_rc_labels(solution.n_components)))
            for i, name in enumerate(solution.names):
                row = " ".join(_fmt(v) for v in solution.rotated_loadings[i])
                lines.append(f"{name} {row}")

        lines.append("")
        lines.append("[communality]")
        lines.append("name h2 u2")
        for i, name in enumerate(solution.names):
            lines.append(
                f"{name} {_fmt(solution.communality[i])} {_fmt(solution.uniqueness[i])}"
            )

    if report.weights is not None:
        lines.append("")
        lines.append("[score weights]")
        lines.append("name " + " ".join(report.weights.component_names))
        for i, name in enumerate(report.weights.names):
            row = " ".join(_fmt(v) for v in report.weights.weights[i])
            lines.append(f"{name} {row}")

    if report.scores is not None and report.years is not None:
        lines.append("")
        lines.append("[component scores]")
        lines.append("year " + " ".join(report.weights.component_names))
        for i, year in enumerate(report.years):
            row = " ".join(_fmt(v) for v in report.scores[i])
            lines.append(f"{int(year)} {row}")

    if report.pcr is not None:
        lines.append("")
        lines.append("[pcr]")
        lines.append(f"intercept {_fmt(report.pcr.intercept)}")
        for name, coef in zip(report.pcr.predictor_names, report.pcr.coefficients):
            lines.append(f"{name} {_fmt(coef)}")
        lines.append(f"r_squared {_fmt(report.pcr.r_squared)}")
        lines.append(f"residual_se {_fmt(report.pcr.residual_se)}")

    if report.prices is not None:
        lines.append("")
        lines.append("[price path]")
        lines.append(f"base {_fmt(report.prices.base)}")
        lines.append("year level")
        for year, level in zip(report.prices.years, report.prices.levels):
            lines.append(f"{int(year)} {_fmt(level)}")
    elif report.price_note is not None:
        lines.append("")
        lines.append("[price path]")
        lines.append(report.price_note)

    if report.failure is not None:
        stage, message = report.failure
        lines.append("")
        lines.append("[failure]")
        lines.append(f"stage: {stage}")
        lines.append(f"error: {message}")

    lines.append("")
    return "\n".join(lines)


def render_report_delim(report: Report) -> str:
    """Render the report as flat ``section,key,field,value`` CSV rows."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(("section", "key", "field", "value"))

    def row(section, key="", field_="", value=""):
        writer.writerow((section, key, field_, value))

    row("run", "source", "", report.source)
    row("run", "mode", "", report.mode)
    row("run", "response", "", report.response)
    row("run", "difference", "", report.diff_mode)
    row("run", "components", "", report.components_requested)
    row("run", "rotation", "", report.rotation_mode)
    row("run", "scores", "", report.score_method)

    for i, name in enumerate(report.names, start=1):
        row("variables", str(i), "", name)
    if report.years is not None:
        for i, year in enumerate(report.years, start=1):
            row("years", str(i), "", str(int(year)))
    if report.fixture_adjustment is not None:
        row("fixture_adjustment", "", "", _fmt(report.fixture_adjustment))

    if report.correlation is not None:
        names = report.correlation.names
        for i, a in enumerate(names):
            for j, b in enumerate(names):
                row("correlation", a, b, _fmt(report.correlation.values[i, j]))

    if report.vif is not None:
        for name, value in report.vif.items():
            row("vif", name, "", "inf" if value == float("inf") else _fmt(value))

    if report.baseline_error is not None:
        row("baseline", "error", "", report.baseline_error)
    elif report.baseline is not None:
        fit = report.baseline
        row("baseline", "intercept", "", _fmt(fit.intercept))
        for name, coef in zip(fit.predictor_names, fit.coefficients):
            row("baseline", "coefficient", name, _fmt(coef))
        row("baseline", "r_squared", "", _fmt(fit.r_squared))
        row("baseline", "residual_se", "", _fmt(fit.residual_se))

    solution = report.solution
    if solution is not None:
        for j, value in enumerate(solution.eigenvalues, start=1):
            row("eigenvalues", str(j), "", _fmt(value))
        row("retention", "requested", "", report.components_requested)
        row("retention", "kept", "", str(solution.n_components))
        pc = _pc_labels(solution.n_components)
        for j, label in enumerate(pc):
            row("proportion", label, "proportion", _fmt(solution.proportion[j]))
            row("proportion", label, "cumulative", _fmt(solution.cumulative[j]))
        if solution.rotated_proportion is not None:
            for j, label in enumerate(_rc_labels(solution.n_components)):
                row(
                    "rotated_proportion",
                    label,
                    "proportion",
                    _fmt(solution.rotated_proportion[j]),
                )
                row(
                    "rotated_proportion",
                    label,
                    "cumulative",
                    _fmt(solution.rotated_cumulative[j]),
                )
        for i, name in enumerate(solution.names):
            for j, label in enumerate(pc):
                row("loadings", name, label, _fmt(solution.loadings[i, j]))
        if solution.rotated_loadings is not None:
            for i, name in enumerate(solution.names):
                for j, label in enumerate(_rc_labels(solution.n_components)):
                    row(
                        "rotated_loadings",
                        name,
                        label,
                        _fmt(solution.rotated_loadings[i, j]),
                    )
        for i, name in enumerate(solution.names):
            row("communality", name, "h2", _fmt(solution.communality[i]))
            row("communality", name, "u2", _fmt(solution.uniqueness[i]))

    if report.weights is not None:
        for i, name in enumerate(report.weights.names):
            for j, label in enumerate(report.weights.component_names):
                row("score_weights", name, label, _fmt(report.weights.weights[i, j]))

    if report.scores is not None and report.years is not None:
        for i, year in enumerate(report.years):
            for j, label in enumerate(report.weights.component_names):
                row("scores", str(int(year)), label, _fmt(report.scores[i, j]))

    if report.pcr is not None:
        row("pcr", "intercept", "", _fmt(report.pcr.intercept))
        for name, coef in zip(report.pcr.predictor_names, report.pcr.coefficients):
            row("pcr", "coefficient", name, _fmt(coef))
        row("pcr", "r_squared", "", _fmt(report.pcr.r_squared))
        row("pcr", "residual_se", "", _fmt(report.pcr.residual_se))

    if report.prices is not None:
        row("prices", "base", "", _fmt(report.prices.base))
        for year, level in zip(report.prices.years, report.prices.levels):
            row("prices", "level", str(int(year)), _fmt(level))
    elif report.price_note is not None:
        row("prices", "note", "", report.price_note)

    if report.failure is not None:
        stage, message = report.failure
        row("failure", stage, "", message)

    return buffer.getvalue()


def _scatter_rows(report: Report):
    """Yield each scatter pair with its ``(year, x, y)`` rows as strings.

    Every distinct array is formatted once per render, so the p+1
    columns that all pairs share cost O(p*n) formatting, not O(p^2*n).
    The cache is keyed on the array object, never on the name, so a
    hand-built report whose pairs carry separate arrays still renders
    each pair's own values.
    """
    formatted: dict[int, list[str]] = {}

    def cells(values: np.ndarray) -> list[str]:
        key = id(values)  # the report keeps every array alive while rendering
        if key not in formatted:
            formatted[key] = [
                repr(v) for v in np.asarray(values, dtype=np.float64).tolist()
            ]
        return formatted[key]

    n = max((pair.x.shape[0] for pair in report.scatter), default=0)
    if report.years is None:
        years = [str(i) for i in range(1, n + 1)]
    else:
        years = [str(int(y)) for y in report.years[:n]]
    for pair in report.scatter:
        xs = cells(pair.x)
        yield pair, zip(years[: len(xs)], xs, cells(pair.y), strict=True)


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it in a row of several fields."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow((text, ""))
    return buffer.getvalue()[: -len(",\n")]


def render_scatter_text(report: Report) -> str:
    parts = ["scatter pairs\n============="]
    for pair, rows in _scatter_rows(report):
        parts.append(f"\n\npair {pair.x_name} {pair.y_name}\nyear x y")
        parts.append("".join(f"\n{year} {x} {y}" for year, x, y in rows))
    parts.append("\n")
    return "".join(parts)


def render_scatter_delim(report: Report) -> str:
    names = {name for pair in report.scatter for name in (pair.x_name, pair.y_name)}
    quoted = {name: _csv_field(name) for name in names}
    parts = ["x_name,y_name,year,x,y\n"]
    for pair, rows in _scatter_rows(report):
        prefix = f"{quoted[pair.x_name]},{quoted[pair.y_name]},"
        parts.append("".join(f"{prefix}{year},{x},{y}\n" for year, x, y in rows))
    return "".join(parts)


def emit_report(report: Report, out_dir, format: str = "text") -> tuple[Path, ...]:
    """Write the report (and scatter pairs, when present) under ``out_dir``.

    ``text`` produces ``report.txt`` / ``scatter_pairs.txt``; ``delim``
    produces ``report.csv`` / ``scatter_pairs.csv``.  Matrix-only runs
    have no observations, so no scatter file is written.  Returns the
    paths written; any filesystem problem raises :class:`OutputError`.
    """
    if format not in REPORT_FORMATS:
        raise ConfigError(f"format must be one of {REPORT_FORMATS}, got {format!r}")
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise OutputError(str(out), str(err)) from err
    suffix = "txt" if format == "text" else "csv"
    written: list[Path] = []
    report_path = out / f"report.{suffix}"
    content = (
        render_report_text(report) if format == "text" else render_report_delim(report)
    )
    try:
        report_path.write_text(content, encoding="utf-8", newline="")
    except OSError as err:
        raise OutputError(str(report_path), str(err)) from err
    written.append(report_path)
    if report.scatter:
        scatter_path = out / f"scatter_pairs.{suffix}"
        scatter_content = (
            render_scatter_text(report)
            if format == "text"
            else render_scatter_delim(report)
        )
        try:
            scatter_path.write_text(scatter_content, encoding="utf-8", newline="")
        except OSError as err:
            raise OutputError(str(scatter_path), str(err)) from err
        written.append(scatter_path)
    return tuple(written)
