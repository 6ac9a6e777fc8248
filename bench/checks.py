"""Output checks for benchmark operations.

Each check takes a report as pcrkit wrote it (text or delim layout),
recomputes what it can with numpy alone, and returns a list of problems;
an empty list means the output is correct.  The oracles never call
pcrkit, so a wrong answer from the code under test cannot hide in them.

Tolerances sit several orders above what the current Jacobi solver
reaches (worst errors seen: 6e-14 on eigenvalues, 7e-13 on score
covariance, 6e-14 on price levels) so that an equally exact solver
passes, and several orders below any real mistake.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

EIGEN_TOL = 1e-9
COVARIANCE_TOL = 1e-8
PRICE_RTOL = 1e-9

# The published fig3 table (lower triangle, two decimals) in the order
# IY REI PDS PDC IR GVA CPI PD GDHI, kept here so the oracle does not
# read it from the package under test.
FIG3_LOWER = (
    (0.94,),
    (-0.43, -0.56),
    (-0.18, -0.26, 0.76),
    (-0.88, -0.84, 0.64, 0.55),
    (0.99, 0.93, -0.50, -0.28, -0.91),
    (0.25, 0.08, -0.34, -0.50, -0.46, 0.33),
    (0.98, 0.95, -0.57, -0.30, -0.91, 0.99, 0.30),
    (0.99, 0.94, -0.53, -0.30, -0.92, 0.99, 0.30, 1.00),
)
FIG3_REPAIR_FLOOR = 1e-6


@dataclass
class ParsedReport:
    """The numeric sections the checks need, in report order."""

    eigenvalues: np.ndarray
    weights: np.ndarray
    scores: np.ndarray | None = None
    pcr_intercept: float | None = None
    pcr_coefficients: np.ndarray | None = None
    price_base: float | None = None
    price_levels: np.ndarray | None = None


def _text_sections(text: str) -> dict[str, list[str]]:
    sections: dict[str, list[str]] = {}
    current = None
    for line in text.splitlines():
        if line.startswith("[") and line.endswith("]"):
            current = sections.setdefault(line[1:-1], [])
        elif not line:
            current = None
        elif current is not None:
            current.append(line)
    return sections


def _rows(lines: list[str]) -> np.ndarray:
    """Numeric body of a table section whose first line is a header."""
    return np.array([[float(v) for v in line.split()[1:]] for line in lines[1:]])


def parse_text(text: str) -> ParsedReport:
    """Parse the layout of ``render_report_text``."""
    s = _text_sections(text)
    parsed = ParsedReport(
        eigenvalues=np.array([float(v) for v in s["eigenvalues"][0].split()]),
        weights=_rows(s["score weights"]),
    )
    if "component scores" in s:
        parsed.scores = _rows(s["component scores"])
    if "pcr" in s:
        pcr = dict(line.split(" ", 1) for line in s["pcr"])
        parsed.pcr_intercept = float(pcr.pop("intercept"))
        pcr.pop("r_squared")
        pcr.pop("residual_se")
        parsed.pcr_coefficients = np.array([float(v) for v in pcr.values()])
    if "price path" in s:
        lines = s["price path"]
        parsed.price_base = float(lines[0].split()[1])
        parsed.price_levels = np.array([float(line.split()[1]) for line in lines[2:]])
    return parsed


def parse_delim(text: str) -> ParsedReport:
    """Parse the ``section,key,field,value`` layout of ``render_report_delim``."""
    grouped: dict[str, list[tuple[str, str, str]]] = {}
    for section, key, field, value in list(csv.reader(io.StringIO(text)))[1:]:
        grouped.setdefault(section, []).append((key, field, value))

    def matrix(section: str) -> np.ndarray:
        rows: dict[str, list[float]] = {}
        for key, _field, value in grouped[section]:
            rows.setdefault(key, []).append(float(value))
        return np.array(list(rows.values()))

    parsed = ParsedReport(
        eigenvalues=np.array([float(v) for _k, _f, v in grouped["eigenvalues"]]),
        weights=matrix("score_weights"),
    )
    if "scores" in grouped:
        parsed.scores = matrix("scores")
    if "pcr" in grouped:
        rows = grouped["pcr"]
        parsed.pcr_intercept = next(float(v) for k, _f, v in rows if k == "intercept")
        parsed.pcr_coefficients = np.array(
            [float(v) for k, _f, v in rows if k == "coefficient"]
        )
    if "prices" in grouped:
        rows = grouped["prices"]
        parsed.price_base = next(float(v) for k, _f, v in rows if k == "base")
        parsed.price_levels = np.array([float(v) for k, _f, v in rows if k == "level"])
    return parsed


def fig3_predictor_correlation() -> np.ndarray:
    """Repaired fig3 predictor submatrix, recomputed with ``numpy.linalg.eigh``.

    Same repair as the package documents: lift eigenvalues below the
    floor, rebuild, renormalize the diagonal; then drop the response.
    """
    p = len(FIG3_LOWER) + 1
    printed = np.eye(p)
    for i, row in enumerate(FIG3_LOWER, start=1):
        for j, value in enumerate(row):
            printed[i, j] = printed[j, i] = value
    values, vectors = np.linalg.eigh(printed)
    lifted = np.maximum(values, FIG3_REPAIR_FLOOR * values.max())
    rebuilt = (vectors * lifted) @ vectors.T
    scale = np.sqrt(np.diagonal(rebuilt))
    rebuilt = rebuilt / np.outer(scale, scale)
    rebuilt = np.clip((rebuilt + rebuilt.T) / 2.0, -1.0, 1.0)
    np.fill_diagonal(rebuilt, 1.0)
    return rebuilt[1:, 1:]


def panel_predictor_correlation(levels: np.ndarray) -> np.ndarray:
    """Pearson correlation of the predictor increments (response in column 0)."""
    return np.corrcoef(np.diff(levels[:, 1:], axis=0), rowvar=False)


def check_eigenvalues(parsed: ParsedReport, corr: np.ndarray) -> list[str]:
    expected = np.linalg.eigvalsh(corr)[::-1]
    got = parsed.eigenvalues
    if got.shape != expected.shape:
        return [f"eigenvalues: {got.shape[0]} reported, {expected.shape[0]} expected"]
    err = float(np.abs(got - expected).max())
    return [f"eigenvalues: max error {err:.3g} > {EIGEN_TOL}"] if err > EIGEN_TOL else []


def _identity_error(cov: np.ndarray) -> float:
    return float(np.abs(cov - np.eye(cov.shape[0])).max())


def check_score_covariance(parsed: ParsedReport) -> list[str]:
    """Sample covariance (ddof=1) of the component scores is the identity."""
    if parsed.scores is None:
        return ["scores: section missing"]
    err = _identity_error(np.atleast_2d(np.cov(parsed.scores, rowvar=False)))
    if err > COVARIANCE_TOL:
        return [f"scores: covariance off identity by {err:.3g} > {COVARIANCE_TOL}"]
    return []


def check_weight_covariance(parsed: ParsedReport, corr: np.ndarray) -> list[str]:
    """Matrix-only runs have no scores; their implied covariance W'RW is I."""
    w = parsed.weights
    if w.shape[0] != corr.shape[0]:
        return [f"score weights: {w.shape[0]} rows for {corr.shape[0]} predictors"]
    err = _identity_error(w.T @ corr @ w)
    if err > COVARIANCE_TOL:
        return [f"score weights: W'RW off identity by {err:.3g} > {COVARIANCE_TOL}"]
    return []


def _relative_error(got, expected) -> float:
    got = np.asarray(got, dtype=float)
    expected = np.asarray(expected, dtype=float)
    return float((np.abs(got - expected) / np.maximum(np.abs(expected), 1.0)).max())


def check_prices(parsed: ParsedReport, base: float) -> list[str]:
    """Levels equal the base plus the cumulated fitted increments."""
    if parsed.price_levels is None or parsed.pcr_coefficients is None:
        return ["prices: pcr or price path section missing"]
    if parsed.scores is None:
        return ["prices: scores section missing"]
    fitted = parsed.pcr_intercept + parsed.scores @ parsed.pcr_coefficients
    expected = base + np.cumsum(fitted)
    if parsed.price_levels.shape != expected.shape:
        return [
            f"prices: {parsed.price_levels.shape[0]} levels for "
            f"{expected.shape[0]} increments"
        ]
    problems = []
    if _relative_error(parsed.price_base, base) > PRICE_RTOL:
        problems.append(f"prices: base {parsed.price_base!r}, expected {base!r}")
    err = _relative_error(parsed.price_levels, expected)
    if err > PRICE_RTOL:
        problems.append(f"prices: levels off by {err:.3g} relative > {PRICE_RTOL}")
    return problems


def expected_scatter_rows(n_predictors: int, n_years: int) -> int:
    """Data rows of ``scatter_pairs.csv``: one per pair of all p+1 columns per increment."""
    return n_predictors * (n_predictors + 1) // 2 * (n_years - 1)


def check_scatter_rows(path: Path, n_predictors: int, n_years: int) -> list[str]:
    with open(path, "rb") as handle:
        rows = sum(1 for _ in handle) - 1
    expected = expected_scatter_rows(n_predictors, n_years)
    if rows != expected:
        return [f"scatter_pairs: {rows} data rows, expected {expected}"]
    return []


def check_panel_report(parsed: ParsedReport, levels: np.ndarray) -> list[str]:
    """Every numeric check that applies to a table run of a generated panel."""
    return (
        check_eigenvalues(parsed, panel_predictor_correlation(levels))
        + check_score_covariance(parsed)
        + check_prices(parsed, float(levels[0, 0]))
    )


def check_fig3_report(parsed: ParsedReport, corr: np.ndarray) -> list[str]:
    """Every numeric check that applies to the matrix-only fig3 run."""
    return check_eigenvalues(parsed, corr) + check_weight_covariance(parsed, corr)
