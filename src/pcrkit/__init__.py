"""Principal-components regression for short, collinear yearly series.

The package turns a small table of yearly indicator levels into a
collinearity-robust regression: levels are differenced and
standardized, their correlation matrix is diagnosed (VIF) and
decomposed, the retained components are varimax-rotated and scored, and
the response increment is regressed on the scores.  Summing fitted
increments onto the first observed level rebuilds the full price path.

A bundled, repaired correlation fixture allows matrix-only runs where
no raw observations are available.

The names below are the library surface the README, the demos and the
CLI use; everything else is importable from its own module.
"""

from .errors import STAGE_EXIT_CODES, PcrError, RankDeficiencyError, StageError
from .fixtures import FIXTURE_NAMES, load_fixture
from .pca import component_scores, extract, rotate_varimax, score_weights
from .pipeline import (
    Report,
    RunConfig,
    emit_report,
    render_report_delim,
    render_report_text,
    run_pipeline,
    write_table,
)
from .preprocess import (
    TimeSeriesTable,
    correlation_matrix,
    difference,
    standardize,
    vif,
)
from .regression import fit_ols, fit_pcr, reconstruct_prices

__version__ = "0.1.0"

__all__ = [
    "FIXTURE_NAMES",
    "PcrError",
    "RankDeficiencyError",
    "Report",
    "RunConfig",
    "STAGE_EXIT_CODES",
    "StageError",
    "TimeSeriesTable",
    "component_scores",
    "correlation_matrix",
    "difference",
    "emit_report",
    "extract",
    "fit_ols",
    "fit_pcr",
    "load_fixture",
    "reconstruct_prices",
    "render_report_delim",
    "render_report_text",
    "rotate_varimax",
    "run_pipeline",
    "score_weights",
    "standardize",
    "vif",
    "write_table",
]
