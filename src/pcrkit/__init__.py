"""Principal-components regression for short, collinear yearly series.

The package turns a small table of yearly indicator levels into a
collinearity-robust regression: levels are differenced and
standardized, their correlation matrix is diagnosed (VIF) and
decomposed, the retained components are varimax-rotated and scored, and
the response increment is regressed on the scores.  Summing fitted
increments onto the first observed level rebuilds the full price path.

A bundled, repaired correlation fixture allows matrix-only runs where
no raw observations are available.
"""

from .errors import (
    AsymmetryError,
    ComponentCountError,
    ConfigError,
    ConvergenceError,
    InsufficientDataError,
    LinalgError,
    NameMismatchError,
    NonFiniteError,
    NonSquareError,
    NotPositiveDefiniteError,
    OutputError,
    PcaError,
    PcrError,
    PreprocessError,
    RankDeficiencyError,
    ShapeMismatchError,
    StageError,
    TableFormatError,
    ZeroVarianceError,
    STAGE_EXIT_CODES,
)
from .fixtures import (
    FIXTURE_NAMES,
    FixtureData,
    INDICATOR_NAMES,
    load_fixture,
    nearest_valid_correlation,
    published_correlations,
)
from .linalg import (
    EigenDecomposition,
    eigen_symmetric,
    solve_least_squares,
)
from .pca import (
    PcaSolution,
    ScoreWeights,
    component_scores,
    extract,
    rotate_varimax,
    score_weights,
)
from .pipeline import (
    Report,
    RunConfig,
    emit_report,
    load_table,
    render_report_delim,
    render_report_text,
    run_pipeline,
    write_table,
)
from .preprocess import (
    CorrelationMatrix,
    ScatterPair,
    StandardizedMatrix,
    TimeSeriesTable,
    correlation_matrix,
    difference,
    scatter_pairs,
    standardize,
    vif,
)
from .regression import (
    OlsFit,
    PricePath,
    fit_ols,
    fit_pcr,
    predict_increment,
    reconstruct_prices,
)

__version__ = "0.1.0"

__all__ = [
    "AsymmetryError",
    "ComponentCountError",
    "ConfigError",
    "ConvergenceError",
    "CorrelationMatrix",
    "EigenDecomposition",
    "FIXTURE_NAMES",
    "FixtureData",
    "INDICATOR_NAMES",
    "InsufficientDataError",
    "LinalgError",
    "NameMismatchError",
    "NonFiniteError",
    "NonSquareError",
    "NotPositiveDefiniteError",
    "OlsFit",
    "OutputError",
    "PcaError",
    "PcaSolution",
    "PcrError",
    "PreprocessError",
    "PricePath",
    "RankDeficiencyError",
    "Report",
    "RunConfig",
    "STAGE_EXIT_CODES",
    "ScatterPair",
    "ScoreWeights",
    "ShapeMismatchError",
    "StageError",
    "StandardizedMatrix",
    "TableFormatError",
    "TimeSeriesTable",
    "ZeroVarianceError",
    "component_scores",
    "correlation_matrix",
    "difference",
    "eigen_symmetric",
    "emit_report",
    "extract",
    "fit_ols",
    "fit_pcr",
    "load_fixture",
    "load_table",
    "nearest_valid_correlation",
    "predict_increment",
    "published_correlations",
    "reconstruct_prices",
    "render_report_delim",
    "render_report_text",
    "rotate_varimax",
    "run_pipeline",
    "scatter_pairs",
    "score_weights",
    "solve_least_squares",
    "standardize",
    "vif",
    "write_table",
]
