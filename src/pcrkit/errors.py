"""The errors the toolkit raises.

Every failure is a :class:`PcrError` whose message names the cause: the
offending column, year, index, shape or value is in the text, which is
what the command line prints after the stage tag.  A defect that
``load_table`` finds on a line of the input starts its message
``line N: ``.  Only two kinds get a class of their own, because a caller
reads something besides the message: :class:`RankDeficiencyError` keeps
the dependent column, its name and pivot for callers that report it,
and :class:`StageError` carries the pipeline stage, its exit code and
the partial report.
"""

from __future__ import annotations


class PcrError(Exception):
    """Base class for all toolkit errors."""


class RankDeficiencyError(PcrError):
    """Design matrix is numerically rank deficient.

    ``column`` is the index of the first dependent column and ``name``
    its variable name.
    """

    def __init__(self, column: int, pivot: float, name: str):
        self.column = column
        self.pivot = pivot
        self.name = name
        super().__init__(
            f"design matrix is rank deficient: column {column} ({name}) is linearly "
            f"dependent on earlier columns (pivot {pivot!r})"
        )


# Exit codes for the command-line driver, one per pipeline stage.
STAGE_EXIT_CODES = {
    "input": 2,
    "preprocess": 3,
    "pca": 4,
    "regression": 5,
    "output": 6,
}


class StageError(PcrError):
    """Wraps a module error with the pipeline stage that raised it.

    Raise it ``from`` the wrapped error, which becomes ``__cause__``.
    ``report`` holds the partially filled report so a driver can still
    emit whatever completed before the failure.
    """

    def __init__(self, stage: str, error: PcrError, report=None):
        self.stage = stage
        self.report = report
        self.exit_code = STAGE_EXIT_CODES[stage]
        super().__init__(f"[{stage}] {error}")
