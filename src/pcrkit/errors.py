"""Exception hierarchy for the toolkit.

Every error raised by this package derives from :class:`PcrError`, so a
caller can catch one type at the pipeline boundary.  Errors that carry
diagnostic payload (offending index, residual, eigenvalue) expose it as
attributes rather than burying it in the message string.
"""

from __future__ import annotations


class PcrError(Exception):
    """Base class for all toolkit errors."""


# ---------------------------------------------------------------------------
# numeric core


class LinalgError(PcrError):
    """Base class for dense linear-algebra failures."""


class NonSquareError(LinalgError):
    def __init__(self, shape: tuple[int, ...]):
        self.shape = shape
        super().__init__(f"expected a square 2-d matrix, got shape {shape}")


class ShapeMismatchError(LinalgError):
    def __init__(self, what: str, expected: str, got: tuple[int, ...]):
        self.expected = expected
        self.got = got
        super().__init__(f"{what}: expected shape {expected}, got {got}")


class AsymmetryError(LinalgError):
    """Matrix is not symmetric at the offending entry (i, j)."""

    def __init__(self, i: int, j: int, delta: float):
        self.i = i
        self.j = j
        self.delta = delta
        super().__init__(
            f"matrix is not symmetric: |a[{i},{j}] - a[{j},{i}]| = {delta!r}"
        )


class NonFiniteError(LinalgError):
    def __init__(self, where: str, index: tuple[int, ...]):
        self.where = where
        self.index = index
        super().__init__(f"non-finite entry in {where} at index {index}")


class ConvergenceError(LinalgError):
    """Iteration hit its sweep cap before meeting the tolerance."""

    def __init__(self, what: str, sweeps: int, residual: float):
        self.what = what
        self.sweeps = sweeps
        self.residual = residual
        super().__init__(
            f"{what} did not converge in {sweeps} sweeps, residual {residual!r}"
        )


class RankDeficiencyError(LinalgError):
    """Design matrix is numerically rank deficient.

    ``column`` is the index of the first dependent column; ``name`` is the
    variable name when the caller knows one.
    """

    def __init__(self, column: int, pivot: float, name: str | None = None):
        self.column = column
        self.pivot = pivot
        self.name = name
        label = f"column {column}" if name is None else f"column {column} ({name})"
        super().__init__(
            f"design matrix is rank deficient: {label} is linearly dependent "
            f"on earlier columns (pivot {pivot!r})"
        )


class NotPositiveDefiniteError(LinalgError):
    def __init__(self, smallest: float, context: str = "matrix"):
        self.smallest = smallest
        self.context = context
        super().__init__(
            f"{context} is not positive definite: smallest eigenvalue {smallest!r}"
        )


# ---------------------------------------------------------------------------
# preprocessing


class PreprocessError(PcrError):
    """Base class for table-preparation failures."""


class InsufficientDataError(PreprocessError):
    def __init__(self, needed: int, got: int, what: str):
        self.needed = needed
        self.got = got
        super().__init__(f"{what} needs at least {needed} observations, got {got}")


class ZeroVarianceError(PreprocessError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"column {name!r} has zero variance and cannot be standardized")


# ---------------------------------------------------------------------------
# component extraction


class PcaError(PcrError):
    """Base class for extraction and rotation failures."""


class ComponentCountError(PcaError):
    def __init__(self, message: str):
        super().__init__(message)


class NameMismatchError(PcaError):
    def __init__(self, missing: tuple[str, ...], extra: tuple[str, ...]):
        self.missing = missing
        self.extra = extra
        super().__init__(
            f"variable names do not match: missing {list(missing)}, extra {list(extra)}"
        )


# ---------------------------------------------------------------------------
# input / output


class ConfigError(PcrError):
    """Invalid run configuration (bad mode name, missing source, ...)."""


class TableFormatError(PcrError):
    """Structural problem in a delimited input table."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class OutputError(PcrError):
    def __init__(self, path: str, cause: str):
        self.path = path
        super().__init__(f"cannot write {path}: {cause}")


# ---------------------------------------------------------------------------
# pipeline staging

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

    ``report`` holds the partially filled report so a driver can still
    emit whatever completed before the failure.
    """

    def __init__(self, stage: str, cause: PcrError, report=None):
        self.stage = stage
        self.cause = cause
        self.report = report
        self.exit_code = STAGE_EXIT_CODES[stage]
        super().__init__(f"[{stage}] {cause}")
