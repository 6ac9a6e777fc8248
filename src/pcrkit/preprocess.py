"""Yearly-table preparation: differencing, standardization, correlation.

The pipeline works on short macro series (around twenty yearly rows), so
everything here favours explicit validation over generality.  Levels are
turned into year-over-year increments, increments are standardized to
zero mean and unit sample variance, and the Pearson correlation matrix
of the standardized columns is the object the component analysis runs
on.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import PcrError
from .linalg import (
    EigenDecomposition,
    as_checked_array,
    canonical_columns,
    check_symmetric,
    column_exponents,
    eigen_symmetric,
)

# A correlation matrix may dip this far below zero in its smallest
# eigenvalue before it is rejected as indefinite.
PSD_TOL = 1e-8

DIFFERENCE_MODES = ("absolute", "percent", "off")

# Cutoffs of ``vif``; its docstring says how each is used.
VIF_RCOND = 1e-10
VIF_SPAN_TOL = 1e-8
VIF_MAX = 1e12


def _checked_names(names: Sequence[str]) -> tuple[str, ...]:
    names = tuple(names)
    if "" in names:
        raise PcrError(f"column name {names.index('') + 1} of {len(names)} is empty")
    if len(set(names)) != len(names):
        name = next(n for i, n in enumerate(names) if n in names[:i])
        raise PcrError(f"duplicate column name {name!r}")
    return names


@dataclass(frozen=True, eq=False)
class TimeSeriesTable:
    """A rectangular block of yearly observations.

    ``values[i, j]`` is variable ``names[j]`` in year ``years[i]``.
    Years must be consecutive integers, names distinct and not empty,
    and all values finite.
    """

    years: np.ndarray
    names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        years = np.asarray(self.years, dtype=np.int64)
        values = as_checked_array(self.values, "table values")
        if values.ndim != 2:
            raise PcrError(f"table values must be 2-d, got shape {values.shape}")
        if years.ndim != 1 or years.shape[0] != values.shape[0]:
            raise PcrError(
                f"{years.shape[0] if years.ndim == 1 else '?'} years for "
                f"{values.shape[0]} rows"
            )
        if len(self.names) != values.shape[1]:
            raise PcrError(f"{len(self.names)} names for {values.shape[1]} columns")
        names = _checked_names(self.names)
        if years.size > 1 and not np.all(np.diff(years) == 1):
            gap = int(np.argmax(np.diff(years) != 1))
            raise PcrError(
                f"years must be consecutive: {years[gap]} is followed by {years[gap + 1]}"
            )
        object.__setattr__(self, "years", years)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "names", names)

    @property
    def n_years(self) -> int:
        return int(self.years.shape[0])

    def column(self, name: str) -> np.ndarray:
        if name not in self.names:
            raise PcrError(f"variable names do not match: missing [{name!r}], extra []")
        return self.values[:, self.names.index(name)].copy()


def difference(table: TimeSeriesTable, mode: str = "absolute") -> TimeSeriesTable:
    """Year-over-year increments of every column.

    ``absolute`` takes plain first differences; ``percent`` divides each
    difference by the previous level; ``off`` returns the table as is
    for data that already arrives in increments.  The output drops the
    first year.  Needs at least three years so downstream statistics
    have two increments to work with.  An increment too large for a
    float raises, naming the year and column it belongs to.
    """
    if mode not in DIFFERENCE_MODES:
        raise PcrError(f"unknown difference mode {mode!r}")
    if mode == "off":
        return table
    if table.n_years < 3:
        raise PcrError(f"differencing needs at least 3 observations, got {table.n_years}")
    current = table.values[1:, :]
    previous = table.values[:-1, :]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        deltas = current - previous
        if mode == "percent":
            deltas = deltas / previous
    finite = np.isfinite(deltas)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        if previous[i, j] == 0.0:
            raise PcrError(
                f"percent differencing divides by zero at year {int(table.years[i])}, "
                f"column {table.names[j]!r}"
            )
        raise PcrError(
            f"{mode} differencing overflows at year {int(table.years[i + 1])}, "
            f"column {table.names[j]!r}"
        )
    return TimeSeriesTable(table.years[1:], table.names, deltas)


def standardize(table: TimeSeriesTable) -> TimeSeriesTable:
    """A table of the same years with every column at mean 0, sample sd 1.

    Each column is first divided by the power of two nearest its
    largest magnitude (``column_exponents``).  That is exact, so the
    result is bit-identical, but the squared deviations can neither
    overflow nor underflow: columns of any normal scale, 1e-300 to
    1e300, standardize alike.  A constant column, or fewer than two
    rows, raises :class:`~pcrkit.errors.PcrError` naming the cause.
    """
    if table.n_years < 2:
        raise PcrError(f"standardization needs at least 2 observations, got {table.n_years}")
    values = np.ldexp(table.values, -column_exponents(table.values))
    means = values.mean(axis=0)
    sds = values.std(axis=0, ddof=1)
    for j, sd in enumerate(sds):
        if sd == 0.0:
            raise PcrError(
                f"column {table.names[j]!r} has zero variance and cannot be standardized"
            )
    return TimeSeriesTable(table.years, table.names, (values - means) / sds)


def _finished(names: tuple[str, ...], values: np.ndarray) -> np.ndarray:
    """Checked symmetric ``values`` in exact form, equal to their transpose bit for bit.

    A diagonal entry off 1 or an entry outside [-1, 1] by more than
    1e-12 raises; the rest becomes (v + v^T) / 2 clipped to [-1, 1],
    diagonal 1.
    """
    diagonal_gap = np.abs(np.diagonal(values) - 1.0)
    if diagonal_gap.max() > 1e-12:
        j = int(np.argmax(diagonal_gap))
        raise PcrError(f"diagonal entry for {names[j]!r} is {float(values[j, j])!r}, not 1.0")
    if np.abs(values).max() > 1.0 + 1e-12:
        i, j = np.unravel_index(int(np.argmax(np.abs(values))), values.shape)
        raise PcrError(
            f"correlation out of [-1, 1] at ({names[i]}, {names[j]}): {float(values[i, j])!r}"
        )
    values = np.clip((values + values.T) / 2.0, -1.0, 1.0)
    np.fill_diagonal(values, 1.0)
    return values


@dataclass(frozen=True, eq=False, init=False)
class CorrelationMatrix:
    """A validated Pearson correlation matrix with distinct, non-empty names.

    Built from exactly one source.  Bare ``values`` must be symmetric,
    with a unit diagonal and within [-1, 1] up to rounding; their exact
    form (``_finished``) is stored, decomposed by ``eigen_symmetric`` on
    construction and rejected unless positive semidefinite up to
    ``PSD_TOL``.  ``data`` is a standardized table Z of at least two
    rows: the matrix is Z'Z / (n - 1), semidefinite by construction,
    computed and finished as bare values are when ``values`` is first
    read, and ``eigen`` comes from one thin SVD of Z.  ``eigen`` holds
    the spectrum, computed once.
    """

    names: tuple[str, ...]
    data: TimeSeriesTable | None = field(default=None, repr=False)

    def __init__(self, names: Sequence[str], values=None, data: TimeSeriesTable | None = None):
        if (values is None) == (data is None):
            raise PcrError("a correlation matrix takes exactly one of values and data")
        if data is None:
            values = check_symmetric(values, where="correlation matrix")
        elif data.n_years < 2:
            raise PcrError(f"correlation needs at least 2 observations, got {data.n_years}")
        p = values.shape[0] if data is None else len(data.names)
        if p == 0:
            raise PcrError("correlation matrix has no variables")
        if data is None and len(names) != p:
            raise PcrError(f"{len(names)} names for a {p}-row matrix")
        names = _checked_names(names)
        if data is not None and data.names != names:
            raise PcrError(f"data columns {data.names} do not match {names}")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "data", data)
        if data is None:
            object.__setattr__(self, "values", _finished(names, values))
            smallest = float(self.eigen.eigenvalues[-1])
            if smallest < -PSD_TOL:
                raise PcrError(
                    f"correlation matrix is not positive definite: smallest eigenvalue "
                    f"{smallest!r}"
                )

    @functools.cached_property
    def values(self) -> np.ndarray:
        """The matrix; with ``data``, Z'Z / (n - 1) finished on first read."""
        z = self.data.values
        r = check_symmetric(z.T @ z / (self.data.n_years - 1), where="correlation matrix")
        return _finished(self.names, r)

    @functools.cached_property
    def eigen(self) -> EigenDecomposition:
        """Spectrum; with ``data``, from Z = U S V^T: eigenvalues s_i^2 / (n - 1), eigenvectors V.

        Working on Z keeps R's condition number from being squared.
        With fewer rows than columns, exact zeros pad the spectrum to p
        and the full V completes the basis.  The s_i^2 are scaled to sum
        to p rather than divided by n - 1: the two agree in exact
        arithmetic, where every column's squared norm is n - 1, but only
        the scaled form sums to the trace of R's pinned unit diagonal
        and gives a lone variable exactly 1.
        """
        if self.data is None:
            return eigen_symmetric(self.values)
        n, p = self.data.values.shape
        _, s, vt = np.linalg.svd(self.data.values, full_matrices=n < p)
        squares = s**2
        eigenvalues = np.zeros(p)
        eigenvalues[: s.size] = squares * p / squares.sum()
        return EigenDecomposition(*canonical_columns(eigenvalues, vt.T))

    @property
    def p(self) -> int:
        return len(self.names)

    def submatrix(self, names: tuple[str, ...]) -> "CorrelationMatrix":
        """Principal submatrix for the given variable names, in that order.

        With ``data``, it is built from those columns of the data alone.
        """
        missing = [n for n in names if n not in self.names]
        if missing:
            raise PcrError(f"variable names do not match: missing {missing}, extra []")
        names = tuple(names)
        idx = [self.names.index(n) for n in names]
        if self.data is None:
            return CorrelationMatrix(names, self.values[np.ix_(idx, idx)])
        return CorrelationMatrix(
            names, data=TimeSeriesTable(self.data.years, names, self.data.values[:, idx])
        )


def correlation_matrix(z: TimeSeriesTable) -> CorrelationMatrix:
    """Pearson correlations of the standardized columns of ``z``.

    With unit-variance columns the matrix is Z'Z / (n - 1), which
    :class:`CorrelationMatrix` computes from ``z`` when it is first read
    and finishes exactly; the spectrum comes from ``z`` too.
    """
    return CorrelationMatrix(z.names, data=z)


def scatter_pairs(names: Sequence[str]) -> list[tuple[int, int]]:
    """Index pairs of ``names``, ordered lexicographically by name.

    This is the pair order of the flat-file counterpart of a scatterplot
    matrix: each pair appears once, x indexing the alphabetically
    earlier name.  With m names that is m(m-1)/2 pairs; the pipeline
    writes one scatter row per pair and increment.
    """
    order = sorted(range(len(names)), key=names.__getitem__)
    return list(itertools.combinations(order, 2))


def vif(r: CorrelationMatrix) -> dict[str, float]:
    """Variance inflation factor of every variable against the others.

    VIF_j = 1 / (1 - R_j^2), where R_j^2 comes from regressing variable
    j on all the others; for a correlation matrix that is the j-th
    diagonal entry of R^-1.  R is not inverted: from its spectrum
    R = V Lambda V^T (``r.eigen``), VIF_j = sum_i V_ji^2 / lambda_i over
    the kept eigenvalues, lambda_i > ``VIF_RCOND``^2 * lambda_1.  For a
    matrix built from data the lambda_i are the scaled s_i^2 of the thin
    SVD of Z, so the cut is s_i > ``VIF_RCOND`` * s_1, and one SVD serves
    both this diagnostic and the component analysis.

    VIF_j is ``math.inf`` when variable j keeps more than
    ``VIF_SPAN_TOL`` of its unit weight outside the kept eigenvectors
    (it lies in the span of the others; with no more observations than
    variables this holds for every one), or when the value reaches
    ``VIF_MAX`` (R_j^2 within 1e-12 of 1), so perfectly collinear blocks
    are unmistakable in the output.  Finite values are floored at 1.  A
    lone variable has spectrum [1] and eigenvector [1], so its VIF is 1.0.
    """
    lam, vectors = r.eigen
    kept = lam > VIF_RCOND**2 * lam[0]
    v = vectors[:, kept] ** 2
    weight = v.sum(axis=1)
    inflation = (v / lam[kept]).sum(axis=1)
    return {
        name: math.inf if 1.0 - w > VIF_SPAN_TOL or f >= VIF_MAX else max(f, 1.0)
        for name, w, f in zip(r.names, weight.tolist(), inflation.tolist())
    }
