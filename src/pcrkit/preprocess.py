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
from collections.abc import Iterable, Sequence

import numpy as np

from .errors import PcrError
from .linalg import (
    EigenDecomposition,
    as_checked_array,
    canonical_columns,
    column_exponents,
    eigen_symmetric,
)

# Bare values may differ from their transpose by this much, relative to
# their largest entry or 1, before they are rejected as asymmetric.
SYMMETRY_TOL = 1e-9
# A correlation matrix may dip this far below zero in its smallest
# eigenvalue before it is rejected as indefinite.
PSD_TOL = 1e-8

DIFFERENCE_MODES = ("absolute", "percent", "off")

# Cutoffs of ``vif``; its docstring says how each is used.
VIF_RCOND = 1e-10
VIF_SPAN_TOL = 1e-8
VIF_MAX = 1e12


def checked_names(names, count: int | None = None, shape: str = "") -> tuple[str, ...]:
    """``names`` as distinct non-empty str, ``count`` of them if given; a str raises."""
    if not isinstance(names, str):
        try:
            names = tuple(names)
        except TypeError:
            pass
    if not isinstance(names, tuple):
        raise PcrError(f"column names are {type(names).__name__}, not a sequence of str")
    if count is not None and len(names) != count:
        raise PcrError(f"{len(names)} names for {shape}")
    for i, name in enumerate(names, 1):
        if not isinstance(name, str):
            raise PcrError(f"column name {i} of {len(names)} is {type(name).__name__}, not str")
        if not name:
            raise PcrError(f"column name {i} of {len(names)} is empty")
    if len(set(names)) != len(names):
        name = next(n for i, n in enumerate(names) if n in names[:i])
        raise PcrError(f"duplicate column name {name!r}")
    return names


def name_mismatch(wanted: Sequence[str], given: Sequence[str]) -> PcrError:
    """The error for ``given`` names that do not match ``wanted``, naming both differences."""
    missing = [n for n in wanted if n not in given]
    extra = [n for n in given if n not in wanted]
    return PcrError(f"variable names do not match: missing {missing}, extra {extra}")


class TimeSeriesTable:
    """A rectangular block of yearly observations.

    ``years`` is an int64 array, ``names`` a tuple of distinct non-empty
    str and ``values`` a finite 2-d float64 array, where ``values[i, j]``
    is variable ``names[j]`` in year ``years[i]``.  Each is set once, by
    ``__init__``, to the table's own copy of what it is given; reassign
    none, as a :class:`CorrelationMatrix` of the table caches its
    ``eigen`` from them.  Years come in an integer, float, object or
    numeric-text array (any other dtype, bool and ``datetime64`` too,
    raises, named) and must be consecutive whole numbers that fit a
    64-bit integer: a fractional year raises, never truncated, whatever
    holds it; a larger one raises, never wraps.  Numeric strings convert;
    complex or unreadable values raise.
    """

    def __init__(self, years, names: Iterable[str], values):
        try:
            years = np.asarray(years)
            if years.dtype.kind not in "iufOUS":
                raise PcrError(f"cannot read years of dtype {years.dtype}")
            # Only these kinds can hold a fraction, which the cast would
            # truncate, or a whole number outside int64, which it would wrap.
            if years.dtype.kind in "fuO":
                for year in years.ravel().tolist():
                    fits = year >= -(2**63) and year < 2**63
                    if year % 1 != 0:
                        raise PcrError(f"year {year!r} is not a whole number")
                    if not fits:
                        raise PcrError(f"year {year!r} is not a 64-bit integer")
            years = years.astype(np.int64)
        except (TypeError, ValueError, ArithmeticError) as err:
            raise PcrError(f"cannot read years as whole numbers: {err}") from None
        values = as_checked_array(values, "table values")
        if values.ndim != 2:
            raise PcrError(f"table values must be 2-d, got shape {values.shape}")
        if years.ndim != 1 or years.shape[0] != values.shape[0]:
            raise PcrError(
                f"{years.shape[0] if years.ndim == 1 else '?'} years for "
                f"{values.shape[0]} rows"
            )
        self.names = checked_names(names, values.shape[1], f"{values.shape[1]} columns")
        if not np.all(np.diff(years) == 1):
            gap = int(np.argmax(np.diff(years) != 1))
            raise PcrError(
                f"years must be consecutive: {years[gap]} is followed by {years[gap + 1]}"
            )
        self.years = years
        self.values = values

    @property
    def n_years(self) -> int:
        return int(self.years.shape[0])

    def column(self, name: str) -> np.ndarray:
        if name not in self.names:
            raise name_mismatch([name], [])
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


class CorrelationMatrix:
    """A validated Pearson correlation matrix with distinct, non-empty names.

    Built from ``names`` and bare ``values``, or from ``data`` alone,
    whose column names it takes.  Bare values are checked here and
    nowhere else: finite and square, symmetric within ``SYMMETRY_TOL``
    (1e-9, relative to the largest entry or 1), with a unit diagonal and
    entries in [-1, 1] within 1e-12.  Their exact form (``_finished``, a
    new array) is stored, decomposed by ``eigen_symmetric`` on
    construction and rejected unless positive semidefinite up to
    ``PSD_TOL`` (1e-8).  ``data`` is a standardized table Z of at least two
    rows: the matrix is Z'Z / (n - 1), semidefinite by construction,
    computed and finished here as bare values are, and ``eigen``, the
    spectrum, from one thin SVD of Z when first read.  ``names`` (a
    tuple), ``data`` (Z or None) and ``values`` are set once and
    ``eigen`` is cached from them: reassign none of them.
    """

    def __init__(self, names: Iterable[str] | None = None, values=None,
                 data: TimeSeriesTable | None = None):
        if (names is None, values is None) != (data is not None,) * 2:
            raise PcrError("a correlation matrix takes names and values, or data alone")
        if data is None:
            values = as_checked_array(values, "correlation matrix")
            if values.ndim != 2 or values.shape[0] != values.shape[1]:
                raise PcrError(f"expected a square 2-d matrix, got shape {values.shape}")
            gap = np.abs(values - values.T)
            if gap.size and gap.max() > SYMMETRY_TOL * max(np.abs(values).max(), 1.0):
                i, j = np.unravel_index(int(np.argmax(gap)), gap.shape)
                raise PcrError(
                    f"matrix is not symmetric: |a[{i},{j}] - a[{j},{i}]| = {float(gap[i, j])!r}"
                )
        elif data.n_years < 2:
            raise PcrError(f"correlation needs at least 2 observations, got {data.n_years}")
        else:
            names = data.names
            values = data.values.T @ data.values / (data.n_years - 1)
        p = values.shape[0]
        if p == 0:
            raise PcrError("correlation matrix has no variables")
        self.data = data
        self.names = checked_names(names, p, f"a {p}-row matrix")
        self.values = _finished(self.names, values)
        if data is None:
            smallest = float(self.eigen.eigenvalues[-1])
            if smallest < -PSD_TOL:
                raise PcrError(
                    f"correlation matrix is not positive definite: smallest eigenvalue "
                    f"{smallest!r}"
                )

    @functools.cached_property
    def eigen(self) -> EigenDecomposition:
        """Spectrum; with ``data``, from Z = U S V^T: eigenvalues s_i^2 / (n - 1), eigenvectors V.

        Working on Z keeps R's condition number from being squared.
        The n centred rows of Z have rank at most n - 1, so s_n, where
        there is one, is rounding residue and its eigenvalue is 0.  With
        fewer rows than columns, exact zeros pad the spectrum to p and
        the full V completes the basis.  The s_i^2 are scaled to sum to
        p rather than divided by n - 1: the two agree in exact
        arithmetic, where every column's squared norm is n - 1, but only
        the scaled form sums to the trace of R's pinned unit diagonal
        and gives a lone variable exactly 1.
        """
        if self.data is None:
            return eigen_symmetric(self.values)
        n, p = self.data.values.shape
        _, s, vt = np.linalg.svd(self.data.values, full_matrices=n < p)
        squares = s**2
        squares[n - 1:] = 0.0
        eigenvalues = np.zeros(p)
        eigenvalues[: s.size] = squares * p / squares.sum()
        return EigenDecomposition(*canonical_columns(eigenvalues, vt.T))

    def submatrix(self, names: Iterable[str]) -> "CorrelationMatrix":
        """Principal submatrix for the given variable names, in that order.

        With ``data``, it is built from those columns of the data alone.
        """
        names = checked_names(names)
        missing = [n for n in names if n not in self.names]
        if missing:
            raise name_mismatch(missing, [])
        idx = [self.names.index(n) for n in names]
        if self.data is None:
            return CorrelationMatrix(names, self.values[np.ix_(idx, idx)])
        return CorrelationMatrix(
            data=TimeSeriesTable(self.data.years, names, self.data.values[:, idx])
        )


def correlation_matrix(z: TimeSeriesTable) -> CorrelationMatrix:
    """Pearson correlations of the standardized columns of ``z``.

    With unit-variance columns the matrix is Z'Z / (n - 1), which
    :class:`CorrelationMatrix` computes from ``z`` when it is built and
    finishes exactly; the spectrum comes from ``z`` too.
    """
    return CorrelationMatrix(data=z)


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
