"""Dense numeric core: symmetric eigensolver and least squares.

The eigensolver is LAPACK's symmetric driver behind ``numpy.linalg.eigh``
with a fixed contract on top: eigenvalues in descending order, a stable
order among ties, and a sign convention on every eigenvector.  Repeated
calls on the same input therefore give bit-identical output, which the
deterministic reports rely on.  It trusts its callers to pass a finite
symmetric matrix, as ``CorrelationMatrix`` ensures, and checks neither.

Least squares is the QR solver of ``regression.fit_ols``, which checks
and scales its inputs first.  An explicit pivot check makes rank
deficiency a structured error naming the offending column instead of a
silently garbage coefficient vector.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import PcrError, RankDeficiencyError

# A diagonal entry of R at or below this multiple of the norm of its own
# design column marks that column as dependent on the earlier ones.  The
# test compares each column with itself, so it does not depend on units
# once the column is scaled, as fit_ols scales it, so that its norm can
# neither overflow nor underflow.
RANK_TOL = 1e-12


def as_checked_array(a, where: str) -> np.ndarray:
    """Return ``a`` as a new float64 array, rejecting NaN and infinity.

    This is where outside numbers are read: numeric strings convert as
    ``float()`` reads them, and complex input or an entry that cannot be
    read raises :class:`PcrError` naming ``where``, as a non-finite one does.
    """
    try:
        out = np.asarray(a)
        if out.dtype.kind != "c":
            out = np.array(a, dtype=np.float64)
    except (TypeError, ValueError) as err:
        raise PcrError(f"cannot read {where} as numbers: {err}") from None
    if out.dtype.kind == "c":
        raise PcrError(f"{where} must be real, got {out.dtype}")
    if not np.all(np.isfinite(out)):
        bad = tuple(int(i) for i in np.argwhere(~np.isfinite(out))[0])
        raise PcrError(f"non-finite entry in {where} at index {bad}")
    return out


class EigenDecomposition(NamedTuple):
    """Eigenvalues in descending order with column-aligned eigenvectors.

    ``eigenvectors[:, j]`` belongs to ``eigenvalues[j]``.  Each vector is
    unit length with its largest-magnitude entry non-negative (ties are
    broken toward the lowest index), so repeated calls on the same input
    are bit-identical.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eigen_symmetric(a) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric matrix.

    Parameters
    ----------
    a : array_like
        Finite and symmetric, which the caller guarantees: ``numpy.linalg.eigh``
        reads only the lower triangle and checks neither.

    Returns
    -------
    EigenDecomposition
        Sorted descending; the sort is stable, so equal eigenvalues keep
        the order ``numpy.linalg.eigh`` returns them in.
    """
    values, vectors = np.linalg.eigh(a)
    return EigenDecomposition(*canonical_columns(values, vectors))


def canonical_columns(key: np.ndarray, columns: np.ndarray, *others: np.ndarray):
    """Order ``columns`` by descending ``key`` and fix each column's sign.

    The sort is stable, so tied keys keep their order.  Each column is
    then flipped so that its largest-magnitude entry (the lowest index on
    ties) is non-negative.  The columns of every matrix in ``others`` get
    the same permutation and signs.  Multiplying by +-1.0 is exact, so
    no bits change beyond the sign.  Returns the sorted ``key``, the
    columns and then ``others``.
    """
    order = np.argsort(-key, kind="stable")
    columns = columns[:, order]
    pivots = np.abs(columns).argmax(axis=0)
    signs = np.where(columns[pivots, np.arange(order.size)] < 0.0, -1.0, 1.0)
    return (key[order], columns * signs, *(m[:, order] * signs for m in others))


def column_exponents(x: np.ndarray) -> np.ndarray:
    """The power of two that brings each column's largest magnitude into [0.5, 1).

    ``np.ldexp(x, -column_exponents(x))`` scales each column exactly, so
    sums, squares and square roots of the scaled columns are those of
    the originals times a power of two, bit for bit, but cannot overflow
    or underflow to zero.  Subnormal inputs have already lost precision
    that no scaling restores.
    """
    return np.frexp(np.abs(x).max(axis=0))[1]


def solve_least_squares(design, response, names: tuple[str, ...]) -> np.ndarray:
    """Least-squares coefficients for ``design @ beta ~ response`` via QR.

    It solves what ``fit_ols`` builds and checks: a finite design with
    more rows than columns, each column scaled by ``column_exponents``,
    a response of one entry per row, and one name per column.  A column
    whose diagonal of R is at most ``RANK_TOL`` times its norm raises
    :class:`RankDeficiencyError` naming it.  A coefficient too large
    for a float (a pivot tiny next to the response) raises
    :class:`PcrError` naming its column.
    """
    q, r = np.linalg.qr(design)
    diag = np.abs(np.diagonal(r))
    dependent = np.flatnonzero(diag <= RANK_TOL * np.linalg.norm(design, axis=0))
    if dependent.size:
        bad = int(dependent[0])
        raise RankDeficiencyError(column=bad, pivot=float(diag[bad]), name=names[bad])
    with np.errstate(over="ignore", invalid="ignore"):
        beta = q.T @ response
        for i in range(beta.size - 1, -1, -1):
            beta[i] = (beta[i] - r[i, i + 1 :] @ beta[i + 1 :]) / r[i, i]
    finite = np.isfinite(beta)
    if not finite.all():
        # Back-substitution runs from the last column: the highest
        # non-finite coefficient is where the overflow began.
        bad = int(np.flatnonzero(~finite)[-1])
        raise PcrError(
            f"least-squares coefficient of column {bad} ({names[bad]}) is not finite: "
            f"dividing by its pivot {float(r[bad, bad])!r} overflows"
        )
    return beta
