"""Principal components of a correlation matrix, varimax, score weights.

Components are extracted from the spectrum of a correlation matrix
(``CorrelationMatrix.eigen``: from the SVD of the standardized data on
a table run, from the matrix itself otherwise), so the same code drives
both the full data pipeline and matrix-only runs where a published
correlation table is all that survives of a study.
Loadings follow the factor-analysis convention: column j of the loading
matrix is sqrt(lambda_j) times the j-th eigenvector, so squared loadings
sum to the eigenvalue down a column and to the communality across a row.
Varimax turns each plane by Kaiser's closed-form angle and stops on the
largest angle a sweep turned, or at the sweep cap.
Score weights and component scores are computed from a solution on each call.
"""

from __future__ import annotations

import numbers
from typing import NamedTuple

import numpy as np

from .errors import PcrError
from .linalg import canonical_columns
from .preprocess import CorrelationMatrix, TimeSeriesTable, name_mismatch

KAISER_THRESHOLD = 1.0
# Varimax stops after a sweep in which no plane turned by more than
# this (radians); loadings then lie within ~10x this of the fixed point.
VARIMAX_TOL = 1e-6
VARIMAX_MAX_SWEEPS = 100
# A component whose eigenvalue is at or below this has no variance to
# score: its weights would divide by it, so ``extract`` keeps none.
SCORE_EIGENVALUE_MIN = 1e-10


class PcaSolution(NamedTuple):
    """Extraction (and optionally rotation) of principal components.

    ``eigenvalues`` holds the full spectrum in descending order even
    when fewer components are retained.  ``loadings`` is p x k for the
    k = ``n_components`` retained components.  After rotation,
    ``rotated_loadings`` and the k x k orthogonal ``rotation`` satisfy
    ``rotated_loadings == loadings @ rotation`` up to rounding (a few
    units in the last place) and the rotated columns are ordered by
    descending sum of squared loadings.  ``last_sweep_angle`` exceeds
    ``VARIMAX_TOL`` only when varimax stopped at its sweep cap.

    Everything else is a property of these fields.  Variance
    proportions are reported for both conventions: per unrotated
    component, lambda_j / p; per rotated component, the sum of squared
    rotated loadings over p (``None`` when unrotated).  Their cumulative
    sums over the retained components agree because rotation only
    redistributes explained variance.
    """

    names: tuple[str, ...]
    eigenvalues: np.ndarray
    loadings: np.ndarray
    rotated_loadings: np.ndarray | None = None
    rotation: np.ndarray | None = None
    rotation_sweeps: int = 0
    last_sweep_angle: float = 0.0

    @property
    def p(self) -> int:
        return len(self.names)

    @property
    def n_components(self) -> int:
        return self.loadings.shape[1]

    @property
    def component_names(self) -> tuple[str, ...]:
        prefix = "PC" if self.rotated_loadings is None else "RC"
        return tuple(f"{prefix}{j + 1}" for j in range(self.n_components))

    @property
    def proportion(self) -> np.ndarray:
        return self.eigenvalues[: self.n_components] / self.p

    @property
    def cumulative(self) -> np.ndarray:
        return np.cumsum(self.proportion)

    @property
    def communality(self) -> np.ndarray:
        return (self.loadings**2).sum(axis=1)

    @property
    def uniqueness(self) -> np.ndarray:
        return 1.0 - self.communality

    @property
    def rotated_proportion(self) -> np.ndarray | None:
        if self.rotated_loadings is None:
            return None
        return (self.rotated_loadings**2).sum(axis=0) / self.p


def check_components(k: int | str) -> None:
    """Raise unless ``k`` is ``"auto"`` or a non-bool integer of at least 1."""
    integral = isinstance(k, numbers.Integral) and not isinstance(k, bool)
    if k != "auto" and not (integral and k >= 1):
        raise PcrError(f'components must be "auto" or a positive integer, got {k!r}')


def kaiser_count(eigenvalues: np.ndarray) -> int:
    """How many eigenvalues Kaiser's rule keeps: those strictly above 1."""
    return int(np.sum(eigenvalues > KAISER_THRESHOLD))


def extract(r: CorrelationMatrix, components: int | str = "auto") -> PcaSolution:
    """Extract principal components from a correlation matrix.

    Parameters
    ----------
    r : CorrelationMatrix
        Validated correlation matrix.
    components : int or "auto"
        Number of components to retain, at most L: L counts eigenvalues
        above ``SCORE_EIGENVALUE_MIN``, and is at most n - 2 when ``r``
        carries ``data`` of n rows so that the PCR fit keeps a residual
        degree of freedom.  ``"auto"`` keeps ``kaiser_count`` capped at
        L; on noise, Kaiser's rule keeps too many (Zwick & Velicer 1986).

    Raises
    ------
    PcrError
        If the count is not ``"auto"`` or a positive integer, is an
        integer above L (naming L), is ``"auto"`` and no eigenvalue
        clears the threshold, or L is 0 ("no component count fits").
    """
    check_components(components)
    values, vectors = r.eigen.eigenvalues, r.eigen.eigenvectors
    usable = int(np.sum(values > SCORE_EIGENVALUE_MIN))
    if r.data is not None:
        usable = min(usable, r.data.n_years - 2)
    k = kaiser_count(values) if components == "auto" else int(components)
    if k == 0:
        raise PcrError(
            "automatic retention kept no components: largest eigenvalue "
            f"{float(values[0])!r} does not exceed {KAISER_THRESHOLD}"
        )
    if not usable:
        kept = "automatic retention kept" if components == "auto" else "cannot retain"
        raise PcrError(f"{kept} {k} components; no component count fits")
    if components != "auto" and k > usable:
        raise PcrError(f"component count must be in [1, {usable}], got {components!r}")
    k = min(k, usable)
    loadings = vectors[:, :k] * np.sqrt(values[:k])
    return PcaSolution(names=r.names, eigenvalues=values.copy(), loadings=loadings)


def rotate_varimax(solution: PcaSolution) -> PcaSolution:
    """Varimax rotation of the retained loadings.

    Classic pairwise formulation (Kaiser 1958): each column pair turns
    by the closed-form angle that maximizes the varimax criterion in its
    plane, in full sweeps until no plane turns by more than
    ``VARIMAX_TOL`` radians, or for ``VARIMAX_MAX_SWEEPS`` sweeps; the
    rotation reached is kept, as it turns only the retained subspace and
    cannot change the PCR fit.  ``last_sweep_angle`` is the largest angle
    (radians) of the last sweep.  Rows are Kaiser-normalized (scaled to
    unit communality) during rotation.  A single retained component has
    no plane to rotate in, so its one sweep returns the identity rotation.

    The rotated columns are reordered by descending sum of squared
    loadings and sign-fixed so each column's largest-magnitude loading
    is positive; the returned ``rotation`` matrix absorbs both, so
    ``loadings @ rotation`` reproduces ``rotated_loadings`` up to
    rounding (a few units in the last place).
    """
    a = solution.loadings
    p, k = a.shape
    h = np.sqrt((a**2).sum(axis=1))
    h = np.where(h == 0.0, 1.0, h)
    # The rotation rides as k extra rows under the normalized loadings,
    # so each plane rotation turns both in one column update.  Angles
    # read the loading rows only.
    bt = np.vstack((a / h[:, None], np.eye(k)))

    for sweeps in range(1, VARIMAX_MAX_SWEEPS + 1):
        largest = 0.0
        for i in range(k - 1):
            for j in range(i + 1, k):
                # Turning w = x + iy by phi multiplies G = sum z^2 - (sum z)^2 / p
                # (z = w^2) by e^(-4i phi).  The plane's criterion is a constant
                # plus Re(G) / 4, largest when the turn takes G to the positive reals.
                w = bt[:, i] + 1j * bt[:, j]
                z = w[:p] * w[:p]
                g = z @ z - z.sum() ** 2 / p
                phi = 0.25 * np.arctan2(g.imag, g.real)
                w *= np.exp(-1j * phi)
                bt[:, i] = w.real
                bt[:, j] = w.imag
                largest = max(largest, abs(phi))
        if largest <= VARIMAX_TOL:
            break

    rotated = bt[:p] * h[:, None]
    # Order by explained variance and fix signs; fold both into the
    # rotation so that loadings @ rotation still gives rotated.
    _, rotated, t = canonical_columns((rotated**2).sum(axis=0), rotated, bt[p:])
    return solution._replace(rotated_loadings=rotated, rotation=t, rotation_sweeps=sweeps,
                             last_sweep_angle=float(largest))


def score_weights(solution: PcaSolution) -> np.ndarray:
    """Regression-method component score weights W = R^-1 L, p x k.

    R is the correlation matrix ``solution`` was extracted from.  Rows
    of W follow ``solution.names`` and columns
    ``solution.component_names``; component scores are ``Z @ W``.  W
    solves R @ W = L for the effective loadings L (the minimum-norm
    solution when R is singular), so on the data that produced R the
    scores are the least-squares projections of the components.  The
    loadings are L = V_k Lambda_k^(1/2) T, with T the varimax rotation
    (the identity when unrotated), so R^-1 L = (loadings / lambda_k) @ T
    depends on the solution alone and nothing is inverted; ``extract``
    retains only eigenvalues above ``SCORE_EIGENVALUE_MIN``.
    """
    weights = solution.loadings / solution.eigenvalues[: solution.n_components]
    if solution.rotation is not None:
        weights = weights @ solution.rotation
    return weights


def component_scores(z: TimeSeriesTable, solution: PcaSolution) -> np.ndarray:
    """Component scores ``z.values @ score_weights(solution)``, one row per year.

    The columns of ``z`` must match ``solution.names`` exactly; for a
    wider table, ``correlation_matrix(z).submatrix(names).data`` holds
    those columns.
    """
    if z.names != solution.names:
        raise name_mismatch(solution.names, z.names)
    return z.values @ score_weights(solution)
