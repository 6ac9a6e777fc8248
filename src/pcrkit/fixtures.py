"""Bundled correlation fixture for matrix-only runs.

The fixture is a published two-decimal Pearson correlation table of
nine yearly housing-market indicators: investment in housing
(IY), real-estate business employment (REI), private-dwelling starts
(PDS) and completions (PDC), interest rate (IR), gross value added
(GVA), consumer price index (CPI), population density (PD), and gross
disposable household income (GDHI).

Rounding a correlation matrix to two decimals can leave it slightly
indefinite, and this one is: its smallest eigenvalue is about -0.006.
:func:`nearest_valid_correlation` lifts the offending eigenvalues to a
tiny positive floor and renormalizes the diagonal, which moves no entry
by more than 0.005, so the repaired matrix still reproduces the printed
table exactly at two decimals.  :class:`CorrelationMatrix` stores its
exact form, which satisfies every invariant a computed one does.
"""

from __future__ import annotations

import numpy as np

from .errors import PcrError
from .linalg import eigen_symmetric
from .preprocess import CorrelationMatrix

INDICATOR_NAMES = ("IY", "REI", "PDS", "PDC", "IR", "GVA", "CPI", "PD", "GDHI")

# Strict lower triangle of the published table, row by row, in the
# order above.  Entries are the printed two-decimal values.
_LOWER_TRIANGLE = (
    (0.94,),
    (-0.43, -0.56),
    (-0.18, -0.26, 0.76),
    (-0.88, -0.84, 0.64, 0.55),
    (0.99, 0.93, -0.50, -0.28, -0.91),
    (0.25, 0.08, -0.34, -0.50, -0.46, 0.33),
    (0.98, 0.95, -0.57, -0.30, -0.91, 0.99, 0.30),
    (0.99, 0.94, -0.53, -0.30, -0.92, 0.99, 0.30, 1.00),
)

# Relative eigenvalue floor used by the repair.
REPAIR_FLOOR = 1e-6


def published_correlations() -> np.ndarray:
    """The printed correlation table as a symmetric array, verbatim."""
    p = len(INDICATOR_NAMES)
    out = np.eye(p)
    for i, row in enumerate(_LOWER_TRIANGLE, start=1):
        for j, value in enumerate(row):
            out[i, j] = value
            out[j, i] = value
    return out


def nearest_valid_correlation(values) -> np.ndarray:
    """Project a slightly indefinite correlation matrix to a valid one.

    ``values`` must be a finite symmetric table, as
    ``published_correlations`` builds it: ``eigen_symmetric`` does not
    check.  Eigenvalues below ``REPAIR_FLOOR`` times the largest
    eigenvalue are raised to that floor, the matrix is rebuilt, and a
    congruence scales its diagonal back to 1.  That preserves
    definiteness, so the result is strictly positive definite; it is
    symmetric with a unit diagonal up to rounding, which
    :class:`CorrelationMatrix` removes.  For matrices that are only
    indefinite through rounding, entries move on the order of the
    eigenvalue deficit, inside the rounding radius.
    """
    eig = eigen_symmetric(values)
    lifted = np.maximum(eig.eigenvalues, REPAIR_FLOOR * float(eig.eigenvalues.max()))
    rebuilt = (eig.eigenvectors * lifted) @ eig.eigenvectors.T
    scale = np.sqrt(np.diagonal(rebuilt))
    return rebuilt / np.outer(scale, scale)


FIXTURE_NAMES = ("fig3",)


def load_fixture(name: str) -> CorrelationMatrix:
    """Load a bundled fixture by name, repaired and validated.

    ``fig3`` is the nine-indicator table documented in the module
    docstring; ``published_correlations()`` is its printed form.
    Unknown names raise a :class:`PcrError` listing what is available.
    """
    if name not in FIXTURE_NAMES:
        raise PcrError(
            f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}"
        )
    repaired = nearest_valid_correlation(published_correlations())
    return CorrelationMatrix(INDICATOR_NAMES, repaired)
