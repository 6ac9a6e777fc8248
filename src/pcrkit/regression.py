"""Least-squares fits on increments and price-path reconstruction.

Two fits share one engine: a baseline OLS of the response increment on
the raw predictor increments, kept as a collinearity demonstration, and
the principal-components regression of the response increment on the
component scores.  The baseline is expected to fail or produce unstable
coefficients on strongly collinear data; the PCR fit is the product.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

import numpy as np

from .errors import PcrError
from .linalg import as_checked_array, column_exponents, solve_least_squares
from .preprocess import checked_names

# A centered response sum of squares at or below this fraction of the
# raw sum of squares is rounding residue: the response is treated as
# constant when guarding the R^2 division.  The test is relative, so it
# does not depend on the units of the response.
ZERO_VARIANCE_TOL = 1e-30


class OlsFit(NamedTuple):
    """An ordinary least-squares fit with an intercept.

    ``coefficients[j]`` belongs to ``predictor_names[j]``; the intercept
    is kept separate.  ``residual_se`` uses n - p - 1 degrees of
    freedom.
    """

    predictor_names: tuple[str, ...]
    intercept: float
    coefficients: np.ndarray
    fitted: np.ndarray
    r_squared: float
    residual_se: float


def fit_ols(predictors, response, names: tuple[str, ...]) -> OlsFit:
    """Fit response = intercept + predictors @ beta by least squares.

    It is solved with each column divided by a power of two
    (``column_exponents``), which is exact, so it does not depend on the
    data's units.  ``solve_least_squares`` relies on that scaling: its
    rank test takes each column's norm, which cannot then overflow or
    underflow.  A coefficient too small for a normal float comes back
    subnormal or 0.0; the fitted values and R^2 do not depend on it.

    Parameters
    ----------
    predictors : array_like, shape (n, p)
    response : array_like, shape (n,)
    names : tuple of str
        One distinct, non-empty name per predictor, for error messages
        and the fit record; a str raises rather than being split.

    Raises
    ------
    PcrError
        Predictors that are not two-dimensional, a response that is not
        one value per row, names that are not p distinct non-empty str,
        fewer than p + 2 observations (no residual degree of freedom), or
        a coefficient too large for a float, naming its column.
    RankDeficiencyError
        A predictor is linearly dependent on earlier ones (or constant,
        which duplicates the intercept); the error names it and gives
        the pivot of its scaled column.
    """
    x = as_checked_array(predictors, "predictors")
    if x.ndim != 2:
        raise PcrError(f"predictors: expected shape (n, p), got {x.shape}")
    y = as_checked_array(response, "response")
    n, p = x.shape
    if y.shape != (n,):
        raise PcrError(f"response vector: expected shape ({n},), got {y.shape}")
    names = checked_names(names, p, f"{p} predictors")
    if n < p + 2:
        raise PcrError(f"ols with {p} predictors needs at least {p + 2} observations, got {n}")
    e, e_y = column_exponents(x), int(column_exponents(y))
    design = np.column_stack([np.ones(n), np.ldexp(x, -e)])
    design_names = ("intercept",) + names
    scaled_y = np.ldexp(y, -e_y)
    scaled_beta = solve_least_squares(design, scaled_y, names=design_names)
    shifts = e_y - np.concatenate(([0], e))
    with np.errstate(over="ignore"):
        beta = np.ldexp(scaled_beta, shifts)
    if not np.isfinite(beta).all():
        bad = int(np.flatnonzero(~np.isfinite(beta))[0])
        raise PcrError(
            f"least-squares coefficient of column {bad} ({design_names[bad]}) is "
            f"{float(scaled_beta[bad])!r} * 2**{int(shifts[bad])}, which overflows"
        )
    scaled_fitted = design @ scaled_beta
    residuals = scaled_y - scaled_fitted
    ss_res = float(residuals @ residuals)
    centered = scaled_y - scaled_y.mean()
    ss_tot = float(centered @ centered)
    if ss_tot <= ZERO_VARIANCE_TOL * float(scaled_y @ scaled_y):
        warnings.warn(
            "response has zero variance; R^2 reported as 0.0", stacklevel=2
        )
        r_squared = 0.0
    else:
        r_squared = 1.0 - ss_res / ss_tot
    residual_se = float(np.ldexp(np.sqrt(ss_res / (n - p - 1)), e_y))
    return OlsFit(
        predictor_names=names,
        intercept=float(beta[0]),
        coefficients=beta[1:].copy(),
        fitted=np.ldexp(scaled_fitted, e_y),
        r_squared=r_squared,
        residual_se=residual_se,
    )


def fit_pcr(scores, response, component_names: tuple[str, ...]) -> OlsFit:
    """Principal-components regression: OLS of the response increment on
    component scores.

    The scores are orthogonal by construction on the training data, so
    this fit is immune to the collinearity that breaks the raw-variable
    baseline.  With all components retained the scores span the same
    column space as the predictors, so the fit reproduces the baseline's
    fitted values up to rounding.  ``extract`` keeps at most n - 2
    components for n increments: the fit keeps a residual degree of freedom.
    """
    return fit_ols(scores, response, names=component_names)


class PricePath(NamedTuple):
    """A reconstructed level series: base level, then one level per increment."""

    base: float
    levels: np.ndarray


def reconstruct_prices(base: float, increments) -> PricePath:
    """Rebuild levels from a base level and a series of increments.

    ``levels[t] = base + increments[0] + ... + increments[t]``, computed
    by sequential addition (``np.cumsum``) so that reconstructing from
    exact differences replays the original series bit for bit.
    ``levels[t]`` belongs to the year of ``increments[t]``; the years stay
    with the increments.  ``as_checked_array`` reads and checks both
    the base and the increments.
    """
    inc = as_checked_array(increments, "increments")
    if inc.ndim != 1:
        raise PcrError(f"increments: expected shape (n,), got {inc.shape}")
    base_level = as_checked_array([base], "base level")
    if base_level.shape != (1,):
        raise PcrError(f"base level: expected one number, got shape {base_level.shape[1:]}")
    levels = np.cumsum(np.concatenate((base_level, inc)))[1:]
    return PricePath(base=float(base_level[0]), levels=levels)
