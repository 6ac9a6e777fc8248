"""Exact-arithmetic oracle for the rational results of a run.

Every float is a dyadic rational, so exact integer and ``Fraction``
arithmetic computes exactly what pcrkit approximates.  The oracle starts
from pcrkit's own float increments, so it measures the arithmetic after
differencing and not the differencing itself.  Column j of the
increments is a_j / 2^(d_j) with a_j integer, and the centered
cross-products C_jk = A_jk / (n 2^(d_j + d_k)) come from the integer
matrix A_jk = n a_j . a_k - sum(a_j) sum(a_k).  Gauss-Jordan elimination
of the predictor block of A gives its inverse, det and the solution for
the response column.  The exact results are then:

- VIF_j = C_jj * (C^-1)_jj;
- the baseline OLS coefficients beta = C^-1 c, with c the
  cross-products of the predictors with the response, the intercept
  mean(y) - mean(x) . beta, the fitted values and R^2 = c . beta / s,
  with s the response's own sum of squares;
- the PCR fit keeping all p components, whose fitted values and R^2 are
  the baseline's: the scores span the predictors;
- the squared correlations C_jk^2 / (C_jj C_kk) of every pair of
  columns, the response included;
- det R = det C / prod_j C_jj, which equals the product of R's
  eigenvalues.

Each bound of a solved quantity is stated in units of eps * kappa(R),
with kappa(R) the ratio of the run's largest to smallest predictor
eigenvalue, after Higham, *Accuracy and Stability of Numerical
Algorithms*, 2nd ed., ch. 19-20.  A perturbation dR of R moves each
(R^-1)_jj by at most ||dR|| ||R^-1|| relative to itself, so the VIFs are
held to eps * kappa.  The standardized design Z has kappa(Z)^2 =
kappa(R), so Higham's least-squares bound, of order eps * (kappa(Z) +
kappa(Z)^2 tan theta), holds the standardized coefficients
beta_j * sqrt(C_jj) to eps * kappa normwise, and R^2 to eps * kappa
absolutely.  The intercept's error is held to eps * kappa times the
size of the terms it is summed from.  Each eigenvalue is within about
eps * lambda_1 of its exact value, so each is within eps * kappa
relative, and their product within p * eps * kappa.  On golden
``panel9.csv`` (kappa about 1161) these bounds hold with constant 1;
the errors measured, as fractions of them, are 0.008 (VIF), 0.003
(coefficients), 0.0006 (intercept), 0.0002 (R^2) and 0.001 (det R).

Over generated tables the condition number can be 1, and then the
dimension-sized constants Higham's bounds carry are what is left, so the
property states every bound in units of n * eps * kappa, n the number
of increments.  Theta is the angle between the response and its fit:
the coefficients and the intercept, held to the root mean square of the
response, carry Higham's factor 1 + tan(theta) as well, which a poorly
fitting response needs.  The fitted values are held to the norm of the
response.  A correlation is not solved for but summed, so its error
does not grow with kappa: the squared correlations are held to n * eps
absolutely, the order of Higham's bound for an inner product (ch. 3).
The constants in ``BOUNDS`` are 2.4 to 3.6 times the largest errors of
7,500 recorded examples: in those units 1.84 (VIF), 1.0
(coefficients), 1.02 (intercept), 0.79 (baseline fitted values), 0.36
(baseline R^2), 0.56 (PCR fitted values), 0.41 (PCR R^2), 1.0 (squared
correlations) and 0.29 (det R).
"""

import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings

from pcrkit.errors import StageError
from pcrkit.pipeline import RunConfig, load_table, run_pipeline, write_table
from pcrkit.preprocess import difference
from test_metamorphic import well_formed_tables

GOLDEN = Path(__file__).parent / "golden"
EPS = float(np.finfo(np.float64).eps)


def gauss_jordan(a, b):
    """``(inverse of a, a^-1 b, det a)`` in exact arithmetic, or ``None``.

    A symmetric matrix is positive definite exactly when elimination
    without row exchanges meets a positive pivot at every step, so a
    pivot at or below zero returns ``None``.
    """
    p = len(a)
    rows = [
        [Fraction(v) for v in a[i]] + [Fraction(int(i == k)) for k in range(p)] + [Fraction(b[i])]
        for i in range(p)
    ]
    det = Fraction(1)
    for i in range(p):
        pivot = rows[i][i]
        if pivot <= 0:
            return None
        det *= pivot
        rows[i] = [v / pivot for v in rows[i]]
        for r in range(p):
            if r != i and rows[r][i]:
                f = rows[r][i]
                rows[r] = [u - f * v for u, v in zip(rows[r], rows[i])]
    return [row[p : 2 * p] for row in rows], [row[2 * p] for row in rows], det


def integer_columns(values):
    """Each column of a float array as ``(integers, d)``: the column is integers / 2**d."""
    columns = []
    for column in values.T.tolist():
        ratios = [v.as_integer_ratio() for v in column]
        d = max(den for _, den in ratios).bit_length() - 1
        columns.append(([num << (d - den.bit_length() + 1) for num, den in ratios], d))
    return columns


def exact_results(diffed, response="IY"):
    """The exact results of the module docstring for a table of increments.

    ``None`` unless the centered cross-products C of the predictors are
    positive definite and the response varies.
    """
    n = diffed.n_years
    integers, exponents = zip(*integer_columns(diffed.values))
    sums = [sum(column) for column in integers]
    # a[j][k] = n 2^(d_j + d_k) C_jk, an integer.
    a = [
        [n * sum(u * v for u, v in zip(aj, ak)) - sj * sk for ak, sk in zip(integers, sums)]
        for aj, sj in zip(integers, sums)
    ]
    y = diffed.names.index(response)
    predictors = [j for j in range(len(diffed.names)) if j != y]
    solved = gauss_jordan([[a[i][k] for k in predictors] for i in predictors],
                          [a[i][y] for i in predictors])
    if solved is None or a[y][y] <= 0:
        return None
    inverse, solution, det_a = solved
    scale = [Fraction(1, 2**d) for d in exponents]
    means = [Fraction(s, n) * scale[j] for j, s in enumerate(sums)]
    # beta_j = 2^(d_j - d_y) (A^-1 A_y)_j in the data's units.
    beta = [solution[i] * scale[y] / scale[j] for i, j in enumerate(predictors)]
    intercept = means[y] - sum(means[j] * b for j, b in zip(predictors, beta))
    rows = [[Fraction(v) for v in row] for row in diffed.values.tolist()]
    det_r = det_a
    for i in predictors:
        det_r /= a[i][i]
    return dict(
        names=tuple(diffed.names[j] for j in predictors),
        # C_jj up to the common factor 1 / n, which the weights cancel.
        c_diag=[a[j][j] * scale[j] ** 2 for j in predictors],
        vif=[a[j][j] * inverse[i][i] for i, j in enumerate(predictors)],
        beta=beta,
        intercept=intercept,
        intercept_terms=abs(means[y]) + sum(abs(means[j] * b) for j, b in zip(predictors, beta)),
        fitted=[intercept + sum(row[j] * b for j, b in zip(predictors, beta)) for row in rows],
        response_ss=sum(row[y] ** 2 for row in rows),
        r_squared=sum(a[j][y] * s for j, s in zip(predictors, solution)) / a[y][y],
        correlations_squared={
            (j, k): Fraction(a[j][k] ** 2, a[j][j] * a[k][k])
            for j in range(len(a)) for k in range(j + 1, len(a))
        },
        det_r=det_r,
    )


def scaled_errors(exact, report):
    """Each error of ``report`` against ``exact``, in units of n * eps * kappa(R).

    n is the number of increments.  The coefficients' and intercept's
    unit carries Higham's factor 1 + tan(theta) as well, with theta the
    angle between the response and its fit, and the squared correlations,
    which do not grow with kappa, are in units of n * eps.
    """
    n = report.increments.n_years
    eigenvalues = report.solution.eigenvalues
    unit = Fraction(n * EPS * float(eigenvalues[0] / eigenvalues[-1]))
    baseline, pcr = report.baseline, report.pcr
    r2 = exact["r_squared"]
    fit_unit = unit * Fraction(1 + float((1 - r2) / r2) ** 0.5)
    vif = max(
        abs(Fraction(got) - want) / want for got, want in zip(report.vif.values(), exact["vif"])
    )
    # Standardized: beta_j * sqrt(C_jj), so the squared norms weigh by C_jj.
    triples = list(zip(baseline.coefficients.tolist(), exact["beta"], exact["c_diag"]))
    coefficients = sum((Fraction(got) - want) ** 2 * c for got, want, c in triples) / sum(
        want**2 * c for _, want, c in triples
    )
    # The intercept against the root mean square of the response.
    intercept = (Fraction(baseline.intercept) - exact["intercept"]) ** 2 * n / exact["response_ss"]
    product = Fraction(1)
    for value in eigenvalues.tolist():
        product *= Fraction(value)
    values = report.correlation.values.tolist()
    correlations = max(
        abs(Fraction(values[j][k]) ** 2 - want)
        for (j, k), want in exact["correlations_squared"].items()
    )

    def fitted(fit):
        pairs = zip(fit.fitted.tolist(), exact["fitted"])
        gap = sum((Fraction(got) - want) ** 2 for got, want in pairs)
        return float(gap / (unit**2 * exact["response_ss"])) ** 0.5

    return dict(
        vif=float(vif / unit),
        coefficients=float(coefficients / fit_unit**2) ** 0.5,
        intercept=float(intercept / fit_unit**2) ** 0.5,
        baseline_fitted=fitted(baseline),
        baseline_r_squared=float(abs(Fraction(baseline.r_squared) - r2) / unit),
        pcr_fitted=fitted(pcr),
        pcr_r_squared=float(abs(Fraction(pcr.r_squared) - r2) / unit),
        correlations_squared=float(correlations / Fraction(n * EPS)),
        det_r=float(abs(product - exact["det_r"]) / (unit * exact["det_r"])),
    )


@pytest.fixture(scope="module")
def exact_and_run():
    path = GOLDEN / "panel9.csv"
    diffed = difference(load_table(path))
    report = run_pipeline(RunConfig(input_path=path))
    assert report.failure is None
    assert np.array_equal(report.increments.values, diffed.values)
    eigenvalues = report.solution.eigenvalues
    kappa = float(eigenvalues[0] / eigenvalues[-1])
    return exact_results(diffed), report, kappa


def test_vif_within_eps_kappa(exact_and_run):
    exact, report, kappa = exact_and_run
    assert tuple(report.vif) == exact["names"]
    worst = max(
        abs(Fraction(got) - want) / want
        for got, want in zip(report.vif.values(), exact["vif"])
    )
    assert worst <= EPS * kappa


def test_baseline_coefficients_within_eps_kappa(exact_and_run):
    exact, report, kappa = exact_and_run
    assert report.baseline.predictor_names == exact["names"]
    # Standardized: beta_j * sqrt(C_jj), so the squared norms weigh by C_jj.
    triples = zip(report.baseline.coefficients.tolist(), exact["beta"], exact["c_diag"])
    error = sum((Fraction(got) - want) ** 2 * cjj for got, want, cjj in triples)
    size = sum(want**2 * cjj for want, cjj in zip(exact["beta"], exact["c_diag"]))
    assert error <= (Fraction(EPS * kappa) ** 2) * size


def test_baseline_intercept_within_eps_kappa(exact_and_run):
    exact, report, kappa = exact_and_run
    error = abs(Fraction(report.baseline.intercept) - exact["intercept"])
    assert error <= Fraction(EPS * kappa) * exact["intercept_terms"]


def test_baseline_r_squared_within_eps_kappa(exact_and_run):
    exact, report, kappa = exact_and_run
    assert abs(Fraction(report.baseline.r_squared) - exact["r_squared"]) <= Fraction(EPS * kappa)


def test_eigenvalue_product_is_det_r_within_p_eps_kappa(exact_and_run):
    exact, report, kappa = exact_and_run
    product = Fraction(1)
    for value in report.solution.eigenvalues.tolist():
        product *= Fraction(value)
    p = len(exact["names"])
    assert abs(product - exact["det_r"]) <= Fraction(p * EPS * kappa) * exact["det_r"]


TINY = Fraction(float(np.finfo(np.float64).tiny))


def in_normal_range(exact, report):
    """Whether the increments and the exact fit are all zero or normal floats.

    A result below the normal range rounds to a subnormal or to 0.0 with
    an error no bound relative to its size describes, and subnormal
    data have lost precision before any arithmetic.
    """
    values = [Fraction(v) for v in report.increments.values.ravel().tolist()]
    values += exact["beta"] + exact["fitted"] + [exact["intercept"]]
    return all(v == 0 or abs(v) >= TINY for v in values)


def run_all_components(table):
    """The report of ``table`` keeping every component, unrotated, or ``None`` if a stage fails."""
    with tempfile.TemporaryDirectory() as tmp:
        source = write_table(table, Path(tmp) / "input.csv")
        config = RunConfig(input_path=source, components=len(table.names) - 1, rotation="none")
        try:
            return run_pipeline(config)
        except StageError:
            return None


# Each bound, in the units of ``scaled_errors``; see the module docstring.
BOUNDS = dict(
    vif=5.0,
    coefficients=3.0,
    intercept=3.0,
    baseline_fitted=2.0,
    baseline_r_squared=1.0,
    pcr_fitted=2.0,
    pcr_r_squared=1.0,
    correlations_squared=3.0,
    det_r=1.0,
)


@settings(max_examples=100, deadline=None)
@given(table=well_formed_tables())
def test_every_rational_result_within_its_bound_on_well_formed_tables(table):
    # Kept to tables whose exact C is positive definite and whose run
    # keeps all p components and fits the baseline (n >= p + 2).
    report = run_all_components(table)
    assume(report is not None and report.baseline is not None)
    exact = exact_results(report.increments)
    assume(exact is not None and exact["r_squared"] > 0 and in_normal_range(exact, report))
    assert tuple(report.vif) == report.baseline.predictor_names == exact["names"]
    assert report.correlation.names == report.increments.names
    errors = scaled_errors(exact, report)
    assert all(errors[q] <= bound for q, bound in BOUNDS.items()), errors
