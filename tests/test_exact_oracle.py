"""Exact-arithmetic oracle for the rational results of ``golden/panel9.csv``.

Every float is a dyadic rational, so ``fractions.Fraction`` computes
exactly what pcrkit approximates.  The oracle starts from pcrkit's own
float increments, ``difference(load_table(...))``, so it measures the
arithmetic after differencing and not the differencing itself.  From
them it forms the centered cross-products C of the predictors, the
cross-products c of the predictors with the response and s of the
response alone, and by Gauss-Jordan elimination C^-1, C^-1 c and det C.
The exact results are then:

- VIF_j = C_jj * (C^-1)_jj;
- the baseline OLS coefficients beta = C^-1 c, the intercept
  mean(y) - mean(x) . beta, and R^2 = c . beta / s;
- det R = det C / prod_j C_jj, which equals the product of R's
  eigenvalues.

Each bound is stated in units of eps * kappa(R), with kappa(R) the ratio
of the run's largest to smallest eigenvalue (about 1161 here), after
Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
ch. 19-20.  A perturbation dR of R moves each (R^-1)_jj by at most
||dR|| ||R^-1|| relative to itself, so the VIFs are held to eps * kappa.
The standardized design Z has kappa(Z)^2 = kappa(R), so Higham's
least-squares bound, of order eps * (kappa(Z) + kappa(Z)^2 tan theta),
holds the standardized coefficients beta_j * sqrt(C_jj) to eps * kappa
normwise, and R^2 to eps * kappa absolutely.  The intercept's error is
held to eps * kappa times the size of the terms it is summed from.  Each
eigenvalue is within about eps * lambda_1 of its exact value, so each is
within eps * kappa relative, and their product within p * eps * kappa.
The constants are 1 where Higham's carry a modest multiple of the
dimension; the errors measured, as fractions of these bounds, are 0.008
(VIF), 0.003 (coefficients), 0.0006 (intercept), 0.0002 (R^2) and 0.001
(det R).
"""

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from pcrkit.pipeline import RunConfig, load_table, run_pipeline
from pcrkit.preprocess import difference

GOLDEN = Path(__file__).parent / "golden"
EPS = float(np.finfo(np.float64).eps)


def gauss_jordan(a, b):
    """``(inverse of a, a^-1 b, det a)`` in exact arithmetic; a is positive definite.

    A positive definite matrix keeps a positive pivot on the diagonal at
    every step, so no row is exchanged.
    """
    p = len(a)
    rows = [a[i] + [Fraction(int(i == k)) for k in range(p)] + [b[i]] for i in range(p)]
    det = Fraction(1)
    for i in range(p):
        pivot = rows[i][i]
        det *= pivot
        rows[i] = [v / pivot for v in rows[i]]
        for r in range(p):
            if r != i and rows[r][i]:
                f = rows[r][i]
                rows[r] = [u - f * v for u, v in zip(rows[r], rows[i])]
    return [row[p : 2 * p] for row in rows], [row[2 * p] for row in rows], det


@pytest.fixture(scope="module")
def exact_and_run():
    path = GOLDEN / "panel9.csv"
    diffed = difference(load_table(path))
    report = run_pipeline(RunConfig(input_path=path))
    assert report.failure is None
    assert np.array_equal(report.increments.values, diffed.values)

    n = diffed.n_years
    columns = [[Fraction(v) for v in column] for column in diffed.values.T.tolist()]
    means = [sum(c) / n for c in columns]
    centered = [[v - m for v in c] for c, m in zip(columns, means)]
    response = diffed.names.index("IY")
    predictors = [j for j in range(len(diffed.names)) if j != response]
    x = [centered[j] for j in predictors]
    y = centered[response]
    c = [[sum(u * v for u, v in zip(xi, xk)) for xk in x] for xi in x]
    c_xy = [sum(u * v for u, v in zip(xi, y)) for xi in x]
    inverse, beta, det_c = gauss_jordan(c, c_xy)
    p = len(x)
    det_r = det_c
    for j in range(p):
        det_r /= c[j][j]
    exact = dict(
        names=tuple(diffed.names[j] for j in predictors),
        c_diag=[c[j][j] for j in range(p)],
        vif=[c[j][j] * inverse[j][j] for j in range(p)],
        beta=beta,
        intercept=means[response] - sum(means[j] * b for j, b in zip(predictors, beta)),
        intercept_terms=abs(means[response])
        + sum(abs(means[j] * b) for j, b in zip(predictors, beta)),
        r_squared=sum(u * v for u, v in zip(c_xy, beta)) / sum(v * v for v in y),
        det_r=det_r,
    )
    eigenvalues = report.solution.eigenvalues
    kappa = float(eigenvalues[0] / eigenvalues[-1])
    return exact, report, kappa


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
