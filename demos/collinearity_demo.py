"""Why components: ordinary least squares dies on a duplicated predictor.

Two copies of the same series make the design matrix exactly rank
deficient.  OLS has no answer to give and refuses with a named column;
the component route compresses the predictors first, so the duplicate
costs one zero eigenvalue and nothing else.  The score weights never
invert the correlation matrix, so the retained scores -- and the fit --
come out essentially identical to the clean run.
"""

import numpy as np

from pcrkit import (
    RankDeficiencyError,
    component_scores,
    correlation_matrix,
    extract,
    fit_ols,
    fit_pcr,
    rotate_varimax,
    standardize,
    vif,
    TimeSeriesTable,
)

np.set_printoptions(precision=4, suppress=True)
rng = np.random.default_rng(21)

n, names = 40, ("A", "B", "C", "D")
x = rng.standard_normal((n, 4)) @ (np.eye(4) + 0.2)
y = x @ np.array([1.0, 0.5, -1.0, 0.25]) + 0.1 * rng.standard_normal(n)


def pcr_r_squared(matrix, columns):
    table = TimeSeriesTable(
        years=np.arange(2000, 2000 + n),
        names=("Y",) + columns,
        values=np.column_stack([y, matrix]),
    )
    z = standardize(table)
    r = correlation_matrix(z).submatrix(columns)
    sol = rotate_varimax(extract(r, 4))  # keep all four directions
    scores = component_scores(r.data, sol)
    fit = fit_pcr(scores, y, sol.component_names)
    return fit.r_squared, sol.eigenvalues


duplicated = np.column_stack([x, x[:, 1]])
dup_names = names + ("B_copy",)

z_dup = standardize(
    TimeSeriesTable(years=np.arange(2000, 2000 + n), names=dup_names, values=duplicated)
)
print("variance inflation with the duplicate on board:")
for name, value in vif(correlation_matrix(z_dup)).items():
    print(f"  {name:>7}: {value}")
print()

try:
    fit_ols(duplicated, y, names=dup_names)
except RankDeficiencyError as err:
    print(f"OLS refuses: column {err.column} ({err.name}) is dependent, "
          f"pivot {err.pivot:.1e}")
print()

clean_r2, clean_eigs = pcr_r_squared(x, names)
dup_r2, dup_eigs = pcr_r_squared(duplicated, dup_names)
print(f"clean eigenvalues:      {clean_eigs}")
print(f"duplicated eigenvalues: {dup_eigs}   <- one extra ~0")
print(f"PCR R^2 clean:      {clean_r2:.10f}")
print(f"PCR R^2 duplicated: {dup_r2:.10f}")
print(f"difference:         {abs(dup_r2 - clean_r2):.2e}")
