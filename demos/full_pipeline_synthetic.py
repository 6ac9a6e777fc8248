"""Run the full pipeline, stage by stage, on a synthetic yearly panel.

The generator plants two orthogonal factors in the year-over-year
increments -- a demand block and a supply block -- then cumulates the
increments into levels, which is the shape real input files arrive in.
Each stage below prints what the next one consumes, ending with the
reconstructed price path and the one-call equivalent.
"""

import os
import tempfile

import numpy as np

from pcrkit import (
    RunConfig,
    TimeSeriesTable,
    component_scores,
    correlation_matrix,
    difference,
    extract,
    fit_pcr,
    reconstruct_prices,
    render_report_text,
    rotate_varimax,
    run_pipeline,
    standardize,
    vif,
    write_table,
)

np.set_printoptions(precision=4, suppress=True)
rng = np.random.default_rng(7)

NAMES = ("IY", "REI", "GVA", "PD", "GDHI", "PDS", "PDC", "IR", "CPI")
DEMAND, SUPPLY = NAMES[1:5], NAMES[5:9]

n_years = 25
factors = rng.standard_normal((n_years - 1, 2))
increments = np.empty((n_years - 1, len(NAMES)))
for j, name in enumerate(NAMES):
    if name in DEMAND:
        signal = factors[:, 0]
    elif name in SUPPLY:
        signal = factors[:, 1]
    else:  # response mixes both blocks
        signal = 2.0 * factors[:, 0] + 0.5 * factors[:, 1]
    increments[:, j] = signal + 0.1 * rng.standard_normal(n_years - 1)

base = rng.uniform(50.0, 150.0, len(NAMES))
levels = np.vstack([base, base + np.cumsum(increments, axis=0)])

table = TimeSeriesTable(
    years=np.arange(1995, 1995 + n_years),
    names=NAMES,
    values=levels,
)
print(f"input: {table.n_years} years x {len(table.names)} series (levels)")

# Stage 1: year-over-year differences, then standardize to zero mean,
# unit variance -- correlations are computed on these z-scores.
diffed = difference(table)
z = standardize(diffed)
r = correlation_matrix(z)
print(f"differenced to {diffed.n_years} increments; "
      f"|r| max off-diagonal = {np.abs(r.values - np.eye(len(NAMES))).max():.3f}")

# The predictor submatrix keeps its standardized columns; one thin SVD
# of them gives both the VIF and the component spectrum.
sub = r.submatrix(DEMAND + SUPPLY)
inflation = vif(sub)
worst = max(inflation, key=inflation.get)
print(f"variance inflation peaks at {worst} = {inflation[worst]:.1f}")

# Stage 2: components from the predictor correlations only.
rot = rotate_varimax(extract(sub, "auto"))
print(f"retained {rot.n_components} components, rotated proportions "
      f"{rot.rotated_proportion}")

# Stage 3: scores, then ordinary least squares of the response
# increment on them.
scores = component_scores(sub.data, rot)
fit = fit_pcr(scores, diffed.column("IY"), rot.component_names)
coefs = {n: round(float(c), 3) for n, c in zip(fit.predictor_names, fit.coefficients)}
print(f"PCR R^2 = {fit.r_squared:.4f}; coefficients {coefs}")

# Stage 4: cumulate fitted increments back into a price path.
path = reconstruct_prices(float(table.column("IY")[0]), fit.fitted)
print(f"reconstructed price path, first 5 levels: {path.levels[:5]}")
print(f"actual levels,               first 5:     {table.column('IY')[1:6]}")
print()

# The same run as a single call: write the table to disk, point the
# pipeline at it, render the text report.  The table is written to a
# scratch directory and named relative to it, so the report's source
# line reads the same on every run.
home = os.getcwd()
with tempfile.TemporaryDirectory() as tmp:
    os.chdir(tmp)
    try:
        report = run_pipeline(RunConfig(input_path=write_table(table, "panel.csv")))
    finally:
        os.chdir(home)
print(render_report_text(report))
