"""Walk the built-in correlation fixture through extraction and rotation.

The fixture ships as a printed two-decimal correlation table between a
housing price index (IY) and eight economic indicators.  Rounding made
the printed matrix (``published_correlations()``) slightly indefinite,
so ``load_fixture`` returns it repaired by flooring the eigenvalues;
the repair moves no entry by more than 0.005, which keeps every value
equal to the printed one at two decimals.  Everything downstream runs
on the repaired matrix.
"""

import numpy as np

from pcrkit import extract, load_fixture, rotate_varimax, score_weights
from pcrkit.fixtures import published_correlations
from pcrkit.pca import VARIMAX_TOL

np.set_printoptions(precision=4, suppress=True)

fixture = "fig3"
matrix, printed = load_fixture(fixture), published_correlations()
print(f"fixture: {fixture}, variables: {', '.join(matrix.names)}")
print(f"printed matrix smallest eigenvalue: "
      f"{np.linalg.eigvalsh(printed)[0]: .6f}  (indefinite)")
print(f"repaired smallest eigenvalue:       "
      f"{matrix.eigen.eigenvalues[-1]: .2e}")
shift = np.abs(matrix.values - printed).max()
print(f"largest repair adjustment:          {shift:.6f} < 0.005")
print()

# The response row is diagnostic only; components come from the 8x8
# predictor block.
predictors = tuple(n for n in matrix.names if n != "IY")
sub = matrix.submatrix(predictors)

sol = extract(sub, "auto")
print(f"Kaiser retention keeps {sol.n_components} components "
      f"(eigenvalues {np.round(sol.eigenvalues[:3], 3)} ...)")
print(f"unrotated variance proportions: {sol.proportion}")

rot = rotate_varimax(sol)
state = "settled" if rot.last_sweep_angle <= VARIMAX_TOL else "stopped at its cap"
print(f"varimax {state} after {rot.rotation_sweeps} sweeps "
      f"(last sweep turned {rot.last_sweep_angle:.1e} rad)")
print(f"rotated variance proportions:   {rot.rotated_proportion}")
print()

print("rotated loadings (rows sum-of-squares = communality):")
header = "          " + "".join(f"{c:>10}" for c in rot.component_names)
print(header + f"{'h2':>10}")
for i, name in enumerate(rot.names):
    row = "".join(f"{v:10.3f}" for v in rot.rotated_loadings[i])
    print(f"{name:>10}{row}{rot.communality[i]:10.3f}")
print()

w = score_weights(rot)
print("regression-method score weights:")
print(header)
for name, weights in zip(rot.names, w):
    row = "".join(f"{v:10.3f}" for v in weights)
    print(f"{name:>10}{row}")
print()

# The first rotated component is a demand block: PD, GVA and GDHI carry
# near-equal weights around 0.23.  REI lands a notch above them rather
# than below, so it is statistically inseparable from that block at
# two-decimal precision -- the one place this matrix refuses to split
# demand from investment.
rc1 = {n: float(v) for n, v in zip(rot.names, w[:, 0])}
for name in sorted(rc1, key=rc1.get, reverse=True):
    print(f"  RC1 weight {name:>5}: {rc1[name]: .4f}")
