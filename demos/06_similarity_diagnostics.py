"""Determinant-ratio profiles and the bounded-subharmonic witness.

For an operator with metric h and the rank-n model over kernel K, the
profile det h / K^n must stay bounded with a nonvanishing boundary limit
for the similarity criterion's hypotheses to hold.  The witness candidate
is phi = log(det h / K^n): its quarter-Laplacian has to reproduce the trace
curvature difference between model and operator.  The commutator coupling
S = X M* - M* X provides an exactly solvable rank-2 case whose ratio is
pinched inside [1, 1 + |X|^2] by Cauchy-Schwarz.
"""

import numpy as np

from cdlab import rkhs, similarity

K1 = rkhs.szego_power_coeffs(1)
K2 = rkhs.szego_power_coeffs(2)
grid = rkhs.boundary_radii()

print("dyadic boundary grid:", np.round(grid, 6))
print()

D = similarity.kernel_source_diagnostic([K1, K1], K1, 2, grid)
D = similarity.boundedness_verdict(D)
print("direct sum of two unweighted shifts against the matching rank-2 model:")
print(f"  ratio range [{D.ratio.min():.6f}, {D.ratio.max():.6f}], "
      f"bounded={D.upper_bound_ok}, boundary limit positive={D.boundary_limit_positive}")

D = similarity.kernel_source_diagnostic([K1], K2, 1, grid)
D = similarity.boundedness_verdict(D)
print("unweighted shift against the power-2 model (ratio = 1 - r^2):")
print(f"  last samples {np.round(D.ratio[-3:], 6)}, "
      f"bounded={D.upper_bound_ok}, boundary limit positive={D.boundary_limit_positive}")
print("  the vanishing boundary limit certifies a failed hypothesis")
print()

print("commutator coupling with X = diag(1, 0, ...):")
rep = similarity.commutator_example([1.0], N=192)
r = rep.profile.radii
print(f"  frame vs closed-form determinant: max relative error {rep.max_rel_err:.2e}")
print(f"  ratio = 1 + (1-r^2) - (1-r^2)^2 pinched in [1, 1 + |X|^2] = [1, 2]: {rep.pinch_ok}")
for i in (0, 4, 8):
    print(f"    r={r[i]:.1f}  ratio={rep.profile.ratio[i]:.8f}")

witness = rep.profile.witness
print(f"  witness residual {witness.max_residual:.2e} (tolerance {witness.tolerance:.0e}), "
      f"passed={witness.passed}")
print(f"  sup |phi| = {witness.phi_sup:.6f} <= log 2, subharmonic at samples: {witness.subharmonic_ok}")
