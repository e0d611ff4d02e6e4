"""Similarity of weighted shifts through partial weight-product ratios.

Two injective weighted shifts are similar exactly when every ratio
R(i,j) = prod_{l=i..j} a_l / b_l stays pinched between positive constants.
A finite horizon can only certify failure: the verdict "not-similar" needs
the extremes to cross a divergence threshold while still growing across
three nested horizons.
"""

import numpy as np

from cdlab import shifts

pairs = [
    ("power-2 against itself", shifts.bergman(), shifts.bergman(), (64, 128, 256)),
    ("unweighted vs power-2", shifts.hardy(), shifts.bergman(), (100, 10 ** 4, 10 ** 6)),
    ("power-2 vs first-weight-perturbed power-2",
     shifts.WeightSequence(prefix=(0.5,), tail=shifts.RationalRule((1, 1), (2, 1))), shifts.bergman(),
     (64, 128, 256)),
]

for label, a, b, horizons in pairs:
    rep = shifts.shields_similarity(a, b, horizons[0], horizons=horizons)
    print(label)
    print(f"  sup ratios at horizons {rep.horizons}: "
          + ", ".join(f"{v:.6g}" for v in rep.sup_at_horizons))
    print(f"  inf ratios: " + ", ".join(f"{v:.6g}" for v in rep.inf_at_horizons))
    print(f"  verdict: {rep.verdict}")
    print()

print("telescoping check for the divergent pair: R(0, j) = sqrt(j + 2)")
for j in (7, 23, 98):
    r = np.prod(shifts.hardy().weights(j + 1) / shifts.bergman().weights(j + 1))
    print(f"  R(0, {j}) = {r:.9f}  (sqrt({j + 2}) = {(j + 2) ** 0.5:.9f})")
