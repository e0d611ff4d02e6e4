"""Similarity of weighted shifts through partial weight-product ratios.

Two injective weighted shifts are similar exactly when every ratio
R(i,j) = prod_{l=i..j} a_l / b_l stays pinched between positive constants.
A finite horizon can only certify failure: the verdict "not-similar" needs
the extremes to cross a divergence threshold while still growing across
three nested horizons.
"""

import math

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
    rep = shifts.shields_similarity(a, b, horizons)
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

# Zhu's question on the family I = z^j A^2_alpha: M_z restricted to z^j A^2_alpha is the weighted shift
# with w_n^2 = (n+j+1)/(n+j+alpha+2), so prod_{l<h} w_l^2 = prod_{i=1}^{alpha+1} (j+i)/(h+j+i) in closed form.
# Same alpha: similar; for j < k every term is negative and the whole product is the inf, tending to
# 1/2 sum_i log((j+i)/(k+i)).  Different alpha: the products grow like h^((beta-alpha)/2), so not similar;
# the threshold 100 lets the horizons 2^20 .. 2^22 certify it.
print()
print("Zhu's family z^j A^2_alpha: closed form next to cdlab's verdict")


def restriction(j, alpha):
    return shifts.WeightSequence(tail=shifts.RationalRule((j + 1, 1), (j + alpha + 2, 1)))


def log_product(j, alpha, k, beta, h):
    """log prod_{l<h} a_l / b_l for a on z^j A^2_alpha and b on z^k A^2_beta."""
    log_a2 = sum(math.log(j + i) - math.log(h + j + i) for i in range(1, alpha + 2))
    log_b2 = sum(math.log(k + i) - math.log(h + k + i) for i in range(1, beta + 2))
    return 0.5 * (log_a2 - log_b2)


for (j, alpha), (k, beta) in [((0, 0), (2, 0)), ((1, 0), (3, 0)), ((0, 1), (3, 1)), ((2, 2), (0, 2))]:
    rep = shifts.shields_similarity(restriction(j, alpha), restriction(k, beta), (2 ** 16, 2 ** 17, 2 ** 18))
    h = rep.horizons[-1]
    whole = rep.log_inf_at_horizons[-1] if j < k else rep.log_sup_at_horizons[-1]
    print(f"  (j, alpha) = ({j}, {alpha}) vs ({k}, {beta}): closed form similar, "
          f"log prod_(l<{h}) = {log_product(j, alpha, k, beta, h):.12f}; cdlab {whole:.12f}, {rep.verdict}")
for (j, alpha), (k, beta) in [((0, 0), (0, 1)), ((0, 1), (3, 2)), ((3, 2), (0, 0))]:
    rep = shifts.shields_similarity(restriction(j, alpha), restriction(k, beta), (2 ** 20, 2 ** 21, 2 ** 22),
                                    divergence_threshold=100)
    print(f"  (j, alpha) = ({j}, {alpha}) vs ({k}, {beta}): closed form not similar, products like "
          f"h^({beta - alpha}/2); cdlab sup {rep.sup_ratio:.4g}, inf {rep.inf_ratio:.4g} at 2^22, {rep.verdict}")
