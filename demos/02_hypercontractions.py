"""Defect operators and hypercontractivity certification.

A backward shift is an n-hypercontraction when every alternating binomial
defect D_k = sum_j (-1)^j C(k,j) (T*)^j T^j, k <= n, is positive.  For the
order-n model shift the order-n defect collapses to the rank-one projection
onto the seed vector.  Bumping the first Bergman-type weight from sqrt(1/2)
to sqrt(13/25) destroys 2-hypercontractivity, yet that broken shift embeds
as the corner of a 2x2 coupling that IS 2-hypercontractive: blockwise
inheritance only flows to the leading block.
"""

import math

import numpy as np

from cdlab import blockops, shifts

N = 32

print("order-n defect of the order-n model shift (window entries):")
for n in (1, 2, 3):
    T = shifts.materialize(shifts.szego(n), N)
    D = shifts.defect_operator(T, n)
    W = N - n
    seed = np.zeros((W, W))
    seed[0, 0] = 1
    print(f"  n={n}: max |D_n - e0(x)e0| = {np.max(np.abs(D[:W, :W] - seed)):.2e}")

bumped = shifts.WeightSequence(prefix=(math.sqrt(13 / 25),), tail=shifts.RationalRule((1, 1), (2, 1)))
rep = shifts.hypercontractivity_report(bumped, 2, N)
print()
print(f"bumped first weight sqrt(13/25): verdicts {rep.verdicts}, "
      f"min eigenvalues {tuple(round(x, 6) for x in rep.min_eigenvalues)}")
j = np.arange(100)  # an order-2 hypercontraction needs w_j^2 <= (1+j)/(2+j)
print(f"weight-ratio bound first violation: index "
      f"{np.nonzero(bumped.weights(100) ** 2 > (1 + j) / (2 + j) + 1e-10)[0][0]} (ratio 13/25 > 1/2)")

top = shifts.WeightSequence(tail=shifts.RationalRule((1, 1), (4, 1)))  # sqrt((i+1)/(i+4))
coupled = blockops.BlockOperator(
    ((blockops.ShiftBlock(top), blockops.DiagonalBlock((math.sqrt(1 / 5),))),
     (None, blockops.ShiftBlock(bumped))),
    order=N,
)
T = blockops.assemble(coupled)
rep2 = shifts.defect_report(T, 2)
print()
print(f"coupled operator with that shift in the corner: order-2 verdicts {rep2.verdicts}, "
      f"min eigenvalues {tuple(round(x, 9) for x in rep2.min_eigenvalues)}")
print("the leading block inherits hypercontractivity:")
print(f"  top block order-2 report: {shifts.defect_report(shifts.materialize(top, N), 2).verdicts}")

