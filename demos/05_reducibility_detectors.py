"""Three reducibility detectors.

1. unit-norm-block: a contraction with an attained norm-1 diagonal block
   must have that block's row and column vanish, splitting the operator.
2. cascade: if the top block is the order-n model shift and the assembled
   operator certifies order-n hypercontractivity, applying I - D_n to the
   top basis vectors forces the coupling corner to zero, step by step; the
   step-m coefficient is 1/gamma_m >= 1 (gamma_m the model weight), so none
   vanishes.
3. rank-one-defect: an order-n defect equal to a rank-one unit projection
   pins the section metric to (1 - r^2)^{-n} and the curvature to
   -n/(1 - r^2)^2.
"""

import math

import numpy as np

from cdlab import blockops, shifts

print("unit-norm detector:")
split = blockops.BlockOperator(
    ((blockops.ShiftBlock(shifts.hardy()), None),
     (None, blockops.ShiftBlock(shifts.hardy(), 0.5))),
    order=16,
)
v = blockops.unit_norm_reducibility(split)
print(f"  direct sum with unweighted block: reducible={v.reducible}")
print(f"    witness: {v.witness}")

bumped = shifts.WeightSequence(prefix=(math.sqrt(13 / 25),), tail=shifts.RationalRule((1, 1), (2, 1)))
top = shifts.WeightSequence(tail=shifts.RationalRule((1, 1), (4, 1)))
coupled = blockops.BlockOperator(
    ((blockops.ShiftBlock(top), blockops.DiagonalBlock((math.sqrt(1 / 5),))),
     (None, blockops.ShiftBlock(bumped))),
    order=32,
)
v = blockops.unit_norm_reducibility(coupled)
print(f"  coupled contraction without attained unit norms: reducible={v.reducible}")
print(f"    witness: {v.witness}")

print()
print("cascade detector (order 2 model on top):")
B = blockops.BlockOperator(
    ((blockops.ShiftBlock(shifts.szego(2)), None),
     (None, blockops.ShiftBlock(shifts.hardy(), 0.5))),
    order=24,
)
v = blockops.cascade_reducibility(B, 2)
print(f"  block diagonal: reducible={v.reducible}")
g = shifts.szego(2).weights(5)
print("  first cascade coefficients 1/gamma_m:", ", ".join(f"{1 / gm:.4f}" for gm in g))

E = np.zeros((24, 24))
E[0, 0] = 0.1
Bc = blockops.BlockOperator(
    ((blockops.ShiftBlock(shifts.szego(2)), blockops.MatrixBlock(E)),
     (None, blockops.ShiftBlock(shifts.hardy(), 0.5))),
    order=24,
)
v = blockops.cascade_reducibility(Bc, 2)
print(f"  nonzero coupling: reducible={v.reducible}")
print(f"    witness: {v.witness}")

print()
print("rank-one-defect detector:")
single_shift = lambda w: blockops.BlockOperator(((blockops.ShiftBlock(w),),), order=48)  # a 1x1 grid
for n in (1, 2, 3):
    rep = blockops.rank_one_defect_check(single_shift(shifts.szego(n)), n)
    worst = np.max(np.abs(rep.metric_samples - rep.expected_metric) / rep.expected_metric)
    print(f"  order-{n} model shift: reducible={rep.verdict.reducible}, "
          f"singular values {tuple(round(s, 12) for s in rep.top_singular_values)}, "
          f"metric agreement {worst:.2e}")

rep = blockops.rank_one_defect_check(single_shift(shifts.szego(1)), 2)
print(f"  unweighted shift probed at order 2: reducible={rep.verdict.reducible}")
print(f"    witness: {rep.verdict.witness}")
