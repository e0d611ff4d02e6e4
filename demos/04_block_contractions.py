"""Contraction structure of upper-triangular block operators.

Every block of a contraction is a contraction, and a diagonal coupling of
two shifts admits an exact closed-form contraction criterion:
d_1^2 <= 1 - a_1^2 and d_i^2 <= (1 - a_i^2)(1 - b_{i-1}^2).  It is compared
against the eigenvalue verdict here.
"""

import numpy as np

from cdlab import blockops, shifts

N = 24
a = [0.6] + [0.5] * (N - 2)
b = [0.5] * (N - 1)

print("boundary case d_1^2 = 1 - a_1^2 (0.8^2 = 1 - 0.6^2):")
for d1 in (0.8, 0.81):
    closed = blockops.ex48_closed_form(a, b, [d1])
    B = blockops.BlockOperator(
        ((blockops.ShiftBlock(shifts.WeightSequence(prefix=tuple(a))), blockops.DiagonalBlock((d1,))),
         (None, blockops.ShiftBlock(shifts.WeightSequence(prefix=tuple(b))))),
        order=N,
    )
    oracle = blockops.contraction_check(blockops.assemble(B), 1e-8)
    print(f"  d_1={d1}: closed-form={closed}  oracle psd={oracle.is_psd} "
          f"(min eig {oracle.min_eigenvalue:.2e})")

print()
print("blockwise scan of a contraction (a direct sum with a norm-1 block):")
direct_sum = blockops.BlockOperator(
    ((blockops.ShiftBlock(shifts.hardy()), None), (None, blockops.ShiftBlock(shifts.hardy(), 0.5))),
    order=N,
)
scan = blockops.blockwise_contraction_scan(direct_sum)
print(f"  window norms:\n{np.round(scan.window_norms, 6)}")
print(f"  unit-norm flags:\n{scan.unit_norm_flags}")
print(f"  violations: {scan.violations or '(none)'}")

print()
print("holomorphic frame of a coupled pair (gram determinant is gauge-free):")
Bf = blockops.BlockOperator(
    ((blockops.ShiftBlock(shifts.hardy()), blockops.DiagonalBlock((0.5,))),
     (None, blockops.ShiftBlock(shifts.bergman()))),
    order=160,
)
for r in (0.2, 0.5, 0.8):
    h = blockops.frame_solver(Bf, r)
    eigs = np.linalg.eigvalsh((h + h.conj().T) / 2)
    print(f"  r={r}: gram diag=({h[0, 0].real:.4f}, {h[1, 1].real:.4f}), min eig={eigs[0]:.4f}")
