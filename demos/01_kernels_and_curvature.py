"""Diagonal kernels, radial metrics, and curvature.

The power kernels K(z, w) = (1 - z w̄)^{-k} have coefficients b_n = C(n+k-1, n)
and metric h(r) = (1 - r^2)^{-k} along the radius.  Their curvature has the
closed form -k / (1 - r^2)^2, which the series evaluator reproduces to
near machine precision; the finite-difference route crosses-checks it through
the radial Laplacian of log h.
"""

import numpy as np

from cdlab import rkhs

radii = np.arange(0.0, 0.95, 0.15)

for k in (1, 2, 3):
    K = rkhs.szego_power_coeffs(k)
    print(f"power kernel k={k}: b_0..b_4 = {K.coeffs_slice(0, 5)}")
    for r in radii:
        h = rkhs.metric_eval(K, r)
        c = rkhs.curvature_series(K, r)
        closed = -k / (1 - r * r) ** 2
        print(f"  r={r:.2f}  h={h:10.4f}  curvature={c:12.6f}  closed={closed:12.6f}  "
              f"rel err={abs(c - closed) / abs(closed):.2e}")

print()
print("finite differences agree away from machine-scale steps:")
K = rkhs.szego_power_coeffs(2)
for step in (1e-2, 1e-3, 2e-4):
    fd = rkhs.curvature_fd(K, 0.5, step)
    print(f"  step={step:7.0e}  fd={fd:.8f}  series={rkhs.curvature_series(K, 0.5):.8f}")

print()
print("the curvature quotient of powers 1 and 2 is 1/2 at every radius, yet the")
print("two shifts are not similar; the quotient screen alone cannot separate them:")
for r in (0.1, 0.5, 0.9):
    q = rkhs.curvature_series(rkhs.szego_power_coeffs(1), r) / rkhs.curvature_series(
        rkhs.szego_power_coeffs(2), r
    )
    print(f"  r={r:.1f}  quotient={q:.12f}")
