"""Diagonal reproducing kernels ``K(z, w) = sum b_n z^n w̄^n`` and their geometry.

All radial quantities are functions of ``t = r^2``: a diagonal kernel is
radial, which collapses the mixed Wirtinger derivative to one real variable.
With ``g(t) = sum b_n t^n`` the bundle metric along the radius is ``g`` and
the rank-one curvature is

    curvature(r) = -( t (g'' g - g'^2) / g^2 + g' / g ),   t = r^2,

i.e. ``-d d̄ log g``.  Series are summed in chunks until a geometric tail
bound certifies the rest; its ratio is the exact sup of the coefficient
ratio rule ``b_{n+1}/b_n`` past the chunk (``RationalRule.forward_ratio``).

The coefficients ``b_n`` are a ``rules.RationalSequence`` read as they are
(:class:`DiagonalKernel`); the same type read as square roots gives shift
weights.  The module also samples curvature profiles on radial grids and
writes them as CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, TruncationError
from .rules import RationalRule, RationalSequence, poly_mul

_CHUNK = 2048
_MAX_TERMS = 8_000_000
#: Largest radius at which the series diagnostics are evaluated.
ANALYTIC_RADIUS_CAP = 1.0 - 2.0 ** -12
#: Relative certified-tail target for partial series sums.
_TAIL_REL = 1e-15
#: Relative widening of the term-ratio bound, far above the float rounding of the rule.
_RATIO_SLACK = 2.0 ** -40


class DiagonalKernel(RationalSequence):
    """Coefficient sequence ``b_n > 0`` of a diagonal kernel.

    The prefix holds the leading coefficients and the tail rule gives
    ``b_n = p(n)/q(n)`` directly.  A kernel without a tail rule is a
    polynomial kernel (coefficients vanish beyond the prefix), admitted as a
    degenerate case.
    """

    def coeffs_slice(self, lo: int, hi: int) -> np.ndarray:
        """Coefficients ``b_lo .. b_{hi-1}`` as a float array (zeros beyond a finite kernel's prefix)."""
        out = np.zeros(hi - lo)
        start = max(lo, len(self.prefix))
        out[: start - lo] = self.prefix[lo:hi]
        if self.tail is not None and hi > start:
            out[start - lo :] = self.tail(np.arange(start, hi))
        return out


def szego_power_coeffs(k: int) -> DiagonalKernel:
    """Coefficients ``b_n = C(n+k-1, n)`` of the power kernel ``(1 - z w̄)^{-k}``."""
    if k < 1:
        raise DomainError("kernel power must be >= 1")
    p: tuple[int, ...] = (1,)
    for j in range(1, k):
        p = poly_mul(p, (j, 1))
    return DiagonalKernel(tail=RationalRule(p, (math.factorial(k - 1),)), name=f"szego:{k}")


def _series_sums(K: DiagonalKernel, t: float, max_order: int) -> np.ndarray:
    """Sums ``g^(m)(t) = sum_n b_n n!/(n-m)! t^(n-m)`` for ``m = 0..max_order``.

    Stops once a geometric majorant certifies every tail below ``1e-15`` of
    its partial sum; its ratio, :func:`_term_ratio_bound`, comes from the
    tail rule, so chunks that end inside the explicit prefix certify nothing.
    """
    if not 0.0 <= t < 1.0:
        raise DomainError(f"series argument t={t} outside [0, 1)")
    if t == 0.0:
        return K.coeffs_slice(0, max_order + 1) * [math.factorial(m) for m in range(max_order + 1)]
    sums = np.zeros(max_order + 1)
    n0 = 0
    while n0 < _MAX_TERMS:
        idx = np.arange(n0, n0 + _CHUNK, dtype=float)
        b = K.coeffs_slice(n0, n0 + _CHUNK)
        tpow = t ** idx
        fall = np.ones(_CHUNK)
        last_terms = np.empty(max_order + 1)
        for m in range(max_order + 1):
            if m > 0:
                fall = fall * np.maximum(idx - (m - 1), 0.0)
            terms = b * fall * tpow / t ** m
            sums[m] += terms.sum()
            last_terms[m] = abs(terms[-1])
        n_last = n0 + _CHUNK - 1
        if K.coverage is not None and n_last + 1 >= K.coverage:
            return sums  # finite kernel: the sum is exact
        if n_last >= len(K.prefix):
            rho = _term_ratio_bound(K, t, n_last, max_order)
            if rho < 1.0:
                tails = last_terms * rho / (1.0 - rho)
                if np.all(tails <= _TAIL_REL * np.maximum(np.abs(sums), 1e-300)):
                    return sums
        n0 += _CHUNK
    raise TruncationError(f"series did not certify its tail within {_MAX_TERMS} terms at t={t}")


def _term_ratio_bound(K: DiagonalKernel, t: float, n_last: int, max_order: int) -> float:
    """Bound on ``term_{n+1} / term_n = (b_{n+1}/b_n) t (n+1)/(n+1-m)`` over
    ``n >= n_last >= len(prefix)`` and ``m <= max_order``: the exact sup of the
    rule ``K.tail.forward_ratio`` (widened by ``_RATIO_SLACK``) times the
    falling factor, which is largest at ``n_last`` and ``m = max_order``.
    """
    sup = K.tail.forward_ratio.bounds(n_last)[1] * (1.0 + _RATIO_SLACK)
    return sup * t * (n_last + 1) / max(n_last + 1 - max_order, 1)


def metric_eval(K: DiagonalKernel, r: float) -> float:
    """Radial metric ``h(r) = sum b_n r^(2n)`` with a certified tail bound."""
    if not 0.0 <= r < 1.0:
        raise DomainError(f"radius {r} outside [0, 1)")
    return float(_series_sums(K, r * r, 0)[0])


def curvature_series(K: DiagonalKernel, r: float) -> float:
    """Rank-one curvature ``-d d̄ log h`` at radius ``r`` via series sums."""
    if not 0.0 <= r < 1.0:
        raise DomainError(f"radius {r} outside [0, 1)")
    t = r * r
    g0, g1, g2 = _series_sums(K, t, 2)
    u = g1 / g0
    u1 = g2 / g0 - u * u
    return float(-(t * u1 + u))


def curvature_fd(K: DiagonalKernel, r: float, step: float = 1e-3) -> float:
    """Curvature via ``-(1/4)`` of the radial Laplacian of ``log h``.

    Central differences of ``f(r) = log h(r)``: ``Δf = f'' + f'/r``.  The
    step shrinks to ``(1-r)/10`` near the boundary so the stencil stays
    inside the disk.
    """
    if not 0.0 < r < 1.0:
        raise DomainError(f"radius {r} outside (0, 1)")
    if step <= 0.0:
        raise DomainError("step must be positive")
    h = min(step, (1.0 - r) / 10.0)
    if r - 2.0 * h <= 0.0 or r + 2.0 * h >= 1.0:
        raise DomainError(f"finite-difference stencil leaves (0, 1) at r={r}, step={h}")
    f0 = math.log(metric_eval(K, r))
    fp = math.log(metric_eval(K, r + h))
    fm = math.log(metric_eval(K, r - h))
    return -0.25 * radial_laplacian(fp, f0, fm, h, r)


def radial_laplacian(fp: float, f0: float, fm: float, h: float, r: float) -> float:
    """Central-difference radial Laplacian ``f'' + f'/r`` from ``f(r+h), f(r), f(r-h)``."""
    d2 = (fp - 2.0 * f0 + fm) / (h * h)
    d1 = (fp - fm) / (2.0 * h)
    return d2 + d1 / r


@dataclass(frozen=True)
class CurvatureProfile:
    """Curvature samples on a radial grid."""

    radii: np.ndarray
    values: np.ndarray
    method: str

    def __post_init__(self):
        r = np.array(self.radii, dtype=float)
        v = np.array(self.values, dtype=float)
        if r.ndim != 1 or r.shape != v.shape:
            raise ConfigurationError("radii and values must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(v))):
            raise DomainError("curvature profile must be finite")
        if self.method not in ("series", "finite-difference"):
            raise ConfigurationError(f"unknown profile method {self.method!r}")
        r.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "radii", r)
        object.__setattr__(self, "values", v)


def curvature_profile(K: DiagonalKernel, radii, method: str = "series", step: float = 1e-3) -> CurvatureProfile:
    """Sample the curvature of ``K`` on a radial grid (radii up to ``ANALYTIC_RADIUS_CAP``)."""
    r = np.asarray(radii, dtype=float)
    beyond = r[(r > ANALYTIC_RADIUS_CAP) & (r < 1.0)]  # radii >= 1 fail in the evaluators
    if len(beyond):
        raise DomainError(f"radius {beyond[0]} beyond the analytic radius cap 1 - 2^-12")
    if method == "series":
        vals = np.array([curvature_series(K, x) for x in r])
    elif method == "finite-difference":
        vals = np.array([curvature_fd(K, x, step) for x in r])
    else:
        raise ConfigurationError(f"unknown method {method!r}; use 'series' or 'finite-difference'")
    return CurvatureProfile(r, vals, method)


def boundary_radii(k_min: int = 3, k_max: int = 12) -> np.ndarray:
    """Canonical dyadic boundary approach ``r_k = 1 - 2^{-k}``."""
    if not 1 <= k_min <= k_max:
        raise ConfigurationError("need 1 <= k_min <= k_max")
    return 1.0 - 2.0 ** -np.arange(k_min, k_max + 1, dtype=float)


def write_curvature_csv(profile: CurvatureProfile, fh) -> None:
    """Write the profile as CSV to the text stream ``fh``: columns
    ``r, value, method``; 17 significant digits."""
    fh.write("r,value,method\n")
    for r, v in zip(profile.radii, profile.values):
        fh.write(f"{r:.17g},{v:.17g},{profile.method}\n")
