"""Diagonal reproducing kernels ``K(z, w) = sum b_n z^n w̄^n`` and their geometry.

All radial quantities are functions of ``t = r^2``: a diagonal kernel is
radial, which collapses the mixed Wirtinger derivative to one real variable.
With ``g(t) = sum b_n t^n`` the bundle metric along the radius is ``g`` and
the rank-one curvature is

    curvature(r) = -( t (g'' g - g'^2) / g^2 + g' / g ),   t = r^2,

i.e. ``-d d̄ log g``.  A polynomial tail (constant denominator) is summed in
closed form, ``sum_n P(n) t^n = sum_k Δ^k P(0) t^k / (1-t)^(k+1)`` with exact
integer Newton coefficients and one power table for every order, wherever a
rounding bound certifies 1e-13.  Other tails and rows are summed in chunks until
a geometric tail bound (the exact sup of ``b_{n+1}/b_n``) certifies the rest.  A
request sums each kernel once over every ``(t, order)`` row, read as arrays.

The coefficients ``b_n`` are a ``rules.RationalSequence`` read as they are
(:class:`DiagonalKernel`); read as square roots, the same type gives shift
weights.  Curvature profiles on radial grids are written as CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, TruncationError
from .rules import RationalRule, RationalSequence, _degree, _value, poly_mul

_CHUNK = 2048
_MAX_TERMS = 8_000_000
#: Largest radius at which the series diagnostics are evaluated.
ANALYTIC_RADIUS_CAP = 1.0 - 2.0 ** -12
#: Relative certified-tail target for partial series sums.
_TAIL_REL = 1e-15
#: Relative rounding bound at which a row takes the closed form: the agreement criterion, not a tail target.
_CLOSED_REL = 1e-13
#: Relative widening of the term-ratio bound, far above the float rounding of the rule.
_RATIO_SLACK = 2.0 ** -40
#: Radial step of the finite-difference curvature stencil (shrunk near the boundary).
FD_STEP = 1e-3


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


def _series_sums(K: DiagonalKernel, t, max_order) -> np.ndarray:
    """Sums ``g^(m)(t) = sum_n b_n n!/(n-m)! t^(n-m)``, ``m = 0..max_order``, for rows ``(t, max_order)``.

    The arguments broadcast to the rows, ``0 <= t < 1`` (:func:`series_pass` checks the radii); each row's sums
    lie along a last axis ``m = 0..M`` (NaN past its own order), as a one-row call gives them.  A tail with a
    constant denominator takes :func:`_closed_sums` on each row it certifies; the rest take :func:`_swept_sums`.
    """
    ts, orders = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(max_order))
    flat_t, flat_m = ts.ravel(), orders.ravel()
    sums = np.full((len(flat_t), int(flat_m.max(initial=0)) + 1), np.nan)
    ok = np.zeros(len(flat_t), dtype=bool)
    if K.tail is not None and _degree(K.tail.q) == 0:
        try:
            sums, ok = _closed_sums(K, flat_t, flat_m)
        except OverflowError:  # a Newton coefficient past float range: every row takes the sweep
            pass
    if not ok.all():
        swept = _swept_sums(K, flat_t[~ok], flat_m[~ok])
        sums[~ok, : swept.shape[1]] = swept
    return sums.reshape(ts.shape + sums.shape[-1:])


def _closed_sums(K: DiagonalKernel, t: np.ndarray, orders: np.ndarray):
    """Rows of :func:`_series_sums` for a tail ``p(n)/q0``, and whether each row's rounding is certified.

    Order ``m`` sums ``P(j) = p(j+m) (j+1)...(j+m) / q0`` as ``sum_k Δ^k P(0) t^k / s^(k+1)``,
    ``s = 1 - t``, from the exact integer Newton coefficients of ``q0 P``, plus
    ``sum_{j+m<L} (prefix_{j+m} - p(j+m)/q0) (j+1)...(j+m) t^j`` for a prefix of length ``L``.
    No tail is left, only rounding: at most ``2K + 7`` roundings per term (``K = deg p + m``; a
    power within one ulp counts two) and ``K + L`` in the sum, so ``c = 3(K + L) + 10``
    over-counts both; ``2^-1021`` added to each power and term covers underflow.  A row is
    certified when its terms are finite and ``c 2^-53 sum|terms| <= 1e-13 |sum|`` at each order.
    """
    L, P, q0 = len(K.prefix), _degree(K.tail.p), K.tail.q[0]
    M = int(orders.max(initial=0))
    s = 1.0 - t
    newton_pw = (t / s)[:, None] ** np.arange(P + M + 1) / s[:, None]  # (t/s)^k / s, every order's columns
    prefix_pw = t[:, None] ** np.arange(L)
    sums = np.empty((len(t), M + 1))
    ok = np.ones(len(t), dtype=bool)
    for m in range(M + 1):
        vals = [_value(K.tail.p, j + m) * math.perm(j + m, m) for j in range(P + m + 1)]
        newton = []
        while vals:  # Newton coefficients of q0 P by repeated integer differences
            newton.append(vals[0] / q0)
            vals = [b - a for a, b in zip(vals, vals[1:])]
        tail = [(b, _value(K.tail.p, i) / q0) for i, b in enumerate(K.prefix)][m:]
        coef = np.array(newton + [b - v for b, v in tail])
        size = np.array([abs(c) for c in newton] + [b + abs(v) for b, v in tail])
        pw = newton_pw[:, : P + m + 1]
        if L > m:
            perms = np.array([math.perm(i, m) for i in range(m, L)], float)
            pw = np.concatenate((pw, perms * prefix_pw[:, : L - m]), axis=1)
        terms = coef * pw
        sums[:, m] = terms.sum(axis=1)
        bound = (3 * (P + m + L) + 10) * 2.0 ** -53 * (size * (pw + 2.0 ** -1021) + 2.0 ** -1021).sum(axis=1)
        ok &= (np.isfinite(terms).all(axis=1) & (bound <= _CLOSED_REL * np.abs(sums[:, m]))) | (orders < m)
    sums[np.arange(M + 1) > orders[:, None]] = np.nan
    return sums, ok


def _swept_sums(K: DiagonalKernel, flat_t: np.ndarray, flat_m: np.ndarray) -> np.ndarray:
    """:func:`_series_sums` for rows ``(flat_t, flat_m)`` by one chunked sweep: each chunk's coefficients, powers
    ``t^(n-m)`` (never divided by ``t^m``, which underflows) and ratio sup (:func:`_term_ratio_bound`) are computed
    once, and a row stops, at the chunk and with the floats of a one-row call, once a geometric majorant with its own
    ``t`` and order certifies every tail below ``1e-15`` of its partial sum; chunks that end inside the explicit
    prefix certify nothing."""
    M = int(flat_m.max(initial=0))
    sums = np.zeros((len(flat_t), M + 1))
    act = np.argsort(-flat_m, kind="stable")  # highest orders first: order m takes a leading block
    n0 = 0
    while len(act):
        if n0 >= _MAX_TERMS:
            raise TruncationError(f"series did not certify its tail within {_MAX_TERMS} terms at t={flat_t[act.min()]}")
        idx = np.arange(n0, n0 + _CHUNK, dtype=float)
        b = K.coeffs_slice(n0, n0 + _CHUNK)
        # t^(n-m) for n in the chunk is columns M-m .. M-m+CHUNK-1; an exponent below 0 has fall = 0 and no term
        tpow = _power_table(flat_t[act], np.maximum(np.arange(n0 - M, n0 + _CHUNK, dtype=float), 0.0))
        fall = np.ones(_CHUNK)
        last_terms = np.zeros((len(act), M + 1))
        for m in range(flat_m[act[0]] + 1):
            rows = np.count_nonzero(flat_m[act] >= m)
            if m > 0:
                fall = fall * np.maximum(idx - (m - 1), 0.0)
            terms = b * fall * tpow[:rows, M - m : M - m + _CHUNK]
            sums[act[:rows], m] += terms.sum(axis=1)
            last_terms[:rows, m] = np.abs(terms[:, -1])
        n_last = n0 + _CHUNK - 1
        if K.coverage is not None and n_last + 1 >= K.coverage:
            break  # finite kernel: the sums are exact
        if n_last >= len(K.prefix):
            rho = _term_ratio_bound(K, flat_t, n_last, flat_m)[act, None]  # all rows
            rho[rho >= 1.0] = np.nan  # certifies nothing
            tails = last_terms * rho / (1.0 - rho)
            act = act[~(tails <= _TAIL_REL * np.maximum(np.abs(sums[act]), 1e-300)).all(axis=1)]
        n0 += _CHUNK
    sums[np.arange(M + 1) > flat_m[:, None]] = np.nan
    return sums


def _power_table(t: np.ndarray, e: np.ndarray) -> np.ndarray:
    """``t[:, None] ** e``, but 0 without a (slow, subnormal) ``pow`` call where ``e log2 t < -1100``, as pow rounds."""
    last = -1100.0 / np.log2(np.maximum(t, 5e-324))  # the largest exponent left to pow; at t = 0 it keeps e = 0, 1
    return np.power(t[:, None], e, out=np.zeros((len(t), len(e))), where=e <= last[:, None])


def _term_ratio_bound(K: DiagonalKernel, t, n_last: int, max_order):
    """Bound on ``term_{n+1} / term_n = (b_{n+1}/b_n) t (n+1)/(n+1-m)`` over ``n >= n_last >= len(prefix)``
    and ``m <= max_order``, for each row when ``t`` and ``max_order`` are arrays: the exact sup of the rule
    ``K.tail.forward_ratio`` (widened by ``_RATIO_SLACK``, taken once) times the falling factor, which is
    largest at ``n_last`` and ``m = max_order``."""
    sup = K.tail.forward_ratio.bounds(n_last)[1] * (1.0 + _RATIO_SLACK)
    return sup * t * (n_last + 1) / np.maximum(n_last + 1 - max_order, 1)


def series_pass(kernels, rows):
    """One :func:`_series_sums` call per distinct kernel over the rows ``(radius, order)``, at ``t = radius^2``,
    once every radius is checked; returns ``metric(K, r)`` and ``curvature(K, r)``, read off the order-0 and
    order-2 rows: a float for a scalar ``r``, an array for an array, each entry the bytes of the scalar read."""
    row = {key: i for i, key in enumerate(dict.fromkeys(rows))}
    for x, _ in row:
        if not 0.0 <= x < 1.0:
            raise DomainError(f"radius {x} outside [0, 1)")
    r = np.array([x for x, _ in row])
    sums = {K: _series_sums(K, r * r, [m for _, m in row]) for K in dict.fromkeys(kernels)}
    read = lambda K, x, m: sums[K][row[x, m] if np.ndim(x) == 0 else [row[v, m] for v in x.tolist()]]
    return (lambda K, x: _float(read(K, x, 0)[..., 0])), (lambda K, x: _float(_curvature(x * x, read(K, x, 2).T)))


def _float(x):
    """A float for a 0-d value, the array otherwise."""
    return float(x) if np.ndim(x) == 0 else x


def _curvature(t, g):
    """``-(t (log g)'' + (log g)')`` from the sums ``g, g', g''`` at ``t = r^2`` (entrywise for arrays of columns)."""
    u = g[1] / g[0]
    u1 = g[2] / g[0] - u * u
    return -(t * u1 + u)


def metric_eval(K: DiagonalKernel, r: float) -> float:
    """Radial metric ``h(r) = sum b_n r^(2n)`` with a certified tail bound."""
    return series_pass([K], [(r, 0)])[0](K, r)


def curvature_series(K: DiagonalKernel, r: float) -> float:
    """Rank-one curvature ``-d d̄ log h`` at radius ``r`` via series sums."""
    return series_pass([K], [(r, 2)])[1](K, r)


def curvature_fd(K: DiagonalKernel, r: float, step: float = FD_STEP) -> float:
    """Curvature via ``-(1/4)`` of the radial Laplacian of ``log h``.

    Central differences of ``f(r) = log h(r)``: ``Δf = f'' + f'/r``.  The
    step shrinks to ``(1-r)/10`` near the boundary so the stencil stays
    inside the disk.
    """
    return float(_curvatures_fd(K, np.array([r]), step)[0])


def _curvatures_fd(K: DiagonalKernel, r: np.ndarray, step: float) -> np.ndarray:
    """:func:`curvature_fd` at every radius: all stencils checked, then one series pass over ``r, r+h, r-h``."""
    h = np.minimum(step, (1.0 - r) / 10.0)
    for x, hx in zip(r, h):
        if not 0.0 < x < 1.0:
            raise DomainError(f"radius {x} outside (0, 1)")
        if step <= 0.0:
            raise DomainError("step must be positive")
        if x - 2.0 * hx <= 0.0 or x + 2.0 * hx >= 1.0:
            raise DomainError(f"finite-difference stencil leaves (0, 1) at r={x}, step={hx}")
    p = np.concatenate((r + h, r, r - h))
    f = [math.log(v) for v in series_pass([K], [(x, 0) for x in p.tolist()])[0](K, p).tolist()]  # np.log rounds apart
    return -0.25 * radial_laplacian(*np.reshape(f, (3, -1)), h, r)


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


def curvature_profile(K: DiagonalKernel, radii, method: str = "series") -> CurvatureProfile:
    """Sample the curvature of ``K`` on a radial grid (radii up to ``ANALYTIC_RADIUS_CAP``, FD step ``FD_STEP``)."""
    r = np.asarray(radii, dtype=float)
    beyond = r[(r > ANALYTIC_RADIUS_CAP) & (r < 1.0)]  # radii >= 1 fail in the evaluators
    if len(beyond):
        raise DomainError(f"radius {beyond[0]} beyond the analytic radius cap 1 - 2^-12")
    if method == "series":
        vals = series_pass([K], [(x, 2) for x in r])[1](K, r)
    elif method == "finite-difference":
        vals = _curvatures_fd(K, r, FD_STEP)
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
    for r, v in zip(profile.radii.tolist(), profile.values.tolist()):
        fh.write(f"{r:.17g},{v:.17g},{profile.method}\n")
