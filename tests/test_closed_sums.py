"""Kernel sums in closed form for tails with a constant denominator.

``rkhs._series_sums`` sums a tail ``p(n)/q0`` through the Newton form
``sum_k Δ^k P(0) t^k / (1-t)^(k+1)`` plus a finite prefix correction
(``rkhs._closed_sums``) on every row whose rounding bound it certifies; the
other rows take the chunked sweep (``rkhs._swept_sums``), which is the oracle
here, next to ``mpmath`` at the analytic radius cap.  The whole-array pass
itself is pinned byte for byte to the one-order-at-a-time loop of
``oracles.per_order_closed_sums``.
"""

import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cdlab import rkhs
from cdlab.errors import DomainError, TruncationError
from cdlab.rkhs import DiagonalKernel, szego_power_coeffs
from cdlab.rules import RationalRule, poly_mul
from oracles import per_order_closed_sums

CAP_T = rkhs.ANALYTIC_RADIUS_CAP ** 2
#: ``g(t) = c - 1 + (1-t)^-p``: ``b_0 = c``, ``b_n = C(n+p-1, n)``; ``c = 1`` is ``szego_power_coeffs(p)``.
PINNED = [(1.0, p) for p in range(1, 5)] + [(c, p) for c in (0.5, 1.7) for p in (1, 2, 3)]


def no_sweep():
    return mock.patch.object(rkhs, "_swept_sums", side_effect=AssertionError("chunked sweep"))


@pytest.mark.parametrize("c, p", PINNED)
def test_orders_zero_to_four_at_the_cap_against_mpmath(c, p):
    K = szego_power_coeffs(p) if c == 1.0 else DiagonalKernel(prefix=(c,), tail=szego_power_coeffs(p).tail)
    with no_sweep():
        got = rkhs._series_sums(K, CAP_T, 4)
    with mpmath.workdps(40):
        s = 1 - mpmath.mpf(CAP_T)
        exact = [c - 1 + s ** -p] + [mpmath.rf(p, m) * s ** -(p + m) for m in range(1, 5)]
    for m in range(5):
        assert abs(got[m] - exact[m]) <= 1e-14 * exact[m], m


@st.composite
def polynomial_kernels(draw) -> DiagonalKernel:
    """A tail ``p(n)/q0`` of degree 0-3 (either sign of ``q0``, positive from the offset) behind a random
    positive prefix of 0-3 entries."""
    p = tuple(draw(st.lists(st.integers(-9, 9), min_size=1, max_size=4)))
    q0 = draw(st.integers(1, 9)) * draw(st.sampled_from([1, -1]))
    prefix = tuple(draw(st.lists(st.floats(0.2, 3.0), max_size=3)))
    try:
        return DiagonalKernel(prefix=prefix, tail=RationalRule(p, (q0,)))
    except DomainError:
        assume(False)


#: ``t = 0``, the dyadic radii and floats above 1e-70, where the sweep's ``t^m`` (``m <= 4``) stays normal.
ROW_T = st.one_of(st.just(0.0), st.floats(1e-70, CAP_T), st.sampled_from(list(rkhs.boundary_radii() ** 2)))


@given(polynomial_kernels(), st.lists(st.tuples(ROW_T, st.integers(0, 4)), min_size=1, max_size=4), st.data())
@settings(max_examples=60, deadline=None)
def test_closed_rows_agree_with_the_sweep(K, rows, data):
    rows += data.draw(st.lists(st.sampled_from(rows), max_size=2))  # repeats
    t, orders = np.array([x for x, _ in rows]), np.array([m for _, m in rows])
    sums = rkhs._series_sums(K, t, orders)
    closed, ok = rkhs._closed_sums(K, t, orders)
    swept = rkhs._swept_sums(K, t, orders)
    for i, (x, m) in enumerate(rows):
        assert sums[i].tobytes() == (closed[i] if ok[i] else swept[i]).tobytes()
        assert sums[i, : m + 1].tobytes() == rkhs._series_sums(K, x, m).tobytes()  # batched rows as one-row calls
        assert np.all(np.isnan(sums[i, m + 1 :]))
        assert np.all(np.abs(sums[i, : m + 1] - swept[i, : m + 1]) <= 1e-13 * np.abs(swept[i, : m + 1])), (x, m)


@st.composite
def wide_kernels(draw) -> DiagonalKernel:
    """A tail ``p(n)/q0`` of 1-16 coefficients (first and last positive, both signs inside, ``p`` and ``q0``
    sharing a random sign) behind a prefix of 0-3 or 8-12 entries: rows of 9 terms and more, which numpy sums
    pairwise, and prefix corrections at every order up to 4."""
    sign = draw(st.sampled_from([1, -1]))
    inner = draw(st.lists(st.integers(-9, 9), max_size=14))
    p = [draw(st.integers(1, 9)), *inner, draw(st.integers(1, 9))][: draw(st.integers(1, 16))]
    prefix = draw(st.one_of(st.lists(st.floats(0.2, 3.0), max_size=3), st.lists(st.floats(0.2, 3.0), min_size=8,
                                                                                  max_size=12)))
    try:
        return DiagonalKernel(prefix=tuple(prefix), tail=RationalRule(tuple(sign * c for c in p),
                                                                      (sign * draw(st.integers(1, 9)),)))
    except DomainError:
        assume(False)


@given(wide_kernels(), st.lists(st.tuples(ROW_T, st.integers(0, 4)), min_size=1, max_size=6))
@example(DiagonalKernel(prefix=(0.5,) * 10, tail=RationalRule(tuple(range(1, 17)))),
         [(CAP_T, 4), (0.0, 0), (0.5, 2), (CAP_T, 1), (0.5, 2)])
@settings(max_examples=80, deadline=None)
def test_whole_array_pass_is_the_per_order_loop(K, rows):
    t, orders = np.array([x for x, _ in rows]), np.array([m for _, m in rows])
    try:
        want = per_order_closed_sums(K, t, orders)
    except OverflowError:  # a Newton coefficient past float range fails both passes
        with pytest.raises(OverflowError):
            rkhs._closed_sums(K, t, orders)
        return
    sums, ok = rkhs._closed_sums(K, t, orders)
    assert sums.tobytes() == want[0].tobytes()
    assert ok.tobytes() == want[1].tobytes()


@pytest.mark.parametrize("t", [1e-200, 1e-310, 5e-324])
def test_tiny_t_against_mpmath(t):
    # t^m underflows here; the Newton form never forms it
    K = DiagonalKernel(prefix=(1.7,), tail=szego_power_coeffs(3).tail)
    with no_sweep():
        got = rkhs._series_sums(K, t, 4)
    with mpmath.workdps(40):
        s = 1 - mpmath.mpf(t)
        exact = [0.7 + s ** -3] + [mpmath.rf(3, m) * s ** -(3 + m) for m in range(1, 5)]
    for m in range(5):
        assert abs(got[m] - exact[m]) <= 1e-14 * exact[m], m


def test_polynomial_kernels_take_the_closed_form():
    # every szego power and prefixed tail, at every dyadic radius and t = 0, orders 0-4
    t = np.append(rkhs.boundary_radii() ** 2, [0.0, 0.0625])
    for c, p in PINNED:
        K = szego_power_coeffs(p) if c == 1.0 else DiagonalKernel(prefix=(c,), tail=szego_power_coeffs(p).tail)
        assert rkhs._closed_sums(K, np.repeat(t, 5), np.tile(np.arange(5), len(t)))[1].all(), (c, p)


def shifted_power(a: int, d: int) -> tuple[int, ...]:
    """Coefficients of ``(n - a)^d + 1``."""
    p = (1,)
    for _ in range(d):
        p = poly_mul(p, (-a, 1))
    return (p[0] + 1, *p[1:])


@pytest.mark.parametrize("K, t", [
    # Newton coefficients of both signs: (n - 30)^6 + 1 at t = 0.9 sums to 2.8e9 from terms of up to 1.2e12
    (DiagonalKernel(tail=RationalRule(shifted_power(30, 6))), 0.9),
    # a prefix correction that cancels the tail's head: b_n = 10^-3 for n < 3, 10^12 beyond
    (DiagonalKernel(prefix=(1e-3,) * 3, tail=RationalRule((10 ** 12,))), 1e-3),
], ids=["newton-cancellation", "prefix-cancellation"])
def test_cancelling_rows_take_the_sweep(K, t):
    closed, ok = rkhs._closed_sums(K, np.array([t]), np.array([0]))
    assert not ok[0]
    swept = rkhs._swept_sums(K, np.array([t]), np.array([0]))[0]
    assert rkhs._series_sums(K, t, 0).tobytes() == swept.tobytes()
    b = K.coeffs_slice(0, 4000)
    assert abs(swept[0] - math.fsum(float(b[n]) * t ** n for n in range(4000))) <= 1e-13 * swept[0]


def test_overflowing_newton_coefficient_takes_the_sweep(monkeypatch):
    # b_n = 10^307: the order-4 polynomial b (j+1)...(j+4) starts at 2.4e308, past float range; the sweep's own
    # products overflow too, so it ends as it always does on a tail it cannot certify (exit 4, not a traceback)
    K = DiagonalKernel(tail=RationalRule((10 ** 307,)))
    with pytest.raises(OverflowError):
        rkhs._closed_sums(K, np.array([0.5]), np.array([4]))
    monkeypatch.setattr(rkhs, "_MAX_TERMS", 2 * rkhs._CHUNK)
    with pytest.raises(TruncationError, match=r"at t=0\.5$"):
        rkhs._series_sums(K, 0.5, 4)
