"""The exact integer reader of a rational rule against independent routes: its root cells against ``mpmath``'s
roots, its candidate values against ``fractions.Fraction``, its bounds against a ``Fraction`` scan and against the
reduction of its candidate values, and its index arrays against ``np.polyval``."""

import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cdlab.errors import DomainError
from cdlab.rkhs import DiagonalKernel
from cdlab.rules import RationalRule, poly_der, poly_mul, poly_sub, root_cells
from cdlab.shifts import WeightSequence

INTEGERS = st.integers(min_value=-10 ** 6, max_value=10 ** 6) | st.integers(min_value=-10 ** 12, max_value=10 ** 12)
COEFFS = st.lists(INTEGERS, min_size=1, max_size=5)
#: Coefficients past 2^53 and past int64, on polynomials of degree at most two: turning-point numerators
#: ``p'q - pq'`` of degree zero and one are frequent.
HUGE = st.integers(min_value=-2 ** 70, max_value=2 ** 70) | st.integers(min_value=2 ** 53, max_value=2 ** 54)
LOW = st.lists(INTEGERS | HUGE, min_size=1, max_size=3)
#: Polynomials with many real roots: products of factors ``d i - r``, repeated and half-integer roots among them.
ROOTED = st.lists(st.tuples(st.integers(-300, 300), st.integers(1, 2)), max_size=6).map(
    lambda factors: product((-r, d) for r, d in factors))


def product(factors) -> tuple[int, ...]:
    out = (1,)
    for f in factors:
        out = poly_mul(out, f)
    return out


def rule_or_none(p, q):
    return RationalRule(tuple(p), tuple(q)) if any(q) else None


def value(c, i: int) -> int:
    return sum(a * i ** k for k, a in enumerate(c))


def _strip(a: list) -> list:
    while a and a[0] == 0:
        a = a[1:]
    return a


def _divmod(a: list, b: list) -> tuple[list, list]:
    """Quotient and remainder of two polynomials with Fraction coefficients, highest degree first."""
    q, a = [], list(a)
    while len(a) >= len(b):
        q.append(a[0] / b[0])
        a = [x - q[-1] * y for x, y in zip(a, b + [0] * (len(a) - len(b)))][1:]
    return q, _strip(a)


def real_roots(coeffs) -> list:
    """Real roots of an integer polynomial: ``mpmath.polyroots`` at 60 digits on its square-free part
    ``f / gcd(f, f')``, formed exactly over the rationals, so that every root is simple. Its extra precision grows
    with the coefficients' bit lengths: roots close together near 1e10 do not converge with 60 extra bits."""
    f = _strip([Fraction(c) for c in reversed(coeffs)])
    if len(f) < 2:
        return []
    g, h = f, _strip([Fraction(c) for c in reversed(poly_der(tuple(coeffs)))])
    while h:
        g, h = h, _divmod(g, h)[1]
    simple = _divmod(f, g)[0]
    if len(simple) < 2:
        return []
    with mpmath.workdps(60):
        roots = mpmath.polyroots([mpmath.mpf(c.numerator) / c.denominator for c in simple], maxsteps=200,
                                 extraprec=60 + 2 * max(abs(c).bit_length() for c in coeffs))
        return [mpmath.re(r) for r in roots if abs(mpmath.im(r)) <= mpmath.mpf(10) ** -30 * max(1, abs(r))]


def assert_cells_hold(coeffs, cells):
    assert list(cells) == sorted(set(cells))
    for r in real_roots(coeffs):
        assert any(-1e-20 <= r - c <= 1 + 1e-20 for c in cells), (coeffs, float(r), cells)


@given(COEFFS | LOW | ROOTED, COEFFS | LOW | ROOTED, st.booleans())
@example([1, 1], [2, 1], False)  # the szego(2) weights: a constant numerator, a linear denominator
@example([3, 1, 2], [5], False)  # a linear numerator
@example([2 ** 60 + 1, 3, 2 ** 55 + 1], [2 ** 64 + 7], False)  # a linear numerator past 2^53 and int64
@example([0], [4, 0, 0], False)  # zero numerator, a constant denominator with trailing zeros
@example([1, -4, 4], [1], True)  # (2i - 1)^2: a double root at a half-integer
@settings(max_examples=200, deadline=None)
def test_turning_cells_hold_every_real_root(p, q, forward):
    # every real root of p'q - pq' and of q, as mpmath finds it, lies in a reported cell [c, c + 1]
    rule = rule_or_none(p, q)
    if rule is None:
        return
    if forward and any(rule.p):
        rule = rule.forward_ratio
    turning = poly_sub(poly_mul(poly_der(rule.p), rule.q), poly_mul(rule.p, poly_der(rule.q)))
    assert_cells_hold(turning, root_cells(turning))
    assert_cells_hold(rule.q, root_cells(rule.q))
    assert rule.turning_cells == root_cells(turning) + root_cells(rule.q)


def test_integer_polynomial_helpers():
    assert poly_der((5,)) == (0,)
    assert poly_der((1, 2, 3)) == (2, 6)
    assert poly_sub((1, 2), (1, 2, 3)) == (0, 0, -3)
    assert poly_sub((4,), ()) == (4,)
    assert RationalRule((1, 1), (1, 1)).turning_cells == (-1,)


def test_root_cells_of_the_roadmap_cases():
    # a linear root is floor(-c0/c1), whatever the signs; a constant has none
    assert root_cells((7, -2)) == (3,) and root_cells((-6, 2)) == (3,) and root_cells((-7, -2)) == (-4,)
    assert root_cells((5,)) == () and root_cells((0,)) == ()
    # a double root at a half-integer changes no sign: its cell comes from the derivative's
    assert 0 in root_cells((1, -4, 4))
    assert RationalRule((1, -4, 4)).bounds(0) == (1.0, math.inf)
    # negative only on (2.2, 2.8), which holds no integer: accepted, and its inf is the value at 2 and 3
    narrow = RationalRule(poly_mul((-11, 5), (-14, 5)))
    assert WeightSequence(tail=narrow).tail_bounds(0) == (2.0, math.inf)
    # negative only on (2.8, 3.2), which holds the integer 3: rejected, for weights and kernels alike
    for cls in (WeightSequence, DiagonalKernel):
        with pytest.raises(DomainError, match="nonpositive at index 3"):
            cls(tail=RationalRule(poly_mul((-14, 5), (-16, 5))))


#: Candidate indices: small ones, and ones far past int64.
CANDIDATES = st.lists(st.integers(min_value=-8, max_value=64) | st.integers(-2 ** 80, 2 ** 80), min_size=1, max_size=8)
#: Denominators ``i - r`` that vanish at a small integer index.
VANISHING = st.integers(min_value=-8, max_value=64).map(lambda r: [-r, 1])


@given(COEFFS | LOW, COEFFS | LOW | VANISHING, CANDIDATES)
@example([1, 1], [-3, 1], [0, 3, 5])  # the denominator vanishes at the second candidate
@example([2 ** 64 + 1, 2 ** 60], [2 ** 53 + 1, -(2 ** 70)], [0, 1, 2 ** 40])
@example([0, 0, 0, 1], [1], [2 ** 400, -(2 ** 400)])  # past the float range: inf of either sign
@settings(max_examples=300, deadline=None)
def test_candidate_values_are_the_rounded_fractions(p, q, candidates):
    # each value is p(i)/q(i) rounded once, inf with its sign past the float range; a vanishing denominator
    # raises at the first candidate where it vanishes
    rule = rule_or_none(p, q)
    if rule is None:
        return
    den = [value(rule.q, i) for i in candidates]
    if 0 in den:
        with pytest.raises(DomainError, match=f"vanishes at index {re.escape(str(candidates[den.index(0)]))}$"):
            rule(candidates)
        return
    values = rule(candidates)
    assert type(values) is list and all(type(v) is float for v in values)
    for i, d, v in zip(candidates, den, values):
        exact = Fraction(value(rule.p, i), d)
        try:
            assert v == float(exact)
        except OverflowError:
            assert v == (math.inf if exact > 0 else -math.inf)


@given(COEFFS | LOW, COEFFS | LOW | VANISHING, st.integers(min_value=0, max_value=64))
@example([0], [-1], 0)  # every value and the limit zero
@example([0, 0, 10 ** 300], [1, 0, 10 ** 300], 10 ** 5)  # both polynomials past the float range: 1.0, not NaN
@example([1, 0, 1], [401, -40, 1], 0)  # an interior maximum, 401 at i = 20
@settings(max_examples=300, deadline=None)
def test_bounds_match_a_fraction_scan(p, q, start):
    # when every turning cell ends within the scan, the rule is monotone past it, so the scan's extremes and the
    # limit are the exact extremes over i >= start, and the bounds are those, each rounded once
    rule = rule_or_none(p, q)
    if rule is None:
        return
    stop = max([start, *(c + 2 for c in rule.turning_cells)])
    if stop > start + 2000:
        return
    scan = range(start, stop + 1)
    if any(value(rule.q, i) == 0 for i in scan):
        with pytest.raises(DomainError, match="denominator vanishes"):
            rule.bounds(start)
        return
    exact = [Fraction(value(rule.p, i), value(rule.q, i)) for i in scan]
    limit = rule.limit()
    assert rule.bounds(start) == (min(float(min(exact)), limit), max(float(max(exact)), limit))


@given(COEFFS | LOW, COEFFS | LOW | VANISHING, st.integers(min_value=0, max_value=64))
@example([0], [-1], 0)  # every value and the limit -0.0
@example([0, 1], [-2, -1], 0)  # +0.0 at the start, a limit of -1
@example([0], [-11, 2], 0)  # values -0.0, -0.0, +0.0 and a limit +0.0: equal as values, whichever zero is kept
@example([0, 0, 10 ** 300], [1, 0, 10 ** 300], 10 ** 5)  # both polynomials past the float range at the start
@settings(max_examples=300, deadline=None)
def test_bounds_are_the_index_array_reduction(p, q, start):
    # bounds is numpy's min and max over an array of the values at the candidate indices and the limit, with the
    # candidate list's vanishing-denominator error
    rule = rule_or_none(p, q)
    if rule is None:
        return
    indices = rule.extreme_indices(start)
    try:
        vals = np.array(rule(indices) + [rule.limit()])
    except DomainError as err:
        with pytest.raises(DomainError, match=re.escape(str(err))):
            rule.bounds(start)
        return
    assert rule.bounds(start) == (float(vals.min()), float(vals.max()))


def test_bounds_propagate_a_nan():
    # the float index-array route still makes inf / inf = NaN for this rule at i = 10^5; bounds reads exact values,
    # so no NaN reaches it and it gives the exact bound 1.0
    rule = RationalRule((0, 0, 10 ** 300), (1, 0, 10 ** 300))
    with np.errstate(all="ignore"):
        assert np.isnan(rule(np.array([10.0 ** 5]))).all()
    assert rule.bounds(10 ** 5) == (1.0, 1.0)


def test_values_past_the_float_range_are_signed_infinities():
    # a limit and a least value, -2^1200 at i = 2^600, that no float holds
    assert RationalRule((10 ** 400,), (-3,)).bounds(0) == (-math.inf, -math.inf)
    assert RationalRule((0, -2 ** 601, 1)).bounds(0) == (-math.inf, math.inf)


def test_bounds_of_a_degree_15_product_are_exact():
    # prod_{k=1..15} (i - 1000 k^3 - 7): float Horner cancels to 9.4e-14 relative at the least value
    p = product((-(1000 * k ** 3 + 7), 1) for k in range(1, 16))
    rule = RationalRule(p)
    with mpmath.workdps(60):
        near = {i for r in real_roots(poly_der(p)) for i in (int(mpmath.floor(r)), int(mpmath.floor(r)) + 1)}
    assert rule.bounds(0) == (float(min(value(p, i) for i in near | {0})), math.inf)
    assert rule.bounds(0)[0] == -9.019951421320973e+93
    # its forward ratio (degree 30 over 30) falls towards 1 past the last root
    last = 1000 * 15 ** 3 + 8
    assert rule.forward_ratio.bounds(last) == (1.0, float(Fraction(value(p, last + 1), value(p, last))))


@given(COEFFS, COEFFS, st.booleans())
@settings(max_examples=300, deadline=None)
def test_values_are_the_polyval_bytes(p, q, forward):
    # Horner from the leading coefficient makes np.polyval's roundings, forward ratios past int64 included
    rule = rule_or_none(p, q)
    if rule is None:
        return
    if forward and any(rule.p):
        rule = rule.forward_ratio
    idx = np.arange(-8.0, 64.0)
    with np.errstate(all="ignore"):
        den = np.polyval(rule.q[::-1], idx)
        if np.any(den == 0):
            with pytest.raises(DomainError):
                rule(idx)
            return
        expected = np.polyval(rule.p[::-1], idx) / den
        assert rule(idx).tobytes() == expected.tobytes()
