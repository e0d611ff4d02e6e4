"""Exact-integer turning points of a rational rule against the ``numpy.polynomial`` object-array route, its
values against ``np.polyval``, its candidate lists against its index arrays, and its bounds against numpy's
reduction of the index-array values."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cdlab.errors import DomainError
from cdlab.rules import RationalRule, poly_der, poly_sub
from oracles import object_turning_points

INTEGERS = st.integers(min_value=-10 ** 6, max_value=10 ** 6) | st.integers(min_value=-10 ** 12, max_value=10 ** 12)
COEFFS = st.lists(INTEGERS, min_size=1, max_size=5)
#: Coefficients past 2^53 and past int64, on polynomials of degree at most two: turning-point numerators
#: ``p'q - pq'`` of degree zero and one are frequent.
HUGE = st.integers(min_value=-2 ** 70, max_value=2 ** 70) | st.integers(min_value=2 ** 53, max_value=2 ** 54)
LOW = st.lists(INTEGERS | HUGE, min_size=1, max_size=3)


def rule_or_none(p, q):
    return RationalRule(tuple(p), tuple(q)) if any(q) else None


@given(COEFFS | LOW, COEFFS | LOW, st.booleans())
@example([1, 1], [2, 1], False)  # the szego(2) weights: a constant numerator, a linear denominator
@example([3, 1, 2], [5], False)  # a linear numerator
@example([2 ** 60 + 1, 3, 2 ** 55 + 1], [2 ** 64 + 7], False)  # a linear numerator past 2^53 and int64
@example([0], [4, 0, 0], False)  # zero numerator, a constant denominator with trailing zeros
@settings(max_examples=300, deadline=None)
def test_turning_points_are_the_object_array_bytes(p, q, forward):
    # trailing zeros, zero numerators, constants, numerators of degree zero and one (their root is -c0/c1, not
    # a companion eigensolve) and, through forward_ratio, coefficients past int64
    rule = rule_or_none(p, q)
    if rule is None:
        return
    if forward and any(rule.p):
        rule = rule.forward_ratio
    assert np.array(rule.turning_points, dtype=float).tobytes() == object_turning_points(rule).tobytes()


def test_integer_polynomial_helpers():
    assert poly_der((5,)) == (0,)
    assert poly_der((1, 2, 3)) == (2, 6)
    assert poly_sub((1, 2), (1, 2, 3)) == (0, 0, -3)
    assert poly_sub((4,), ()) == (4,)
    assert np.array_equal(RationalRule((1, 1), (1, 1)).turning_points, [-1.0])


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


#: Candidate indices as :meth:`RationalRule.extreme_indices` gives them, and any other float.
CANDIDATES = st.lists(st.integers(min_value=-8, max_value=64).map(float) | st.floats(), min_size=1, max_size=8)
#: Denominators ``i - r`` that vanish at a small integer index.
VANISHING = st.integers(min_value=-8, max_value=64).map(lambda r: [-r, 1])


@given(COEFFS | LOW, COEFFS | LOW | VANISHING, CANDIDATES)
@example([1, 1], [-3, 1], [0.0, 3.0, 5.0])  # the denominator vanishes at the second candidate
@example([2 ** 64 + 1, 2 ** 60], [2 ** 53 + 1, -(2 ** 70)], [0.0, 1.0, 2.0 ** 40, float("inf")])
@settings(max_examples=300, deadline=None)
def test_candidate_list_is_the_index_array_bytes(p, q, candidates):
    # a list is evaluated in Python floats, an array by numpy: the same roundings, and the same error
    rule = rule_or_none(p, q)
    if rule is None:
        return
    with np.errstate(all="ignore"):
        try:
            expected = rule(np.array(candidates))
        except DomainError as err:
            with pytest.raises(DomainError, match=re.escape(str(err))):
                rule(candidates)
            return
    values = rule(candidates)
    assert type(values) is list and all(type(v) is float for v in values)
    assert np.array(values).tobytes() == expected.tobytes()


def array_bounds(rule: RationalRule, start: int) -> tuple[float, float]:
    """(inf, sup) by numpy's reduction of the rule's values on an index array of its candidates and its limit."""
    with np.errstate(all="ignore"):
        vals = np.append(rule(np.array(rule.extreme_indices(start))), rule.limit())
    return float(vals.min()), float(vals.max())


@given(COEFFS | LOW, COEFFS | LOW | VANISHING, st.integers(min_value=0, max_value=64))
@example([0], [-1], 0)  # every value and the limit -0.0
@example([0, 1], [-2, -1], 0)  # +0.0 at the start, a limit of -1
@example([0], [-11, 2], 0)  # values -0.0, -0.0, +0.0 and a limit +0.0: numpy's min and max give +0.0, Python's -0.0
@example([0, 0, 10 ** 300], [1, 0, 10 ** 300], 10 ** 5)  # both polynomials overflow at the start: a NaN value
@settings(max_examples=300, deadline=None)
def test_bounds_are_the_index_array_reduction(p, q, start):
    # signed zeros and NaN as numpy's min and max give them
    rule = rule_or_none(p, q)
    if rule is None:
        return
    try:
        expected = array_bounds(rule, start)
    except DomainError as err:
        with pytest.raises(DomainError, match=re.escape(str(err))):
            rule.bounds(start)
        return
    assert np.array(rule.bounds(start)).tobytes() == np.array(expected).tobytes()


def test_bounds_propagate_a_nan():
    assert np.isnan(RationalRule((0, 0, 10 ** 300), (1, 0, 10 ** 300)).bounds(10 ** 5)).all()
