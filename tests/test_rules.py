"""Exact-integer turning points of a rational rule against the ``numpy.polynomial`` object-array route, and its
values against ``np.polyval``."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdlab.errors import DomainError
from cdlab.rules import RationalRule, poly_der, poly_sub
from oracles import object_turning_points

INTEGERS = st.integers(min_value=-10 ** 6, max_value=10 ** 6) | st.integers(min_value=-10 ** 12, max_value=10 ** 12)
COEFFS = st.lists(INTEGERS, min_size=1, max_size=5)


def rule_or_none(p, q):
    return RationalRule(tuple(p), tuple(q)) if any(q) else None


@given(COEFFS, COEFFS, st.booleans())
@settings(max_examples=300, deadline=None)
def test_turning_points_are_the_object_array_bytes(p, q, forward):
    # trailing zeros, zero numerators, constants and, through forward_ratio, coefficients past int64
    rule = rule_or_none(p, q)
    if rule is None:
        return
    if forward and any(rule.p):
        rule = rule.forward_ratio
    assert rule.turning_points.tobytes() == object_turning_points(rule).tobytes()


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
