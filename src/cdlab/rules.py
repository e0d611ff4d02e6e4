"""Integer-coefficient rational rules ``i -> p(i)/q(i)`` and the sequences built on them.

A rule is a pair of integer-coefficient polynomials evaluated at the sequence
index.  A :class:`RationalSequence` (positive prefix plus rational tail) is
the one type behind shift weights (``shifts.WeightSequence``, square roots of
the rule) and kernel coefficients (``rkhs.DiagonalKernel``, the rule itself),
linked by ``w_n^2 = b_n / b_{n+1}``.

A rule's extrema over ``i >= start`` come from a few candidate indices
(:meth:`RationalRule.extreme_indices`) read off :func:`root_cells` in Python
ints, each valued exactly and rounded once; index arrays (the weights and
coefficients themselves) are evaluated by numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import pairwise

import numpy as np

from .errors import DomainError


def poly_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Product of two integer polynomials, coefficients lowest degree first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return tuple(out)


def poly_der(a: tuple[int, ...]) -> tuple[int, ...]:
    """Derivative of an integer polynomial, coefficients lowest degree first (``(0,)`` for a constant)."""
    return tuple(k * c for k, c in enumerate(a))[1:] or (0,)


def poly_sub(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Difference of two integer polynomials, coefficients lowest degree first."""
    return tuple(x - y for x, y in zip(a + (0,) * (len(b) - len(a)), b + (0,) * (len(a) - len(b))))


def poly_shift(a: tuple[int, ...], s: int) -> tuple[int, ...]:
    """Coefficients of ``a(i + s)`` from those of ``a(i)``, lowest degree first (exact for integer ``s``)."""
    return tuple(sum(c * math.comb(k, j) * s ** (k - j) for k, c in enumerate(a) if k >= j) for j in range(len(a)))


def _degree(coeffs: tuple[int, ...]) -> int:
    for d in range(len(coeffs) - 1, -1, -1):
        if coeffs[d] != 0:
            return d
    return 0


def _horner(coeffs: tuple[int, ...], x: np.ndarray) -> np.ndarray:
    """The polynomial ``coeffs`` (lowest degree first) at ``x``, by Horner's rule from the leading
    coefficient: the multiply-then-add steps of ``np.polyval``, without its call overhead."""
    y = np.zeros_like(x)
    for c in reversed(coeffs):
        y *= x
        y += float(c)
    return y


def _value(coeffs: tuple[int, ...], x: int) -> int:
    """The integer polynomial ``coeffs`` (lowest degree first) at the integer ``x``, exactly."""
    y = 0
    for c in reversed(coeffs):
        y = y * x + c
    return y


def _quotient(n: int, d: int) -> float:
    try:
        return n / d  # rounded once
    except OverflowError:  # past the float range: the signed inf a float division gives
        return math.inf if (n > 0) == (d > 0) else -math.inf


def root_cells(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """Sorted integers ``c`` such that each real root of the integer polynomial ``coeffs`` (lowest degree first)
    lies in some ``[c, c + 1]``.  By Rolle the polynomial is monotone between its derivative's cells, which are
    kept (a root of even multiplicity changes no sign); each stretch between them holds at most one root, found
    by integer bisection of a sign change within ``M = 2 max_j |c_{d-j} / c_d|^(1/j)`` (Fujiwara), a power of two
    from the bit lengths: ``log2 M`` exact evaluations per stretch, at most ``d`` stretches per derivative."""
    d = _degree(coeffs)
    if d < 2:
        return (-coeffs[0] // coeffs[1],) if d else ()
    lead = coeffs[d].bit_length()
    M = 2 ** (1 + max([0, *(-((lead - c.bit_length() - 1) // j) for j, c in enumerate(coeffs[d - 1::-1], 1) if c)]))
    inner = root_cells(poly_der(coeffs))
    cells = set(inner)
    for a, b in pairwise(sorted({-M, M, *inner, *(c + 1 for c in inner)})):
        va = _value(coeffs, a)  # its sign stays that of p(a) as a moves
        if a in inner or va * _value(coeffs, b) > 0:
            continue
        while b - a > 1:
            m = (a + b) // 2
            a, b = (m, b) if va * _value(coeffs, m) > 0 else (a, m)
        cells.add(a)
    return tuple(sorted(cells))


@dataclass(frozen=True)
class RationalRule:
    """Rational sequence rule ``i -> p(i)/q(i)``.

    Coefficients are stored lowest degree first: ``p=(1, 1)`` is ``1 + i``.
    """

    p: tuple[int, ...]
    q: tuple[int, ...] = (1,)

    def __post_init__(self):
        if not self.p or not self.q:
            raise DomainError("rational rule needs nonempty numerator and denominator")
        object.__setattr__(self, "p", tuple(int(c) for c in self.p))
        object.__setattr__(self, "q", tuple(int(c) for c in self.q))
        if not any(self.q):
            raise DomainError("rational rule denominator is identically zero")

    def __call__(self, i):
        """Evaluate ``p(i)/q(i)`` on an index array, or on a list of integer indices (the candidates of
        :meth:`extreme_indices`): a list of ``p(i)`` over ``q(i)`` in Python ints, each rounded once."""
        if isinstance(i, list):
            num, den = ([_value(c, x) for x in i] for c in (self.p, self.q))
            if 0 in den:
                raise DomainError(f"rational rule denominator vanishes at index {i[den.index(0)]}")
            return [_quotient(n, d) for n, d in zip(num, den)]
        idx = np.asarray(i, dtype=float)
        num, den = (_horner(c, idx) for c in (self.p, self.q))
        if np.any(den == 0):
            raise DomainError(f"rational rule denominator vanishes at index {int(idx[den == 0].flat[0])}")
        return num / den

    def limit(self) -> float:
        """Limit of ``p(i)/q(i)`` as ``i -> oo`` (signed inf when deg p > deg q)."""
        dp, dq = _degree(self.p), _degree(self.q)
        if dp > dq:
            return math.copysign(math.inf, self.p[dp] * self.q[dq])
        if dp < dq:
            return 0.0
        return _quotient(self.p[dp], self.q[dq])

    @cached_property
    def turning_cells(self) -> tuple[int, ...]:
        """:func:`root_cells` of ``p'q - pq'`` and of ``q``: between their real roots the rule is monotone, so
        its extrema over an integer range lie at the range's start, at an end of one of these cells, or in the limit."""
        p, q = self.p, self.q
        return root_cells(poly_sub(poly_mul(poly_der(p), q), poly_mul(p, poly_der(q)))) + root_cells(q)

    def extreme_indices(self, start: int) -> list[int]:
        """Indices ``>= start`` at which the rule takes its extrema over ``i >= start``, as one list: ``start``
        and the ends of the turning cells at or past it; the infimum or supremum not attained there is the limit."""
        near = [c for c in self.turning_cells if c >= start - 1]
        return [i for i in [start, *near, *(c + 1 for c in near)] if i >= start]

    def bounds(self, start: int) -> tuple[float, float]:
        """(inf, sup) of the rule over ``i >= start``: the extremes of its values at
        :meth:`extreme_indices` and its limit."""
        vals = self(self.extreme_indices(start)) + [self.limit()]
        return min(vals), max(vals)

    @cached_property
    def forward_ratio(self) -> "RationalRule":
        """The rule ``i -> r(i+1)/r(i) = p(i+1) q(i) / (q(i+1) p(i))`` of consecutive terms."""
        return RationalRule(poly_mul(poly_shift(self.p, 1), self.q), poly_mul(poly_shift(self.q, 1), self.p))


@dataclass(frozen=True)
class RationalSequence:
    """Positive sequence: an explicit prefix plus an optional rational tail.

    ``prefix`` supplies terms ``0 .. len(prefix)-1``; from ``i = len(prefix)``
    on the term comes from the tail rule evaluated at ``i``.  A tail that is
    not positive at every such index is rejected (checked at the rule's
    :meth:`RationalRule.extreme_indices` and in its limit).  ``name`` records
    the preset the sequence was built from, if any.
    """

    prefix: tuple[float, ...] = ()
    tail: RationalRule | None = None
    name: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(float(v) for v in self.prefix))
        if any(not math.isfinite(v) or v <= 0.0 for v in self.prefix):
            raise DomainError("sequence prefix entries must be positive and finite")
        if self.tail is not None:
            # positive at every extremum candidate and a nonnegative limit: positive for all i >= len(prefix)
            idx = self.tail.extreme_indices(len(self.prefix))
            bad = [i for i, v in zip(idx, self.tail(idx)) if v <= 0.0]
            if bad:
                raise DomainError(f"tail rule nonpositive at index {min(bad)}")
            if self.tail.limit() < 0.0:
                raise DomainError(f"tail rule tends to {self.tail.limit()} < 0")

    @property
    def coverage(self) -> int | None:
        """Number of defined terms, or None when the tail extends forever."""
        return None if self.tail is not None else len(self.prefix)
