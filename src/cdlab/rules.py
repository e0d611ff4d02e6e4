"""Integer-coefficient rational rules ``i -> p(i)/q(i)`` and the sequences built on them.

A rule is a pair of integer-coefficient polynomials evaluated at the sequence
index.  A :class:`RationalSequence` (positive prefix plus rational tail) is
the one type behind shift weights (``shifts.WeightSequence``, square roots of
the rule) and kernel coefficients (``rkhs.DiagonalKernel``, the rule itself),
linked by ``w_n^2 = b_n / b_{n+1}``.

A rule's extrema over ``i >= start`` come from a few candidate indices
(:meth:`RationalRule.extreme_indices`), one short list evaluated in Python
floats with the roundings numpy makes on an index array; index arrays (the
weights and coefficients themselves) are evaluated by numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import zip_longest

import numpy as np
from numpy.polynomial import polynomial as P

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
    return tuple(x - y for x, y in zip_longest(a, b, fillvalue=0))


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


def _horner_float(coeffs: tuple[int, ...], x: float) -> float:
    """:func:`_horner` at one Python float, in the same operations."""
    y = 0.0
    for c in reversed(coeffs):
        y = y * x + float(c)
    return y


def _real_roots(coeffs: tuple[int, ...]) -> list[float]:
    """Real parts of the roots of the integer polynomial ``coeffs`` (lowest degree first), as
    ``numpy.polynomial.polynomial.polyroots`` gives them: none for a constant, ``-c0/c1`` for a linear
    one (its own formula), the companion matrix's eigenvalues from degree two on."""
    d = _degree(coeffs)
    if d < 2:
        return [-float(coeffs[0]) / float(coeffs[1])] if d else []
    return P.polyroots(np.array(coeffs, dtype=float)).real.tolist()


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
        """Evaluate ``p(i)/q(i)`` on an index array, or on a list of indices in Python floats.

        A list (the few candidates of :meth:`extreme_indices`) gives a list, each value by the float
        operations :func:`_horner` makes on an array, without numpy's per-call overhead.
        """
        if isinstance(i, list):
            num, den = ([_horner_float(c, x) for x in i] for c in (self.p, self.q))
            if 0.0 in den:
                raise DomainError(f"rational rule denominator vanishes at index {int(i[den.index(0.0)])}")
            return [n / d for n, d in zip(num, den)]
        idx = np.asarray(i, dtype=float)
        num = _horner(self.p, idx)
        den = _horner(self.q, idx)
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
        return self.p[dp] / self.q[dq]

    @cached_property
    def turning_points(self) -> tuple[float, ...]:
        """Real parts of the roots of ``p'q - pq'`` and of ``q``.

        Between consecutive real ones the rule is monotone, so its extrema
        over an integer range lie at the range's start, next to one of these
        points, or in the limit.  Real parts of complex roots only add
        candidates (rounding can split a double root into a complex pair).
        """
        p, q = self.p, self.q
        num = poly_sub(poly_mul(poly_der(p), q), poly_mul(p, poly_der(q)))  # exact: forward ratios pass int64
        return tuple(t for c in (num, q) for t in _real_roots(c))

    def extreme_indices(self, start: int) -> list[float]:
        """Indices ``>= start`` at which the rule takes its extrema over ``i >= start``, as one list.

        ``start`` itself and the integers next to the turning points at or
        past it; the infimum or supremum not attained there is the limit.
        """
        # an infinite turning point stays a candidate, as under np.floor (math.floor rejects it)
        near = [t if t == math.inf else float(math.floor(t)) for t in self.turning_points if t >= start - 1]
        return [i for i in [float(start), *near, *(f + 1.0 for f in near)] if i >= start]

    def bounds(self, start: int) -> tuple[float, float]:
        """(inf, sup) of the rule over ``i >= start``: the extremes of its
        values at :meth:`extreme_indices` and its limit, as numpy's ``min`` and ``max`` give them."""
        vals = self(self.extreme_indices(start)) + [self.limit()]
        if any(v != v or v == 0.0 for v in vals):  # numpy's reduction propagates a NaN and picks a zero's sign
            arr = np.array(vals)
            return float(arr.min()), float(arr.max())
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
                raise DomainError(f"tail rule nonpositive at index {int(min(bad))}")
            if self.tail.limit() < 0.0:
                raise DomainError(f"tail rule tends to {self.tail.limit()} < 0")

    @property
    def coverage(self) -> int | None:
        """Number of defined terms, or None when the tail extends forever."""
        return None if self.tail is not None else len(self.prefix)
