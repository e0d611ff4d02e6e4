"""Integer-coefficient rational rules ``i -> p(i)/q(i)`` and the sequences built on them.

A rule is a pair of integer-coefficient polynomials evaluated at the sequence
index.  A :class:`RationalSequence` (positive prefix plus rational tail) is
the one type behind shift weights (``shifts.WeightSequence``, square roots of
the rule) and kernel coefficients (``rkhs.DiagonalKernel``, the rule itself),
linked by ``w_n^2 = b_n / b_{n+1}``.
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
        """Evaluate ``p(i)/q(i)`` on an index array."""
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
    def turning_points(self) -> np.ndarray:
        """Real parts of the roots of ``p'q - pq'`` and of ``q``.

        Between consecutive real ones the rule is monotone, so its extrema
        over an integer range lie at the range's start, next to one of these
        points, or in the limit.  Real parts of complex roots only add
        candidates (rounding can split a double root into a complex pair).
        """
        p, q = self.p, self.q
        num = poly_sub(poly_mul(poly_der(p), q), poly_mul(p, poly_der(q)))  # exact: forward ratios pass int64
        # polyroots drops trailing zero coefficients itself
        return np.concatenate([P.polyroots(np.array(c, dtype=float)).real for c in (num, q)])

    def extreme_indices(self, start: int) -> np.ndarray:
        """Indices ``>= start`` at which the rule takes its extrema over ``i >= start``.

        ``start`` itself and the integers next to the turning points at or
        past it; the infimum or supremum not attained there is the limit.
        """
        near = np.floor(self.turning_points[self.turning_points >= start - 1])
        idx = np.concatenate([[start], near, near + 1])
        return idx[idx >= start]

    def bounds(self, start: int) -> tuple[float, float]:
        """(inf, sup) of the rule over ``i >= start``: the extremes of its
        values at :meth:`extreme_indices` and its limit."""
        vals = np.append(self(self.extreme_indices(start)), self.limit())
        return float(vals.min()), float(vals.max())

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
            bad = idx[self.tail(idx) <= 0.0]
            if len(bad):
                raise DomainError(f"tail rule nonpositive at index {int(np.min(bad))}")
            if self.tail.limit() < 0.0:
                raise DomainError(f"tail rule tends to {self.tail.limit()} < 0")

    @property
    def coverage(self) -> int | None:
        """Number of defined terms, or None when the tail extends forever."""
        return None if self.tail is not None else len(self.prefix)
