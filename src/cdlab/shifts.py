"""Weighted backward shift operators on finite truncations.

A weighted backward shift sends ``e_{i+1} -> w_i e_i``; its ``N x N``
truncation has the weights on the superdiagonal.  Weights are a
``rules.RationalSequence`` read as square roots (:class:`WeightSequence`).
The module covers construction from weight rules, the alternating-binomial
defects ``sum_j (-1)^j C(k,j) (T*)^j T^j`` (one routine, the grade-block
engine), hypercontractivity certification on interior windows, and
Shields-style partial weight-product ratio diagnostics.

Truncation note: for upper-triangular assemblies of backward shifts and
diagonals, every product ``(T*)^j T^j`` computed from the truncation equals
the compression of the infinite operator (index paths never cross the cut).
The interior-window verdicts below still drop one trailing index per defect
order as a conservative convention.

Grading note: such an operator lowers a grading of the basis by exactly one
(``g(e_m) = m`` for a shift; ``g(top_m) = m`` and ``g(bottom_m) = m + 1``
for ``[[shift, diag], [0, shift]]``; in general ``M[r, c] != 0`` only when
``g(r) = g(c) - 1``).  Every ``(T*)^j T^j``, hence every defect and its
principal windows, is then block diagonal over the grades, with blocks no
wider than the block grid.  The builders record the grading they produce:
:func:`materialize` grades a shift by ``g(e_m) = m`` and
``blockops.assemble`` gives each grid row one offset.  :func:`defect_blocks`
reads that grading and the operator's entries and certifies defects block
by block in ``O(k N)`` work, without forming the ``N x N`` matrix, whatever
the block width.  An operator with no grading (matrix blocks, a diagonal
block on the grid diagonal) is the engine's one-block case: its defects cost
dense ``O(N^3)`` products.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import count

import numpy as np

from .errors import ConfigurationError, DomainError, NonFiniteError
from .matrix_core import DEFAULT_TOL, PsdVerdict, psd_verdict
from .rules import RationalRule, RationalSequence, _degree, _horner, poly_mul, poly_shift, poly_sub, root_cells

DEFAULT_ORDER = 64

class WeightSequence(RationalSequence):
    """Positive shift weights: an explicit prefix plus an optional rational tail.

    ``prefix`` holds the weights themselves; past it the weight is
    ``sqrt(p(i)/q(i))`` with the tail rule evaluated at the superdiagonal
    index.  Without a tail, indices past the prefix are undefined.
    """

    def weights(self, count: int) -> np.ndarray:
        """First ``count`` weights as a float array (vectorized tail evaluation)."""
        if count < 0:
            raise DomainError("count must be nonnegative")
        if self.coverage is not None and count > self.coverage:
            raise DomainError(f"sequence defines only {self.coverage} weights, {count} requested")
        out = np.empty(count)
        p = min(len(self.prefix), count)
        out[:p] = self.prefix[:p]
        if count > p:
            out[p:] = np.sqrt(self.tail(np.arange(p, count)))
        return out

    def tail_bounds(self, start: int = 0) -> tuple[float, float]:
        """Exact (inf, sup) of the weights over ``i >= start``.

        Takes the prefix weights at or past ``start`` and the square roots of
        the tail rule's :meth:`RationalRule.bounds`.
        """
        vals: list[float] = [w for i, w in enumerate(self.prefix) if i >= start]
        if self.tail is not None:
            vals.extend(math.sqrt(v) for v in self.tail.bounds(max(start, len(self.prefix))))
        if not vals:
            raise DomainError(f"no weights defined at or beyond index {start}")
        return min(vals), max(vals)

    def sup_weight(self) -> float:
        """Analytic supremum estimate of the weights (finite sections underestimate)."""
        return self.tail_bounds(0)[1]


def szego(n: int) -> WeightSequence:
    """Weights ``sqrt((i+1)/(n+i))`` of the adjoint multiplication operator
    for the power kernel ``(1 - z w̄)^{-n}``."""
    if n < 1:
        raise DomainError("kernel power must be >= 1")
    return WeightSequence(tail=RationalRule((1, 1), (n, 1)), name=f"szego:{n}")


def hardy() -> WeightSequence:
    """The unweighted backward shift (all weights 1)."""
    return WeightSequence(tail=RationalRule((1, 1), (1, 1)), name="hardy")


def bergman() -> WeightSequence:
    """Backward shift of the unweighted Bergman space."""
    return WeightSequence(tail=RationalRule((1, 1), (2, 1)), name="bergman")


class TruncatedOperator:
    """An ``N x N`` complex matrix standing in for an infinite operator.

    It holds its ``entries`` ``(rows, cols, values)`` and the ``grading`` its
    builder produces (component and grade per basis vector, or None);
    :attr:`matrix` is formed on first access by :func:`dense_matrix`.
    """

    def __init__(self, order: int, entries, grading=None):
        if not np.all(np.isfinite(entries[2])):
            raise DomainError("operator entries must be finite")
        self.order, self.entries, self.grading, self._matrix = order, entries, grading, None

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = dense_matrix(self.order, self.entries)
            self._matrix.setflags(write=False)
        return self._matrix


def dense_matrix(order: int, entries) -> np.ndarray:
    """The ``order x order`` matrix with the ``(rows, cols, values)`` entries, zero elsewhere."""
    rows, cols, values = entries
    M = np.zeros((order, order), dtype=complex)
    M[rows, cols] = values
    return M


def materialize(w: WeightSequence, N: int) -> TruncatedOperator:
    """``N x N`` backward shift with ``w_i`` at entry ``(i, i+1)``, graded by ``g(e_m) = m``."""
    if N < 2:
        raise ConfigurationError("truncation order must be >= 2")
    m = np.arange(N)
    return TruncatedOperator(N, (m[:-1], m[1:], w.weights(N - 1)), (np.zeros(N, dtype=np.int64), m))


def defect_operator(T: TruncatedOperator, k: int) -> np.ndarray:
    """Alternating binomial defect ``sum_j (-1)^j C(k,j) (T*)^j T^j`` as a dense matrix.

    ``k = 1`` gives ``I - T*T``; positivity of all orders up to ``n`` is the
    ``n``-hypercontraction condition.  The blocks come from :func:`defect_blocks`.
    """
    (D,) = defect_blocks(T, (k,))
    return D.dense(T.order)


# ---------------------------------------------------------------------------
# grade-block defect engine

def _grade_layout(T: TruncatedOperator):
    """``(index, lower, transfer)`` of the grade blocks of ``T``.

    ``index[i]`` lists the basis vectors of block ``i`` (one grade of one
    component, -1 padded); ``lower[i]`` is the block one grade below (the
    sentinel ``G`` when there is none, and ``lower[G] = G``); ``transfer[i]``
    is ``M[index[lower[i]], index[i]]``, the only part of ``T`` that acts on
    block ``i``, zero on padding and at the sentinel.  Built from the grading
    and the entries that ``T`` carries.  An operator with no grading is one
    block that maps into itself: ``index = [[0 .. N-1]]``, ``lower`` the full
    slice (so ``P[lower]`` is a view) and ``transfer = M[None]``.
    """
    if T.grading is None:
        return np.arange(T.order)[None], slice(None), T.matrix[None]
    component, grade = T.grading
    order = np.lexsort((grade, component))  # by component, then grade, then index
    c, g = component[order], grade[order]
    starts = np.nonzero(np.concatenate(([True], (c[1:] != c[:-1]) | (g[1:] != g[:-1]))))[0]
    sizes = np.diff(np.append(starts, T.order))
    b = int(np.max(sizes))
    G = len(starts)
    blk = np.repeat(np.arange(G), sizes)
    pos = np.arange(T.order) - starts[blk]
    index = np.full((G, b), -1)
    index[blk, pos] = order
    # a component's grades are consecutive, so its next lower grade is the previous block
    cs, gs = c[starts], g[starts]
    below = (cs[1:] == cs[:-1]) & (gs[1:] == gs[:-1] + 1)
    lower = np.full(G + 1, G)
    lower[1:G][below] = np.nonzero(below)[0]
    # every entry (r, c) has g(r) = g(c) - 1, so it lies in the transfer block of c's block
    where = np.empty((2, T.order), dtype=np.int64)  # block and position of each basis vector
    where[:, order] = blk, pos
    rows, cols, values = T.entries
    transfer = np.zeros((G + 1, b, b), dtype=complex)
    transfer[where[0, cols], where[1, rows], where[1, cols]] = values
    return index, lower, transfer


@dataclass(frozen=True)
class DefectBlocks:
    """A Hermitian operator stored as a direct sum of blocks.

    ``blocks[i]`` acts on the basis vectors ``index[i]``; ``-1`` pads short
    blocks and the padded rows and columns are ignored.  An ungraded
    operator's defect is the one-block case ``index = [[0, 1, ..., N-1]]``.
    """

    index: np.ndarray
    blocks: np.ndarray

    def dense(self, order: int) -> np.ndarray:
        """The operator as an ``order x order`` matrix, zero outside the blocks."""
        pad = int(self.index.min() < 0)  # padding (-1) lands in an extra last row and column
        M = np.zeros((order + pad, order + pad), dtype=complex)
        M[self.index[:, :, None], self.index[:, None, :]] = self.blocks
        return M[:order, :order]

    def window_verdict(self, W: int, tol: float = DEFAULT_TOL) -> PsdVerdict:
        """PSD verdict of the leading ``W x W`` principal window.

        The window of a direct sum is the direct sum of the blocks' retained
        sub-blocks: one batched eigensolve per sub-block size decides it.
        """
        keep = (self.index >= 0) & (self.index < W)
        sizes = keep.sum(axis=1)
        stacks = []
        for s in np.flatnonzero(np.bincount(sizes)[1:]) + 1:
            sel = np.nonzero(sizes == s)[0]
            if s == self.index.shape[1]:  # whole blocks keep their order: no gather
                stacks.append(self.blocks[sel])
                continue
            pos = np.argsort(~keep[sel], axis=1, kind="stable")[:, :s]
            stacks.append(self.blocks[sel[:, None, None], pos[:, :, None], pos[:, None, :]])
        return psd_verdict(stacks, tol)

    def column_norms(self, cols, start: int) -> np.ndarray:
        """Euclidean norms of the columns ``cols`` restricted to rows ``>= start``."""
        b = self.index.shape[1]
        flat = self.index.ravel()
        slot = np.empty(int(flat.max()) + 1, dtype=np.int64)
        slot[flat[flat >= 0]] = np.nonzero(flat >= 0)[0]
        blk, pos = np.divmod(slot[np.asarray(cols)], b)
        below = self.index[blk] >= start
        return np.linalg.norm(np.where(below, self.blocks[blk, :, pos], 0.0), axis=1)


def defect_blocks(T: TruncatedOperator, orders) -> Iterator[DefectBlocks]:
    """The defects ``D_k = sum_j (-1)^j C(k,j) (T*)^j T^j`` for ``k`` in ``orders``.

    When ``T`` lowers a grading of the basis by exactly one (every nonzero
    ``M[r, c]`` has ``g(r) = g(c) - 1``), each ``(T*)^j T^j`` maps every grade
    block into itself.  Its block at grade ``g`` is ``P_j[g]* P_j[g]`` with
    ``P_j[g] = T_{g-j+1} ... T_g`` the product of the transfer blocks, formed
    here by batched small matmuls, every block padded to the widest one.  An
    operator with no grading is the one-block case, ``P_j = M^j``.  Each
    order forms its own products and drops them before its defect is yielded.
    A defect with an entry that overflowed raises :class:`NonFiniteError`.
    """
    if min(orders) < 1:
        raise DomainError("defect order must be >= 1")
    index, lower, transfer = _grade_layout(T)
    G, b = index.shape
    for k in orders:
        coeffs = [(-1) ** j * math.comb(k, j) for j in range(k + 1)]
        D = np.broadcast_to(coeffs[0] * np.eye(b, dtype=complex), (G, b, b)).copy()
        P = transfer
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowed defect raises below
            for j, c in enumerate(coeffs[1:]):
                if j:
                    P = P[lower] @ transfer
                D += c * (np.swapaxes(P[:G].conj(), -1, -2) @ P[:G])
        del P
        if not np.all(np.isfinite(D)):
            raise NonFiniteError("matrix has non-finite entries (overflow); rescale the operator")
        yield DefectBlocks(index, D)


@dataclass(frozen=True)
class DefectReport:
    """Per-order minimum defect eigenvalues with PSD verdicts.

    ``window`` is the effective dimension at the deepest order; order ``k``
    is judged on the leading ``N - k`` principal submatrix.  ``deepest``
    holds the defect blocks of the deepest order, for a caller that reads
    more of that defect than its verdict.
    """

    orders: tuple[int, ...]
    min_eigenvalues: tuple[float, ...]
    verdicts: tuple[bool, ...]
    window: int
    deepest: DefectBlocks = field(repr=False, compare=False)

    def __post_init__(self):
        if list(self.orders) != list(range(1, len(self.orders) + 1)):
            raise ConfigurationError("orders must be 1..n")

    @property
    def passed(self) -> bool:
        return all(self.verdicts)

    def first_failure(self) -> int | None:
        for k, ok in zip(self.orders, self.verdicts):
            if not ok:
                return k
        return None


def defect_report(T: TruncatedOperator, n: int) -> DefectReport:
    """Hypercontractivity certificate for an arbitrary truncated operator, at ``matrix_core.DEFAULT_TOL``."""
    if n < 1:
        raise DomainError("hypercontraction order must be >= 1")
    N = T.order
    if N - n < 2:
        raise ConfigurationError(f"window too small: N={N}, order {n}")
    orders = tuple(range(1, n + 1))
    verdicts = []
    for k, D in zip(orders, defect_blocks(T, orders)):
        verdicts.append(D.window_verdict(N - k))
    return DefectReport(orders, tuple(v.min_eigenvalue for v in verdicts), tuple(v.is_psd for v in verdicts), N - n, D)


def hypercontractivity_report(w: WeightSequence, n: int, N: int = DEFAULT_ORDER) -> DefectReport:
    """Defect-positivity report (:func:`defect_report`) for the truncated shift built from ``w``.

    One trailing index is dropped per defect order when issuing verdicts;
    a truncated backward shift differs from the infinite operator only where
    the adjoint pushes past the cut.
    """
    if N <= 2 * n + 4:
        raise ConfigurationError(f"need N > 2n + 4, got N={N}, n={n}")
    return defect_report(materialize(w, N), n)


@dataclass(frozen=True)
class ShieldsReport:
    """Partial weight-product ratio diagnostics across nested horizons.

    ``verdict`` is ``"not-similar"`` only when the ratio range certifiably
    diverges (threshold crossed with monotone growth across the horizons);
    otherwise ``"similar-consistent"``.  A finite horizon can certify failure
    of the similarity criterion, never success.
    """

    sup_ratio: float
    inf_ratio: float
    verdict: str
    horizons: tuple[int, ...]
    sup_at_horizons: tuple[float, ...]
    inf_at_horizons: tuple[float, ...]
    log_sup_at_horizons: tuple[float, ...]
    log_inf_at_horizons: tuple[float, ...]


def _safe_exp(x: float) -> float:
    return float(math.exp(min(x, 700.0)))


def _log(n: int, d: int) -> float:
    """``log(n / d)`` for nonzero integers of one sign, within a few units in the last place also near ``n = d``."""
    return math.log1p((n - d) / d) if abs(d) < 2 * abs(n) < 4 * abs(d) else math.log(abs(n)) - math.log(abs(d))


def _log_ratio_coeffs(gn: tuple[int, ...], gd: tuple[int, ...], terms: int) -> list[float]:
    """``L_1 .. L_terms`` of ``log(gn(u) gd_0 / (gd(u) gn_0)) = sum L_m u^m``, exact before one rounding:
    ``log(g(u) / g_0)`` has ``L_m = Q_m / (m g_0^m)``, ``Q_m = m g_m g_0^(m-1) - sum_{i<m} Q_i g_{m-i} g_0^(m-1-i)``."""
    Q: list[list[int]] = [[], []]
    for g, q in zip((gn + (0,) * terms, gd + (0,) * terms), Q):
        for m in range(1, terms + 1):
            q.append(m * g[m] * g[0] ** (m - 1) - sum(q[i - 1] * g[m - i] * g[0] ** (m - 1 - i) for i in range(1, m)))
    return [(qn * gd[0] ** m - qd * gn[0] ** m) / (m * (gn[0] * gd[0]) ** m) for m, qn, qd in zip(count(1), *Q)]


#: Absolute bound on each remainder (series, Euler-Maclaurin) of :func:`_tail_sums`; ``B_2, B_4, ..., B_20``.
_TAIL_TOL = 2.0 ** -60
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510, 43867 / 798, -174611 / 330)


def _tail_sums(a: WeightSequence, b: WeightSequence, hs) -> tuple[int, dict]:
    """The cutoff ``C`` (at most ``hs[-1]``) of ``f(l) = log a_l - log b_l = 1/2 log(num(l) / den(l))``, with
    ``num = p_a q_b``, ``den = q_a p_b``, and for each ``h > C`` in ``hs`` ``(f(C), f(h-1), sum_{C <= l < h} f(l))``.

    The ``N`` roots of ``num`` and ``den`` lie within ``R`` (Cauchy: ``1 + max |c_i / c_d|``); past it ``f(x) =
    1/2 [log c + D log x + sum_j e_j x^-j]`` (``c`` the ratio of leading coefficients, ``D = deg num - deg den``),
    ``|e_j| <= N R^j / j`` and ``|f^(k)(x)| <= N (k-1)! / (2 (x - R)^k)``.  By Euler-Maclaurin, ``K`` corrections
    ``B_2k / (2k)! (f^(2k-1)(h-1) - f^(2k-1)(C))`` leave at most ``|B_2K| N / (4K (2K-1) (C - R)^(2K-1))``, and
    the closed-form integral of ``J`` series terms misses at most ``N C q^(J+1) / (2 J (J+1) (1-q))``, ``q = R/C``;
    ``J`` and ``K`` are the fewest that meet :data:`_TAIL_TOL`.  ``C`` is the least index past both prefixes and
    the root cells of ``num - den`` (the terms keep one sign) and of ``RationalRule(num, den)``'s turning cells
    (they are monotone), ``>= 16 R`` (a series ratio ``<= 1/16``), where ten corrections meet it.
    """
    num, den = (c[:_degree(c) + 1] for c in (poly_mul(a.tail.p, b.tail.q), poly_mul(a.tail.q, b.tail.p)))
    N = len(num) + len(den) - 2
    R = max(1 + max((abs(c) / abs(p[-1]) for c in p[:-1]), default=0) for p in (num, den))

    def taylor(x: int) -> tuple[float, list[float]]:  # f(x) and f^(m)(x) / m!, m < 2K, from exact Taylor coefficients
        tn, td = poly_shift(num, x), poly_shift(den, x)
        return 0.5 * _log(tn[0], td[0]), [t / 2 for t in _log_ratio_coeffs(tn, td, 2 * K - 1)]

    cells = RationalRule(num, den).turning_cells + root_cells(poly_sub(num, den))
    em = [abs(B) * N / (4 * k * (2 * k - 1)) for k, B in enumerate(_BERNOULLI, 1)]  # times (C - R)^(1-2k)
    C = max(len(a.prefix), len(b.prefix), max(cells, default=-1) + 2, math.ceil(16 * R),
            math.ceil(R + (em[-1] / _TAIL_TOL) ** (1 / (2 * len(em) - 1))))
    if C >= hs[-1]:
        return hs[-1], {}
    J = next(j for j in count(1) if N * C * (R / C) ** (j + 1) / (2 * j * (j + 1) * (1 - R / C)) <= _TAIL_TOL)
    K = next(k for k in range(1, len(em) + 1) if em[k - 1] / (C - R) ** (2 * k - 1) <= _TAIL_TOL)
    e = _log_ratio_coeffs(num[::-1], den[::-1], J)
    (f_c, t_c), D, log_c = taylor(C), len(num) - len(den), _log(num[-1], den[-1])
    sums = {}
    for last in (h - 1 for h in hs if h > C):
        lam, log_last = np.log1p(np.longdouble(last - C) / C), np.log(np.longdouble(last))  # extended, like the scan
        f_last, t_last = taylor(last)
        # twice the integral of the series from C to last, plus f(C) + f(last)
        parts = [(last - C) * log_c, D * ((last - C) * (log_last - 1) + C * lam), e[0] * lam, f_c, f_last]
        parts += [-e[j - 1] * C ** (1 - j) * np.expm1((1 - j) * lam) / (j - 1) for j in range(2, J + 1)]
        corrections = sum(B / (2 * k) * (t_last[2 * k - 2] - t_c[2 * k - 2]) for k, B in enumerate(_BERNOULLI[:K], 1))
        sums[last + 1] = f_c, f_last, sum(parts) / 2 + corrections
    return C, sums


def _log_ratios(a: WeightSequence, b: WeightSequence, count: int) -> np.ndarray:
    """``f(l) = log a_l - log b_l`` for ``l < count``.

    Past both prefixes ``f(l) = 1/2 log(num(l) / den(l))`` (``num = p_a q_b``, ``den = q_a p_b``), taken as
    ``1/2 log1p(delta(l) / den(l))`` with ``delta = num - den`` exact where the ratio lies in ``(1/2, 2)``: within
    a few units in the last place of ``f`` itself.  Taken from the rounded weights, each ``f(l)`` misses by up to
    a unit in the last place of 1, with a bias that drifts a partial sum by ``1e-12`` over ``3 * 10^4`` terms.
    """
    start = count if a.tail is None or b.tail is None else min(max(len(a.prefix), len(b.prefix)), count)
    head = np.log(a.weights(start)) - np.log(b.weights(start))
    if start == count:
        return head
    num, den = poly_mul(a.tail.p, b.tail.q), poly_mul(a.tail.q, b.tail.p)
    l = np.arange(start, count, dtype=float)
    n, d, delta = (_horner(c, l) for c in (num, den, poly_sub(num, den)))
    r = n / d
    f = np.log(r)
    near = (0.5 < r) & (r < 2.0)
    f[near] = np.log1p(delta[near] / d[near])
    return np.concatenate((head, f / 2))


def shields_similarity(
    a: WeightSequence, b: WeightSequence, horizons: tuple[int, int, int], divergence_threshold: float = 1e3
) -> ShieldsReport:
    """Range of the partial weight-product ratios ``R(i,j) = prod a_l / b_l``.

    Two injective weighted shifts are similar exactly when all ``R(i,j)``
    are bounded above and below away from zero; the report computes the
    extremes in log space over ``0 <= i <= j < h`` at each of the three
    increasing ``horizons`` ``h``.

    The partial sums ``S(m) = log prod_{l<m} a_l / b_l`` are scanned up to the cutoff ``C`` of :func:`_tail_sums`
    (the last horizon without two tails).  Past it the terms ``f`` keep one sign and are monotone: with ``m, M``
    the min and max of ``S(0..C)`` and ``f >= 0``, the sup up to ``h`` is the scan's or ``S(h) - m``, the inf
    the scan's, ``S(C+1) - M``, ``f(C)`` or ``f(h-1)`` (the mirror image for ``f <= 0``), at a cost flat in ``h``.
    """
    hs = tuple(int(h) for h in horizons)
    if len(hs) != 3 or not (2 <= hs[0] < hs[1] < hs[2]):
        raise ConfigurationError("need three strictly increasing horizons >= 2")
    H = hs[-1]
    C, tails = (H, {}) if a.tail is None or b.tail is None else _tail_sums(a, b, hs)
    S = np.concatenate(([0.0], np.cumsum(_log_ratios(a, b, C), dtype=np.longdouble)))  # S[m] = log prod_{l<m}, extended
    sup_diffs = S[1:] - np.minimum.accumulate(S[:-1])  # best log R(i,j) ending at each j
    inf_diffs = S[1:] - np.maximum.accumulate(S[:-1])
    log_sups, log_infs = [], []
    for h in hs:
        sup, inf = float(np.max(sup_diffs[:h])), float(np.min(inf_diffs[:h]))
        if h in tails:
            f_c, f_last, rest = tails[h]
            up, down = S[C] - S.min(), S[C] - S.max()  # S(C) - m, S(C) - M
            if f_c >= 0:
                sup, inf = max(sup, float(up + rest)), min(inf, float(down + f_c), f_c, f_last)
            else:
                sup, inf = max(sup, float(up + f_c), f_c, f_last), min(inf, float(down + rest))
        log_sups.append(sup)
        log_infs.append(inf)
    log_thr = math.log(divergence_threshold)
    diverges_up = log_sups[0] < log_sups[1] < log_sups[2] and log_sups[2] > log_thr
    diverges_down = log_infs[0] > log_infs[1] > log_infs[2] and log_infs[2] < -log_thr
    verdict = "not-similar" if (diverges_up or diverges_down) else "similar-consistent"
    return ShieldsReport(
        sup_ratio=_safe_exp(log_sups[-1]),
        inf_ratio=_safe_exp(log_infs[-1]),
        verdict=verdict,
        horizons=hs,
        sup_at_horizons=tuple(_safe_exp(v) for v in log_sups),
        inf_at_horizons=tuple(_safe_exp(v) for v in log_infs),
        log_sup_at_horizons=tuple(log_sups),
        log_inf_at_horizons=tuple(log_infs),
    )
