"""Upper-triangular block operators built from shifts and diagonals.

Covers assembly into a single truncation, contraction and blockwise
contraction scans, the closed-form contraction criterion for a diagonal
coupling between two shifts (its Schur-complement form is a test oracle),
holomorphic frame construction for 2x2 blocks, and three reducibility
detectors: unit-norm diagonal blocks, the hypercontraction cascade, and
rank-one defect projections.

Each block class yields its entries, which a :class:`BlockOperator` builds
once per block and shares between its strictly-lower check, its window norms
and :func:`assemble`; :func:`assemble` records the grading that grids of
shift, diagonal and zero blocks carry (see the grading
note in :mod:`cdlab.shifts`), so :func:`contraction_check` and the cascade
certify their defects grade block by grade block without forming the dense
matrix; operators without a grading, such as those with explicit matrix
blocks or a diagonal block on the grid diagonal, are the engine's one-block
case.  Window norms come from entries: a shift, diagonal or zero block has
at most one entry per row and column, so its singular values are the moduli
of its entries; a matrix block takes one SVD.

The top-left shift block makes ``T_1 - w`` upper bidiagonal, so
:func:`frame_solver` solves it by recursion and judges the solve with the
closed-form near-null pair of that bidiagonal, without a dense block or an
SVD; the coupling enters only through its product with the sections
(``apply``).  A call's radii share one accumulate per section, and every other
step of the solve (its coupled rows once per distinct last coupled row, the
residual, the gauge, the grams) runs over the stack of radii; its values round like
a one-radius solve's.  The rank-one detector routes by grading: a graded 1x1
operator (a shift block, or a block with no nonzero entry) has one basis vector
per grade, so its defect is diagonal, its singular values are read off the
diagonal and its sections taken by the same accumulate from the superdiagonal of
its entries; an ungraded one pays SVDs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CdlabError, ConfigurationError, DomainError, SingularityError, TruncationError
from .matrix_core import DEFAULT_TOL, PsdVerdict
from .shifts import (
    TruncatedOperator,
    WeightSequence,
    defect_blocks,
    defect_report,
    materialize,
    szego,
)

#: How far a window norm may pass 1 and stay contractive, or lie from 1 and count as 1, in the blockwise scan
#: and the unit-norm detector; also the PSD tolerance of their contraction check.
NORM_TOL = 1e-8
#: Largest second singular value of a defect window that the rank-one detector reads as rank one.
RANK_ONE_TOL = 1e-8


# ---------------------------------------------------------------------------
# block descriptions

class _EntryBlock:
    """A block given by its ``entries(N)``, ``(rows, cols, values)`` at block order ``N``."""

    def apply(self, N: int, x: np.ndarray) -> np.ndarray:
        """The block at order ``N`` times each row of ``x``, from its entries."""
        rows, cols, values = self.entries(N)
        out = np.zeros(x.shape, dtype=complex)
        np.add.at(out, (slice(None), rows), values * x[:, cols])
        return out

    def window_norm(self, entries) -> float:
        """Spectral norm of the block with these ``entries``: at most one per row and column, so the
        singular values are the entries' moduli."""
        return float(np.max(np.abs(entries[2]), initial=0.0))

    def norm_estimate(self, N: int) -> float:
        return self.window_norm(self.entries(N))


@dataclass(frozen=True)
class ShiftBlock(_EntryBlock):
    """A (scaled) weighted backward shift block."""

    weights: WeightSequence
    scale: complex = 1.0

    def entries(self, N: int):
        rows, cols, values = materialize(self.weights, N).entries
        return rows, cols, self.scale * values

    def norm_estimate(self, N: int) -> float:
        # analytic supremum of the weight rule; finite sections underestimate
        return abs(self.scale) * self.weights.sup_weight()


@dataclass(frozen=True)
class DiagonalBlock(_EntryBlock):
    """Diagonal block ``diag(values..., 0, 0, ...)``."""

    values: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(complex(v) for v in self.values))

    def entries(self, N: int):
        if len(self.values) > N:
            raise ConfigurationError(f"diagonal of length {len(self.values)} exceeds block order {N}")
        k = np.arange(len(self.values))
        return k, k, np.array(self.values, dtype=complex)


_NO_ENTRIES = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0, dtype=complex))


@dataclass(frozen=True)
class ZeroBlock(_EntryBlock):
    def entries(self, N: int):
        return _NO_ENTRIES


@dataclass(frozen=True)
class MatrixBlock:
    """An explicit matrix block (defines the operator entry exactly)."""

    array: np.ndarray

    def __post_init__(self):
        A = np.array(self.array, dtype=complex)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ConfigurationError(f"matrix block must be square, got {A.shape}")
        if not np.all(np.isfinite(A)):
            raise DomainError("matrix block entries must be finite")
        A.setflags(write=False)
        object.__setattr__(self, "array", A)

    def entries(self, N: int):
        rows, cols = np.indices(self.materialize(N).shape)
        return rows.ravel(), cols.ravel(), self.array.ravel()

    def materialize(self, N: int) -> np.ndarray:
        if self.array.shape != (N, N):
            raise ConfigurationError(f"matrix block has shape {self.array.shape}, block order is {N}")
        return self.array

    def apply(self, N: int, x: np.ndarray) -> np.ndarray:
        # one matrix-vector product per row: a matrix-matrix product need not round like it
        return np.array([self.materialize(N) @ row for row in x])

    @cached_property
    def _norm(self) -> float:
        # one SVD, on first use: the block is frozen
        return float(np.linalg.norm(self.array, 2))

    def norm_estimate(self, N: int) -> float:
        return self._norm

    def window_norm(self, entries) -> float:
        return self._norm  # its entries were taken at the block order, so the shapes match


Block = ShiftBlock | DiagonalBlock | ZeroBlock | MatrixBlock

#: Offset step ``o_j - o_i`` that a nonzero block at ``(i, j)`` forces (see
#: :func:`assemble`); matrix blocks force no grading.
_GRADE_STEP = {ShiftBlock: 0, DiagonalBlock: 1}


@dataclass(frozen=True)
class BlockOperator:
    """An upper-triangular ``m x m`` grid of equal-order blocks.

    ``None`` entries become :class:`ZeroBlock`.  A strictly-lower block with a
    nonzero entry is rejected at construction.  Each block's entries are built
    on first use and kept (:meth:`entries`): the operator is frozen.
    """

    blocks: tuple[tuple[Block, ...], ...]
    order: int

    def __post_init__(self):
        rows = tuple(tuple(ZeroBlock() if blk is None else blk for blk in row) for row in self.blocks)
        object.__setattr__(self, "blocks", rows)
        m = len(rows)
        if m == 0 or any(len(row) != m for row in rows):
            raise ConfigurationError("blocks must form a square m x m grid")
        if self.order < 2:
            raise ConfigurationError("block order must be >= 2")
        for i in range(m):
            for j in range(i):
                if np.any(self.entries(i, j)[2]):
                    raise ConfigurationError(
                        f"strictly-lower block ({i},{j}) must be zero in upper-triangular form"
                    )

    @property
    def grid_size(self) -> int:
        return len(self.blocks)

    def entries(self, i: int, j: int):
        """``entries(order)`` of block ``(i, j)``, built on its first use and kept."""
        built = self.__dict__.setdefault("_entries", {})
        if (i, j) not in built:
            built[i, j] = self.blocks[i][j].entries(self.order)
        return built[i, j]

    def block_norms(self) -> np.ndarray:
        """Analytic norm estimates (supremum of the weight rule for shifts)."""
        return np.array([[blk.norm_estimate(self.order) for blk in row] for row in self.blocks])

    def window_norms(self) -> np.ndarray:
        """Spectral norms of the materialized blocks (attained on the window)."""
        return np.array([[blk.window_norm(self.entries(i, j)) for j, blk in enumerate(row)]
                         for i, row in enumerate(self.blocks)])


def assemble(B: BlockOperator) -> TruncatedOperator:
    """Place the blocks into one ``(m N) x (m N)`` truncated operator, with its grading.

    Grid row ``i`` gets one offset ``o_i`` (``g(e_{iN+r}) = r + o_i``): a
    nonzero shift block at ``(i, j)`` forces ``o_j = o_i``, a nonzero diagonal
    block ``o_j = o_i + 1``; a nonzero matrix block, or a contradiction (a
    diagonal block on the grid diagonal), leaves the operator ungraded.
    """
    m, N = B.grid_size, B.order
    parts, links = [_NO_ENTRIES], []
    for i, row in enumerate(B.blocks):
        for j, blk in enumerate(row):
            rows, cols, values = B.entries(i, j)
            if np.any(values):
                parts.append((rows + i * N, cols + j * N, values))
                links.append((i, j, _GRADE_STEP.get(type(blk))))
    entries = tuple(np.concatenate(part) for part in zip(*parts))
    return TruncatedOperator(m * N, entries, _grid_grading(m, N, links))


def _grid_grading(m: int, N: int, links):
    """``(component, grade)`` of every basis vector of an ``m x m`` grid, or None.

    ``links`` holds ``(i, j, step)`` for each block forcing ``o_j = o_i + step``
    (``step`` None: no grading).  A component is a set of linked grid rows,
    labelled by its first row, whose offset is 0.
    """
    adjacent = [[] for _ in range(m)]
    for i, j, step in links:
        if step is None:
            return None
        adjacent[i].append((j, step))
        adjacent[j].append((i, -step))
    component, offset = [-1] * m, [0] * m
    for first in range(m):
        if component[first] >= 0:
            continue
        component[first], todo = first, [first]
        while todo:
            a = todo.pop()
            for b, step in adjacent[a]:
                if component[b] < 0:
                    component[b], offset[b] = first, offset[a] + step
                    todo.append(b)
                elif offset[b] != offset[a] + step:
                    return None
    return np.repeat(component, N), (np.array(offset)[:, None] + np.arange(N)).ravel()


def contraction_check(T: TruncatedOperator, tol: float = DEFAULT_TOL) -> PsdVerdict:
    """PSD verdict of ``I - T*T`` on the interior window (margin 1)."""
    W = T.order - 1
    if W < 1:
        raise ConfigurationError("window margin consumes the whole truncation")
    (D,) = defect_blocks(T, (1,))
    return D.window_verdict(W, tol)


@dataclass(frozen=True)
class BlockScan:
    """Blockwise contraction survey of a block operator.

    When the assembled truncation is a contraction, every materialized block
    must be one (their window norms stay at most 1); violations are reported
    as text rather than raised, so the scan doubles as a test oracle.  The
    row/column squared-norm sums are diagnostics: the sums of operator norms
    can exceed 1 for a genuine contraction because the block norms need not
    be attained on a common vector.
    """

    assembled: PsdVerdict
    norms: np.ndarray
    window_norms: np.ndarray
    contractions: np.ndarray
    unit_norm_flags: np.ndarray
    row_sums: np.ndarray
    col_sums: np.ndarray
    violations: tuple[str, ...]


def blockwise_contraction_scan(B: BlockOperator) -> BlockScan:
    """Survey per-block norms against the contraction constraints, within :data:`NORM_TOL`."""
    norms = B.block_norms()
    window_norms = B.window_norms()
    contractions = window_norms <= 1.0 + NORM_TOL
    flags = np.abs(window_norms - 1.0) <= NORM_TOL
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing block's defect raises below
        row_sums, col_sums = (norms ** 2).sum(axis=1), (norms ** 2).sum(axis=0)
    assembled = contraction_check(assemble(B), NORM_TOL)
    violations: list[str] = []
    if assembled.is_psd:
        for i, j in zip(*np.nonzero(~contractions)):
            violations.append(
                f"block ({i},{j}) has window norm {window_norms[i, j]:.6f} > 1 under an assembled contraction"
            )
    else:
        violations.append(
            f"assembled operator is not a contraction (min eig {assembled.min_eigenvalue:.3e})"
        )
        for i, j in zip(*np.nonzero(~contractions)):
            violations.append(f"block ({i},{j}) breaks the blockwise bound: window norm {window_norms[i, j]:.6f} > 1")
    for i in np.nonzero(row_sums > 1.0 + NORM_TOL)[0]:
        violations.append(
            f"row {i} squared-norm sum {row_sums[i]:.6f} exceeds 1 (norms need not be jointly attained)"
        )
    for j in np.nonzero(col_sums > 1.0 + NORM_TOL)[0]:
        violations.append(
            f"column {j} squared-norm sum {col_sums[j]:.6f} exceeds 1 (norms need not be jointly attained)"
        )
    return BlockScan(assembled, norms, window_norms, contractions, flags, row_sums, col_sums, tuple(violations))


def _require_2x2_upper(B: BlockOperator) -> None:
    if B.grid_size != 2:
        raise ConfigurationError("operation needs an upper-triangular 2x2 block operator")


# ---------------------------------------------------------------------------
# diagonal coupling between two shifts: closed-form contraction criterion

def ex48_closed_form(a, b, d, tol: float = DEFAULT_TOL) -> bool:
    """Closed-form contraction test for ``[[shift(a), diag(d)], [0, shift(b)]]``.

    With ``d = (d_1..d_k)`` the assembled operator is a contraction exactly
    when ``d_1^2 <= 1 - a_1^2``, ``d_i^2 <= (1 - a_i^2)(1 - b_{i-1}^2)`` for
    ``i = 2..k``, and all supplied ``a``, ``b`` weights are at most 1 (the
    standing blockwise contraction requirement).  Indices follow the
    1-based weight lists: ``d[0]`` couples to ``a[0]``.

    ``a_i = 1`` for ``i <= k`` is the criterion's excluded degenerate case.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = np.asarray(d, dtype=float)
    k = len(d)
    if len(a) < k:
        raise ConfigurationError(f"need at least {k} top-shift weights, got {len(a)}")
    if k >= 2 and len(b) < k - 1:
        raise ConfigurationError(f"need at least {k - 1} bottom-shift weights, got {len(b)}")
    if np.any(np.abs(1.0 - a[:k] ** 2) < 1e-12):
        raise SingularityError("a weight equal to 1 within the coupled range is excluded")
    if np.any(np.abs(a) > 1.0 + tol) or np.any(np.abs(b) > 1.0 + tol):
        return False
    if k == 0:
        return True
    if d[0] ** 2 > 1.0 - a[0] ** 2 + tol:
        return False
    for i in range(1, k):
        if d[i] ** 2 > (1.0 - a[i] ** 2) * (1.0 - b[i - 1] ** 2) + tol:
            return False
    return True


# ---------------------------------------------------------------------------
# holomorphic frames

#: Largest certified section tail, relative to the truncated section's norm.
SECTION_REL_TAIL = 1e-10
#: Largest ``|omega|`` at which frames are solved on the truncation.
FRAME_RADIUS_CAP = 0.95
#: Most entries in the interleaved array of one accumulate: radii are taken in slices of
#: ``SLICE_ENTRIES // (2 N)``, so a request's memory is bounded whatever its radius count.
SLICE_ENTRIES = 2 ** 20


def _slices(count: int, N: int) -> list[slice]:
    """Consecutive slices of ``count`` radii, each small enough for one accumulate at order ``N``."""
    step = max(1, SLICE_ENTRIES // (2 * N))
    return [slice(lo, lo + step) for lo in range(0, count, step)]


def _recursion(start, z: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Rows ``x_0 = start``, ``x_{i+1} = z x_i / upper_i``, one per entry of ``z``, by one accumulate over
    ``[start, z, 1/upper_0, z, 1/upper_1, ...]``: numpy divides by a real-valued complex as a multiply by
    ``fl(1/upper_i)``, so for real-valued ``upper`` each row is the scalar loop's up to the sign of zeros.
    The rows are a strided view: BLAS sums one in another order, so dots that must match the scalar loop copy it."""
    row = np.empty((len(z), 2 * len(upper) + 1), dtype=complex)
    row[:, 0] = start
    row[:, 1::2] = z[:, None]
    with np.errstate(all="ignore"):  # callers judge an overflowed row
        row[:, 2::2] = 1.0 / upper
        return np.multiply.accumulate(row, axis=1, out=row)[:, ::2]


def _rows(mask: np.ndarray):
    """Index of the rows where ``mask`` holds: a slice when every row does, so that they are read as views."""
    return slice(None) if np.all(mask) else np.flatnonzero(mask)


@np.errstate(all="ignore")  # an overflowed section, or its infinite or NaN tail, fails below
def section_vector(w: WeightSequence, omega, N: int, weights: np.ndarray | None = None) -> np.ndarray:
    """Truncated kernel vectors ``t(w)`` of a backward shift, ``(T - w) t = 0``: one row per entry of
    the 1-d ``omega``, or one vector for a scalar.  ``weights`` is ``w.weights(N)``, when the caller has it.

    ``t_0 = 1`` and ``t_{i+1} = w t_i / w_i``, every point in one :func:`_recursion`, and every point's
    norm and tail judged at once.  Raises the first error of the first point, in order, whose section
    overflows or whose discarded tail cannot be certified below ``SECTION_REL_TAIL`` of the truncated norm.
    """
    z = np.asarray(omega)
    flat = z.reshape(-1)
    ws = w.weights(N) if weights is None else weights
    t = _recursion(1.0, flat, ws[: N - 1]).copy()
    w_inf = w.tail_bounds(N)[0]
    norm2 = np.vecdot(t, t).real
    rho = np.abs(flat) ** 2 / w_inf ** 2 if w_inf > 0 else np.where(flat != 0, math.inf, 0.0)
    tail = np.abs(flat * t[:, N - 1] / ws[N - 1]) ** 2 / (1.0 - rho)
    failed = (rho >= 1.0) | ~(norm2 < math.inf) | ~(tail <= SECTION_REL_TAIL * norm2)
    if np.any(failed):
        i = int(np.argmax(failed))
        x = flat[i]
        if rho[i] >= 1.0:
            raise TruncationError(f"section tail ratio {rho[i]:.4f} >= 1 at |omega|={abs(x):.4f}; increase N")
        if not norm2[i] < math.inf:
            raise TruncationError(f"section overflows at |omega|={abs(x):.4f}: its norm is not finite at N={N}")
        raise TruncationError(
            f"section tail estimate {tail[i]:.3e} exceeds {SECTION_REL_TAIL:.0e} of the norm at N={N}; increase N"
        )
    return t if z.ndim else t[0]


def frame_solver(B: BlockOperator, omega) -> np.ndarray:
    """Rank-2 bundle metric ``h(w)`` of an upper-triangular 2x2 block operator: one 2x2 gram for a
    scalar ``omega``, one per entry of a 1-d array of them.

    Builds the frame ``gamma_1 = (t_1, 0)``, ``gamma_2 = (g, t_2)`` where the
    ``t_i`` are the kernel vectors of the diagonal shifts and ``g`` solves
    ``(T_1 - w) g = -T_{12} t_2`` on the truncation, then returns the 2x2
    gram matrix ``h[i, j] = <gamma_j, gamma_i>``.

    ``A = T_1 - w`` is upper bidiagonal (``-w`` on the diagonal, ``scale * w_i``
    above it), and ``t_1`` is its right near-null vector:
    ``A t_1 = -w t_1[N-1] e_{N-1}``.  A forward recursion solves the ``N - 1``
    rows the truncation does not cut; the solve is judged like a least-squares
    solve with numpy's rank cutoff.  With ``sigma_min = |A t_1| / |t_1|`` above
    ``N * eps * (max |scale * w_i| + |w|)`` the square system is solved exactly
    by adding a multiple of ``t_1``, and its residual is read from the
    bidiagonal product; below it the residual is the component of
    ``T_12 t_2`` along the left near-null vector ``u`` (``u[N-1] = 1``,
    ``u[i] = conj(w / (scale * w_i)) u[i+1]``).  A residual above
    ``1e-8 |T_12 t_2|`` raises ``TruncationError``.

    The solved component is only determined up to multiples of ``t_1``; every
    gauge choice yields the same determinant, which is what the similarity
    diagnostics consume.  The gauge taken is ``g`` orthogonal to ``t_1``, so
    no large multiple of ``t_1`` cancels in the gram.

    Each slice of radii (:data:`SLICE_ENTRIES`) is one pass over whole arrays: its sections in one
    :func:`section_vector` call per block, the coupled rows of ``g`` once per distinct last coupled row (an
    accumulate finishes them), both residual branches, the gauge and the grams over the stack.  The values are
    a one-radius solve's bytes; the judgements (section tails, residuals) take numpy's row-wise norms and moduli,
    which may differ from its by an ulp.  A failing slice is retried radius by radius, so the first failing
    radius raises its own first error.
    """
    _require_2x2_upper(B)
    w = np.asarray(omega)
    flat = w.reshape(-1)
    grams = np.empty((len(flat), 2, 2), dtype=complex)
    for part in _slices(len(flat), B.order):
        try:
            grams[part] = _frame_grams(B, flat[part])
        except CdlabError:
            for x in flat[part]:
                _frame_grams(B, x[None])
            raise
    return grams.reshape(w.shape + (2, 2))


def _frame_grams(B: BlockOperator, omega: np.ndarray) -> np.ndarray:
    """The grams of :func:`frame_solver` at the 1-d ``omega``; raises when any radius fails."""
    N = B.order
    beyond = ~(np.abs(omega) <= FRAME_RADIUS_CAP)  # NaN fails too
    if np.any(beyond):
        x = omega[np.argmax(beyond)]
        raise DomainError(f"|omega| = {abs(x):.4f} beyond the truncation-reliability cap {FRAME_RADIUS_CAP}")
    sections, weights = [], []
    for block in (B.blocks[0][0], B.blocks[1][1]):
        if sections and block is B.blocks[0][0]:  # one block on both diagonal cells: its sections serve both
            sections.append(sections[0])
            continue
        if not isinstance(block, ShiftBlock):
            raise ConfigurationError("frame construction needs backward-shift diagonal blocks")
        if block.scale == 0:
            raise DomainError("diagonal shift block has zero scale")
        z = omega / block.scale
        outside = np.abs(z) >= 1.0
        if np.any(outside):
            x = z[np.argmax(outside)]
            raise DomainError(f"scaled evaluation point |omega/scale| = {abs(x):.4f} outside the disk")
        weights.append(block.weights.weights(N))
        sections.append(section_vector(block.weights, z, N, weights[-1]))
    t1, t2 = sections
    rhs = -B.blocks[0][1].apply(N, t2)
    upper = B.blocks[0][0].scale * weights[0][: N - 1]
    rhs_norm = np.sqrt(np.vecdot(rhs, rhs).real)
    coupled = rhs_norm != 0.0
    g = np.zeros(rhs.shape, dtype=complex)
    # past its last nonzero row of rhs, a radius's g follows the sections' homogeneous recursion
    nonzero = rhs[:, : N - 1] != 0
    heads = np.where(np.any(nonzero, axis=1), N - 1 - np.argmax(nonzero[:, ::-1], axis=1), 0)
    for head in sorted(set(heads[coupled].tolist())):  # np.unique's first call costs over 1 MiB of RSS
        rows = _rows(coupled & (heads == head))
        x = omega[rows]
        for i in range(head):
            g[rows, i + 1] = (rhs[rows, i] + x * g[rows, i]) / upper[i]
        g[rows, head:] = _recursion(g[rows, head], x, upper[head:])
    if np.any(coupled):
        rows = _rows(coupled)
        residual = np.zeros(len(omega))
        residual[rows] = _frame_residuals(upper, omega[rows], t1[rows], g[rows], rhs[rows])
        failed = residual > 1e-8 * rhs_norm
        if np.any(failed):
            i = int(np.argmax(failed))
            raise TruncationError(
                f"frame solve residual {residual[i]:.3e} exceeds 1e-8 * |T12 t2| = {1e-8 * rhs_norm[i]:.3e}; "
                "increase N"
            )
        t = t1[rows]
        g[rows] -= (np.vecdot(t, g[rows]) / np.vecdot(t, t))[:, None] * t
    # V* V for each radius's V = [(t_1, 0), (g, t_2)]: a stack holds 4 N entries per radius and its conjugate as
    # many, so a stack takes an eighth of a slice
    grams = np.empty((len(omega), 2, 2), dtype=complex)
    for part in _slices(len(omega), 8 * N):
        V = np.zeros((len(omega[part]), 2 * N, 2), dtype=complex)
        V[:, :N, 0] = t1[part]
        V[:, :N, 1] = g[part]
        V[:, N:, 1] = t2[part]
        grams[part] = np.matmul(V.conj().swapaxes(1, 2), V)
    return grams


def _frame_residuals(upper: np.ndarray, omega: np.ndarray, t1: np.ndarray, g: np.ndarray,
                     rhs: np.ndarray) -> np.ndarray:
    """Least-squares residual of ``A x = rhs[i]`` for each radius ``omega[i]``, ``A`` with diagonal ``-omega[i]``
    and superdiagonal ``upper``, given ``g[i]`` solving all rows but the last."""
    N = t1.shape[1]
    residual = np.empty(len(omega))
    sigma_min = np.abs(omega * t1[:, -1]) / np.sqrt(np.vecdot(t1, t1).real)
    sigma_max = float(np.max(np.abs(upper))) + np.abs(omega)
    square = sigma_min > N * np.finfo(float).eps * sigma_max
    if np.any(square):
        rows = _rows(square)
        w, t, b = omega[rows], t1[rows], rhs[rows]
        x = ((b[:, -1] + w * g[rows, -1]) / (w * t[:, -1]))[:, None] * t
        np.subtract(g[rows], x, out=x)
        Ax = -w[:, None] * x
        Ax[:, :-1] += upper * x[:, 1:]
        Ax -= b
        residual[rows] = np.sqrt(np.vecdot(Ax, Ax).real)
    if not np.all(square):
        rows = _rows(~square)
        w = omega[rows]
        u = np.ones((len(w), N), dtype=complex)
        head = u[:, -2::-1]  # u[:, :-1] from its last column back, filled in place: no (k, N) temporary
        np.divide(w[:, None], upper[::-1], out=head)
        np.cumprod(np.conj(head, out=head), axis=1, out=head)
        residual[rows] = np.abs(np.vecdot(u, rhs[rows])) / np.sqrt(np.vecdot(u, u).real)
    return residual


# ---------------------------------------------------------------------------
# reducibility detectors

@dataclass(frozen=True)
class ReducibilityVerdict:
    """Outcome of a reducibility detector.

    ``reducible`` is True only with a concrete witness; ``None`` means the
    detector could not decide (its hypotheses were not met numerically).
    """

    reducible: bool | None
    witness: str
    detector: str

    def __post_init__(self):
        if self.reducible is True and not self.witness:
            raise ConfigurationError("a positive reducibility verdict requires a witness")


def unit_norm_reducibility(B: BlockOperator) -> ReducibilityVerdict:
    """Detect a unit-norm diagonal block inside a contraction, within :data:`NORM_TOL`.

    A contraction with an attained ``|T_{i0,i0}| = 1`` forces the whole row
    and column ``i0`` to vanish, so the operator splits off that block.
    Candidates are detected on the finite window (the forcing argument needs
    a maximizing vector; a shift whose weights only approach 1 never attains
    norm 1 and stays below it on every truncation).
    """
    detector = "unit-norm-block"
    assembled = contraction_check(assemble(B), NORM_TOL)
    if not assembled.is_psd:
        return ReducibilityVerdict(
            None,
            f"assembled operator is not a contraction (min eig {assembled.min_eigenvalue:.3e})",
            detector,
        )
    window_norms = B.window_norms()
    norms = B.block_norms()
    m = B.grid_size
    candidates = [i for i in range(m) if abs(window_norms[i, i] - 1.0) <= NORM_TOL]
    if not candidates:
        return ReducibilityVerdict(None, "no diagonal block with norm 1 on the window", detector)
    for i0 in candidates:
        off = [max(norms[i0, j], window_norms[i0, j]) for j in range(m) if j != i0]
        off += [max(norms[j, i0], window_norms[j, i0]) for j in range(m) if j != i0]
        if max(off, default=0.0) <= NORM_TOL:
            return ReducibilityVerdict(
                True,
                f"diagonal block ({i0},{i0}) has norm 1 and its row and column vanish",
                detector,
            )
    return ReducibilityVerdict(
        None,
        f"unit-norm diagonal block(s) {candidates} with nonvanishing row/column contradict the "
        "row-column vanishing forced inside a contraction; norm estimates and the contraction "
        "verdict are mutually inconsistent at this tolerance",
        detector,
    )


def cascade_reducibility(B: BlockOperator, n: int) -> ReducibilityVerdict:
    """Reducibility via the order-``n`` hypercontraction cascade, at ``matrix_core.DEFAULT_TOL``.

    Requires the top-left block to be the order-``n`` model shift (weights
    ``gamma_l = sqrt((l+1)/(n+l))``, compared within 1e-12).  If the assembled
    operator certifies order-``n`` hypercontractivity on the window, the
    contraction inequality for ``I - D_n`` forces the off-diagonal block to
    vanish step by step: applied to ``e_{m+1}`` it multiplies the leak ``T12* e_m``
    by ``gamma_m sum_{j=1}^{min(n,m+1)} (-1)^{j+1} C(n,j) prod_{l=m+1-j}^{m-1}
    gamma_l^2 = 1/gamma_m >= 1`` (times ``(n+m-1)!/m!`` this reads ``sum_{j=0}^n
    (-1)^j C(n,j) C(n+m-j, n-1) = 0``, an ``n``-th difference of a degree ``n-1``
    polynomial in ``j``), so the implied leak is ``gamma_m`` times a column norm.
    """
    detector = "cascade"
    _require_2x2_upper(B)
    top = B.blocks[0][0]
    if not isinstance(top, ShiftBlock) or abs(top.scale - 1.0) > 1e-12:
        raise ConfigurationError("top-left block must be an unscaled backward shift")
    N = B.order
    gammas = szego(n).weights(N)
    got = top.weights.weights(N - 1)
    if np.max(np.abs(gammas[:-1] - got)) > 1e-12:
        raise ConfigurationError(f"top-left block is not the order-{n} model shift (weights differ)")

    T = assemble(B)
    report = defect_report(T, n)
    if not report.passed:
        k = report.first_failure()
        idx = report.orders.index(k)
        return ReducibilityVerdict(
            None,
            f"hypercontractivity fails at order {k} (min eig {report.min_eigenvalues[idx]:.3e})",
            detector,
        )

    t12_norm = B.blocks[0][1].norm_estimate(N)
    if t12_norm <= DEFAULT_TOL:
        # column m+1 of S = I - D_n below row N is column m+1 of -D_n there
        leak = np.max(report.deepest.column_norms(np.arange(1, N - n - 1), N) * gammas[: N - n - 2], initial=0.0)
        return ReducibilityVerdict(
            True,
            f"off-diagonal block forced to zero (norm {t12_norm:.1e}, max implied leak {leak:.1e}); "
            "the operator splits as a direct sum",
            detector,
        )
    return ReducibilityVerdict(
        None,
        f"contradiction: order-{n} hypercontractivity passed on the window but the off-diagonal "
        f"block has norm {t12_norm:.3e}, which the cascade forces to zero; the input is not "
        "hypercontractive within tolerance (increase N to expose the failure)",
        detector,
    )


@dataclass(frozen=True)
class RankOneDefectReport:
    """Rank-one defect certificate with the reconstructed section metric."""

    verdict: ReducibilityVerdict
    top_singular_values: tuple[float, float]
    radii: np.ndarray | None = None
    metric_samples: np.ndarray | None = None
    expected_metric: np.ndarray | None = None
    curvature_samples: np.ndarray | None = None


def rank_one_defect_check(B: BlockOperator, n: int, radii=None) -> RankOneDefectReport:
    """Check the order-``n`` defect of the 1x1 block operator ``B`` is a rank-one unit projection ``e (x) e``.

    When it is, the normalized sections ``x(r)`` of ``T`` (with
    ``<x(r), e> = 1``) must satisfy ``|x(r)|^2 = (1 - r^2)^{-n}``; the metric
    is recovered on a radial grid and compared with that model, and the
    implied curvature ``-n / (1 - r^2)^2`` is reported.

    The route is read from the grading of ``assemble(B)``.  A graded 1x1
    operator (a shift block, or a block with no nonzero entry) holds one basis
    vector per grade, with every entry on the superdiagonal, so the defect is
    diagonal: the window's singular values are the sorted ``|d_m|``, and the
    section at ``r`` is the recursion's near-null vector of the bidiagonal
    ``T - r``.  An ungraded operator takes one SVD of the defect window and
    one of ``T - r`` per radius.  Each slice of radii (:func:`_slices`) is judged
    as one stack (a graded one on its accumulate's strided view), no radius by
    its neighbours, and the first failing radius decides the report or the error.
    """
    detector = "rank-one-defect"
    if B.grid_size != 1:
        raise ConfigurationError(f"the rank-one detector takes a 1x1 grid, got {B.grid_size}x{B.grid_size}")
    T = assemble(B)
    if radii is None:
        radii = np.arange(0.1, 0.75, 0.1)
    radii = np.asarray(radii, dtype=float)
    if not np.all(np.abs(radii) < 1.0):  # NaN fails too
        raise DomainError("rank-one radii must be finite and lie inside the unit disk (|r| < 1)")
    N = B.order
    W = N - n
    if W < 2:
        raise ConfigurationError(f"window too small: N={N}, order {n}")
    (D,) = defect_blocks(T, (n,))
    e = np.zeros(N, dtype=complex)
    graded = T.grading is not None
    if graded:
        # one basis vector per grade: block m of the defect holds e_m alone, and every entry is superdiagonal
        mags = np.abs(D.blocks[:W, 0, 0].real)
        s = np.sort(mags)[::-1]
        e[np.argmax(mags)] = 1.0
        upper = np.zeros(N - 1, dtype=complex)
        upper[T.entries[0]] = T.entries[2]
    else:
        Dw = D.blocks[0][:W, :W]
        U, s, _ = np.linalg.svd((Dw + Dw.conj().T) / 2.0)
        e[:W] = U[:, 0]
    top_two = (float(s[0]), float(s[1]))
    if s[1] > RANK_ONE_TOL:
        return RankOneDefectReport(
            ReducibilityVerdict(None, f"defect rank exceeds one (second singular value {s[1]:.3e})", detector),
            top_two,
        )
    if abs(s[0] - 1.0) > 1e-6:
        return RankOneDefectReport(
            ReducibilityVerdict(None, f"defect is rank one but not a unit projection (top value {s[0]:.8f})", detector),
            top_two,
        )
    metric = np.empty(len(radii))
    # an ungraded slice's matrices T - r hold no more entries than a graded slice's accumulate: their SVDs all
    # run before the slice is judged, so the radii past the first failing one cost at most that
    for part in _slices(len(radii), N if graded else N * N):
        r = radii[part]
        with np.errstate(all="ignore"):  # an overflowed section fails the orthogonality test
            if graded:
                x = _recursion(1.0, r, upper)
                x /= np.sqrt(np.vecdot(x, x).real)[:, None]
            else:
                x = np.array([np.linalg.svd(T.matrix - t * np.eye(N, dtype=complex))[2][-1].conj() for t in r])
            ip = np.vecdot(e, x)
            orthogonal = ~(np.abs(ip) >= 1e-10)  # NaN fails too: an overflowed section has its mass past e
            x /= ip[:, None]
            nx2 = np.vecdot(x, x).real
            cut = np.abs(x[:, -1]) ** 2 > 1e-11 * nx2
        del x  # before the next slice's sections: one slice's are held at a time
        failed = orthogonal | cut
        if np.any(failed):
            i = int(np.argmax(failed))
            if orthogonal[i]:
                return RankOneDefectReport(
                    ReducibilityVerdict(None, f"section at r={r[i]} is orthogonal to the defect vector", detector),
                    top_two,
                )
            raise TruncationError(f"section tail at r={r[i]} too large for N={N}; increase N")
        metric[part] = nx2
    expected = (1.0 - radii ** 2) ** (-float(n))
    rel = np.abs(metric - expected) / expected
    if np.max(rel) > 1e-8:
        worst = int(np.argmax(rel))
        return RankOneDefectReport(
            ReducibilityVerdict(
                None,
                f"defect is a rank-one projection but the section metric deviates from the "
                f"order-{n} model by {rel[worst]:.3e} at r={radii[worst]}",
                detector,
            ),
            top_two,
            radii,
            metric,
            expected,
        )
    curvature = -float(n) / (1.0 - radii ** 2) ** 2
    return RankOneDefectReport(
        ReducibilityVerdict(
            True,
            f"order-{n} defect is the rank-one projection onto its seed vector and the section "
            f"metric matches (1-r^2)^(-{n}); curvature -{n}/(1-r^2)^2",
            detector,
        ),
        top_two,
        radii,
        metric,
        expected,
        curvature,
    )
