"""Independent second routes that the tests compare the library against."""

import math

import mpmath
import numpy as np
from numpy.polynomial import polynomial as P

from cdlab import blockops, rkhs
from cdlab.blockops import SECTION_REL_TAIL, _require_2x2_upper
from cdlab.cli import _PRESETS
from cdlab.errors import ConfigurationError, DomainError, TruncationError
from cdlab.matrix_core import DEFAULT_TOL, PsdVerdict, psd_check
from cdlab.rules import _degree, _value
from cdlab.shifts import TruncatedOperator, WeightSequence, dense_matrix
from cdlab.similarity import witness_step


def dense_operator(M) -> TruncatedOperator:
    """An ungraded truncated operator whose entries are every entry of the square array ``M``."""
    M = np.asarray(M, dtype=complex)
    rows, cols = np.indices(M.shape)
    return TruncatedOperator(len(M), (rows.ravel(), cols.ravel(), M.ravel()))


def polynomial_defect(T: TruncatedOperator, coeffs) -> np.ndarray:
    """``sum_j a_j (T*)^j T^j`` for the coefficients ``(a_0, a_1, ...)``, from dense powers of ``T.matrix``.

    The dense reference for ``shifts.defect_blocks``, which forms every defect
    in the library from grade blocks.
    """
    M = T.matrix
    D = coeffs[0] * np.eye(T.order, dtype=complex)
    P = M
    for j, c in enumerate(coeffs[1:]):
        if j:
            P = P @ M
        D += c * (P.conj().T @ P)
    return D


def dense_defect(T: TruncatedOperator, k: int) -> np.ndarray:
    """The alternating binomial defect ``D_k`` by :func:`polynomial_defect`."""
    return polynomial_defect(T, [(-1) ** j * math.comb(k, j) for j in range(k + 1)])


def defect_operator_recursive(T: TruncatedOperator, k: int) -> np.ndarray:
    """Defect ``D_k`` via the Pascal recursion ``D_k = D_{k-1} - T* D_{k-1} T``.

    An independent route to ``shifts.defect_operator`` (the binomial sum on
    the grade-block engine); the tests pin entrywise agreement between the two.
    """
    if k < 1:
        raise DomainError("defect order must be >= 1")
    M = T.matrix
    D = np.eye(T.order, dtype=complex)
    for _ in range(k):
        D = D - M.conj().T @ D @ M
    return D


def defect_complement(T: TruncatedOperator, n: int) -> np.ndarray:
    """``I - D_n = sum_{j>=1} (-1)^{j+1} C(n,j) (T*)^j T^j``.

    For an ``n``-hypercontraction this operator is positive and contractive
    (the PSD sandwich ``0 <= I - D_n <= I``).
    """
    return np.eye(T.order, dtype=complex) - dense_defect(T, n)


def dense_defect_verdicts(T: TruncatedOperator, n: int, tol: float) -> list[PsdVerdict]:
    """Dense route of ``shifts.defect_report``: order ``k`` judged by one
    eigensolve of the ``N - k`` leading window of the full ``D_k``."""
    return [psd_check(dense_defect(T, k)[: T.order - k, : T.order - k], tol) for k in range(1, n + 1)]


def dense_contraction_verdict(T: TruncatedOperator, tol: float) -> PsdVerdict:
    """Dense route of ``blockops.contraction_check``: ``I - T*T`` on the ``N - 1`` window."""
    M = T.matrix
    W = T.order - 1
    return psd_check((np.eye(T.order, dtype=complex) - M.conj().T @ M)[:W, :W], tol)


def dense_rank_one_check(T: TruncatedOperator, n: int, radii=None, tol: float = 1e-8):
    """Dense route of ``blockops.rank_one_defect_check``: one SVD of the order-``n``
    defect window (:func:`dense_defect`), then one full SVD of ``T - r`` per radius,
    its last right singular vector taken as the section; same checks, same report."""
    if radii is None:
        radii = np.arange(0.1, 0.75, 0.1)
    radii = np.asarray(radii, dtype=float)
    if not np.all(np.abs(radii) < 1.0):
        raise DomainError("rank-one radii must be finite and lie inside the unit disk (|r| < 1)")
    N, W = T.order, T.order - n
    if W < 2:
        raise ConfigurationError(f"window too small: N={N}, order {n}")
    detector = "rank-one-defect"
    Dw = dense_defect(T, n)[:W, :W]
    U, s, _ = np.linalg.svd((Dw + Dw.conj().T) / 2.0)
    top_two = (float(s[0]), float(s[1]))
    if s[1] > tol:
        verdict = blockops.ReducibilityVerdict(
            None, f"defect rank exceeds one (second singular value {s[1]:.3e})", detector)
        return blockops.RankOneDefectReport(verdict, top_two)
    if abs(s[0] - 1.0) > 1e-6:
        verdict = blockops.ReducibilityVerdict(
            None, f"defect is rank one but not a unit projection (top value {s[0]:.8f})", detector)
        return blockops.RankOneDefectReport(verdict, top_two)
    e = np.zeros(N, dtype=complex)
    e[:W] = U[:, 0]
    metric = np.empty(len(radii))
    for idx, r in enumerate(radii):
        x = np.linalg.svd(T.matrix - r * np.eye(N, dtype=complex))[2][-1].conj()
        ip = complex(np.vdot(e, x))
        if abs(ip) < 1e-10:
            verdict = blockops.ReducibilityVerdict(
                None, f"section at r={r} is orthogonal to the defect vector", detector)
            return blockops.RankOneDefectReport(verdict, top_two)
        x = x / ip
        nx2 = float(np.vdot(x, x).real)
        if abs(x[-1]) ** 2 > 1e-11 * nx2:
            raise TruncationError(f"section tail at r={r} too large for N={N}; increase N")
        metric[idx] = nx2
    expected = (1.0 - radii ** 2) ** (-float(n))
    rel = np.abs(metric - expected) / expected
    if np.max(rel) > 1e-8:
        worst = int(np.argmax(rel))
        verdict = blockops.ReducibilityVerdict(
            None,
            f"defect is a rank-one projection but the section metric deviates from the "
            f"order-{n} model by {rel[worst]:.3e} at r={radii[worst]}",
            detector,
        )
        return blockops.RankOneDefectReport(verdict, top_two, radii, metric, expected)
    verdict = blockops.ReducibilityVerdict(
        True,
        f"order-{n} defect is the rank-one projection onto its seed vector and the section "
        f"metric matches (1-r^2)^(-{n}); curvature -{n}/(1-r^2)^2",
        detector,
    )
    return blockops.RankOneDefectReport(verdict, top_two, radii, metric, expected, -float(n) / (1.0 - radii ** 2) ** 2)


def with_prefix(w: WeightSequence, values) -> WeightSequence:
    """The weights of ``w``, a tail with no prefix, with the leading ones replaced by ``values``."""
    return WeightSequence(prefix=tuple(values), tail=w.tail)


def shields_scan(a: WeightSequence, b: WeightSequence, horizons) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """``(log sups, log infs)`` of ``prod_{l=i}^{j} a_l / b_l`` over ``0 <= i <= j < h`` for each ``h`` in
    ``horizons``, by a scan of every partial sum up to the last horizon.

    The full scan that ``shifts.shields_similarity`` runs only up to its cutoff.  The terms past both prefixes,
    ``1/2 log(p_a q_b / (q_a p_b))``, and the partial sums are taken in ``np.longdouble`` (64-bit mantissa on
    x86-64): in float64 the sums drift by about ``h eps`` relative over ``h`` equal terms, 9.4e-12 at
    ``h = 10^6``, and the logarithms of the rounded weights by 1e-12 over ``3 * 10^4`` terms near 0.
    """
    H = max(horizons)
    log_ratio = (np.log(a.weights(H)) - np.log(b.weights(H))).astype(np.longdouble)
    start = min(max(len(a.prefix), len(b.prefix)), H)
    if a.tail is not None and b.tail is not None:
        l = np.arange(start, H, dtype=np.longdouble)
        num, den = (P.polyval(l, np.array(c, dtype=np.longdouble)) for c in (P.polymul(a.tail.p, b.tail.q),
                                                                            P.polymul(a.tail.q, b.tail.p)))
        log_ratio[start:] = np.log(num / den) / 2
    S = np.concatenate(([0.0], np.cumsum(log_ratio, dtype=np.longdouble)))  # S[m] = log prod_{l<m}
    sup_diffs = S[1:] - np.minimum.accumulate(S[:-1])  # best log R(i,j) ending at each j
    inf_diffs = S[1:] - np.maximum.accumulate(S[:-1])
    return (tuple(float(np.max(sup_diffs[:h])) for h in horizons),
            tuple(float(np.min(inf_diffs[:h])) for h in horizons))


def schur_split_psd(A, split: int, tol: float = DEFAULT_TOL) -> tuple[PsdVerdict, PsdVerdict]:
    """PSD verdicts of the leading ``split x split`` block of a Hermitian ``A`` and of its Schur complement.

    With an invertible leading block the pair is jointly positive exactly when ``A`` is (a congruence).
    """
    A = np.asarray(A, dtype=complex)
    A11, A12 = A[:split, :split], A[:split, split:]
    S = A[split:, split:] - A12.conj().T @ np.linalg.solve(A11, A12)
    return psd_check(A11, tol), psd_check((S + S.conj().T) / 2.0, tol)  # symmetrized: the solve leaves skew


def ex48_operator(a, b, d, N: int) -> blockops.BlockOperator:
    """``[[shift(a), diag(d)], [0, shift(b)]]`` at block order ``N``, the shifts' weights the first ``N - 1``."""
    shift = lambda w: blockops.ShiftBlock(WeightSequence(prefix=tuple(np.asarray(w, dtype=float)[: N - 1])))
    return blockops.BlockOperator(((shift(a), blockops.DiagonalBlock(tuple(d))), (None, shift(b))), order=N)


def ex48_schur_condition(T1, T12, T2, tol: float = DEFAULT_TOL) -> PsdVerdict:
    """Schur-complement form of ``blockops.ex48_closed_form`` for an invertible ``I - T1*T1``: the PSD
    verdict of ``(I - T2*T2) - T12* [I + T1 (I - T1*T1)^{-1} T1*] T12`` on the ``N - 1`` window."""
    N = T1.order
    inner = np.eye(N) + T1.matrix @ np.linalg.solve(dense_defect(T1, 1), T1.matrix.conj().T)
    M = dense_defect(T2, 1) - T12.matrix.conj().T @ inner @ T12.matrix
    return psd_check(((M + M.conj().T) / 2.0)[: N - 1, : N - 1], tol)


def block_matrix(B, i: int, j: int) -> np.ndarray:
    """Block ``(i, j)`` of a block operator as a dense ``N x N`` matrix."""
    return dense_matrix(B.order, B.blocks[i][j].entries(B.order))


def power_curvature_closed_form(n: int, radii) -> np.ndarray:
    """Curvature ``-n / (1 - r^2)^2`` of the power kernel ``(1 - z w̄)^{-n}``."""
    r = np.asarray(radii, dtype=float)
    return -n / (1.0 - r ** 2) ** 2


def scalar_series_sums(K, t: float, max_order: int) -> np.ndarray:
    """``g^(m)(t)`` for ``m = 0..max_order``, one ``t`` at a time.

    The one-row loop that ``rkhs._series_sums`` sums every row with: same
    chunks, same powers ``t^(n-m)``, same operation order, same certificate
    (the rule's ratio sup over ``n >= n_last``, widened by ``2^-40``, times
    ``t (n_last+1)/(n_last+1-m)``), so each row of the sweep must equal it
    bit for bit.
    """
    sums = np.zeros(max_order + 1)
    for n0 in range(0, rkhs._MAX_TERMS, rkhs._CHUNK):
        idx = np.arange(n0, n0 + rkhs._CHUNK, dtype=float)
        b = K.coeffs_slice(n0, n0 + rkhs._CHUNK)
        fall = np.ones(rkhs._CHUNK)
        last_terms = np.empty(max_order + 1)
        for m in range(max_order + 1):
            if m > 0:
                fall = fall * np.maximum(idx - (m - 1), 0.0)
            terms = b * fall * t ** np.maximum(idx - m, 0.0)
            sums[m] += terms.sum()
            last_terms[m] = abs(terms[-1])
        n_last = n0 + rkhs._CHUNK - 1
        if K.coverage is not None and n_last + 1 >= K.coverage:
            return sums
        if n_last >= len(K.prefix):
            sup = K.tail.forward_ratio.bounds(n_last)[1] * (1.0 + 2.0 ** -40)
            rho = sup * t * (n_last + 1) / max(n_last + 1 - max_order, 1)
            if rho < 1.0:
                tails = last_terms * rho / (1.0 - rho)
                if np.all(tails <= 1e-15 * np.maximum(np.abs(sums), 1e-300)):
                    return sums
    raise TruncationError(f"series did not certify its tail at t={t}")


def per_order_closed_sums(K, t: np.ndarray, orders: np.ndarray):
    """``rkhs._closed_sums`` one order at a time, on the rows that reach it.

    Each order ``m`` forms its Newton coefficients from the alternating
    binomial sums of ``q0 P(j)`` and its own powers ``(t/s)^k / s`` and
    ``t^j`` for the rows with ``orders >= m``, and sums and bounds those rows
    alone, the terms product taken twice.  The whole-array pass must give its
    sums and its ``ok`` mask byte for byte.
    """
    q0 = K.tail.q[0]
    L = len(K.prefix)
    s = 1.0 - t
    sums = np.full((len(t), int(orders.max(initial=0)) + 1), np.nan)
    ok = np.ones(len(t), dtype=bool)
    for m in range(sums.shape[1]):
        r = orders >= m
        deg = _degree(K.tail.p) + m
        n = range(m, L)
        vals = [_value(K.tail.p, j + m) * math.perm(j + m, m) for j in range(deg + 1)]
        newton = [sum((-1) ** (k - i) * math.comb(k, i) * vals[i] for i in range(k + 1)) / q0 for k in range(deg + 1)]
        pre = np.array(K.prefix[m:])
        tail = np.array([_value(K.tail.p, i) / q0 for i in n])
        coef = np.append(newton, pre - tail)
        size = np.append(np.abs(newton), pre + np.abs(tail))
        pw = np.hstack([(t[r] / s[r])[:, None] ** np.arange(deg + 1) / s[r, None],
                        np.array([math.perm(i, m) for i in n], float) * t[r][:, None] ** np.arange(len(n))])
        sums[r, m] = (coef * pw).sum(axis=1)
        bound = (3 * (deg + L) + 10) * 2.0 ** -53 * (size * (pw + 2.0 ** -1021) + 2.0 ** -1021).sum(axis=1)
        ok[r] &= np.isfinite(coef * pw).all(axis=1) & (bound <= rkhs._CLOSED_REL * np.abs(sums[r, m]))
    return sums, ok


def dense_window_norms(B) -> np.ndarray:
    """Spectral norms of the materialized blocks of a block operator, by SVD."""
    m = B.grid_size
    return np.array([[np.linalg.norm(block_matrix(B, i, j), 2) for j in range(m)] for i in range(m)])


def dense_cascade_leaks(T: TruncatedOperator, n: int, N: int) -> np.ndarray:
    """Norms of the columns ``S[N:, m+1]`` of ``S = I - D_n`` that the cascade reads."""
    S = defect_complement(T, n)
    return np.array([np.linalg.norm(S[N:, m + 1]) for m in range(N - n - 2)])


def dense_assemble(B) -> np.ndarray:
    """``blockops.assemble(B).matrix`` by writing each dense block into place."""
    m, N = B.grid_size, B.order
    M = np.zeros((m * N, m * N), dtype=complex)
    for i in range(m):
        for j in range(m):
            M[i * N : (i + 1) * N, j * N : (j + 1) * N] = block_matrix(B, i, j)
    return M


def bidiagonal_null(upper, omega: complex, N: int) -> np.ndarray:
    """``t_0 = 1``, ``t_{i+1} = omega t_i / upper_i``, one scalar step at a time: the loop that
    ``blockops._recursion`` takes for every radius at once (its rows equal this up to the sign of zeros)."""
    t = np.empty(N, dtype=complex)
    t[0] = 1.0
    with np.errstate(all="ignore"):
        for i in range(N - 1):
            t[i + 1] = omega * t[i] / upper[i]
    return t


def scaled_point(block, omega: complex) -> complex:
    """``omega / scale`` for a diagonal block of a frame, with ``blockops.frame_solver``'s checks and messages."""
    if not isinstance(block, blockops.ShiftBlock):
        raise ConfigurationError("frame construction needs backward-shift diagonal blocks")
    if block.scale == 0:
        raise DomainError("diagonal shift block has zero scale")
    z = np.divide(omega, block.scale)  # the ufuncs the library takes its radius arrays with
    if np.abs(z) >= 1.0:
        raise DomainError(f"scaled evaluation point |omega/scale| = {abs(z):.4f} outside the disk")
    return z


def scalar_section(block, omega: complex, N: int) -> np.ndarray:
    """The section of one diagonal shift block at one ``omega``, with the checks and messages of
    ``blockops.frame_solver``, from :func:`bidiagonal_null`."""
    z = scaled_point(block, omega)
    ws = block.weights.weights(N)
    t = bidiagonal_null(ws, z, N)
    w_inf = block.weights.tail_bounds(N)[0]
    with np.errstate(all="ignore"):
        norm2 = float(np.vdot(t, t).real)
        rho = abs(z) ** 2 / w_inf ** 2 if w_inf > 0 else (math.inf if z else 0.0)
        if rho >= 1.0:
            raise TruncationError(f"section tail ratio {rho:.4f} >= 1 at |omega|={abs(z):.4f}; increase N")
        if not math.isfinite(norm2):
            raise TruncationError(f"section overflows at |omega|={abs(z):.4f}: its norm is not finite at N={N}")
        tail = abs(z * t[N - 1] / ws[N - 1]) ** 2 / (1.0 - rho)
    if not tail <= SECTION_REL_TAIL * norm2:
        raise TruncationError(
            f"section tail estimate {tail:.3e} exceeds {SECTION_REL_TAIL:.0e} of the norm at N={N}; increase N"
        )
    return t


def frame_residual(upper: np.ndarray, omega: complex, t1: np.ndarray, g: np.ndarray, rhs: np.ndarray) -> float:
    """Least-squares residual of ``A x = rhs`` for ``A`` with diagonal ``-omega``
    and superdiagonal ``upper``, given ``g`` solving all rows but the last: one radius of
    ``blockops._frame_residuals``."""
    N = len(t1)
    sigma_min = abs(omega * t1[-1]) / float(np.linalg.norm(t1))
    sigma_max = float(np.max(np.abs(upper))) + abs(omega)
    if sigma_min > N * np.finfo(float).eps * sigma_max:
        x = g - (rhs[-1] + omega * g[-1]) / (omega * t1[-1]) * t1
        Ax = -omega * x
        Ax[:-1] += upper * x[1:]
        return float(np.linalg.norm(Ax - rhs))
    u = np.ones(N, dtype=complex)
    u[:-1] = np.cumprod(np.conj(omega / upper[::-1]))[::-1]
    return abs(np.vdot(u, rhs)) / float(np.linalg.norm(u))


def scalar_frame_solver(B, omega: complex) -> np.ndarray:
    """``blockops.frame_solver`` one radius at a time: both sections by :func:`scalar_section`, the full
    forward recursion for ``g``, the same residual judgement and gauge, the same gram."""
    _require_2x2_upper(B)
    if not np.abs(omega) <= blockops.FRAME_RADIUS_CAP:
        raise DomainError(f"|omega| = {abs(omega):.4f} beyond the truncation-reliability cap 0.95")
    N = B.order
    top = B.blocks[0][0]
    t1 = scalar_section(top, omega, N)
    t2 = scalar_section(B.blocks[1][1], omega, N)
    rhs = -B.blocks[0][1].apply(N, t2[None])[0]
    rhs_norm = float(np.linalg.norm(rhs))
    g = np.zeros(N, dtype=complex)
    if rhs_norm != 0.0:
        upper = top.scale * top.weights.weights(N - 1)
        for i in range(N - 1):
            g[i + 1] = (rhs[i] + omega * g[i]) / upper[i]
        residual = frame_residual(upper, omega, t1, g, rhs)
        if residual > 1e-8 * rhs_norm:
            raise TruncationError(
                f"frame solve residual {residual:.3e} exceeds 1e-8 * |T12 t2| = {1e-8 * rhs_norm:.3e}; increase N"
            )
        g -= (np.vdot(t1, g) / np.vdot(t1, t1)) * t1
    V = np.stack([np.concatenate([t1, np.zeros(N, dtype=complex)]), np.concatenate([g, t2])], axis=1)
    return V.conj().T @ V


def dense_frame_solver(B, omega: complex) -> np.ndarray:
    """Dense route of ``blockops.frame_solver``: ``np.linalg.lstsq`` on the
    materialized ``T_1 - w``, the same residual bound, the least-squares gauge."""
    _require_2x2_upper(B)
    if np.abs(omega) > 0.95:
        raise DomainError(f"|omega| = {abs(omega):.4f} beyond the truncation-reliability cap 0.95")
    N = B.order
    t1, t2 = (blockops.section_vector(B.blocks[i][i].weights, scaled_point(B.blocks[i][i], omega), N) for i in (0, 1))
    rhs = -block_matrix(B, 0, 1) @ t2
    rhs_norm = float(np.linalg.norm(rhs))
    A = block_matrix(B, 0, 0) - omega * np.eye(N, dtype=complex)
    if rhs_norm == 0.0:
        g = np.zeros(N, dtype=complex)
    else:
        g, *_ = np.linalg.lstsq(A, rhs, rcond=None)
        residual = float(np.linalg.norm(A @ g - rhs))
        if residual > 1e-8 * rhs_norm:
            raise TruncationError(
                f"frame solve residual {residual:.3e} exceeds 1e-8 * |T12 t2| = {1e-8 * rhs_norm:.3e}; increase N"
            )
    gamma1 = np.concatenate([t1, np.zeros(N, dtype=complex)])
    gamma2 = np.concatenate([g, t2])
    V = np.stack([gamma1, gamma2], axis=1)
    return V.conj().T @ V


def mp_frame_residual(B, omega: complex) -> float:
    """The relative residual ``|A g - b| / |b|`` that ``lstsq`` would leave on :func:`dense_frame_solver`'s system
    (``A = T_1 - w``, ``b = -T_12 t_2``, the same floats) in exact arithmetic.  Above numpy's rank cut
    ``N eps sigma_max`` the square system is solved at 60 digits and its residual taken there; at or below it
    ``lstsq`` drops the last singular direction ``u`` (from a float SVD), which leaves ``|<u, b>|``."""
    N = B.order
    t2 = blockops.section_vector(B.blocks[1][1].weights, scaled_point(B.blocks[1][1], omega), N)
    b = -block_matrix(B, 0, 1) @ t2
    A = block_matrix(B, 0, 0) - omega * np.eye(N, dtype=complex)
    U, s, _ = np.linalg.svd(A)
    if s[-1] <= N * np.finfo(float).eps * s[0]:
        return float(abs(np.vdot(U[:, -1], b)) / np.linalg.norm(b))
    with mpmath.workdps(60):
        Am, bm = mpmath.matrix(A.tolist()), mpmath.matrix(b.tolist())
        return float(mpmath.norm(Am * mpmath.lu_solve(Am, bm) - bm) / mpmath.norm(bm))


def mp_frame_det(B, omega: complex) -> float:
    """``det h(w)`` of ``blockops.frame_solver`` in high precision, by back-substitution.

    Solves ``(T_1 - w) g = -T_12 t_2`` exactly (``w != 0``) from the last row
    up, on the same float weights, scales and entries the program reads, and
    returns ``|t_1|^2 (|g|^2 + |t_2|^2) - |<t_1, g>|^2``.  Back-substitution
    multiplies by up to ``max |scale * w_i| / |w|`` per row and the gram
    cancels twice that, so the working precision is at least 60 digits plus
    three times the digits of that growth.
    """
    N = B.order
    top, bottom = B.blocks[0][0], B.blocks[1][1]
    upper = top.weights.weights(N - 1)
    growth = max(1.0, abs(top.scale) * float(np.max(upper)) / abs(omega))
    with mpmath.workdps(60 + int(3 * N * math.log10(growth))):
        w = mpmath.mpc(complex(omega))

        def section(block):
            z, ws, t = w / mpmath.mpc(complex(block.scale)), block.weights.weights(N), [mpmath.mpc(1)]
            for i in range(N - 1):
                t.append(z * t[i] / mpmath.mpf(ws[i]))
            return t

        t1, t2 = section(top), section(bottom)
        T12 = block_matrix(B, 0, 1)
        rhs = [mpmath.mpc(0)] * N
        for i, j in zip(*np.nonzero(T12)):
            rhs[i] -= mpmath.mpc(complex(T12[i, j])) * t2[j]
        s = mpmath.mpc(complex(top.scale))
        g = [mpmath.mpc(0)] * N
        g[N - 1] = -rhs[N - 1] / w
        for i in range(N - 2, -1, -1):
            g[i] = (s * mpmath.mpf(upper[i]) * g[i + 1] - rhs[i]) / w
        norm2 = lambda v: mpmath.fsum(abs(x) ** 2 for x in v)
        overlap = mpmath.fsum(mpmath.conj(a) * b for a, b in zip(t1, g))
        return float(norm2(t1) * (norm2(g) + norm2(t2)) - abs(overlap) ** 2)


def sequence_to_json(seq) -> dict:
    """JSON description of a weight sequence or kernel, the inverse of
    ``cli.sequence_from_json`` (same schema); the round-trip tests use it."""
    if seq.name:
        preset, _, power = seq.name.partition(":")
        if preset in _PRESETS[type(seq)]:
            return {"preset": preset, "power": int(power)} if power else {"preset": preset}
    out: dict = {}
    if seq.prefix:
        out["prefix"] = list(seq.prefix)
    if seq.tail is not None:
        out["tail"] = {"p": list(seq.tail.p), "q": list(seq.tail.q)}
    return out


def _real_values(values, what: str) -> list[float]:
    out = []
    for v in values:
        c = complex(v)
        if c.imag != 0.0:
            raise DomainError(f"the JSON schema carries real {what}; got {v!r}")
        out.append(c.real)
    return out


def block_to_json(block) -> dict:
    """JSON description of one block, the inverse of ``cli.block_from_json``."""
    if isinstance(block, blockops.ZeroBlock):
        return {"kind": "zero"}
    if isinstance(block, blockops.ShiftBlock):
        out = {"kind": "shift", "weights": sequence_to_json(block.weights)}
        if block.scale != 1.0:
            out["scale"] = _real_values([block.scale], "scales")[0]
        return out
    if isinstance(block, blockops.DiagonalBlock):
        return {"kind": "diagonal", "values": _real_values(block.values, "diagonals")}
    out = {"kind": "matrix", "real": block.array.real.tolist()}
    if np.any(block.array.imag != 0.0):
        out["imag"] = block.array.imag.tolist()
    return out


def operator_to_json(B) -> dict:
    """JSON description of a block operator, the inverse of ``cli.operator_from_json``."""
    return {"grid": [[block_to_json(b) for b in row] for row in B.blocks], "N": B.order}


def pointwise_witness(radii, ratio_fn) -> tuple[np.ndarray, float]:
    """``(laplacian, largest step)`` of ``similarity.subharmonic_witness_check``, one radius at a time: three
    scalar ``ratio_fn`` calls and three ``math.log`` per radius with a stencil, NaN elsewhere."""
    lap = np.full(len(radii), np.nan)
    max_step = 0.0
    for i, r in enumerate(radii):
        h = witness_step(r)
        if h is None:
            continue
        fp = math.log(ratio_fn(r + h))
        f0 = math.log(ratio_fn(r))
        fm = math.log(ratio_fn(r - h))
        lap[i] = rkhs.radial_laplacian(fp, f0, fm, h, r)
        max_step = max(max_step, h)
    return lap, max_step
