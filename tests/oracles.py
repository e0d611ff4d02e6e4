"""Independent second routes that the tests compare the library against."""

import numpy as np

from cdlab.errors import DomainError
from cdlab.matrix_core import PsdVerdict, psd_check
from cdlab.shifts import TruncatedOperator, defect_operator, polynomial_defect


def defect_operator_recursive(T: TruncatedOperator, k: int) -> np.ndarray:
    """Defect ``D_k`` via the Pascal recursion ``D_k = D_{k-1} - T* D_{k-1} T``.

    An independent route to ``shifts.defect_operator`` (the binomial sum);
    the tests pin entrywise agreement between the two.
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
    return np.eye(T.order, dtype=complex) - defect_operator(T, n)


def dense_defect_verdicts(T: TruncatedOperator, n: int, tol: float) -> list[PsdVerdict]:
    """Dense route of ``shifts.defect_report``: order ``k`` judged by one
    eigensolve of the ``N - k`` leading window of the full ``D_k``."""
    return [psd_check(defect_operator(T, k)[: T.order - k, : T.order - k], tol) for k in range(1, n + 1)]


def dense_contraction_verdict(T: TruncatedOperator, tol: float) -> PsdVerdict:
    """Dense route of ``blockops.contraction_check``: ``I - T*T`` on the ``N - 1`` window."""
    M = T.matrix
    W = T.order - 1
    return psd_check((np.eye(T.order, dtype=complex) - M.conj().T @ M)[:W, :W], tol)


def dense_window_norms(B) -> np.ndarray:
    """Spectral norms of the materialized blocks of a block operator, by SVD."""
    m = B.grid_size
    return np.array([[np.linalg.norm(B.block_matrix(i, j), 2) for j in range(m)] for i in range(m)])


def dense_cascade_leaks(T: TruncatedOperator, n: int, N: int) -> np.ndarray:
    """Norms of the columns ``S[N:, m+1]`` of ``S = I - D_n`` that the cascade reads."""
    S = defect_complement(T, n)
    return np.array([np.linalg.norm(S[N:, m + 1]) for m in range(N - n - 2)])


def dense_kernel_verdict(T: TruncatedOperator, coeffs, tol: float) -> PsdVerdict:
    """Dense route of ``shifts.kernel_defect``: the polynomial defect on its interior window."""
    W = T.order - (len(coeffs) - 1)
    return psd_check(polynomial_defect(T, coeffs)[:W, :W], tol)


def dense_assemble(B) -> np.ndarray:
    """``blockops.assemble(B).matrix`` by writing each dense block into place."""
    m, N = B.grid_size, B.order
    M = np.zeros((m * N, m * N), dtype=complex)
    for i in range(m):
        for j in range(m):
            M[i * N : (i + 1) * N, j * N : (j + 1) * N] = B.block_matrix(i, j)
    return M
