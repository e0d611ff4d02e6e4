"""Dense complex-matrix substrate.

PSD certification with a norm-scaled threshold (one matrix or a direct sum
of blocks; a non-Hermitian input is rejected) and Cholesky-first Hermitian
determinants, of one matrix or of a stack.  Everything here is a pure
function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NonFiniteError, StructureError

DEFAULT_TOL = 1e-10


def _require_square(A: np.ndarray, stack: bool = False) -> None:
    """A square matrix, or with ``stack`` a stack ``(..., n, n)`` of them."""
    if (A.ndim != 2 and not (stack and A.ndim > 2)) or A.shape[-2] != A.shape[-1]:
        raise DimensionError(f"expected a square matrix, got shape {A.shape}")
    if A.shape[-1] == 0:
        raise DimensionError("empty matrix")


@dataclass(frozen=True)
class PsdVerdict:
    """Outcome of a positive-semidefiniteness check.

    ``is_psd`` holds exactly when ``min_eigenvalue >= -threshold``; the
    threshold scales with the matrix norm so truncation noise does not flip
    verdicts on large operators.
    """

    min_eigenvalue: float
    threshold: float
    is_psd: bool

    def __post_init__(self):
        if self.is_psd != (self.min_eigenvalue >= -self.threshold):
            raise ValueError("inconsistent PSD verdict")


def psd_check(M, tol: float = DEFAULT_TOL) -> PsdVerdict:
    """PSD verdict for a Hermitian matrix (see :func:`psd_verdict`)."""
    A = np.asarray(M, dtype=complex)
    _require_square(A)
    return psd_verdict([A], tol)


def psd_verdict(stacks, tol: float = DEFAULT_TOL) -> PsdVerdict:
    """PSD verdict for the direct sum of the Hermitian matrices in ``stacks``.

    Each entry of ``stacks`` is one square matrix or a stack of them (shape
    ``(..., b, b)``); the spectrum of the direct sum is the union of their
    spectra.  Non-finite entries (an overflowed defect) raise
    :class:`NonFiniteError`.  Eigenvalues are taken on the Hermitian
    symmetrization ``(H + H*)/2`` to kill round-off asymmetry; the acceptance
    threshold is ``tol * max(1, max |eigenvalue|)``.  A stack of ``1 x 1``
    matrices (every defect of a single shift) skips the eigensolve: its
    eigenvalues are the real diagonal, which is what LAPACK returns for order 1.
    """
    min_eig, top = math.inf, 1.0
    for H in stacks:
        if not np.all(np.isfinite(H)):
            raise NonFiniteError("matrix has non-finite entries (overflow); rescale the operator")
        Hs = np.swapaxes(H.conj(), -1, -2)
        if np.max(np.abs(H - Hs)) > tol:
            raise StructureError(f"matrix is not Hermitian within tol={tol}")
        sym = (H + Hs) / 2.0
        # a contiguous copy in eigvalsh's output shape, so the reductions below see the same array
        eigs = sym.real[..., 0].copy() if H.shape[-1] == 1 else np.linalg.eigvalsh(sym)
        min_eig = min(min_eig, float(np.min(eigs)))
        top = max(top, float(np.max(np.abs(eigs))))
    threshold = tol * top
    return PsdVerdict(min_eig, threshold, min_eig >= -threshold)


def hermitian_det(M):
    """Determinant of a Hermitian matrix, or one per matrix of a stack ``(..., n, n)``.

    Uses a Cholesky factor when the matrix is positive definite (the stable
    path for gram-determinant ratios) and falls back to LU otherwise.  A stack
    takes one batched Cholesky; when it rejects any matrix, each matrix takes
    its own route.  A single matrix gives a float, a stack an array.
    """
    A = np.asarray(M, dtype=complex)
    _require_square(A, stack=True)
    H = (A + np.swapaxes(A.conj(), -1, -2)) / 2.0
    try:
        L = np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        if H.ndim == 2:
            return float(np.linalg.det(H).real)
        return np.array([hermitian_det(h) for h in H.reshape((-1,) + H.shape[-2:])]).reshape(H.shape[:-2])
    d = np.diagonal(L, axis1=-2, axis2=-1).real
    det = np.exp(2.0 * np.sum(np.log(d), axis=-1))
    return float(det) if H.ndim == 2 else det
