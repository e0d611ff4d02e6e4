"""Independent second routes that the tests compare the library against."""

import numpy as np

from cdlab.errors import DomainError
from cdlab.shifts import TruncatedOperator


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
