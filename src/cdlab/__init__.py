"""cdlab: finite-truncation laboratory for shift, kernel, and block-operator diagnostics.

Submodules:

- ``matrix_core``: PSD certification, Hermitian determinants.
- ``shifts``: weighted backward shifts, the grade-block defect engine (an
  ungraded operator is its one-block case), hypercontractivity,
  Shields similarity diagnostics.
- ``rkhs``: diagonal reproducing kernels, metrics, curvature profiles.
- ``blockops``: upper-triangular block operators, contraction checks and the
  diagonal-coupling closed form, holomorphic frames, reducibility detectors.
- ``similarity``: det-ratio profiles, boundedness/boundary verdicts, the
  bounded-subharmonic witness check, the commutator coupling example.
- ``rules``: integer rational rules and the prefix-plus-rational-tail
  sequence type behind both shift weights and kernel coefficients.
- ``cli``: JSON request front door (``cdlab`` console script), not imported here.
"""

from . import blockops, matrix_core, rkhs, rules, shifts, similarity
from .errors import (
    CdlabError,
    ConfigurationError,
    DimensionError,
    DomainError,
    NonFiniteError,
    SingularityError,
    StructureError,
    TruncationError,
)

__all__ = [
    "blockops",
    "matrix_core",
    "rkhs",
    "rules",
    "shifts",
    "similarity",
    "CdlabError",
    "ConfigurationError",
    "DimensionError",
    "DomainError",
    "NonFiniteError",
    "SingularityError",
    "StructureError",
    "TruncationError",
]

__version__ = "0.1.0"
