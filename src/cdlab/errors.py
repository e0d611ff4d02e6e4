"""Exception taxonomy shared by all cdlab modules."""


class CdlabError(Exception):
    """Base class for every error raised by cdlab."""


class DimensionError(CdlabError, ValueError):
    """Matrix or grid dimensions do not match the operation's contract."""


class StructureError(CdlabError, ValueError):
    """Input lacks required structure (e.g. Hermitian symmetry beyond tolerance)."""


class SingularityError(CdlabError, ArithmeticError):
    """A block that must be invertible is singular or too ill-conditioned."""


class DomainError(CdlabError, ValueError):
    """Scalar or sequence argument outside the mathematical domain of the operation."""


class ConfigurationError(CdlabError, ValueError):
    """Sizes, windows, grids, or options are mutually inconsistent."""


class TruncationError(CdlabError, ArithmeticError):
    """Finite truncation too small for the requested accuracy; increase N."""


class NonFiniteError(CdlabError, ArithmeticError):
    """An intermediate result left the floating-point range (Inf or NaN)."""
