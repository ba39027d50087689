"""Exception types shared across the package."""


class FracratError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(FracratError):
    """A precondition or a parameter-range invariant was violated."""


class DegenerateMathError(FracratError):
    """A construction degenerated: zero polynomial, expansion point with no
    series, ladder element with no affine value, and the like."""


class InconsistentSystemError(FracratError):
    """Linear system whose right-hand side is not in the column space of
    its matrix: no solution exists."""
