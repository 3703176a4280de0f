"""Exception types shared across the toolkit."""


class TempLevyError(Exception):
    """Base class for toolkit errors."""


class DomainError(TempLevyError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class NumericError(TempLevyError, ArithmeticError):
    """A quadrature or series evaluation failed to converge.

    Carries the last estimate so callers can decide whether to proceed.
    """

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


class DegeneracyError(TempLevyError, ValueError):
    """The spectral measure is supported on a proper linear subspace."""


class RegimeError(DomainError):
    """A time value lies outside the envelope's regime."""


class GridError(TempLevyError, ValueError):
    """Grid too coarse/small for the requested computation."""
