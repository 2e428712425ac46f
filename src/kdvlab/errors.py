"""Exception types shared across the solver and analysis modules."""


class KdvLabError(Exception):
    """Base class for all package-specific errors."""


class BlowUpError(KdvLabError):
    """A time step produced values above the amplitude threshold or non-finite.

    ``max_value`` is the offending magnitude, ``inf`` for non-finite data.
    """

    def __init__(self, message, max_value=None):
        super().__init__(message)
        self.max_value = max_value


class SingularMatrixError(KdvLabError):
    """Banded elimination hit a zero (or sub-tolerance) pivot.

    ``row`` is the elimination row at which the pivot failed.
    """

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class FixedPointError(KdvLabError):
    """Picard iteration did not converge within the allowed iterations.

    ``residual`` is the last sup-norm change between iterates.
    """

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class OracleError(KdvLabError):
    """A verification oracle produced non-finite values."""


class ConfigError(KdvLabError):
    """A run configuration is malformed or violates a constraint."""
