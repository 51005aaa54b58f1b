"""Exception hierarchy shared by all modules.

The CLI maps these onto exit codes: usage errors exit with 2, data errors
with 3 and numerical failures with 4.
"""


class CovScatterError(Exception):
    exit_code = 1


class UsageError(CovScatterError):
    exit_code = 2


class DataError(CovScatterError):
    exit_code = 3


class NumericalError(CovScatterError):
    exit_code = 4


class InvalidData(DataError):
    """Non-finite, malformed or too-small input data."""


class InsufficientSamples(DataError):
    """Fewer observations than the estimator requires."""


class ShapeError(DataError):
    """Dimension mismatch between arrays that must agree."""


class NotSymmetric(DataError):
    """Matrix handed to the symmetric eigensolver is not symmetric."""


class NoConvergence(NumericalError):
    """Eigensolver failed: non-finite input, or LAPACK did not converge."""


class DegenerateCovariance(NumericalError):
    """Covariance with non-positive leading eigenvalue; operators undefined."""


class DegenerateSpectrum(NumericalError):
    """Operator spectrum too degenerate for the requested kernel family."""


class SingularSystem(NumericalError):
    """Singular normal equations: a zero ridge penalty, or one below the Gram matrix's rounding."""


class InvalidScaleCount(UsageError):
    """Scale count J outside the supported range."""


class InvalidK(UsageError):
    """Component count k outside [1, N] (or below the minimum for a bound)."""


class DomainError(UsageError):
    """Kernel evaluated outside the operator spectrum domain."""


class ConfigError(UsageError):
    """Invalid configuration value."""
