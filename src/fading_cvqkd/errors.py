"""Exception types shared across the package."""


class FadingCVQKDError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(FadingCVQKDError, ValueError):
    """A physical or statistical parameter is outside its valid range."""


class InsufficientDataError(FadingCVQKDError, ValueError):
    """Too few samples or packages to perform the requested estimate."""


class NumericalError(FadingCVQKDError, RuntimeError):
    """A numerical routine (quadrature, root finding) failed to converge."""


class UnphysicalStateError(FadingCVQKDError, ValueError):
    """A covariance matrix violates the uncertainty principle."""


class ClusterTooSmallError(FadingCVQKDError, ValueError):
    """A cluster holds fewer packages than the analysis requires."""


class ValidationError(FadingCVQKDError, ValueError):
    """An input file failed schema or range validation."""
