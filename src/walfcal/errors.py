"""Exception types shared across the package."""

__all__ = ["CurvatureDomainError", "DomainError", "ParseError", "WalfcalError"]


class WalfcalError(Exception):
    """Base class for every error raised by this package."""


class DomainError(WalfcalError, ValueError):
    """Input outside the validity domain of a model or parameter set."""


class CurvatureDomainError(DomainError):
    """Distance at or beyond the Walfisch-Bertoni limit sqrt(17 * dh_tx)."""


class ParseError(WalfcalError, ValueError):
    """Malformed measurement or campaign configuration file."""
