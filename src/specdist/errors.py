"""Exception types shared across the package."""


class ParameterError(ValueError):
    """Invalid or mismatched parameters (theta mismatch, bad exponent, undersized box)."""


class UnboundedSupportError(ValueError):
    """Raised when a quantity is only defined for finitely supported states."""
