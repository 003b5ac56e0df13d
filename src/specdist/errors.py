"""Exception types shared across the package, and the one theta compatibility rule."""


class ParameterError(ValueError):
    """Invalid or mismatched parameters (theta mismatch, bad exponent, undersized box)."""


class UnboundedSupportError(ValueError):
    """Raised when a quantity is only defined for finitely supported states."""


def same_theta(a, b) -> float:
    """The theta that elements or states a and b share; ParameterError if they differ."""
    if a.theta != b.theta:
        raise ParameterError(f"theta differs: {a.theta} vs {b.theta}")
    return a.theta
