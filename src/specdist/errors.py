"""Exception types shared across the package, the one theta compatibility rule, and the
one freeze rule of the identity value types (elements and states)."""


class ParameterError(ValueError):
    """Invalid or mismatched parameters (theta mismatch, bad exponent, undersized box)."""


class UnboundedSupportError(ValueError):
    """Raised when a quantity is only defined for finitely supported states."""


def same_theta(a, b) -> float:
    """The theta that elements or states a and b share; ParameterError if they differ."""
    if a.theta != b.theta:
        raise ParameterError(f"theta differs: {a.theta} vs {b.theta}")
    return a.theta


class Frozen:
    """Base of a slotted type whose fields are set once, by `__init__(**fields)`; setting
    or deleting any attribute afterwards raises AttributeError."""

    __slots__ = ()

    def __init__(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__
