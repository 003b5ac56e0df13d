"""Exact finite-truncation arithmetic in the oscillator matrix basis.

Elements are finitely supported coefficient matrices a[m, n] over the
orthogonal basis in which the deformed product acts as plain matrix
multiplication.  All operations here are exact for finitely supported
inputs: mixed orders are zero-padded to the larger order, never truncated.

An element may also be a stack: coefficients of shape (..., n, n), elements
of one theta along the leading axes.  Every operation here acts slice by slice
on a stack, and the scalar-valued ones return one value per slice.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError, same_theta

MAX_OPERATOR_ENTRIES = 3e7  # ceiling on the entries of a dense element, optimizer or bound


def check_theta(theta: float) -> None:
    """Refuse a deformation parameter that is not positive and finite, or whose 2 theta is not."""
    if not (math.isfinite(theta) and theta > 0):
        raise ParameterError(f"theta must be positive and finite, got {theta}")
    if not math.isfinite(2.0 * theta):
        raise ParameterError(f"theta {theta} is too large: 2 theta overflows")


class MoyalElement:
    """A finitely supported element: deformation parameter and square coefficient array.

    coeffs[..., m, n] is the coefficient of the (m, n) basis function, for one element
    or for each of a stack along the leading axes; the array is treated as immutable
    after construction.  Elements compare by identity.
    """

    __slots__ = ("theta", "coeffs")

    def __init__(self, theta: float, coeffs):
        check_theta(theta)
        # own copy, so freezing never touches caller-held arrays
        c = np.array(coeffs, dtype=complex, order="C")
        if c.ndim < 2 or c.shape[-1] != c.shape[-2]:
            raise ParameterError(f"coefficients must be a square matrix, got shape {c.shape}")
        c.flags.writeable = False
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "coeffs", c)

    def __setattr__(self, name, *value):
        raise AttributeError(f"MoyalElement is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    @property
    def order(self) -> int:
        return self.coeffs.shape[-1]

    def pad(self, order: int) -> "MoyalElement":
        """Zero-pad to at least the given order (no-op if already large enough)."""
        if order <= self.order:
            return self
        c = np.zeros(self.coeffs.shape[:-2] + (order, order), dtype=complex)
        c[..., : self.order, : self.order] = self.coeffs
        return MoyalElement(self.theta, c)

    def __add__(self, other: "MoyalElement") -> "MoyalElement":
        theta = same_theta(self, other)
        n = max(self.order, other.order)
        return MoyalElement(theta, self.pad(n).coeffs + other.pad(n).coeffs)

    def __sub__(self, other: "MoyalElement") -> "MoyalElement":
        return self + (-1.0) * other

    def __mul__(self, scalar) -> "MoyalElement":
        return MoyalElement(self.theta, self.coeffs * complex(scalar))

    __rmul__ = __mul__

    def to_dict(self) -> dict:
        return {
            "theta": self.theta,
            "order": self.order,
            "re": self.coeffs.real.tolist(),
            "im": self.coeffs.imag.tolist(),
        }

    @staticmethod
    def from_dict(d: dict) -> "MoyalElement":
        """Inverse of `to_dict` for one element.  Refuses a stack, non-finite coefficients,
        which no report could print as JSON, and an "order" that disagrees with the
        coefficient shape."""
        re = np.asarray(d["re"], dtype=float)
        im = np.asarray(d["im"], dtype=float)
        if not (np.isfinite(re).all() and np.isfinite(im).all()):
            raise ParameterError("coefficients must be finite")
        c = re + 1j * im
        if c.ndim != 2:
            raise ParameterError(f"coefficients must be a square matrix, got shape {c.shape}")
        a = MoyalElement(float(d["theta"]), c)
        if "order" in d and d["order"] != a.order:
            raise ParameterError(f"order {d['order']!r} disagrees with the "
                                 f"{a.order}x{a.order} coefficients")
        return a


def zero(theta: float, order: int = 1) -> MoyalElement:
    return MoyalElement(theta, np.zeros((order, order), dtype=complex))


def basis(theta: float, m: int, n: int) -> MoyalElement:
    """The single basis element with coefficient 1 at (m, n)."""
    size = max(m, n) + 1
    c = np.zeros((size, size), dtype=complex)
    c[m, n] = 1.0
    return MoyalElement(theta, c)


def radial(theta: float, diag) -> MoyalElement:
    """Element with the given diagonal coefficients and zero off-diagonal."""
    d = np.asarray(diag, dtype=complex)
    return MoyalElement(theta, np.diag(d))


def star(a: MoyalElement, b: MoyalElement) -> MoyalElement:
    """Deformed product: coefficient matrices multiply."""
    theta = same_theta(a, b)
    n = max(a.order, b.order)
    return MoyalElement(theta, a.pad(n).coeffs @ b.pad(n).coeffs)


def involution(a: MoyalElement) -> MoyalElement:
    """Adjoint: conjugate transpose of the coefficient matrix."""
    return MoyalElement(a.theta, a.coeffs.conj().swapaxes(-1, -2))


def _per_slice(x):
    """A reduction over the last two axes: a Python scalar for one element, else the array."""
    return x if x.ndim else x.item()


def integral(a: MoyalElement) -> complex:
    """Faithful trace, normalized as the plane integral: 2*pi*theta * sum of the diagonal."""
    return 2.0 * np.pi * a.theta * _per_slice(np.trace(a.coeffs, axis1=-2, axis2=-1))


def inner(a: MoyalElement, b: MoyalElement) -> complex:
    """L2 inner product, antilinear in the first slot: 2*pi*theta * sum conj(a)*b."""
    theta = same_theta(a, b)
    n = max(a.order, b.order)
    total = np.sum(a.pad(n).coeffs.conj() * b.pad(n).coeffs, axis=(-2, -1))
    return 2.0 * np.pi * theta * _per_slice(total)


def sobolev_norm(a: MoyalElement, s: float, t: float) -> float:
    """Weighted coefficient norm with oscillator weights (m+1/2)^s (n+1/2)^t.

    The square is sum over (m, n) of theta^(s+t) (m+1/2)^s (n+1/2)^t |a[m,n]|^2.
    """
    n = a.order
    wm = (np.arange(n) + 0.5) ** s
    wn = (np.arange(n) + 0.5) ** t
    total = _per_slice(np.sum(wm[:, None] * wn[None, :] * np.abs(a.coeffs) ** 2, axis=(-2, -1)))
    return _per_slice(np.sqrt(a.theta ** (s + t) * total))

