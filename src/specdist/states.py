"""Pure states of the truncated plane algebra and their evaluation functionals.

A pure state is represented by its normalized coefficient vector c with
sum |c_m|^2 = 1; evaluation reads off sum_{m,n} conj(c_m) c_n a[m, n].
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import MoyalElement, _per_slice, check_theta
from .errors import ParameterError, same_theta

NORMALIZATION_TOL = 1e-12
# largest coefficient vector a basis or zeta state may allocate; the state is the only
# support-sized array a plane report holds (8 bytes per index, 16 for complex weights)
MAX_SUPPORT = 2 ** 22
# entries per block of the O(support) passes (sums of squares, the diagonal difference, the
# radial bound, the probes' sweep and the upper bound's bands), so that none holds a
# support-sized temporary
SWEEP_BLOCK = 2 ** 16


def _sum_squares(v: np.ndarray) -> float:
    """sum |v|^2 block by block in a fixed order, so no BLAS thread count changes it."""
    return sum(float(np.sum(np.abs(v[i:i + SWEEP_BLOCK]) ** 2))
               for i in range(0, v.size, SWEEP_BLOCK))


def _check_support(size: int) -> None:
    if size > MAX_SUPPORT:
        raise ParameterError(f"state support {size} exceeds the cap MAX_SUPPORT = "
                             f"{MAX_SUPPORT}; choose a smaller index or cut-off")


class MoyalPureState:
    """Vector state given by a unit coefficient sequence, float64 when real (basis and zeta
    states, real finite weights) and complex128 otherwise, plus construction metadata.
    States compare by identity."""

    __slots__ = ("theta", "c", "kind", "meta")

    def __init__(self, theta: float, c, kind: str = "finite", meta: dict | None = None):
        # adopts an owned C-ordered float64 or complex128 array, copies anything else
        check_theta(theta)
        if not (isinstance(c, np.ndarray) and c.dtype in (np.float64, np.complex128)
                and c.flags.owndata and c.flags.c_contiguous):
            c = np.array(c, dtype=complex if np.iscomplexobj(c) else float)
        if c.ndim != 1 or c.size == 0:
            raise ParameterError("state coefficients must be a nonempty 1-d sequence")
        nrm2 = _sum_squares(c)
        if not abs(nrm2 - 1.0) <= NORMALIZATION_TOL:  # a NaN norm fails too
            raise ParameterError(f"state is not normalized: sum |c|^2 = {nrm2}")
        c.flags.writeable = False
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "meta", {} if meta is None else meta)

    def __setattr__(self, name, *value):
        raise AttributeError(f"MoyalPureState is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    @property
    def support(self) -> int:
        """Length of the stored coefficient vector."""
        return self.c.size

    def expect(self, a: MoyalElement):
        """Expectation value sum conj(c_m) c_n a[m, n]: a complex for one element, one
        value per slice of a stack."""
        same_theta(self, a)
        n = min(self.support, a.order)
        ct = self.c[:n]
        value = ct.conj() @ a.coeffs[..., :n, :n] @ ct
        return _per_slice(value)

    def spec_string(self) -> str:
        if self.kind == "basis":
            return f"basis:{self.meta['index']}"
        if self.kind == "zeta":
            return f"zeta:{self.meta['s']}:{self.meta['m_cut']}"
        return f"finite[{self.support}]"


def basis_state(m: int, theta: float) -> MoyalPureState:
    """The m-th diagonal pure state (reads off a[m, m])."""
    if m < 0:
        raise ParameterError(f"basis index must be a natural number, got {m}")
    _check_support(m + 1)
    c = np.zeros(m + 1)
    c[m] = 1.0
    return MoyalPureState(theta, c, "basis", {"index": m})


def zeta_state(s: float, m_cut: int, theta: float) -> MoyalPureState:
    """Truncated power-law state with |c_m|^2 proportional to (m+1)^-s, m <= m_cut.

    Requires a finite s > 1.  The truncation is renormalized by its own sum of
    squares (`_sum_squares`, the partial sum of (m+1)^-s) so the state is exactly
    normalized; the metadata records s and m_cut, which name the state.
    """
    if not (math.isfinite(s) and s > 1):
        raise ParameterError(f"zeta states require a finite s > 1, got {s}")
    if m_cut < 1:
        raise ParameterError(f"m_cut must be at least 1, got {m_cut}")
    _check_support(m_cut + 1)
    c = np.arange(1, m_cut + 2, dtype=float)  # one buffer: (m+1), then ^-s, sqrt, normalize
    c **= -s
    np.sqrt(c, out=c)
    c /= math.sqrt(_sum_squares(c))
    return MoyalPureState(theta, c, "zeta", {"s": s, "m_cut": m_cut})


def finite_state(weights, theta: float) -> MoyalPureState:
    """State from a finite weight vector, float64 if the weights are real, else complex128.
    After an exact power-of-two rescale it multiplies by 1/norm, norm the root of
    `_sum_squares`, as numpy's complex division by a real scalar does: real weights give
    the real part of the state of the same weights as complex, bit for bit."""
    w = np.asarray(weights)
    if w.ndim != 1 or w.size == 0:
        raise ParameterError("weights must be a nonempty 1-d sequence")
    w = np.ascontiguousarray(w, dtype=complex if np.iscomplexobj(w) else float)
    if not np.all(np.isfinite(w)):
        raise ParameterError("weights must be finite")
    e = math.frexp(float(np.max(np.abs(w.view(float)))))[1]  # no over- or underflow below
    c = np.empty_like(w)  # the state's own buffer: the caller's weights are never written
    np.ldexp(w.view(float), -e, out=c.view(float))
    nrm = math.sqrt(_sum_squares(c))
    if nrm == 0.0:
        raise ParameterError("weights must not all vanish")
    c *= 1.0 / nrm
    return MoyalPureState(theta, c, "finite")


def diagonal_difference(s1: MoyalPureState, s2: MoyalPureState) -> np.ndarray:
    """Difference of diagonal weights |c1_m|^2 - |c2_m|^2 on the joint support.

    These are the only data entering the staircase-certificate bound; the
    entries sum to zero since both states are normalized.
    """
    same_theta(s1, s2)
    n = max(s1.support, s2.support)
    d = np.empty(n)
    for lo in range(0, n, SWEEP_BLOCK):  # no temporary as long as the states
        _difference_block(s1, s2, lo, d[lo:lo + SWEEP_BLOCK])
    return d


def _difference_block(s1: MoyalPureState, s2: MoyalPureState, lo: int, d: np.ndarray) -> None:
    """d = |c1_m|^2 - |c2_m|^2 for m = lo, ..., lo + d.size - 1, each state zero past its
    support: the block of diagonal_difference that starts at lo, in the caller's buffer."""
    d[:] = 0.0
    for s, accumulate in ((s1, np.add), (s2, np.subtract)):
        w = np.abs(s.c[lo:lo + d.size])
        w *= w
        accumulate(d[:w.size], w, out=d[:w.size])


def difference_matrix(s1: MoyalPureState, s2: MoyalPureState, n: int) -> np.ndarray:
    """W = conj(c1) c1^T - conj(c2) c2^T, both states zero-padded to n >= their supports,
    so that w1(a) - w2(a) = sum(W * a) for every element a of order n."""
    same_theta(s1, s2)
    c1, c2 = (np.pad(s.c, (0, n - s.support)) for s in (s1, s2))
    return np.outer(c1.conj(), c1) - np.outer(c2.conj(), c2)
