"""Riemann zeta values and partial sums by direct summation with an
Euler-Maclaurin tail, accurate to about 1e-12 over the exponents used here."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ParameterError

_DIRECT_TERMS = 100_000


def zeta_tail(s: float, k: int) -> float:
    """sum_{m > k} m^-s via Euler-Maclaurin (four terms; k should be >= ~100)."""
    if s <= 1:
        raise ParameterError(f"zeta tail requires s > 1, got {s}")
    kf = float(k)
    return (
        kf ** (1.0 - s) / (s - 1.0)
        - 0.5 * kf ** (-s)
        + s / 12.0 * kf ** (-s - 1.0)
        - s * (s + 1.0) * (s + 2.0) / 720.0 * kf ** (-s - 3.0)
    )


@lru_cache(maxsize=None)
def zeta(s: float) -> float:
    """Riemann zeta for s > 1."""
    if s <= 1:
        raise ParameterError(f"zeta(s) diverges for s <= 1, got {s}")
    return zeta_partial(s, _DIRECT_TERMS) + zeta_tail(s, _DIRECT_TERMS)


def zeta_partial(s: float, k: int) -> float:
    """sum_{m=1}^{k} m^-s; summed directly up to _DIRECT_TERMS terms, where zeta() stops
    summing, and zeta(s) minus the Euler-Maclaurin tail above, in O(1)."""
    if s <= 1:
        raise ParameterError(f"partial zeta sums are used only for s > 1, got {s}")
    if k <= _DIRECT_TERMS:
        m = np.arange(1, k + 1, dtype=float)
        return float(np.sum((m ** (-s))[::-1]))  # summed smallest-first for accuracy
    return zeta(s) - zeta_tail(s, k)
