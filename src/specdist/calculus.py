"""Complex derivations in matrix-basis coordinates, their inversion formula,
and the radial elements that saturate the Lipschitz ball.

The two derivations act on coefficients by first-order recurrences; taking the
output order one larger than the input makes them exact on finitely supported
elements, with no lossy truncation row.
"""

from __future__ import annotations

import numpy as np

from .algebra import MAX_OPERATOR_ENTRIES, MoyalElement, check_theta, radial
from .errors import ParameterError, same_theta


def dz_stencil(x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """dz's recurrence on an n x n coefficient array (or each of a stack along the leading
    axes), written into one (n+1) x (n+1) array: out[m, j] = s[j+1] x[m, j+1] - s[m] x[m-1, j],
    with s[i] = sqrt(i/theta) for i <= n and the entries of x past its edges zero.  The
    output is real when x and s are."""
    n = x.shape[-1]
    out = np.zeros(x.shape[:-2] + (n + 1, n + 1), dtype=np.result_type(x, s))
    np.multiply(x[..., :, 1:], s[1:n], out=out[..., :n, :n - 1])
    out[..., 1:, :n] -= s[1:, None] * x
    return out


def dz(a: MoyalElement) -> MoyalElement:
    """The (d1 - i*d2)/sqrt(2) derivation of a, of order a.order + 1: exact on finite support."""
    s = np.sqrt(np.arange(a.order + 1) / a.theta)
    return MoyalElement(a.theta, dz_stencil(a.coeffs, s))


def dzbar(a: MoyalElement) -> MoyalElement:
    """The (d1 + i*d2)/sqrt(2) derivation of a: dz's recurrence on the transpose, transposed."""
    s = np.sqrt(np.arange(a.order + 1) / a.theta)
    return MoyalElement(a.theta, dz_stencil(a.coeffs.swapaxes(-1, -2), s).swapaxes(-1, -2))


def reconstruct(a00: complex, alpha: MoyalElement, beta: MoyalElement) -> MoyalElement:
    """Invert the two derivations: rebuild a from a00, alpha = dz a and beta = dzbar a.

    a[p, q] = [p == q] a00 + sqrt(theta) * sum_{k=0}^{min(p,q)} f[p-k, q-k], with
    f[i, j] = (alpha[i, j-1] + beta[i-1, j]) / (sqrt(i) + sqrt(j)); entries with a
    negative index contribute zero.  O(n^2): one row recurrence sums the diagonals.  On
    stacks, a00 holds one value per slice (or one for all).
    """
    theta = same_theta(alpha, beta)
    if alpha.coeffs.shape != beta.coeffs.shape:
        raise ParameterError("derivative coefficient arrays have different shapes")
    n = alpha.order
    num = np.zeros(alpha.coeffs.shape, dtype=complex)
    num[..., :, 1:] += alpha.coeffs[..., :, :-1]
    num[..., 1:, :] += beta.coeffs[..., :-1, :]
    sq = np.sqrt(np.arange(n, dtype=float))
    den = sq[:, None] + sq[None, :]
    den[:1, :1] = 1.0  # the (0, 0) corner has no numerator term; skip its 0/0
    out = num / den
    # out[p, q] accumulates f[p-k, q-k] for k = 0..min(p, q)
    for p in range(1, n):
        out[..., p, 1:] += out[..., p - 1, :-1]
    out *= np.sqrt(theta)
    d = np.arange(n)
    out[..., d, d] += np.asarray(a00)[..., None]
    return MoyalElement(theta, out)


def _check_index(n: int, name: str) -> None:
    """Refuse n < 0, or an order n + 1 with entries past MAX_OPERATOR_ENTRIES, before allocating."""
    if n < 0:
        raise ParameterError(f"{name} must be a natural number, got {n}")
    if (n + 1) ** 2 > MAX_OPERATOR_ENTRIES:
        raise ParameterError(f"an element of order {n + 1} is past the cap MAX_OPERATOR_ENTRIES")


def staircase_diagonal(m0: int, theta: float) -> np.ndarray:
    """Diagonal of the staircase, which decreases by one unit Lipschitz step per index.

    Entry p (for p <= m0) is sqrt(theta/2) * sum_{k=p}^{m0} 1/sqrt(k+1).  All derivative
    coefficients of its radial element have modulus 1/sqrt(2), so its Dirac commutator
    norm is exactly 1; it realizes the distance between diagonal basis states.
    """
    check_theta(theta)
    _check_index(m0, "m0")
    inv = 1.0 / np.sqrt(np.arange(m0 + 1, dtype=float) + 1.0)
    return np.sqrt(2.0 * theta) / 2.0 * np.cumsum(inv[::-1])[::-1]


def staircase(m0: int, theta: float) -> MoyalElement:
    """The radial element with diagonal `staircase_diagonal(m0, theta)`."""
    return radial(theta, staircase_diagonal(m0, theta))


def bump_diagonal(n: int, theta: float) -> np.ndarray:
    """Diagonal with the single entry sqrt(theta/2)/sqrt(n+1) at index n.

    Its radial element lies on the boundary of the Lipschitz ball and realizes the
    one-step distance between adjacent basis states.
    """
    check_theta(theta)
    _check_index(n, "index")
    d = np.zeros(n + 1, dtype=complex)
    d[n] = np.sqrt(2.0 * theta) / 2.0 / np.sqrt(n + 1.0)
    return d

