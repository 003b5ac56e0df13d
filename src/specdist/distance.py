"""Spectral-distance estimation between pure states of the truncated plane.

Four independent mechanisms are combined into a bracketed report: the closed
form for diagonal basis states, the radial certificate lower bound of
`probes.radial_gap`, the band-transport upper bound of the rotation symmetry,
and a convex optimizer over truncated self-adjoint elements.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import probes
from .admm import admm_maximize, rescaled_gap
from .algebra import MAX_OPERATOR_ENTRIES, MoyalElement
from .calculus import dz_stencil
from .errors import ParameterError, UnboundedSupportError, same_theta
from .lipschitz import ENTRY_BOUND, commutator_norm
from .report import DistanceReport, OptimizeResult
from .states import SWEEP_BLOCK, MoyalPureState, _check_support, difference_matrix

# optimize_distance runs on Re W when |Im W| <= REAL_KAPPA u M entrywise (u = 2^-53,
# M = |c1||c1|^T + |c2||c2|^T): for states real up to a global phase and rounded part by
# part (2u relative from the spec and the normalization), |Im(conj(c_m) c_n)| <= 4u
# |c_m||c_n|, and the products and the difference of W add at most 3u M; 16 leaves room
REAL_KAPPA = 16


def basis_distance(m: int, n: int, theta: float) -> float:
    """Distance between the m-th and n-th diagonal basis states (closed form).

    Equals sqrt(theta/2) * sum_{k=lo+1}^{hi} 1/sqrt(k); symmetric, zero on the
    diagonal, and additive through intermediate indices.  The sum is math.fsum's, the
    correctly rounded exact sum, taken in blocks of SWEEP_BLOCK: for k <= MAX_SUPPORT =
    2^22 each fl(1/sqrt(k)) is at least 2^-11, so a multiple of 2^-63, and 2^32 times it
    splits exactly into an integer part and a fraction times 2^32, integers of at most
    2^32 that int64 block sums hold exactly; one int division rounds the total.
    """
    if m < 0 or n < 0:
        raise ParameterError("basis indices must be natural numbers")
    lo, hi = min(m, n), max(m, n)
    _check_support(hi + 1)
    total = 0  # the exact sum times 2^64
    for start in range(lo + 1, hi + 1, SWEEP_BLOCK):
        k = np.arange(start, min(start + SWEEP_BLOCK, hi + 1), dtype=float)
        frac, whole = np.modf(2.0 ** 32 / np.sqrt(k))
        frac *= 2.0 ** 32
        total += (int(whole.astype(np.int64).sum()) << 32) + int(frac.astype(np.int64).sum())
    return math.sqrt(2.0 * theta) / 2.0 * (total / 2 ** 64)


def analytic_upper_bound(s1: MoyalPureState, s2: MoyalPureState) -> float:
    """Band-transport upper bound B = sum_{p,q} l[p, q] |T[p, q]| for finitely supported states.

    T[p, q] = sum_{i>=0} W[p+i, q+i] (W = `difference_matrix`) are tail sums along diagonals;
    l[p, q] = sqrt(2 theta)/(sqrt(p) + sqrt(q)), halved on row and column 0, l[0, 0] = 0.
    Proof: the distance is max |sum(W * a)| over self-adjoint a with ||dz a||, ||dzbar a|| <=
    1/sqrt(2).  The rotation action, conjugation by the unitary diag(e^{i m phi}), turns dz and
    dzbar by a phase, so they shift bands by one: for band k of a, x_j = a[j, j+k], the entries
    (sqrt(j+k) x_j - sqrt(j) x_{j-1})/sqrt(theta) of dz a (row j) and (sqrt(j) x_j - sqrt(j+k)
    x_{j-1})/sqrt(theta) of dzbar a (row j-1) see band k only, and are at most 1/sqrt(2).  Row
    0 gives |x_0| <= l[0, k] and their sum |x_j - x_{j-1}| <= l[j, j+k]; by parts sum_j
    W[j, j+k] x_j = x_0 T[0, k] + sum_{j>=1} (x_j - x_{j-1}) T[j, j+k], with T[0, 0] = tr W = 0
    and band -k band k conjugated.  On basis pairs B is the closed form, R of
    `probes.radial_gap`.

    W is hermitian and l symmetric, so band -k adds what band k does: B sums bands k >= 0,
    those with k >= 1 doubled.  The bands come in chunks of about SWEEP_BLOCK entries, as
    skewed views x[p + k] of the zero-padded vectors, so memory is O(n) beside the chunks
    and small supports take one chunk.  Band k's entries past p = n - 1 - k are products
    with padding, zero, so each T along a band is the reverse cumsum of its entries.
    Rounding (u = 2^-53, Higham's bounds): with S the same sums of M = |c1||c1|^T + |c2||c2|^T
    >= |W|, W errs by 4u M, tail sums by (n - 1)u S, l, moduli and products by 8u; each band
    sum has at most n - k <= n terms, so it errs by (n - 1)u, doubling is exact and fsum
    rounds once, together n u.  So B exceeds the computed value by at most (2n + 12)u
    sum(l S); squared norms 1 +- nu move W by 2 nu M; underflow errs by at most
    n^3 2^-1070 (1 + theta).  The returned value adds a term for each of the three.
    """
    theta = same_theta(s1, s2)
    n = max(s1.support, s2.support)
    if "zeta" in (s1.kind, s2.kind) or n * n > MAX_OPERATOR_ENTRIES:  # support 5,478 on
        raise UnboundedSupportError(
            f"analytic upper bound needs finitely supported states with support^2 <= "
            f"{MAX_OPERATOR_ENTRIES:.0e}; got {s1.kind} and {s2.kind} states, support {n}")
    if np.array_equal(s1.c, s2.c):
        return 0.0
    c = [np.pad(st.c, (0, 2 * n - st.support)) for st in (s1, s2)]
    a = [np.abs(x) for x in c]
    root = np.sqrt(np.arange(2 * n, dtype=float))
    sums, k0 = np.empty((2, n)), 0  # sum_p l |T| and sum_p l S along each band k
    while k0 < n:  # bands k0 <= k < k1, in rows of the m = n - k0 entries p < m
        m = n - k0
        k1 = min(n, k0 + max(1, SWEEP_BLOCK // m))
        skew = lambda x: sliding_window_view(x, m)[k0:k1]  # skew(x)[k - k0, p] = x[p + k]
        w = c[0][:m].conj() * skew(c[0]) - c[1][:m].conj() * skew(c[1])
        s = a[0][:m] * skew(a[0]) + a[1][:m] * skew(a[1])
        den = root[:m] + skew(root)
        den[:, 0] *= 2.0
        if k0 == 0:
            den[0, 0] = np.inf
        ell = np.divide(math.sqrt(2.0 * theta), den, out=den)
        for x, out in ((w, sums[0]), (s, sums[1])):
            np.cumsum(x[:, ::-1], axis=1, out=x[:, ::-1])  # x[k - k0, p] = T[p, p + k]
            out[k0:k1] = np.sum(ell * np.abs(x), axis=1)
        k0 = k1
    sums[:, 1:] *= 2.0
    bound, slack = (math.fsum(x) for x in sums)
    nu = max(abs(1.0 - math.fsum(x ** 2)) for x in a)
    return bound + (4 * (n + 8) * 2.0 ** -53 + 2 * nu) * slack + 2.0 ** -1022 * (1.0 + theta)


# ---------------------------------------------------------------------------
# optimizer over truncated self-adjoint elements
# ---------------------------------------------------------------------------

def band_inverses(order: int, theta: float) -> np.ndarray:
    """Inverse Gram blocks of dz on hermitian order x order matrices, one per band.

    Band k (x[i, i+k] for i < n-k, and its conjugate band -k) feeds only bands k+1 and
    1-k of dz(x), so the Frobenius Gram of dz splits into n tridiagonal blocks U_k with
    diagonal (2i+k+1)/theta and off-diagonal -sqrt((i+1)(i+k+1))/theta.  Returns
    out[k, :n-k, :n-k] = U_k^-1, zero elsewhere: a batched Cholesky solve, O(n^3).
    """
    n = order
    i = np.arange(n, dtype=float)
    valid = i < n - i[:, None]
    diag = np.where(valid, 2.0 * i + i[:, None] + 1.0, 1.0)
    sub = np.where(valid & (i > 0), -np.sqrt(i * (i + i[:, None])), 0.0)
    out = np.zeros((n, n, n))
    out[:, np.arange(n), np.arange(n)] = valid
    # Cholesky U_k = L L^T in place: diag[k, j] becomes L[j, j], sub[k, j] becomes
    # L[j, j-1]; sub[:, 0] = 0 makes the wrapped indices at j = 0 and j = n-1 harmless
    for j in range(n):  # out <- L^-1 out
        sub[:, j] /= diag[:, j - 1]
        diag[:, j] = np.sqrt(diag[:, j] - sub[:, j] ** 2)
        out[:, j] = (out[:, j] - sub[:, j, None] * out[:, j - 1]) / diag[:, j, None]
    for j in reversed(range(n)):  # out <- L^-T out
        out[:, j] = (out[:, j] - sub[:, (j + 1) % n, None] * out[:, (j + 1) % n]) / diag[:, j, None]
    out *= theta
    return out


def plane_closures(order: int, theta: float):
    """`admm_maximize`'s (apply, adjoint, solve) for dz on hermitian order x order matrices.

    apply is `calculus.dz_stencil`, dz(x)[m, j] = s(j+1) x[m, j+1] - s(m) x[m-1, j] with
    s(i) = sqrt(i/theta), adjoint its Frobenius adjoint on hermitian matrices (the
    hermitian part of the adjoint on all matrices, so that the ADMM's dual residual
    measures only directions x can take); solve(r) is the hermitian x whose Gram image
    is the hermitian part of r: one batched matmul by `band_inverses`.
    Each keeps its input's dtype, so a real symmetric problem stays real.
    """
    n = order
    s = np.sqrt(np.arange(n + 1) / theta)
    row, neg_col = s[1:n], -s[1:, None]
    k, i = np.divmod(np.arange(n * n), n)
    valid = i < n - k
    # flat indices of x[i, i+k] and x[i+k, i], band by band; past a band's end the
    # gather reads entry 0, which the zero-padded inverses ignore, and the scatter
    # writes a spare last slot
    up, lo = np.where(valid, i * (n + 1) + k, n * n), np.where(valid, (i + k) * n + i, n * n)
    up_in, lo_in = up % (n * n), lo % (n * n)
    # halved (the inverses scale as theta), since solve gathers r plus its adjoint
    half_inv = band_inverses(n, 0.5 * theta)

    def adjoint(y):
        out = neg_col * y[1:, :n]
        out[:, 1:] += row * y[:n, :n - 1]
        out += out.conj().T
        out *= 0.5
        return out

    def solve(r):
        r = r.ravel()
        rhs = (r[up_in] + r[lo_in].conj()).view(float).reshape(n, n, -1)
        xb = np.matmul(half_inv, rhs).view(r.dtype).ravel()
        x = np.empty(n * n + 1, dtype=r.dtype)
        x[up], x[lo] = xb, xb.conj()
        return x[:-1].reshape(n, n)

    return (lambda x: dz_stencil(x, s)), adjoint, solve


def optimize_distance(s1: MoyalPureState, s2: MoyalPureState, order: int,
                      max_iter: int = 100000) -> OptimizeResult:
    """Maximize the evaluation gap over self-adjoint elements of the given order.

    Solves max <w, a> subject to the spectral-norm budget ENTRY_BOUND on the derivative
    with `admm_maximize` over `plane_closures`: O(n^2) stencils and the n
    zero-padded band inverses, n^3 floats, so orders whose cube exceeds
    MAX_OPERATOR_ENTRIES (311 and above) are refused.  Real inputs stay real: when
    W = `difference_matrix` is real to rounding (REAL_KAPPA), the iteration runs on real
    symmetric matrices with Re W, which loses nothing (dz has real weights, so x -> conj(x)
    keeps the constraint and a real objective).  The penalty starts at 1 and is balanced
    against the residuals, since the best fixed one runs from about 1/16 at theta = 0.1
    to 1 at theta = 10.  The best iterate is rescaled by `rescaled_gap` under
    `commutator_norm`.
    """
    theta = same_theta(s1, s2)
    if order < max(s1.support, s2.support) + 2:
        raise ParameterError(
            f"order {order} too small; need at least max state support + 2 "
            f"= {max(s1.support, s2.support) + 2}")
    if order ** 3 > MAX_OPERATOR_ENTRIES:  # from order 311 on
        raise ParameterError(f"order {order} too large: the optimizer's band inverses would "
                             f"exceed {MAX_OPERATOR_ENTRIES:.0e} entries; lower the order")
    n = order
    w = difference_matrix(s1, s2, n)
    if not np.any(w):
        return OptimizeResult(0.0, 0, True, 0.0, n)
    if not math.isfinite(n / theta):  # the stencil's weights sqrt(m/theta), m <= n
        raise ParameterError(f"order {n} over theta {theta} overflows the float range; "
                             "raise theta or lower the order")

    a = np.abs([np.pad(s.c, (0, n - s.support)) for s in (s1, s2)])
    real = np.all(np.abs(w.imag) <= REAL_KAPPA * 2.0 ** -53 * (a.T @ a))
    # initial rho 1, balanced at most 10 times (28 pairs at theta 0.1 to 10 used at most 4)
    best_x, it, converged = admm_maximize(np.ascontiguousarray(w.real) if real else w.conj(),
                                          *plane_closures(n, theta), ENTRY_BOUND,
                                          1.0, max_iter, 10)
    return rescaled_gap(s1, s2, MoyalElement(theta, best_x), commutator_norm, it, converged, n)


# ---------------------------------------------------------------------------
# bracketed reports
# ---------------------------------------------------------------------------

def moyal_report(s1: MoyalPureState, s2: MoyalPureState, order: int = 16,
                 optimize: bool = True, probe: bool = False,
                 max_iter: int = 100000) -> DistanceReport:
    """Assemble a full bracketed report for a pair of states.

    The certificate lower bound is `probes.radial_gap` (O(support), unit norm by
    construction, so no ball check), reported as radial(top index).  Pairs with a
    zeta-type state or a support above 5,477 get no upper bound; with probe=True the
    divergence verdict of probes.divergence_flag on the untruncated states is attached.
    """
    theta = same_theta(s1, s2)
    if order < 1:
        raise ParameterError(f"truncation order must be at least 1, got {order}")
    closed = (basis_distance(s1.meta["index"], s2.meta["index"], theta)
              if s1.kind == s2.kind == "basis" else None)

    try:
        upper = analytic_upper_bound(s1, s2)
    except UnboundedSupportError:
        upper = None

    res = None
    if optimize and order >= max(s1.support, s2.support) + 2:
        res = optimize_distance(s1, s2, order, max_iter=max_iter)

    return DistanceReport.of(
        s1, s2, order, probes.radial_gap(s1, s2),
        f"radial({max(s1.support, s2.support) - 1})", closed, upper, res,
        divergence=(probes.divergence_flag(probes.spec_of_state(s1), probes.spec_of_state(s2))
                    if probe else None))
