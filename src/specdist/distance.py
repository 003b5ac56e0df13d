"""Spectral-distance estimation between pure states of the truncated plane.

Four independent mechanisms are combined into a bracketed report: the closed
form for diagonal basis states, the radial certificate lower bound of
`probes.radial_gap`, the band-transport upper bound of the rotation symmetry,
and a convex optimizer over truncated self-adjoint elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import probes
from .algebra import MoyalElement, zero
from .errors import ParameterError, PreconditionError, UnboundedSupportError
from .lipschitz import commutator_norm, nuclear_norm, op_norm, split_blocks
from .states import MoyalPureState, difference_matrix

SPECTRAL_RADIUS = 1.0 / math.sqrt(2.0)  # derivative budget of the unit commutator ball
MAX_OPERATOR_ENTRIES = 3e7  # ceiling on an optimizer's or upper bound's arrays (240 MB of floats)
STALL_ITERS = 50  # admm_maximize stops after this many non-improving iterations in a row
STALL_TOL = 1e-8  # relative margin an iterate must clear to count as an improvement
RELAX = 1.7  # ADMM over-relaxation factor
# admm_maximize stops once the best value is within GAP_TOL, relative, of its weak-duality
# bound: 1e-4 is ten times finer than the 1e-3 at which perfbench accepts an optimizer
# value, and f12 reaches it after 680 iterations where the stall rule takes 5,915
GAP_TOL = 1e-4
# iterations between two checks of the bound: a check costs a solve, two stencils and
# an SVD, about one iteration's work, and checking every 10th iteration ends a run at
# most 9 iterations after the gap has closed
GAP_EVERY = 10
# admm_maximize skips an iterate's norm when ||dx q|| (1 - NORM_MARGIN), q the unit top
# right singular vector of the last clip, shows it cannot improve; that needs the bound
# to stay below the computed norm.  Exactly, ||dx q|| <= ||dx||.  In floating point the
# computed ||q||, the matvec with its 2-norm, and the backward-stable SVD's largest
# singular value each err by at most O(n^1.5 u) relative to ||dx||: with n <= 1369, the
# side of dx under MAX_OPERATOR_ENTRIES, and u = 1.1e-16, n^1.5 u = 5.6e-12 (the worst
# error measured on the benchmark's optimizer jobs is 1.1e-15).  Rounding is monotone, so
# cx (radius / bound) then rounds to at least cx (radius / norm).  Iterates that do not
# improve fall 1e-9 to 1e-8 below the STALL_TOL bar, so a margin that large would screen
# none of them.
NORM_MARGIN = 1e-10
# `schur_bound` inflates sqrt(||m||_1 ||m||_inf) by SCHUR_MARGIN so that it also bounds the
# SVD's computed largest singular value.  The computed |entries|, their n-term sums, the
# product and the square root err by at most (n + 3) u relative, and the backward-stable
# SVD's value by O(n^1.5 u): 5.6e-12 at n = 1369, as above.
SCHUR_MARGIN = 1e-10


def basis_distance(m: int, n: int, theta: float) -> float:
    """Distance between the m-th and n-th diagonal basis states (closed form).

    Equals sqrt(theta/2) * sum_{k=lo+1}^{hi} 1/sqrt(k); symmetric, zero on the
    diagonal, and additive through intermediate indices.
    """
    if m < 0 or n < 0:
        raise ParameterError("basis indices must be natural numbers")
    lo, hi = min(m, n), max(m, n)
    return math.sqrt(theta / 2.0) * math.fsum(1.0 / math.sqrt(k) for k in range(lo + 1, hi + 1))


def triangle_residual(m: int, p: int, n: int, theta: float) -> float:
    """Residual of the additive decomposition d(m,n) = d(m,p) + d(p,n), m <= p <= n."""
    if not (m <= p <= n):
        raise PreconditionError(f"indices must satisfy m <= p <= n, got {(m, p, n)}")
    return basis_distance(m, n, theta) - basis_distance(m, p, theta) - basis_distance(p, n, theta)


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
    `probes.radial_gap`.  Rounding (u = 2^-53, Higham's bounds): with S the same sums of
    M = |c1||c1|^T + |c2||c2|^T >= |W|, W errs by 4u M, tail sums by (n - 1)u S, l, moduli and
    products by 8u, row sums and fsum by n u, so B exceeds the computed value by at most
    (2n + 12)u sum(l S); squared norms 1 +- nu move W by 2 nu M; underflow errs by at most
    n^3 2^-1070 (1 + theta).  The returned value adds a term for each of the three.
    """
    n = max(s1.support, s2.support)
    if "zeta" in (s1.kind, s2.kind) or n * n > MAX_OPERATOR_ENTRIES:  # support 5,478 on
        raise UnboundedSupportError(
            f"analytic upper bound needs finitely supported states with support^2 <= "
            f"{MAX_OPERATOR_ENTRIES:.0e}; got {s1.kind} and {s2.kind} states, support {n}")
    w = difference_matrix(s1, s2, n)
    if np.array_equal(s1.c, s2.c):
        return 0.0
    a = np.abs([np.pad(s.c, (0, n - s.support)) for s in (s1, s2)])
    m = a.T @ a
    for p in range(n - 2, -1, -1):  # row p becomes the tail sums of its diagonals
        w[p, :-1] += w[p + 1, 1:]
        m[p, :-1] += m[p + 1, 1:]
    den = np.sqrt(np.arange(n, dtype=float))
    den = den[:, None] + den
    den[0], den[:, 0], den[0, 0] = 2.0 * den[0], 2.0 * den[:, 0], np.inf
    ell = np.divide(math.sqrt(2.0 * s1.theta), den, out=den)
    bound, slack = (math.fsum(np.einsum("ij,ij->i", ell, np.abs(x))) for x in (w, m))
    nu = max(abs(1.0 - math.fsum(x ** 2)) for x in a)
    return bound + (4 * (n + 8) * 2.0 ** -53 + 2 * nu) * slack + 2.0 ** -1022 * (1.0 + s1.theta)


# ---------------------------------------------------------------------------
# optimizer over truncated self-adjoint elements
# ---------------------------------------------------------------------------

def schur_bound(mat: np.ndarray) -> float:
    """Upper bound on the largest singular value of mat, exact and as the SVD computes it:
    Schur's sqrt(||mat||_1 ||mat||_inf) (largest column and row sums of |mat|), O(n^2),
    inflated by SCHUR_MARGIN."""
    a = np.abs(mat)
    return math.sqrt(a.sum(axis=0).max() * a.sum(axis=1).max()) * (1.0 + SCHUR_MARGIN)


def _clip_stack(stack: np.ndarray, radius: float):
    """Clip a matrix, or each matrix of a (k, p, q) stack, to largest singular value <= radius.

    Returns (top, v, clipped): the largest singular value(s), unit top right singular
    vector(s), and the clipped matrix or stack, None when no singular value exceeds
    radius.  1x1 matrices are scaled directly.  Falls back to eigendecompositions of the
    Gram matrices when the LAPACK divide-and-conquer SVD fails to converge (a known
    sporadic failure).
    """
    if stack.shape[-2:] == (1, 1):
        top = np.abs(stack[..., 0, 0])
        scale = radius / np.maximum(top, radius)
        return top, np.ones(top.shape + (1,)), stack * scale[..., None, None]
    try:
        u, s, vt = np.linalg.svd(stack, full_matrices=False)
        top, v = s[..., 0], vt[..., 0, :].conj()
        if top.max() <= radius:
            return top, v, None
        return top, v, (u * np.minimum(s, radius)[..., None, :]) @ vt
    except np.linalg.LinAlgError:
        lam, v = np.linalg.eigh(stack.conj().swapaxes(-1, -2) @ stack)
        sig = np.sqrt(np.maximum(lam, 0.0))
        top, v_top = sig[..., -1], v[..., :, -1]
        if top.max() <= radius:
            return top, v_top, None
        factor = np.where(sig > radius, radius / np.where(sig > 0, sig, 1.0), 1.0)
        return top, v_top, stack @ (v * factor[..., None, :]) @ v.conj().swapaxes(-1, -2)


def clip_spectral(mat: np.ndarray, radius: float):
    """Nearest matrix (in Frobenius norm) with largest singular value <= radius.

    Returns (clipped matrix, unit top right singular vector of mat); the clipped matrix
    is mat itself, not a rounded reconstruction, when no singular value exceeds radius.
    The clip acts block by block on `split_blocks`: blocks within the radius keep their
    entries, the others are clipped and scattered back, and the vector is that of the
    block with the largest singular value, embedded in the full space.
    """
    blocks = split_blocks(mat)
    if blocks is None:
        _, q, clipped = _clip_stack(mat, radius)
        return (mat if clipped is None else clipped), q
    q, best, parts = np.zeros(mat.shape[1], dtype=complex), 0.0, []
    for ri, ci, stack in blocks:
        top, v, clipped = _clip_stack(stack, radius)
        j = int(np.argmax(top))
        if top[j] > best:
            best, q[:], cols = top[j], 0.0, ci[j] >= 0
            q[ci[j][cols]] = v[j][cols]
        parts.append((ri, ci, stack if clipped is None
                      else np.where((top > radius)[:, None, None], clipped, stack)))
    if best <= radius:
        return mat, q
    # every nonzero lies in a block: scatter the blocks into zeros, padding into a spare slot
    out = np.zeros(mat.size + 1, dtype=complex)
    for ri, ci, part in parts:
        real = (ri >= 0)[:, :, None] & (ci >= 0)[:, None, :]
        out[np.where(real, ri[:, :, None] * mat.shape[1] + ci[:, None, :], mat.size)] = part
    return out[:-1].reshape(mat.shape), q


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

    apply is the O(n^2) stencil dz(x)[m, j] = s(j+1) x[m, j+1] - s(m) x[m-1, j] with
    s(i) = sqrt(i/theta), adjoint its Frobenius adjoint; solve(r) is the hermitian x
    whose Gram image is the hermitian part of r: one batched matmul by `band_inverses`.
    """
    n = order
    s = np.sqrt(np.arange(n + 1) / theta).astype(complex)  # complex: no casts per call
    row, col, neg_col = s[1:n], s[1:, None], -s[1:, None]
    k, i = np.divmod(np.arange(n * n), n)
    valid = i < n - k
    # flat indices of x[i, i+k] and x[i+k, i], band by band; past a band's end the
    # gather reads entry 0, which the zero-padded inverses ignore, and the scatter
    # writes a spare last slot
    up, lo = np.where(valid, i * (n + 1) + k, n * n), np.where(valid, (i + k) * n + i, n * n)
    up_in, lo_in = up % (n * n), lo % (n * n)
    # halved (the inverses scale as theta), since solve gathers r plus its adjoint
    half_inv = band_inverses(n, 0.5 * theta)

    def apply(x):
        out = np.zeros((n + 1, n + 1), dtype=complex)
        np.multiply(x[:, 1:], row, out=out[:n, :n - 1])
        out[1:, :n] -= col * x
        return out

    def adjoint(y):
        out = neg_col * y[1:, :n]
        out[:, 1:] += row * y[:n, :n - 1]
        return out

    def solve(r):
        r = r.ravel()
        rhs = (r[up_in] + r[lo_in].conj()).view(float).reshape(n, n, 2)
        xb = np.matmul(half_inv, rhs).view(complex).ravel()
        x = np.empty(n * n + 1, dtype=complex)
        x[up], x[lo] = xb, xb.conj()
        return x[:-1].reshape(n, n)

    return apply, adjoint, solve


def admm_maximize(c, apply, adjoint, solve, radius, rho, max_iter):
    """Maximize Re<c, x> subject to op_norm(apply(x)) <= radius.

    ADMM with over-relaxation RELAX: the splitting variable, a complex matrix, is
    projected onto the spectral ball by singular-value clipping; solve inverts the
    Gram of apply and returns a new array, kept without a copy.  Each iterate is
    rescaled onto the ball and the best rescaled one is kept.  The run stops at the
    first of two exits, and reports converged at either:

    - The duality gap: every GAP_EVERY iterations, once the best value is at least
      (1 - GAP_TOL) radius ||Y'||_*, with ||.||_* the sum of the singular values
      (`nuclear_norm`) and Y' = Y + apply(solve(c - adjoint(Y))) the scaled
      multiplier Y = rho u corrected to a dual certificate.  Proof: solve inverts the
      Gram on hermitian elements (on the torus, on the real parameters), so
      Herm(adjoint(apply(solve(r)))) = Herm(r), and Herm(adjoint(Y')) = Herm(c).
      Every x the problem admits is hermitian (real), so Re<c, x> = Re<adjoint(Y'), x>
      = Re<Y', apply(x)> <= ||Y'||_* ||apply(x)|| <= radius ||Y'||_* by von Neumann's
      trace inequality.  The best value is a feasible value, so it is within GAP_TOL of
      the optimum of this problem when the exit is taken.  That bounds the truncated
      problem only, not the distance, so the bound is not reported.  While no clip has
      moved anything, u = 0 and Y' = apply(solve(c)) is computed once.
    - The stall rule: STALL_ITERS iterations in a row fail to improve the best value by
      the relative margin STALL_TOL.  An iterate's norm is an SVD only when needed: the
      top right singular vector q of the last clip gives the lower bound ||apply(x) q||
      for one matrix-vector product, and an iterate whose value rescaled by that bound
      (less NORM_MARGIN) cannot clear the stall bar is counted as a stall without one,
      as is one with Re<c, x> <= 0.  Every decision is the one the exact norm would make.

    The gap exit only adds a stop, so no run is longer than under the stall rule alone.

    The clip is an SVD only when needed too.  Until a clip first moves anything, z = v
    and u = 0, and a v whose `schur_bound` is within the radius is taken as its own
    clip without the SVD: `clip_spectral` would return it unchanged, so the iterates
    are those of an SVD clip every iteration, and the norm screen keeps the last clip's
    q.  The first clip always runs, so the screen has a vector; once a clip has moved
    something the bound is never taken again.  A torus `d` job (M = (1, 1), theta
    0.37, box 7) takes 1 clip SVD instead of 50, a (1, 0) job at box 5 90 instead of
    109; on the benchmark's plane pairs the first or second clip already moves something.
    Returns (best x, iterations run, converged).  Deterministic: starts from zero.
    """
    best_x = np.zeros_like(c)
    z = u = np.zeros_like(apply(best_x))
    q = np.zeros(z.shape[1], dtype=complex)  # no bound before the first clip
    c_rho = c / rho
    best_val, stall, it, idle = 0.0, 0, 0, True  # idle: no clip has moved anything yet
    dual = None  # radius ||Y'||_*, the bound of the gap exit
    for it in range(1, max_iter + 1):
        x = solve(c_rho + adjoint(z - u))
        dx = apply(x)
        # track the rescaled (always feasible) objective of the current iterate
        cx, bar = float(np.vdot(c, x).real), best_val * (1.0 + STALL_TOL)
        lower = math.sqrt(np.vdot(y := dx @ q, y).real) * (1.0 - NORM_MARGIN)
        if cx <= 0.0 or 0.0 < lower and cx * (radius / lower) <= bar:
            stall += 1  # as with the exact norm: cx <= 0 <= bar, or cx (radius / sig) <= bar
        else:
            sig = op_norm(dx)
            scaled = cx * (radius / sig) if sig > 0.0 else 0.0
            if scaled > bar:
                best_val, best_x, stall = scaled, x, 0
            else:
                stall += 1
        if stall >= STALL_ITERS:
            return best_x, it, True
        if it % GAP_EVERY == 0:
            if dual is None or not idle:  # while u = 0, Y' is the same every time
                w = apply(solve(c_rho - adjoint(u)))  # Y' / rho, by linearity, in one array
                w += u
                dual = rho * radius * nuclear_norm(w)
                del w  # not held through the clip, which peaks the memory of an iteration
            if best_val >= dual * (1.0 - GAP_TOL):
                return best_x, it, True
        v = RELAX * dx + (1.0 - RELAX) * z + u
        if idle and it > 1 and schur_bound(v) <= radius:
            z = v  # the clip's own result, and u stays exactly 0
        else:
            z, q = clip_spectral(v, radius)
            idle = idle and z is v
            u = v - z
    return best_x, it, False


@dataclass(frozen=True)
class OptimizeResult:
    value: float
    certificate: MoyalElement
    iterations: int
    converged: bool
    feasibility_residual: float


def optimize_distance(s1: MoyalPureState, s2: MoyalPureState, order: int,
                      max_iter: int = 100000) -> OptimizeResult:
    """Maximize the evaluation gap over self-adjoint elements of the given order.

    Solves max <w, a> subject to the spectral-norm budget on the derivative
    with `admm_maximize` over `plane_closures`: O(n^2) stencils and the n
    zero-padded band inverses, n^3 floats, so orders whose cube exceeds
    MAX_OPERATOR_ENTRIES (311 and above) are refused.  The returned certificate
    is rescaled to unit commutator norm, so the reported value is a feasible
    lower bound wherever the iteration stops.
    """
    if s1.theta != s2.theta:
        raise ParameterError("states carry different theta")
    if order < max(s1.support, s2.support) + 2:
        raise ParameterError(
            f"order {order} too small; need at least max state support + 2 "
            f"= {max(s1.support, s2.support) + 2}")
    if order ** 3 > MAX_OPERATOR_ENTRIES:  # from order 311 on
        raise ParameterError(f"order {order} too large: the optimizer's band inverses would "
                             f"exceed {MAX_OPERATOR_ENTRIES:.0e} entries; lower the order")
    theta = s1.theta
    n = order
    w = difference_matrix(s1, s2, n)
    if not np.any(w):
        return OptimizeResult(0.0, zero(theta, n), 0, True, 0.0)

    best_x, it, converged = admm_maximize(w.conj(), *plane_closures(n, theta),
                                          SPECTRAL_RADIUS, 1.0, max_iter)  # rho = 1
    a_best = MoyalElement(theta, best_x)
    cn = commutator_norm(a_best)
    if cn == 0.0:
        return OptimizeResult(0.0, a_best, it, converged, 0.0)
    cert = (1.0 / cn) * a_best
    value = abs(s1.expect(cert) - s2.expect(cert))
    residual = abs(commutator_norm(cert) - 1.0)
    return OptimizeResult(float(value), cert, it, converged, float(residual))


# ---------------------------------------------------------------------------
# bracketed reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistanceReport:
    """Bracketed distance estimate with the provenance of each bound."""

    theta: float
    truncation_order: int
    state_a: str
    state_b: str
    certificate_lower: float
    certificate_id: str
    closed_form: float | None = None
    analytic_upper: float | None = None
    optimizer_lower: float | None = None
    iterations: int | None = None
    feasibility_residual: float | None = None
    converged: bool | None = None
    divergence: str | None = None

    @property
    def bracket_width(self) -> float | None:
        if self.analytic_upper is None:
            return None
        return self.analytic_upper - max(self.certificate_lower, self.optimizer_lower or 0.0)

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["order"] = d.pop("truncation_order")
        return {**d, "bracket_width": self.bracket_width}


def moyal_report(s1: MoyalPureState, s2: MoyalPureState, order: int = 16,
                 optimize: bool = True, probe: bool = False,
                 max_iter: int = 100000) -> DistanceReport:
    """Assemble a full bracketed report for a pair of states.

    The certificate lower bound is `probes.radial_gap` (O(support), unit norm by
    construction, so no ball check), reported as radial(top index).  Pairs with a
    zeta-type state or a support above 5,477 get no upper bound; with probe=True a
    divergence flag computed from the growth of the staircase bound is attached.
    """
    if s1.theta != s2.theta:
        raise ParameterError("states carry different theta")
    if order < 1:
        raise ParameterError(f"truncation order must be at least 1, got {order}")
    theta = s1.theta
    closed = (basis_distance(s1.meta["index"], s2.meta["index"], theta)
              if s1.kind == s2.kind == "basis" else None)

    try:
        upper = analytic_upper_bound(s1, s2)
    except UnboundedSupportError:
        upper = None

    res = None
    if optimize and order >= max(s1.support, s2.support) + 2:
        res = optimize_distance(s1, s2, order, max_iter=max_iter)

    divergence = None
    if probe and "zeta" in (s1.kind, s2.kind):
        divergence = probes.divergence_flag(probes.spec_of_state(s1), probes.spec_of_state(s2),
                                            theta=theta)

    return DistanceReport(
        theta=theta,
        truncation_order=order,
        state_a=s1.spec_string(),
        state_b=s2.spec_string(),
        certificate_lower=probes.radial_gap(s1, s2),
        certificate_id=f"radial({max(s1.support, s2.support) - 1})",
        closed_form=closed,
        analytic_upper=upper,
        optimizer_lower=res and res.value,
        iterations=res and res.iterations,
        feasibility_residual=res and res.feasibility_residual,
        converged=res and res.converged,
        divergence=divergence,
    )
