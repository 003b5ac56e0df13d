"""Spectral-distance estimation between pure states of the truncated plane.

Four independent mechanisms are combined into a bracketed report: the closed
form for diagonal basis states, certificate lower bounds from feasible
elements, an analytic upper bound from the inversion formula, and a convex
optimizer over truncated self-adjoint elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import probes
from .algebra import MoyalElement, zero
from .calculus import dz, staircase
from .errors import ParameterError, PreconditionError, UnboundedSupportError
from .lipschitz import BallReport, ball_report, commutator_norm, op_norm
from .states import MoyalPureState, difference_matrix

SPECTRAL_RADIUS = 1.0 / math.sqrt(2.0)  # derivative budget of the unit commutator ball
MAX_OPERATOR_ENTRIES = 3e7  # ceiling on an optimizer's dense realified operator (240 MB)
STALL_ITERS = 50  # admm_maximize stops after this many non-improving iterations in a row
STALL_TOL = 1e-8  # relative margin an iterate must clear to count as an improvement
RELAX = 1.7  # ADMM over-relaxation factor


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


class CandidateRejected(ValueError):
    """A certificate candidate failed the Lipschitz-ball check."""

    def __init__(self, label: str, report: BallReport):
        super().__init__(f"candidate {label} is outside the unit ball "
                         f"(commutator norm {report.commutator_norm:.6g})")
        self.label = label
        self.report = report


def certificate_lower_bound(s1: MoyalPureState, s2: MoyalPureState, candidates, labels):
    """Best evaluation gap over feasible candidate elements.

    Every candidate must lie in the unit Lipschitz ball (checked; a failing
    candidate raises CandidateRejected carrying its BallReport).  Returns
    (value, label) for the maximizing candidate; the value is a valid lower
    bound on the spectral distance.
    """
    best, best_label = 0.0, ""
    for a, label in zip(candidates, labels):
        rep = ball_report(a)
        if not rep.member:
            raise CandidateRejected(label, rep)
        gap = abs(s1.expect(a) - s2.expect(a))
        if gap > best or not best_label:
            best, best_label = gap, label
    return best, best_label


def analytic_upper_bound(s1: MoyalPureState, s2: MoyalPureState) -> float:
    """Upper bound on the distance between finitely supported states.

    Off-diagonal coefficients of any ball member are bounded through the
    inversion formula by K[p,q] = sqrt(2 theta) * sum_k 1/(sqrt(p-k)+sqrt(q-k));
    the diagonal part uses the sharper telescoping bound with unit Lipschitz
    steps sqrt(theta/2)/sqrt(j+1).  For basis-state pairs this reproduces the
    closed form exactly.
    """
    if s1.kind == "zeta" or s2.kind == "zeta":
        raise UnboundedSupportError(
            "analytic upper bound is only available for finitely supported states")
    theta = s1.theta
    n = max(s1.support, s2.support)
    w = difference_matrix(s1, s2, n)

    sq = np.sqrt(np.arange(n, dtype=float))
    off = 0.0
    for p in range(n):
        for q in range(n):
            if p == q or w[p, q] == 0:
                continue
            k = np.arange(min(p, q) + 1)
            kpq = math.sqrt(2.0 * theta) * float(np.sum(1.0 / (sq[p - k] + sq[q - k])))
            off += abs(w[p, q]) * kpq

    diag = np.real(np.diag(w))
    tail = np.cumsum(diag[::-1])[::-1]  # tail[j] = sum_{p >= j} w_pp
    bound = off
    for j in range(n - 1):
        bound += math.sqrt(theta / 2.0) / math.sqrt(j + 1.0) * abs(float(tail[j + 1]))
    return float(bound)


# ---------------------------------------------------------------------------
# optimizer over truncated self-adjoint elements
# ---------------------------------------------------------------------------

def clip_spectral(mat: np.ndarray, radius: float) -> np.ndarray:
    """Nearest matrix (in Frobenius norm) with largest singular value <= radius.

    Falls back to an eigendecomposition of the Gram matrix when the LAPACK
    divide-and-conquer SVD fails to converge (a known sporadic failure).
    """
    try:
        u, s, vt = np.linalg.svd(mat)
        return (u * np.minimum(s, radius)) @ vt
    except np.linalg.LinAlgError:
        lam, v = np.linalg.eigh(mat.conj().T @ mat)
        sig = np.sqrt(np.maximum(lam, 0.0))
        factor = np.where(sig > radius, radius / np.where(sig > 0, sig, 1.0), 1.0)
        return mat @ (v * factor) @ v.conj().T


def _hermitian_unpack(x: np.ndarray, n: int) -> np.ndarray:
    """Hermitian matrix from n*n real parameters: the diagonal, then (re, im) pairs of
    the strict upper triangle in row-major order (the order of np.triu_indices)."""
    a = np.diag(x[:n]).astype(complex)
    m, q = np.triu_indices(n, 1)
    a[m, q] = x[n::2] + 1j * x[n + 1::2]
    a[q, m] = x[n::2] - 1j * x[n + 1::2]
    return a


def _objective_vector(w: np.ndarray) -> np.ndarray:
    """Real gradient of x -> sum(W * A(x)) over the hermitian parametrization."""
    n = w.shape[0]
    out = np.empty(n * n)
    out[:n] = np.diag(w).real
    upper = w[np.triu_indices(n, 1)]
    out[n::2] = 2.0 * upper.real
    out[n + 1::2] = -2.0 * upper.imag
    return out


def realified_operator(apply, npar: int):
    """Real matrix of a linear map from npar real parameters to complex matrices, with
    the inverse of its Gram matrix.  Rows hold the real parts, then the imaginary parts,
    of the image's entries in row-major order."""
    e = np.zeros(npar)
    for i in range(npar):
        e[i] = 1.0
        col = apply(e).ravel()
        e[i] = 0.0
        if i == 0:
            # column-major: columns fill contiguously, and the layout fixes the BLAS
            # rounding on d
            d = np.empty((2 * col.size, npar), order="F")
        d[:col.size, i] = col.real
        d[col.size:, i] = col.imag
    return d, np.linalg.inv(d.T @ d)


def admm_maximize(wx, d, gram_inv, side, radius, rho, max_iter):
    """Maximize wx @ x subject to op_norm(D x) <= radius, D x read as a side x side matrix.

    ADMM with over-relaxation RELAX: the splitting variable is D x, projected onto
    the spectral ball by singular-value clipping.  Each iterate is rescaled onto the
    ball and the best rescaled one is kept; the run stops once STALL_ITERS
    iterations in a row fail to improve it by the relative margin STALL_TOL.
    Returns (best x, iterations run, stalled).  Deterministic: starts from zero.
    """
    nz = side * side

    def to_matrix(v):
        return v[:nz].reshape(side, side) + 1j * v[nz:].reshape(side, side)

    x = np.zeros(d.shape[1])
    z = np.zeros(2 * nz)
    u = np.zeros(2 * nz)
    best_val = 0.0
    best_x = x
    stall = 0
    it = 0
    for it in range(1, max_iter + 1):
        x = gram_inv @ (wx / rho + d.T @ (z - u))
        dx = d @ x
        # track the rescaled (always feasible) objective of the current iterate
        sig = op_norm(to_matrix(dx))
        if sig > 0.0:
            scaled = float(wx @ x) * (radius / sig)
            if scaled > best_val * (1.0 + STALL_TOL) or (best_val == 0.0 and scaled > 0.0):
                best_val = scaled
                best_x = x.copy()
                stall = 0
            else:
                stall += 1
        else:
            stall += 1
        if stall >= STALL_ITERS:
            break
        dxr = RELAX * dx + (1.0 - RELAX) * z
        zm = clip_spectral(to_matrix(dxr + u), radius)
        z = np.concatenate([zm.real.ravel(), zm.imag.ravel()])
        u = u + dxr - z
    return best_x, it, stall >= STALL_ITERS


_operator_cache: dict = {}


def _dz_operator(order: int, theta: float):
    """Realified matrix of the dz map on hermitian parameters, plus cached inverse Gram."""
    key = (order, float(theta))
    if key not in _operator_cache:
        _operator_cache[key] = realified_operator(
            lambda e: dz(MoyalElement(theta, _hermitian_unpack(e, order))).coeffs, order * order)
    return _operator_cache[key]


@dataclass(frozen=True)
class OptimizeResult:
    value: float
    certificate: MoyalElement
    iterations: int
    converged: bool
    feasibility_residual: float


def optimize_distance(s1: MoyalPureState, s2: MoyalPureState, order: int,
                      rho: float = 1.0, max_iter: int = 100000) -> OptimizeResult:
    """Maximize the evaluation gap over self-adjoint elements of the given order.

    Solves max <w, a> subject to the spectral-norm budget on the derivative
    with `admm_maximize`.  The returned certificate is rescaled to unit
    commutator norm, so the reported value is a feasible lower bound wherever
    the iteration stops.
    """
    if s1.theta != s2.theta:
        raise ParameterError("states carry different theta")
    if order < max(s1.support, s2.support) + 2:
        raise ParameterError(
            f"order {order} too small; need at least max state support + 2 "
            f"= {max(s1.support, s2.support) + 2}")
    if 2 * (order + 1) ** 2 * order ** 2 > MAX_OPERATOR_ENTRIES:  # from order 62 on
        raise ParameterError(f"order {order} too large: the optimizer's operator would exceed "
                             f"{MAX_OPERATOR_ENTRIES:.0e} entries; lower the order")
    theta = s1.theta
    n = order
    wx = _objective_vector(difference_matrix(s1, s2, n))
    if not np.any(wx):
        return OptimizeResult(0.0, zero(theta, n), 0, True, 0.0)

    d, gram_inv = _dz_operator(n, theta)
    best_x, it, converged = admm_maximize(wx, d, gram_inv, n + 1, SPECTRAL_RADIUS, rho, max_iter)
    a_best = MoyalElement(theta, _hermitian_unpack(best_x, n))
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
        lowers = [self.certificate_lower]
        if self.optimizer_lower is not None:
            lowers.append(self.optimizer_lower)
        return self.analytic_upper - max(lowers)

    def to_dict(self) -> dict:
        return {
            "theta": self.theta,
            "order": self.truncation_order,
            "state_a": self.state_a,
            "state_b": self.state_b,
            "closed_form": self.closed_form,
            "certificate_lower": self.certificate_lower,
            "certificate_id": self.certificate_id,
            "analytic_upper": self.analytic_upper,
            "optimizer_lower": self.optimizer_lower,
            "feasibility_residual": self.feasibility_residual,
            "iterations": self.iterations,
            "converged": self.converged,
            "bracket_width": self.bracket_width,
            "divergence": self.divergence,
        }


def staircase_candidates(k_max: int, theta: float):
    """The staircase family up to index k_max, with labels."""
    elements = [staircase(k, theta) for k in range(k_max + 1)]
    labels = [f"staircase({k})" for k in range(k_max + 1)]
    return elements, labels


def moyal_report(s1: MoyalPureState, s2: MoyalPureState, order: int = 16,
                 optimize: bool = True, probe: bool = False,
                 **optimizer_kwargs) -> DistanceReport:
    """Assemble a full bracketed report for a pair of states.

    The certificate lower bound is `probes.radial_gap` (O(support), unit norm by
    construction, so no ball check), reported as radial(top index).  Pairs with a
    zeta-type state get no upper bound; with probe=True a divergence flag computed
    from the growth of the staircase bound is attached.
    """
    if s1.theta != s2.theta:
        raise ParameterError("states carry different theta")
    if order < 1:
        raise ParameterError(f"truncation order must be at least 1, got {order}")
    theta = s1.theta
    closed = None
    if s1.kind == "basis" and s2.kind == "basis":
        closed = basis_distance(s1.meta["index"], s2.meta["index"], theta)

    try:
        upper = analytic_upper_bound(s1, s2)
    except UnboundedSupportError:
        upper = None

    opt_val = opt_iters = opt_resid = opt_conv = None
    if optimize and order >= max(s1.support, s2.support) + 2:
        res = optimize_distance(s1, s2, order, **optimizer_kwargs)
        opt_val, opt_iters = res.value, res.iterations
        opt_resid, opt_conv = res.feasibility_residual, res.converged

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
        optimizer_lower=opt_val,
        iterations=opt_iters,
        feasibility_residual=opt_resid,
        converged=opt_conv,
        divergence=divergence,
    )
