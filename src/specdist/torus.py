"""Weyl-basis algebra of the noncommutative torus, GNS-box operator norms,
and the distance bracket between the tracial state and vector states.

Elements are finitely supported maps from integer pairs to complex Weyl
coefficients.  Left multiplication acts on GNS coefficients as a twisted
convolution; operator norms are evaluated on square index boxes and converge
to the true norm from below as the box grows.  The element algebra (its bicharacter
by cmath), the certificates and the closed form are Python arithmetic; numpy loads only
where a box matrix or the optimizer is built.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from types import MappingProxyType

from .errors import ParameterError, same_theta
from .report import DistanceReport, OptimizeResult

Index = tuple


def bicharacter(m: Index, n: Index, theta: float) -> complex:
    """Commutation phase of two Weyl generators: exp(i pi theta (m1 n2 - m2 n1)).

    Derived from the phase-normalized generator convention and the defining
    exchange relation of the two unitaries; checked against all bicharacter
    identities in the test suite.  The phase has period 2 in theta, so theta
    enters reduced by math.fmod (exact, and the identity for |theta| < 2), which
    keeps pi theta k finite for every finite theta.  cmath.exp gives np.exp's value bit
    for bit on a pinned grid of thetas and |k| <= 2000 (tests/test_torus.py).
    """
    return cmath.exp(1j * math.pi * math.fmod(theta, 2.0) * (m[0] * n[1] - m[1] * n[0]))


class TorusElement:
    """Finitely supported Weyl-coefficient map; zero entries are dropped.  Elements
    compare by identity."""

    __slots__ = ("theta", "terms")

    def __init__(self, theta: float, terms: dict | None = None):
        if not math.isfinite(theta):
            raise ParameterError(f"theta must be finite, got {theta}")
        clean = {}
        for m, c in (terms or {}).items():
            key = (int(m[0]), int(m[1]))
            v = complex(c)
            if v != 0:
                clean[key] = v
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "terms", MappingProxyType(clean))

    def __setattr__(self, name, *value):
        raise AttributeError(f"TorusElement is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    @property
    def support_radius(self) -> int:
        if not self.terms:
            return 0
        return max(max(abs(m[0]), abs(m[1])) for m in self.terms)

    def coefficient(self, m: Index) -> complex:
        return self.terms.get((int(m[0]), int(m[1])), 0.0 + 0.0j)

    def __add__(self, other: "TorusElement") -> "TorusElement":
        theta = same_theta(self, other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0.0) + c
        return TorusElement(theta, out)

    def __sub__(self, other: "TorusElement") -> "TorusElement":
        return self + (-1.0) * other

    def __mul__(self, scalar) -> "TorusElement":
        z = complex(scalar)
        return TorusElement(self.theta, {m: z * c for m, c in self.terms.items()})

    __rmul__ = __mul__


def weyl(theta: float, m: Index, coefficient: complex = 1.0) -> TorusElement:
    """A single Weyl monomial with the given coefficient."""
    return TorusElement(theta, {(int(m[0]), int(m[1])): coefficient})


def product(a: TorusElement, b: TorusElement) -> TorusElement:
    """Twisted convolution of coefficient maps with the bicharacter phase."""
    theta = same_theta(a, b)
    out: dict = {}
    for m, cm in a.terms.items():
        for n, cn in b.terms.items():
            p = (m[0] + n[0], m[1] + n[1])
            out[p] = out.get(p, 0.0) + cm * cn * bicharacter(m, n, theta)
    return TorusElement(theta, out)


def involution(a: TorusElement) -> TorusElement:
    """Adjoint: conjugated coefficients at reflected indices."""
    return TorusElement(a.theta, {(-m[0], -m[1]): c.conjugate() for m, c in a.terms.items()})


def deriv(a: TorusElement) -> TorusElement:
    """Combined canonical derivation d1 + i d2: multiplies each coefficient by
    2i pi (m1 + i m2).  Annihilates the unit direction exactly."""
    return TorusElement(
        a.theta, {m: 2j * math.pi * (m[0] + 1j * m[1]) * c for m, c in a.terms.items()})


def deriv_bar(a: TorusElement) -> TorusElement:
    """Combined canonical derivation d1 - i d2."""
    return TorusElement(
        a.theta, {m: 2j * math.pi * (m[0] - 1j * m[1]) * c for m, c in a.terms.items()})


def trace(a: TorusElement) -> complex:
    """The canonical trace: reads off the coefficient of the unit."""
    return a.coefficient((0, 0))


class TorusState(namedtuple("TorusState", "theta kind m")):
    """Tracial state (kind "tracial"), or the vector state (kind "vector") built from
    (1 + U^M)/sqrt(2)."""

    __slots__ = ()

    def __new__(cls, theta: float, kind: str, m: Index | None = None):
        if not math.isfinite(theta):
            raise ParameterError(f"theta must be finite, got {theta}")
        if kind not in ("tracial", "vector"):
            raise ParameterError(f"unknown torus state kind {kind!r}")
        if kind == "vector":
            if m is None or (m[0], m[1]) == (0, 0):
                raise ParameterError("vector states require a nonzero index pair")
            m = (int(m[0]), int(m[1]))
        return super().__new__(cls, theta, kind, m)

    def expect(self, a: TorusElement) -> complex:
        same_theta(self, a)
        if self.kind == "tracial":
            return trace(a)
        mm = self.m
        return trace(a) + 0.5 * (a.coefficient(mm) + a.coefficient((-mm[0], -mm[1])))

    def spec_string(self) -> str:
        if self.kind == "tracial":
            return "tracial"
        return f"phi:{self.m[0]},{self.m[1]}"


def tracial_state(theta: float) -> TorusState:
    return TorusState(theta, "tracial")


def vector_state(theta: float, m: Index) -> TorusState:
    return TorusState(theta, "vector", (int(m[0]), int(m[1])))


# ---------------------------------------------------------------------------
# operator norms on GNS index boxes
# ---------------------------------------------------------------------------

def box_shifts(ps, theta: float, box_radius: int):
    """Box layout of left multiplication by U^p on [-R, R]^2, for each p of ps in turn:
    (rows, cols, phases, counts), the flat row-major (n1, n2) indices of the entries kept
    in the box, their phases exp(i pi theta (p1 n2 - p2 n1)) and their number per p.
    Each p fills its own twisted diagonal, rows = cols + p1 (2R+1) + p2.  As in
    `bicharacter`, theta enters reduced modulo 2."""
    import numpy as np

    r = box_radius
    side = 2 * r + 1
    n1, n2 = np.indices((side, side)).reshape(2, -1) - r
    p = np.array(ps, dtype=int).reshape(-1, 2)
    keep = (np.abs(n1 + p[:, :1]) <= r) & (np.abs(n2 + p[:, 1:]) <= r)
    which, cols = np.nonzero(keep)
    p1, p2 = p[which, 0], p[which, 1]
    phases = np.exp(1j * np.pi * math.fmod(theta, 2.0) * (p1 * n2[cols] - p2 * n1[cols]))
    return cols + p1 * side + p2, cols, phases, keep.sum(axis=1)


def box_matrix(a: TorusElement, box_radius: int):
    """Matrix of left multiplication restricted to the index box [-R, R]^2.

    Rows reached outside the box are dropped, so the largest singular value
    is nondecreasing in R and never exceeds the true operator norm.
    """
    import numpy as np

    r = int(box_radius)
    if r < a.support_radius + 1:
        raise ParameterError(
            f"box radius {r} undersized for support radius {a.support_radius}")
    size = (2 * r + 1) ** 2
    rows, cols, phases, counts = box_shifts(list(a.terms), a.theta, r)
    t = np.zeros((size, size), dtype=complex)
    t[rows, cols] += np.repeat(list(a.terms.values()), counts) * phases
    return t


def torus_op_norm(a: TorusElement, box_radius: int) -> float:
    """Largest singular value of the box restriction of left multiplication."""
    from .lipschitz import op_norm

    if not a.terms:
        return 0.0
    return op_norm(box_matrix(a, box_radius))


def torus_commutator_norm(a: TorusElement, box_radius: int) -> float:
    """Dirac commutator norm on the given box: max of the two derivation box norms.

    A self-adjoint a (c_-p = conj(c_p)) takes one SVD.  deriv_bar's coefficient at p,
    2i pi (p1 - i p2) c_p, rounds as the conjugate of deriv's at -p; the box keeps U^p's
    entry (n+p, n) exactly when it keeps U^-p's (n, n+p), with phases at opposite angles.
    So box_matrix(deriv_bar(a)) == box_matrix(deriv(a)).conj().T bit for bit, and the
    two norms differ only by the SVD's rounding on the transpose.
    """
    if involution(a).terms == a.terms:
        return torus_op_norm(deriv(a), box_radius)
    return max(torus_op_norm(deriv(a), box_radius), torus_op_norm(deriv_bar(a), box_radius))


def weyl_certificate(m: Index, theta: float) -> TorusElement:
    """The Weyl monomial scaled to unit Dirac commutator norm: c = U^M / (2 pi (m1 + i m2)).

    The norm is exactly 1 in the full algebra, with no box: deriv multiplies the
    coefficient by 2i pi (m1 + i m2) and deriv_bar by 2i pi (m1 - i m2), so
    deriv(c) = i U^M and deriv_bar(c) = i (m1 - i m2)/(m1 + i m2) U^M, unimodular
    multiples of the unitary U^M (U^-M U^M = 1 since the bicharacter of M with -M
    is 1), and left multiplication by a unitary has operator norm 1.
    """
    if (m[0], m[1]) == (0, 0):
        raise ParameterError("certificate index must be nonzero")
    return weyl(theta, m, 1.0 / (2.0 * math.pi * (m[0] + 1j * m[1])))


def coefficient_bound(m: Index) -> float:
    """Bound |a_M| <= 1/(2 pi |m1 + i m2|) satisfied by every unit-ball element."""
    return 1.0 / (2.0 * math.pi * abs(m[0] + 1j * m[1]))


# ---------------------------------------------------------------------------
# distance reports
# ---------------------------------------------------------------------------

def torus_report(s1: TorusState, s2: TorusState, optimize: bool = False,
                 box_radius: int | None = None, max_iter: int = 2000) -> DistanceReport:
    """Bracketed distance report between torus states.

    Two states that read the same coefficients are one functional, closed form 0;
    (vector, tracial) pairs have the closed form 1/(pi^2 |m1 + i m2|); other vector
    pairs get certificate and coefficient-bound brackets.  The certificate
    lower bound is the larger gap of the two Weyl certificates, whose norm is 1 by
    construction, so no box is built.  With optimize, every closed form is reported as
    optimizer_lower with no iteration, and only the remaining vector pairs run the box
    optimizer; the reported order is its box radius, 0 where it does not run.

    Proof of the closed form (Rieffel, Doc. Math. 3 (1998)).  Averaging over the
    subgroup of the dual action that fixes U^M is a contraction that commutes with both
    derivations and fixes the trace and phi_M, so the supremum may be taken over
    self-adjoint f(U^M).  spec(U^M) is the whole circle, so the commutator norm of f(U^M)
    is 2 pi |M| sup|f'| and the constraint is sup|f'| <= 1/(2 pi |M|).  The gap is
    |phi_M(f) - tau(f)| = |Re f^(1)|, f^(1) = (1/2pi) int f(t) e^(-it) dt, and by parts
    |Re f^(1)| = |(1/2pi) int f'(t) sin t dt| <= (1/2pi) int |f'||sin t| dt
    <= 4/(2pi * 2pi |M|) = 1/(pi^2 |M|), which the triangle wave with
    f' = -sign(sin t)/(2 pi |M|) attains.  Its Fejer means sigma_K f(U^M), polynomials in
    U^M, stay in the unit ball (the Fejer kernel is positive, so sup|(sigma_K f)'| <= sup|f'|)
    and have gaps (1 - 1/(K+1))/(pi^2 |M|), so the closed form is also the supremum over
    polynomial elements.
    """
    theta = same_theta(s1, s2)
    ms = [s.m for s in (s1, s2) if s.kind == "vector"]
    # the indices each state reads: {M, -M} for phi_M, none for the trace
    reads = [{s.m, (-s.m[0], -s.m[1])} if s.kind == "vector" else set() for s in (s1, s2)]
    cert_val, cert_id, closed, upper = 0.0, "zero", None, 0.0
    if reads[0] == reads[1]:
        closed = 0.0
    else:
        def gap(m):
            c = weyl_certificate(m, theta)
            return abs(s1.expect(c) - s2.expect(c))

        best = max(ms, key=gap)  # the first of equal gaps
        cert_val, cert_id = gap(best), f"weyl_certificate({best[0]},{best[1]})"
        upper = float(sum(coefficient_bound(m) for m in ms))
        if len(ms) == 1:
            closed = 1.0 / (math.pi ** 2 * abs(ms[0][0] + 1j * ms[0][1]))

    res = None
    if optimize and closed is not None:
        res = OptimizeResult(closed, 0, True, 0.0, 0)
    elif optimize:
        res = optimize_torus_distance(s1, s2, box_radius=box_radius, max_iter=max_iter)

    return DistanceReport(
        theta=theta,
        order=res.order if res else 0,
        state_a=s1.spec_string(),
        state_b=s2.spec_string(),
        certificate_lower=float(cert_val),
        certificate_id=cert_id,
        closed_form=closed,
        analytic_upper=upper,
        optimizer_lower=res and res.value,
        iterations=res and res.iterations,
        feasibility_residual=res and res.feasibility_residual,
        converged=res and res.converged,
    )


# ---------------------------------------------------------------------------
# optimizer over box-truncated self-adjoint elements
# ---------------------------------------------------------------------------

def _hermitian_sites(support_radius: int):
    """One representative per +/- index pair; the origin is omitted because both
    the derivation and every state-difference functional annihilate the unit."""
    s = support_radius
    return [(m1, m2)
            for m1 in range(-s, s + 1) for m2 in range(-s, s + 1)
            if m1 > 0 or (m1 == 0 and m2 > 0)]


def _element_from_params(x, sites, theta: float) -> TorusElement:
    terms: dict = {}
    for p, re, im in zip(sites, x[0::2], x[1::2]):
        terms[p] = re + 1j * im
        terms[(-p[0], -p[1])] = terms[p].conjugate()
    return TorusElement(theta, terms)


def torus_closures(sites, theta: float, box_radius: int):
    """`admm_maximize`'s (apply, adjoint, solve) for the box restriction of `deriv` on the
    realified parameters (re, im) of the hermitian sites.  Site p sets the twisted
    diagonals of p and -p (`box_shifts`), which no other site touches, so the Gram
    matrix is diagonal, 2 (2 pi)^2 (p1^2 + p2^2) (2R+1-|p1|)(2R+1-|p2|) for both
    parameters of site p, and solve divides by it."""
    import numpy as np

    n = len(sites)
    k = np.array([2j * np.pi * (p[0] + 1j * p[1]) for p in sites])  # deriv's factor at p
    rows, cols, phases, counts = box_shifts(sites + [(-p[0], -p[1]) for p in sites],
                                            theta, box_radius)
    size = (2 * box_radius + 1) ** 2
    # the box exceeds the support, so every count is positive, as np.add.reduceat needs
    flat, starts = rows * size + cols, np.cumsum(counts) - counts
    gram = np.repeat(2.0 * np.abs(k) ** 2 * counts[:n], 2)

    def apply(x):  # deriv puts k c_p at site p and -k conj(c_p) at -p
        c = x.view(complex)
        out = np.zeros(size * size, dtype=complex)
        out[flat] = np.repeat(np.concatenate([k * c, -k * c.conj()]), counts) * phases
        return out.reshape(size, size)

    def adjoint(y):
        t = np.add.reduceat(phases * y.ravel()[flat].conj(), starts)
        return (np.conj(k * t[:n]) - k * t[n:]).view(float)

    return apply, adjoint, lambda r: r / gram


def optimize_torus_distance(s1: TorusState, s2: TorusState, box_radius: int | None = None,
                            max_iter: int = 2000) -> OptimizeResult:
    """Maximize the evaluation gap over self-adjoint box-supported elements.

    The plane optimizer's `admm_maximize`, with the spectral constraint on the
    box restriction of the derivation.  Box norms underestimate the true
    operator norm, so `rescaled_gap` rescales the best iterate by the norm on a
    validation box of radius R + 2; reported values converge to true lower
    bounds as the boxes grow.
    """
    import numpy as np

    from .algebra import MAX_OPERATOR_ENTRIES
    from .distance import admm_maximize, rescaled_gap

    theta = same_theta(s1, s2)
    ms = [s.m for s in (s1, s2) if s.kind == "vector"]
    support_radius = 3 * max((max(abs(m[0]), abs(m[1])) for m in ms), default=1)
    if box_radius is None:
        box_radius = 2 * support_radius + 1
    if box_radius < support_radius + 2:
        raise ParameterError(f"box radius {box_radius} is too small for support radius "
                             f"{support_radius}; the smallest accepted box radius is "
                             f"{support_radius + 2}")

    npar = (2 * support_radius + 1) ** 2 - 1  # 2 len(_hermitian_sites), before it is built
    side = 2 * box_radius + 1
    # caps the problem size: nothing of this size is stored, but every iteration takes
    # an SVD of a (2R+1)^2 x (2R+1)^2 box matrix for its norm and a second for its
    # clip.  Those split into the blocks of the box matrix's nonzero pattern, small
    # when the iterates live on a sublattice (M = (1, 0) at box 5: 22 blocks of 5 x 6 or
    # 6 x 5), but iterates spread over the whole lattice can leave one block, and the
    # cap is for that case.
    if npar * 2 * side ** 4 > MAX_OPERATOR_ENTRIES:
        raise ParameterError(
            f"optimizer size guard: support radius {support_radius} with box radius "
            f"{box_radius} gives {npar} parameters on {side * side}x{side * side} box "
            "matrices, past the cap on the SVD work; choose smaller radii")
    sites = _hermitian_sites(support_radius)
    # phi_M - tau reads Re c_M, the real parameter of the site max(M, -M) (lexicographic)
    wx = np.zeros(npar)
    for s, sign in ((s1, 1.0), (s2, -1.0)):
        if s.kind == "vector":
            wx[2 * sites.index(max(s.m, (-s.m[0], -s.m[1])))] += sign
    if not np.any(wx):
        return OptimizeResult(0.0, 0, True, 0.0, box_radius)

    best_x, it, converged = admm_maximize(wx, *torus_closures(sites, theta, box_radius),
                                          1.0, 0.05, max_iter)  # radius 1, rho = 0.05
    return rescaled_gap(s1, s2, _element_from_params(best_x, sites, theta),
                        lambda a: torus_commutator_norm(a, box_radius + 2), it, converged,
                        box_radius)
