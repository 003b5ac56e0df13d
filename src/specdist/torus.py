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

from .errors import Frozen, ParameterError, same_theta
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


class TorusElement(Frozen):
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
        super().__init__(theta=theta, terms=MappingProxyType(clean))

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

    return DistanceReport.of(s1, s2, res.order if res else 0, float(cert_val), cert_id,
                             closed, upper, res)


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


def _lattice(gens):
    """Membership test, for ints or integer arrays p1 and p2, of the subgroup of Z^2 that
    the integer pairs gens span.  Euclid's algorithm on the first coordinates brings it to
    the basis (a1, a2), (0, b2); p is in it when a1 divides p1 and b2 divides
    p2 - (p1 / a1) a2, where 0 divides only 0."""
    a1 = a2 = b2 = 0
    for g1, g2 in gens:
        while g1:
            q = a1 // g1
            a1, a2, g1, g2 = g1, g2, a1 - q * g1, a2 - q * g2
        b2 = math.gcd(b2, g2)

    def divides(d, x):
        return x % d == 0 if d else x == 0

    return lambda p1, p2: divides(a1, p1) & divides(b2, p2 - (p1 // a1 if a1 else 0) * a2)


def _element_from_params(x, sites, theta: float) -> TorusElement:
    """The self-adjoint, half-turn-invariant element with a_p = a_-p = x_i at site i."""
    terms: dict = {}
    for p, c in zip(sites, x):
        terms[p] = terms[(-p[0], -p[1])] = float(c)
    return TorusElement(theta, terms)


def torus_closures(sites, theta: float, box_radius: int):
    """`admm_maximize`'s (apply, adjoint, solve) for the box restriction of `deriv` on one
    real parameter per site p, a_p = a_-p, in the half-turn-folded basis of the box.

    Site p sets the twisted diagonals of p and -p (`box_shifts`), which no other site
    touches, so the Gram matrix is diagonal, 2 (2 pi)^2 (p1^2 + p2^2) (2R+1-|p1|)(2R+1-|p2|)
    at site p, and solve divides by it.  deriv's factor k_p = 2i pi (p1 + i p2) is odd in p
    and a phase is even in (p, n), so the box matrix T satisfies T[-a, -b] = -T[a, b]
    bit for bit: the -p diagonal is the mirror of the p diagonal, negated.

    apply returns T in the orthonormal basis that pairs e_n with e_-n, P = (e_n + e_-n)/sqrt 2
    at the larger flat index of the two and D = (e_n - e_-n)/sqrt 2 at the smaller, with
    e_0 at the centre and every unpaired e_n in place.  The mirror symmetry makes the
    P -> P and D -> D blocks zero, so only the two others are built, each entry from one
    pair of terms: T'[a+, b-] = T[a, b] + T[-a, b] and T'[a-, b+] = T[a, b] - T[-a, b] for
    a, b above the centre, and sqrt 2 T[0, b], sqrt 2 T[a, 0] in e_0's row and column.  The
    basis is orthonormal, so norms, clips and the Gram are those of T.

    The pairing follows the sites: e_n is paired with e_-n where 2n lies in L, the lattice
    spanned by 2p and p - q over the sites p, q.  T joins n only to n + p, and the sites and
    their negatives lie in one coset of L, so the rows of each component of T's nonzero
    pattern lie in one coset of L, and so do its columns: e_n and e_-n can share a
    component only when 2n is in L.  So the fold acts inside each block of T, and the
    clip splits T' into blocks that each lie in one block of T.  Pairing across two blocks
    that the half-turn swaps would keep their sizes here, as only the P -> D and D -> P
    entries are written, but would tie them into one set of basis vectors, which any
    rounding left in a P -> P entry would merge.  adjoint is the transpose of apply on the
    real parameters."""
    import numpy as np

    k = np.array([2j * np.pi * (p[0] + 1j * p[1]) for p in sites])  # deriv's factor at p
    rows, cols, phases, counts = box_shifts(sites, theta, box_radius)
    side = 2 * box_radius + 1
    size, mid = side * side, side * side // 2
    gram = 2.0 * np.abs(k) ** 2 * counts
    # box index i holds n = divmod(i, side) - R, its mirror size - 1 - i holds -n
    i = np.arange(size)
    mirror = size - 1 - i
    hi, lo, sign = np.maximum(i, mirror), np.minimum(i, mirror), np.sign(i - mid)
    p0 = sites[0]
    lattice = _lattice([(2 * p0[0], 2 * p0[1])] + [(p[0] - p0[0], p[1] - p0[1]) for p in sites])
    paired = lattice(*(2 * (np.array(np.divmod(i, side)) - box_radius)))[rows]
    # the p entry w at (rows, cols) stands for the pair of terms w there and -w at the
    # mirror; e_r = (P + sign_r D) / sqrt 2 turns the pair into sign_c w at (P_r, D_c)
    # and sign_r w at (D_r, P_c), with sqrt 2 for the centre's e_0 = P
    scale = np.where(i == mid, np.sqrt(2.0), 1.0)
    both = scale[rows] * scale[cols]
    target = np.concatenate([np.where(paired, hi[rows] * size + lo[cols], rows * size + cols),
                             np.where(paired, lo[rows] * size + hi[cols],
                                      mirror[rows] * size + mirror[cols])])
    factor = np.concatenate([np.where(paired, both * sign[cols], 1.0),
                             np.where(paired, both * sign[rows], -1.0)])
    keep = factor != 0.0  # the centre's zero sign: e_0 has no D part
    param = np.tile(np.repeat(np.arange(len(sites)), counts), 2)[keep]
    target, weight = target[keep], (factor * np.tile(np.repeat(k, counts) * phases, 2))[keep]

    def apply(x):
        out = np.zeros(size * size, dtype=complex)
        np.add.at(out, target, weight * x[param])
        return out.reshape(size, size)

    def adjoint(y):
        return np.bincount(param, (weight * y.ravel()[target].conj()).real, len(sites))

    return apply, adjoint, lambda r: r / gram


def optimize_torus_distance(s1: TorusState, s2: TorusState, box_radius: int | None = None,
                            max_iter: int = 2000) -> OptimizeResult:
    """Maximize the evaluation gap over self-adjoint box-supported elements.

    The plane optimizer's loop, `admm.admm_maximize`, with the spectral constraint on
    the box restriction of the derivation.  Box norms underestimate the true
    operator norm, so `rescaled_gap` rescales the best iterate by the norm on a
    validation box of radius R + 2; reported values converge to true lower
    bounds as the boxes grow.

    The parameters are one real a_p = a_-p per +/- pair of the sites M + L in the support
    box, L = {kM + lN : k + l even} (N = M for the trace, where L = 2MZ).  Proof:

    - The half-turn alpha: U^p -> U^-p is a *-automorphism (the bicharacter of -m, -n is
      that of m, n) with deriv alpha = -alpha deriv, since deriv's factor is odd in p.  The
      box is invariant under n -> -n, so if T is the box matrix of deriv(a), that of
      deriv(alpha(a)) is -J T J for the unitary J e_n = e_-n of the box: alpha keeps the
      box norm of the constraint.  Every state here reads a_M + a_-M or a_0, so
      F alpha = F for the gap F.  The average of a and alpha(a) is then feasible with the
      same value, and the optimum may be taken with a_p = a_-p, real for self-adjoint a.
    - The dual action gamma_t: U^p -> e^{it.p} U^p commutes with deriv and acts on box
      matrices by conjugation with a diagonal unitary, which the clip commutes with.  On
      the group Gamma of the t with e^{it.M} = e^{it.N} = e_t in {1, -1}, F gamma_t = e_t F,
      so the ADMM from zero keeps gamma_t(x) = e_t x for every iterate x: a_p = 0 unless
      e^{it.(p - M)} = 1 on Gamma, that is unless p - M lies in the annihilator of Gamma.
      That annihilator is L, the subgroup generated by M - N and 2N.  For M = aG, N = bG
      with G primitive and g = gcd(a, b), it is 2gGZ when a/g and b/g are both odd and
      gGZ otherwise.

    `torus_closures` folds the box along the half-turn inside each block of the box matrix.
    """
    import numpy as np

    from .algebra import MAX_OPERATOR_ENTRIES
    from .admm import admm_maximize, rescaled_gap

    theta = same_theta(s1, s2)
    ms = [s.m for s in (s1, s2) if s.kind == "vector"]
    support_radius = 3 * max((max(abs(m[0]), abs(m[1])) for m in ms), default=1)
    if box_radius is None:
        box_radius = 2 * support_radius + 1
    if box_radius < support_radius + 2:
        raise ParameterError(f"box radius {box_radius} is too small for support radius "
                             f"{support_radius}; the smallest accepted box radius is "
                             f"{support_radius + 2}")

    side = 2 * box_radius + 1
    # caps the box SVD work: every iteration takes the SVDs of the blocks of a
    # (2R+1)^2 x (2R+1)^2 box matrix for its clip and a second set for its norm, and the
    # blocks grow with the support.  The count (2s+1)^2 - 1, the realified parameters of
    # the whole support box, is taken before any site is built and keeps the boundary
    # the guard has had since it capped a stored operator.
    count = (2 * support_radius + 1) ** 2 - 1
    if count * 2 * side ** 4 > MAX_OPERATOR_ENTRIES:
        raise ParameterError(
            f"optimizer size guard: support radius {support_radius} with box radius "
            f"{box_radius} gives {side * side}x{side * side} box matrices, past the cap on "
            "the SVD work; choose smaller radii")
    if not ms:
        return OptimizeResult(0.0, 0, True, 0.0, box_radius)
    m, n = ms[0], ms[-1]
    reached = _lattice([(m[0] - n[0], m[1] - n[1]), (2 * n[0], 2 * n[1])])
    sites = [p for p in _hermitian_sites(support_radius) if reached(p[0] - m[0], p[1] - m[1])]
    # phi_M - tau reads a_M, the parameter of the site max(M, -M) (lexicographic)
    wx = np.zeros(len(sites))
    for s, sign in ((s1, 1.0), (s2, -1.0)):
        if s.kind == "vector":
            wx[sites.index(max(s.m, (-s.m[0], -s.m[1])))] += sign
    if not np.any(wx):
        return OptimizeResult(0.0, 0, True, 0.0, box_radius)

    best_x, it, converged = admm_maximize(wx, *torus_closures(sites, theta, box_radius),
                                          1.0, 0.05, max_iter)  # radius 1, rho = 0.05
    return rescaled_gap(s1, s2, _element_from_params(best_x, sites, theta),
                        lambda a: torus_commutator_norm(a, box_radius + 2), it, converged,
                        box_radius)
