"""Self-check suites: every algebraic identity and bound the package relies on,
run on seeded random instances.  Used by the CLI `verify` subcommand.

The instances come from `Draws`, which serves the part of numpy.random.Generator the
suites call from the standard library's Mersenne Twister, so a verify job never imports
numpy.random (about 6 MB of RSS); `rand_coeffs` and `rand_element` take either
generator.  Each suite imports lipschitz, states, zeta, probes, torus and distance only
where it runs them, so a job loads and compiles only what its suite checks: the algebra
and calculus suites load algebra and calculus alone.

Each identity is implemented once, as a function that takes an instance's
inputs and returns both sides (lhs, rhs); the suites here and the test suite
call the same functions, each with its own measure and tolerance.  The algebra,
calculus and norm identities take a stack of elements (coefficients of shape
(k, n, n)) as well as one element, and their measures return one deviation per slice:
the algebra, calculus and lipschitz suites (but the radial check, whose draw depends
on a norm) and the distance suite's restriction check draw CHUNK instances at a time,
stack them by theta, each zero-padded to its group's largest order (exact for every
identity checked there), and evaluate each identity once per stack.  Violations are
still recorded in instance order.  Their elements are drawn by `draw_element`, with
`rand_element`'s calls in its order, but kept as the bytes their coefficients are read
from: `_padded` converts a stack's bytes in one array pass (the top 53 bits of each word
over 2^53, lo + (hi - lo) u, read as complex, over sqrt(2)), straight into the padded
stack.  Each step is elementwise, so every coefficient has the bits `rand_element` gives.

Deviations are measured as |x - y| / max(1, |x|, |y|): absolute for small
quantities, relative above magnitude one.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple

import numpy as np

from .algebra import (MoyalElement, _per_slice, inner, integral, involution, radial,
                      sobolev_norm, star)
from .calculus import dz, dzbar, reconstruct, staircase, staircase_diagonal
from .errors import ParameterError

DEFAULT_SEED = 20100324
# Instances the algebra and calculus suites draw before one stacked evaluation.  Nearly
# all of the speed-up comes from stacks of a few dozen; stacking a whole suite holds all
# its drawn instances at once (the algebra job's 1,000 triples: 46 MB RSS against 30).
CHUNK = 50


def deviation(x, y):
    """|x - y| / max(1, |x|, |y|), per instance along any leading axes."""
    return np.abs(x - y) / np.maximum(1.0, np.maximum(np.abs(x), np.abs(y)))


def matrix_deviation(a: np.ndarray, b: np.ndarray):
    """Largest entry of |a - b| over max(1, largest |a|, largest |b|), per matrix along any
    leading axes."""
    top = lambda x: np.max(np.abs(x), axis=(-2, -1))
    return top(a - b) / np.maximum(1.0, np.maximum(top(a), top(b)))


class CheckResult:
    """A check's violations.  worst, not printed, is the largest margin its conditions
    gave: a deviation for `record`, signed (negative inside the bound) for a one-sided
    `flag`; None for a check whose conditions give none."""

    def __init__(self, name: str, instances: int):
        self.name = name
        self.instances = instances
        self.violations = []
        self.worst = None

    @property
    def passed(self) -> bool:
        return not self.violations

    def flag(self, bad: bool, message: str, margin=None) -> None:
        if margin is not None:
            self.worst = float(margin) if self.worst is None else max(self.worst, float(margin))
        if bad:
            self.violations.append(message)

    def record(self, i: int, d: float, tol: float) -> None:
        self.flag(d > tol, f"instance {i}: deviation {d:.3g}", d)


class SuiteResult:
    def __init__(self, name: str, checks: list):
        self.name = name
        self.checks = checks

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary_lines(self):
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            line = f"  [{status}] {self.name}/{c.name} ({c.instances} instances)"
            if c.violations:
                line += f" -- {len(c.violations)} violation(s); first: {c.violations[0]}"
            yield line


class Draws:
    """Seeded draws over random.Random with numpy.random.Generator's uniform, integers
    and standard_normal: a scalar without size, else an array of size draws (of that
    shape, for uniform); integers draws scalars only."""

    def __init__(self, seed: int):
        self._r = random.Random(seed)

    def uniform(self, lo: float, hi: float, size=None):
        if size is None:
            return self._r.uniform(lo, hi)
        n = math.prod(size) if isinstance(size, tuple) else size
        return _uniform(self.randbytes(8 * n), lo, hi).reshape(size)

    def integers(self, lo: int, hi: int):
        return self._r.randrange(lo, hi)

    def standard_normal(self, size=None):
        if size is None:
            return self._r.gauss(0.0, 1.0)
        return np.array([self._r.gauss(0.0, 1.0) for _ in range(size)])

    def randbytes(self, n: int) -> bytes:
        """The next n bytes of the stream; calls for multiples of 4 bytes (whole 32-bit
        words) concatenate into one."""
        return self._r.randbytes(n)


def _uniform(raw: bytes, lo: float, hi: float) -> np.ndarray:
    """lo + (hi - lo) u per 64-bit word of raw, u its top 53 bits times 2^-53: the float
    random.Random.random() reads from the same word."""
    return lo + (hi - lo) * ((np.frombuffer(raw, np.uint64) >> 11) * 2.0 ** -53)


def _disk(u: np.ndarray) -> np.ndarray:
    """Coefficients from uniforms in [-1, 1) of shape (..., 2): both parts read as one
    complex, over sqrt(2)."""
    return u.view(complex)[..., 0] / math.sqrt(2.0)


def rand_coeffs(rng, order: int) -> np.ndarray:
    # entries uniform in the unit disk; both parts in one draw, read as complex
    return _disk(rng.uniform(-1.0, 1.0, (order, order, 2)))


def rand_element(rng, theta: float, max_order: int = 16) -> MoyalElement:
    order = int(rng.integers(2, max_order + 1))
    return MoyalElement(theta, rand_coeffs(rng, order))


# an element as `draw_element` draws it, its coefficients left as the bytes `rand_coeffs`
# reads them from, for `_padded` to convert a whole stack's at once
Drawn = namedtuple("Drawn", "theta order raw")


def draw_element(rng: Draws, theta: float, max_order: int = 16, order=None) -> Drawn:
    """rand_element's draws, or rand_coeffs' at a given order, as a `Drawn`."""
    if order is None:
        order = rng.integers(2, max_order + 1)
    return Drawn(theta, order, rng.randbytes(16 * order * order))


def _padded(theta: float, drawn) -> MoyalElement:
    """The stack of the drawn elements of one theta, each zero-padded to the largest
    order: all their bytes converted in one array pass, written in order into the
    leading order x order block of each slice."""
    orders = np.array([e.order for e in drawn])[:, None, None]
    n = int(orders.max())
    cut = np.arange(n)
    c = np.zeros((len(drawn), n, n), dtype=complex)
    raw = b"".join(e.raw for e in drawn)
    c[(cut[:, None] < orders) & (cut < orders)] = _disk(_uniform(raw, -1.0, 1.0).reshape(-1, 2))
    return MoyalElement(theta, c)


THETAS = (0.5, 1.0, 2.0)


def associativity(a, b, c):
    """(a b) c = a (b c), as coefficient arrays."""
    return star(star(a, b), c).coeffs, star(a, star(b, c)).coeffs


def trace_cyclicity(a, b):
    """integral(a b) = integral(b a)."""
    return integral(star(a, b)), integral(star(b, a))


def involution_antihomomorphism(a, b):
    """(a b)* = b* a*, as coefficient arrays."""
    return involution(star(a, b)).coeffs, star(involution(b), involution(a)).coeffs


def left_multiplication_adjoint(a, b, c):
    """<a, b c> = <b* a, c>."""
    return inner(a, star(b, c)), inner(star(involution(b), a), c)


def leibniz_rule(a, b):
    """dz(a b) = dz(a) b + a dz(b), at the order of dz(a b)."""
    lhs = dz(star(a, b)).coeffs
    n = lhs.shape[-1]
    return lhs, (star(dz(a).pad(n), b.pad(n)).coeffs + star(a.pad(n), dz(b).pad(n)).coeffs)


def reconstruction_roundtrip(a):
    """reconstruct(a00, dz a, dzbar a) = a, padded to the derivative order."""
    back = reconstruct(a.coeffs[..., 0, 0], dz(a), dzbar(a))
    return back.coeffs, a.pad(back.order).coeffs


def derivative_conjugation(a):
    """dz(a)^dagger = dzbar(a*)."""
    return dz(a).coeffs.conj().swapaxes(-1, -2), dzbar(involution(a)).coeffs


def radial_derivative_band(theta, diag):
    """dz of a radial element equals its own subdiagonal."""
    al = dz(radial(theta, diag)).coeffs
    return al, np.diag(np.diag(al, -1), -1)


def self_adjoint_norm_symmetry(a):
    """||dz s|| = ||dzbar s|| for the self-adjoint part s = (a + a*)/2."""
    from .lipschitz import op_norm

    sa = 0.5 * (a + involution(a))
    return tuple(op_norm(np.stack([dz(sa).coeffs, dzbar(sa).coeffs])))  # one split for both


def _scaled(a, factor):
    """factor * a, one factor per slice along a stack's leading axes, as `factor * a`."""
    return MoyalElement(a.theta, a.coeffs * np.asarray(factor)[..., None, None])


def ball_entry_bound(a):
    """Largest derivative entry of a at unit commutator norm <= ENTRY_BOUND (0 for a = 0)."""
    from .lipschitz import ENTRY_BOUND, commutator_norm

    cn = np.asarray(commutator_norm(a))
    a = _scaled(a, np.divide(1.0, cn, out=np.zeros_like(cn), where=cn != 0))
    worst = np.maximum(*(np.max(np.abs(d(a).coeffs), axis=(-2, -1)) for d in (dz, dzbar)))
    return _per_slice(worst), ENTRY_BOUND


def radial_membership_agreement(theta, diag, rng):
    """(ball_report's membership, radial_ball_report) = (membership from dense SVDs of both
    derivatives, ball_report), on the radial element rescaled by a factor drawn from
    [0.5, 1.5] over its commutator norm."""
    from .lipschitz import ball_report, commutator_norm, radial_ball_report

    a = radial(theta, diag)
    cn = commutator_norm(a)
    if cn > 0:
        a = (rng.uniform(0.5, 1.5) / cn) * a
    top = np.linalg.svd([dz(a).coeffs, dzbar(a).coeffs], compute_uv=False)[:, 0].max()
    dense = ball_report(a)
    return ((dense.member, radial_ball_report(theta, np.diag(a.coeffs))),
            (bool(np.sqrt(2.0) * top <= 1.0 + 1e-9), dense))


def submultiplicativity(a, b):
    """||a b|| <= ||a|| ||b|| for the operator norm."""
    from .lipschitz import op_norm

    n = max(a.order, b.order)
    ab, na, nb = op_norm(np.stack([star(a, b).coeffs, a.pad(n).coeffs, b.pad(n).coeffs]))
    return ab, na * nb


def basis_pair_saturation(m, n, theta):
    """The radial certificate and the analytic upper bound of basis states m > n both
    equal the closed form: returns ((certificate, upper), closed form)."""
    from . import probes
    from .distance import analytic_upper_bound, basis_distance
    from .states import basis_state

    s1, s2 = basis_state(m, theta), basis_state(n, theta)
    return (probes.radial_gap(s1, s2), analytic_upper_bound(s1, s2)), basis_distance(m, n, theta)


def staircase_cross_path(m0, s1, s2):
    """Staircase gap from dense expectation values = probes.staircase_gap.  The element is
    staircase(m0, theta) cut to the larger support, the block that expect reads."""
    from . import probes

    el = radial(s1.theta, staircase_diagonal(m0, s1.theta)[:max(s1.support, s2.support)])
    return abs(s1.expect(el) - s2.expect(el)), probes.staircase_gap(m0, s1, s2)


def radial_cross_path(s1, s2):
    """(Expectation gap, ball_report commutator norm) of the radial element built from
    probes.radial_steps = (probes.radial_gap, 1)."""
    from . import probes
    from .lipschitz import ball_report
    from .states import diagonal_difference

    steps = probes.radial_steps(diagonal_difference(s1, s2))
    el = radial(s1.theta, math.sqrt(2.0 * s1.theta) / 2.0 * np.cumsum(steps[::-1])[::-1])
    lhs = np.array([abs(s1.expect(el) - s2.expect(el)), ball_report(el).commutator_norm])
    return lhs, np.array([probes.radial_gap(s1, s2), 1.0])


def bicharacter_identities(m, n, p, theta):
    """With s the bicharacter, in this order: s(m+n, p) = s(m, p) s(n, p),
    s(m, n+p) = s(m, n) s(m, p), s(m, m) = 1, s(m, -m) = 1, |s(m, n)| = 1."""
    from . import torus

    s = lambda x, y: torus.bicharacter(x, y, theta)
    lhs = np.array([s((m[0] + n[0], m[1] + n[1]), p), s(m, (n[0] + p[0], n[1] + p[1])),
                    s(m, m), s(m, (-m[0], -m[1])), abs(s(m, n))])
    return lhs, np.array([s(m, p) * s(n, p), s(m, n) * s(m, p), 1.0, 1.0, 1.0])


def weyl_certificate_gap(m, theta):
    """Gap of the unit-norm Weyl certificate between phi_M and the trace, against the
    coefficient bound; the gap is provably half that bound."""
    from . import torus

    cert = torus.weyl_certificate(m, theta)
    gap = abs(torus.vector_state(theta, m).expect(cert) - torus.tracial_state(theta).expect(cert))
    return gap, torus.coefficient_bound(m)


def _stacked(count, draw, evaluate):
    """Yield (i, row) for i < count in order, row = evaluate's values for instance i.

    The instances draw(i), tuples whose first entry is a `Drawn` element, are drawn CHUNK
    at a time in order; each chunk's instances of one theta are stacked argument by
    argument, elements by `_padded` and any other argument (a number, or an array of one
    shape) as one array, and evaluate(*stacks) returns one row per slice.
    """
    for start in range(0, count, CHUNK):
        chunk = [draw(i) for i in range(start, min(start + CHUNK, count))]
        groups = {}
        for k, args in enumerate(chunk):
            groups.setdefault(args[0].theta, []).append(k)
        rows = [None] * len(chunk)
        for theta, idx in groups.items():
            stacks = [_padded(theta, arg) if isinstance(arg[0], Drawn) else np.array(arg)
                      for arg in zip(*(chunk[k] for k in idx))]
            for k, row in zip(idx, evaluate(*stacks)):
                rows[k] = row
        yield from enumerate(rows, start)


def _elements(rng, count, max_order=12):
    """draw(i) for `_stacked`: count elements of theta THETAS[i % 3] and order <= max_order."""
    return lambda i: tuple(draw_element(rng, THETAS[i % 3], max_order) for _ in range(count))


def algebra_suite() -> SuiteResult:
    rng = Draws(DEFAULT_SEED)
    tol = 1e-12
    assoc = CheckResult("associativity", 1000)
    cyclic = CheckResult("trace_cyclicity", 1000)
    antihom = CheckResult("involution_antihomomorphism", 1000)
    adjoint = CheckResult("left_multiplication_adjoint", 1000)
    checks = (assoc, cyclic, antihom, adjoint)

    def evaluate(a, b, c):
        return np.stack([matrix_deviation(*associativity(a, b, c)),
                         deviation(*trace_cyclicity(a, b)),
                         matrix_deviation(*involution_antihomomorphism(a, b)),
                         deviation(*left_multiplication_adjoint(a, b, c))], axis=-1)

    triple = lambda i: tuple(draw_element(rng, THETAS[i % 3]) for _ in range(3))
    for i, row in _stacked(1000, triple, evaluate):
        for check, d in zip(checks, row):
            check.record(i, d, tol)

    mono = CheckResult("weighted_norm_monotonicity", 300)
    pairs = [((0.0, 0.0), (1.0, 0.0)), ((0.0, 0.0), (0.0, 1.0)), ((1.0, 1.0), (2.0, 2.0)),
             ((0.5, 0.25), (1.5, 0.25)), ((0.0, 0.0), (2.0, 2.0))]
    # termwise monotone only when theta*(m+1/2) >= 1 for every index,
    # i.e. theta >= 2; smaller theta has corner counterexamples
    single = lambda i: (draw_element(rng, (2.0, 3.0, 4.0)[i % 3], 12),)
    above = lambda a: np.stack([sobolev_norm(a, u, v) > sobolev_norm(a, s, t) * (1.0 + 1e-12)
                                for (u, v), (s, t) in pairs], axis=-1)
    for i, row in _stacked(300, single, above):
        for ((u, v), (s, t)), bad in zip(pairs, row):
            mono.flag(bad, f"instance {i}: ({u},{v}) vs ({s},{t})")
    return SuiteResult("algebra", [assoc, cyclic, antihom, adjoint, mono])


def calculus_suite() -> SuiteResult:
    rng = Draws(DEFAULT_SEED + 1)
    tol = 1e-12

    leibniz = CheckResult("leibniz_rule", 300)
    for i, d in _stacked(300, _elements(rng, 2),
                         lambda a, b: matrix_deviation(*leibniz_rule(a, b))):
        leibniz.record(i, d, tol)

    roundtrip = CheckResult("reconstruction_roundtrip", 500)
    for i, d in _stacked(500, _elements(rng, 1),
                         lambda a: matrix_deviation(*reconstruction_roundtrip(a))):
        roundtrip.record(i, d, tol)

    conj = CheckResult("derivative_conjugation", 300)
    for i, d in _stacked(300, _elements(rng, 1),
                         lambda a: matrix_deviation(*derivative_conjugation(a))):
        conj.record(i, d, tol)

    radial_structure = CheckResult("radial_derivative_band", 200)
    for i in range(200):
        diag = rng.uniform(-1, 1, int(rng.integers(2, 12)))
        al, band = radial_derivative_band(THETAS[i % 3], diag)
        radial_structure.flag(np.max(np.abs(al - band)) > 0, f"instance {i}")
    return SuiteResult("calculus", [leibniz, roundtrip, conj, radial_structure])


def lipschitz_suite() -> SuiteResult:
    from .lipschitz import ENTRY_BOUND, op_norm

    rng = Draws(DEFAULT_SEED + 2)
    sqrt2 = CheckResult("self_adjoint_norm_symmetry", 200)
    for i, d in _stacked(200, _elements(rng, 1),
                         lambda a: deviation(*self_adjoint_norm_symmetry(a))):
        sqrt2.record(i, d, 1e-12)

    entries = CheckResult("ball_entry_bound", 500)
    for i, worst in _stacked(500, _elements(rng, 1), lambda a: ball_entry_bound(a)[0]):
        entries.flag(worst > ENTRY_BOUND + 1e-9, f"instance {i}: entry {worst:.12f}",
                     worst - ENTRY_BOUND)

    agreement = CheckResult("radial_membership_agreement", 200)
    for i in range(200):
        diag = rng.uniform(-1, 1, int(rng.integers(2, 12)))
        lhs, rhs = radial_membership_agreement(THETAS[i % 3], diag, rng)
        agreement.flag(lhs != rhs, f"instance {i}")

    submult = CheckResult("operator_norm_submultiplicative", 300)
    for i, (lhs, rhs) in _stacked(300, _elements(rng, 2),
                                  lambda a, b: np.stack(submultiplicativity(a, b), axis=-1)):
        submult.flag(lhs > rhs * (1.0 + 1e-12), f"instance {i}: {lhs} > {rhs}", lhs / rhs - 1.0)

    def ratio(i):
        """Instance i and its best ratio ||a phi|| / ||phi|| over 20 phi, drawn as one array
        (the draws of 20 rand_coeffs calls)."""
        a = draw_element(rng, THETAS[i % 3], order=8)
        phis = _disk(rng.uniform(-1.0, 1.0, (20, 8, 8, 2)))
        return a, np.max(np.linalg.norm(_padded(a.theta, [a]).coeffs @ phis, axis=(-2, -1))
                         / np.linalg.norm(phis, axis=(-2, -1)))

    def exactness(a, best):
        """(norm, best, the ratio of the top right singular vector) per instance."""
        top = np.linalg.svd(a.coeffs)[2][..., :1, :].conj().swapaxes(-1, -2)
        achieved = (np.linalg.norm(a.coeffs @ top, axis=(-2, -1))
                    / np.linalg.norm(top, axis=(-2, -1)))
        return np.stack([op_norm(a.coeffs), best, achieved], axis=-1)

    exact = CheckResult("left_multiplication_norm_exactness", 100)
    for i, (nrm, best, achieved) in _stacked(100, ratio, exactness):
        exact.flag(best > nrm * (1.0 + 1e-12), f"instance {i}: ratio {best} exceeds norm {nrm}",
                   best / nrm - 1.0)
        d = deviation(achieved, nrm)
        exact.flag(d > 1e-10, f"instance {i}: top vector ratio {achieved} vs {nrm}", d)
    return SuiteResult("lipschitz", [sqrt2, entries, agreement, submult, exact])


def states_suite() -> SuiteResult:
    from .states import basis_state, diagonal_difference, finite_state, zeta_state
    from .zeta import zeta, zeta_partial

    rng = Draws(DEFAULT_SEED + 3)
    norm = CheckResult("normalization", 150)
    positive = CheckResult("positivity_on_staircase", 150)
    zero_sum = CheckResult("difference_sums_to_zero", 150)
    for i in range(150):
        theta = THETAS[i % 3]
        if i % 3 == 0:
            st = basis_state(int(rng.integers(0, 12)), theta)
        elif i % 3 == 1:
            st = zeta_state(float(rng.uniform(1.05, 3.0)), int(rng.integers(10, 200)), theta)
        else:
            size = int(rng.integers(1, 12))
            w = rng.standard_normal(size) + 1j * rng.standard_normal(size)
            st = finite_state(w, theta)
        total = float(np.sum(np.abs(st.c) ** 2))
        norm.flag(abs(total - 1.0) > 1e-12, f"instance {i}: sum {total}")
        val = st.expect(staircase(12, theta))
        positive.flag(val.real < -1e-13 or abs(val.imag) > 1e-13, f"instance {i}: value {val}")
        other = basis_state(int(rng.integers(0, 12)), theta)
        zero_sum.flag(abs(float(np.sum(diagonal_difference(st, other)))) > 1e-12, f"instance {i}")

    tail = CheckResult("partial_sum_ratio", 1)
    ratio = zeta_partial(1.5, 40001) / zeta(1.5)
    tail.flag(not ratio >= 0.99, f"ratio {ratio}")
    return SuiteResult("states", [norm, positive, zero_sum, tail])


def distance_suite() -> SuiteResult:
    from . import probes
    from .distance import analytic_upper_bound, optimize_distance
    from .lipschitz import commutator_norm
    from .states import basis_state, finite_state

    rng = Draws(DEFAULT_SEED + 4)
    saturation = CheckResult("basis_pair_saturation", 0)
    for theta in THETAS:
        for n in range(0, 4):
            for m in range(n + 1, 5):
                saturation.instances += 1
                (cert, upper), closed = basis_pair_saturation(m, n, theta)
                saturation.flag(abs(cert - closed) > 1e-12 or abs(upper - closed) > 1e-12,
                                f"(m={m}, n={n}, theta={theta}): cert {cert}, closed {closed}, "
                                f"upper {upper}")

    # optimizer checks at a small order; the solver carries its own tolerance,
    # so the lower-bound chain is asserted with explicit solver slack
    bracket = CheckResult("bracketing", 3)
    feasible = CheckResult("optimizer_feasibility", 3)
    monotone = CheckResult("optimizer_monotone_in_order", 1)
    solver_slack = 1e-6
    cases = [
        (basis_state(0, 1.0), basis_state(1, 1.0)),
        (basis_state(0, 2.0), finite_state([1.0, 1.0], 2.0)),
        (finite_state([1.0, 0.5, 0.25], 0.5), basis_state(2, 0.5)),
    ]
    at_order_10 = []
    for i, (s1, s2) in enumerate(cases):
        cert = probes.radial_gap(s1, s2)
        upper = analytic_upper_bound(s1, s2)
        res = optimize_distance(s1, s2, order=10)
        at_order_10.append(res.value)
        feasible.flag(res.feasibility_residual > 1e-9,
                      f"case {i}: residual {res.feasibility_residual:.3g}")
        ok = (cert <= upper + 1e-9 and res.value <= upper + 1e-9
              and res.value >= cert - solver_slack - solver_slack * cert)
        bracket.flag(not ok, f"case {i}: cert {cert}, optimizer {res.value}, upper {upper}")
    # the optimizer is deterministic: case 1 at order 10 is the run above
    vals = [optimize_distance(cases[1][0], cases[1][1], order=k).value for k in (6, 8)]
    vals.append(at_order_10[1])
    monotone.flag(not (vals[0] <= vals[1] + 1e-6 and vals[1] <= vals[2] + 1e-6), f"values {vals}")

    phase = CheckResult("global_phase_invariance", 20)
    for i in range(20):
        theta = THETAS[i % 3]
        w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        s1 = finite_state(w, theta)
        s2 = basis_state(int(rng.integers(0, 4)), theta)
        s1p = finite_state(w * np.exp(1j * rng.uniform(0, 2 * np.pi)), theta)
        c1, c2 = (probes.radial_gap(s, s2) for s in (s1, s1p))
        u1, u2 = (analytic_upper_bound(s, s2) for s in (s1, s1p))
        phase.flag(abs(c1 - c2) > 1e-12 or abs(u1 - u2) > 1e-12, f"instance {i}")

    def restriction(a, index, w):
        """(g != 0, norm of b, |g|, Re of b's gap) per instance: g is the gap of a at unit
        norm between basis_state(index) and finite_state(w), b the self-adjoint part of
        that element times the phase of g.  Each instance's states read its own slice."""
        a = _scaled(a, 1.0 / commutator_norm(a))
        pairs = [(basis_state(int(m), a.theta), finite_state(v, a.theta)) for m, v in zip(index, w)]

        def gaps(x):
            slices = (MoyalElement(x.theta, c) for c in x.coeffs)
            return np.array([s1.expect(e) - s2.expect(e) for (s1, s2), e in zip(pairs, slices)])

        g = gaps(a)
        rotated = _scaled(a, [abs(x) / x if x else 0j for x in g.tolist()])
        b = 0.5 * (rotated + involution(rotated))
        return np.stack([g != 0, commutator_norm(b), np.abs(g), gaps(b).real], axis=-1)

    # the index and weights were drawn after checking that the element's norm is nonzero,
    # which holds for every drawn element: drawing them with it draws the same instances
    symmetrize = CheckResult("self_adjoint_restriction_lossless", 100)
    draw = lambda i: (draw_element(rng, THETAS[i % 3], 8), rng.integers(0, 6),
                      rng.standard_normal(5) + 1j * rng.standard_normal(5))
    for i, (live, norm_b, abs_g, gb) in _stacked(100, draw, restriction):
        if live:
            symmetrize.flag(norm_b > 1.0 + 1e-9, f"instance {i}: symmetrized norm", norm_b - 1.0)
            symmetrize.flag(gb < abs_g - 1e-12, f"instance {i}: {gb} < {abs_g}", abs_g - gb)
    return SuiteResult("distance",
                       [saturation, bracket, feasible, monotone, phase, symmetrize])


def probes_suite() -> SuiteResult:
    from . import probes
    from .states import basis_state, finite_state, zeta_state
    from .zeta import zeta

    rng = Draws(DEFAULT_SEED + 5)
    consistency = CheckResult("certificate_gap_cross_path", 12)
    radial_path = CheckResult("radial_certificate_cross_path", 12)
    for i in range(12):
        theta = THETAS[i % 3]
        m0 = (10, 100, 1000)[i % 3]
        w = rng.uniform(0.1, 1.0, int(rng.integers(1, 40)))
        s1 = finite_state(w, theta)
        s2 = zeta_state(1.5, 50, theta) if i % 2 else basis_state(int(rng.integers(0, 20)), theta)
        direct, fast = staircase_cross_path(m0, s1, s2)
        consistency.flag(abs(direct - fast) > 1e-10, f"instance {i}: {direct} vs {fast}")
        lhs, rhs = radial_cross_path(s1, s2)
        radial_path.record(i, float(np.max(np.abs(lhs - rhs))), 1e-12)

    growth = CheckResult("monotone_divergence", 1)
    grid = probes.default_grid(1e2, 1e6, 16)
    b = probes.probe_series(probes.ProbeSpec("basis", index=0),
                            probes.ProbeSpec("zeta", s=1.2), grid)
    growth.flag(not (all(np.diff(b[len(b) // 2:]) > 0) and b[-1] > 10.0 * b[0]),
                f"series head {b[:3]} tail {b[-3:]}")

    estimates = CheckResult("inequality_families", 1)
    estimates.violations.extend(probes.estimate_checks())

    crossover = CheckResult("weight_gap_crossover", 6)
    for (s1v, s2v) in [(1.1, 1.3), (1.1, 1.4), (1.2, 1.5), (1.01, 1.25), (1.3, 1.5), (1.05, 1.1)]:
        m = probes.crossover_index(s1v, s2v)
        if not (probes.zeta_weight_gap(m, s1v, s2v) <= 0.0 < probes.zeta_weight_gap(m + 1, s1v, s2v)):
            crossover.violations.append(f"({s1v},{s2v}): M={m}")
        plus, minus = probes.crossover_mass(s1v, s2v)
        crossover.flag(plus <= 0 or deviation(plus, minus) > 1e-9,
                       f"({s1v},{s2v}): masses {plus} vs {minus}")

    # (5/4, 3/2), whose bound's two-term expansion cancels at leading order, is divergent,
    # and its exact-normalization tail T_k = P(3/2, k) - P(5/4, k), P(s, k) = sum_{m<=k}
    # m^-s / zeta(s), is positive for k = 1..1e5 (computed in place in two arrays)
    critical = CheckResult("cancelling_pair_flagged_divergent", 1)
    flag = probes.divergence_flag(probes.ProbeSpec("zeta", s=1.25),
                                  probes.ProbeSpec("zeta", s=1.5))
    tail, minus = (np.arange(1.0, 1e5 + 1.0) for _ in range(2))
    for x, s in ((tail, 1.5), (minus, 1.25)):
        np.cumsum(np.power(x, -s, out=x), out=x)
        x /= zeta(s)
    tail -= minus
    critical.flag(flag != "divergent" or tail.min() <= 0.0,
                  f"flag {flag!r}, least tail {tail.min()} at k = {tail.argmin() + 1}")
    return SuiteResult("probes", [consistency, radial_path, growth, estimates, crossover, critical])


def torus_suite() -> SuiteResult:
    from . import torus

    rng = Draws(DEFAULT_SEED + 6)
    thetas = (0.0, 0.25, 1.0 / 3.0, 0.37, np.sqrt(2.0) - 1.0, 0.9)
    # a lattice index as Python ints, one scalar draw per component
    index = lambda lo, hi: (rng.integers(lo, hi), rng.integers(lo, hi))

    bichar = CheckResult("bicharacter_identities", 1000)
    for i in range(1000):
        theta = thetas[i % len(thetas)]
        m, n, p = (index(-20, 21) for _ in range(3))
        lhs, rhs = bicharacter_identities(m, n, p, theta)
        bichar.record(i, float(np.max(np.abs(lhs - rhs))), 1e-12)

    def rand_torus(theta, radius=3, nterms=4):
        terms = {}
        for _ in range(nterms):
            m = index(-radius, radius + 1)
            terms[m] = complex(rng.standard_normal(), rng.standard_normal())
        return torus.TorusElement(theta, terms)

    assoc = CheckResult("product_associativity", 200)
    for i in range(200):
        theta = thetas[i % len(thetas)]
        a, b, c = (rand_torus(theta) for _ in range(3))
        lhs = torus.product(torus.product(a, b), c)
        rhs = torus.product(a, torus.product(b, c))
        worst = max((abs(v) for v in (lhs - rhs).terms.values()), default=0.0)
        scale = max([1.0] + [abs(v) for v in lhs.terms.values()])
        assoc.record(i, worst, 1e-12 * scale)

    gns = CheckResult("gns_orthonormality", 200)
    for i in range(200):
        theta = thetas[i % len(thetas)]
        m, n = index(-5, 6), index(-5, 6)
        val = torus.trace(torus.product(torus.involution(torus.weyl(theta, m)),
                                        torus.weyl(theta, n)))
        expected = 1.0 if m == n else 0.0
        gns.flag(abs(val - expected) > 1e-12, f"instance {i}: <{m},{n}> = {val}")

    kills = CheckResult("derivation_annihilates_trace", 200)
    for i in range(200):
        a = rand_torus(thetas[i % len(thetas)])
        kills.flag(abs(torus.trace(torus.deriv(a))) > 0.0, f"instance {i}")

    bound = CheckResult("derivative_coefficient_bound", 60)
    for i in range(60):
        theta = thetas[i % len(thetas)]
        a = rand_torus(theta, radius=2, nterms=3)
        a = a + torus.involution(a)  # self-adjoint
        # a box norm dominates every coefficient in its box: coefficient p of the derivation
        # is its box matrix's entry (p, 0), at phase 1.  Support + 1 is the smallest box
        # that box_matrix accepts, and holds every coefficient.
        cn = torus.torus_commutator_norm(a, box_radius=a.support_radius + 1)
        if cn == 0:
            continue
        a = (1.0 / cn) * a
        worst = max((abs(v) for v in torus.deriv(a).terms.values()), default=0.0)
        worst = max(worst, max((abs(v) for v in torus.deriv_bar(a).terms.values()), default=0.0))
        bound.flag(worst > 1.0 + 1e-9, f"instance {i}: coefficient {worst}", worst - 1.0)

    indices = [(m1, m2) for m1 in range(-3, 4) for m2 in range(-3, 4) if (m1, m2) != (0, 0)]
    saturation = CheckResult("certificate_meets_coefficient_bound", len(indices))
    for m in indices:
        gap, target = weyl_certificate_gap(m, 0.37)
        saturation.flag(abs(gap - target) > 1e-12,
                        f"M={m}: certificate gap {gap:.10f} vs coefficient bound {target:.10f}")
    return SuiteResult("torus", [bichar, assoc, gns, kills, bound, saturation])


SUITES = {
    "algebra": algebra_suite,
    "calculus": calculus_suite,
    "lipschitz": lipschitz_suite,
    "states": states_suite,
    "distance": distance_suite,
    "probes": probes_suite,
    "torus": torus_suite,
}


def run_suites(names=None):
    """Run the named suites, or all of SUITES when names is None."""
    names = list(SUITES) if names is None else names
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise ParameterError(f"unknown suite {unknown[0]!r}; choose all or one of "
                             f"{', '.join(SUITES)}")
    return [SUITES[n]() for n in names]
