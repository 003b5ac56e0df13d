import math
import tracemalloc

import numpy as np
import pytest

from specdist import admm, distance, torus, verify
from specdist.algebra import MoyalElement, zero
from specdist.calculus import dz, staircase
from specdist.admm import GAP_TOL, admm_maximize, rescaled_gap
from specdist.distance import (analytic_upper_bound, band_inverses, basis_distance, moyal_report,
                               optimize_distance, plane_closures)
from specdist.errors import ParameterError, UnboundedSupportError
from specdist.lipschitz import ENTRY_BOUND, clip_spectral, commutator_norm, nuclear_norm, op_norm
from specdist.probes import radial_gap
from specdist.states import (MAX_SUPPORT, MoyalPureState, basis_state, difference_matrix,
                             finite_state, zeta_state)

from conftest import THETAS, permuted_blocks, random_block_shapes


def test_closed_form_values():
    for theta in THETAS:
        assert basis_distance(1, 0, theta) == pytest.approx(math.sqrt(theta / 2), abs=1e-15)
    assert basis_distance(4, 4, 1.0) == 0.0
    assert basis_distance(2, 0, 2.0) == pytest.approx(1 + 1 / math.sqrt(2), abs=1e-14)
    assert basis_distance(2, 0, 2.0) == basis_distance(0, 2, 2.0)


def test_triangle_residuals():
    d = lambda m, n: basis_distance(m, n, 1.0)
    assert d(0, 2) - d(0, 1) - d(1, 2) == pytest.approx(0.0, abs=1e-15)
    assert d(3, 3) - d(3, 3) - d(3, 3) == 0.0


def test_certificate_reaches_closed_form():
    for theta in THETAS:
        for (m, n) in [(1, 0), (3, 1), (5, 0)]:
            val = radial_gap(basis_state(m, theta), basis_state(n, theta))
            assert val == pytest.approx(basis_distance(m, n, theta), abs=1e-13)


def test_certificate_identical_states_zero():
    s = basis_state(2, 1.0)
    assert radial_gap(s, s) == 0.0


def test_upper_bound_equals_closed_form_for_basis_pairs():
    for theta in THETAS:
        for (m, n) in [(1, 0), (4, 2), (6, 0)]:
            got = analytic_upper_bound(basis_state(m, theta), basis_state(n, theta))
            assert got == pytest.approx(basis_distance(m, n, theta), abs=1e-13)


def test_upper_bound_identical_states():
    s = finite_state([1.0, 2.0], 1.0)
    assert analytic_upper_bound(s, s) == 0.0


def test_upper_bound_dominates_certificate_for_finite_states():
    s1 = basis_state(0, 1.0)
    s2 = finite_state([1.0, 1.0], 1.0)
    upper = analytic_upper_bound(s1, s2)
    assert 0 < radial_gap(s1, s2) <= upper + 1e-12


def _envelope(s1, s2):
    # the inversion-formula envelope the band bound replaced: off-diagonal weights against
    # K[p, q] = sqrt(2 theta) sum_k 1/(sqrt(p-k) + sqrt(q-k)), diagonal weights against
    # telescoped unit steps
    theta, n = s1.theta, max(s1.support, s2.support)
    w = difference_matrix(s1, s2, n)
    out = 0.0
    for p in range(n):
        for q in range(n):
            if p != q:
                out += abs(w[p, q]) * math.sqrt(2 * theta) * sum(
                    1.0 / (math.sqrt(p - k) + math.sqrt(q - k)) for k in range(min(p, q) + 1))
    for j in range(n - 1):
        tail = sum(w[p, p].real for p in range(j + 1, n))
        out += math.sqrt(theta / 2) / math.sqrt(j + 1) * abs(tail)
    return out


def _band_loop(s1, s2, real=float, sqrt=math.sqrt):
    # band by band: weight 1 on band 0 and 2 on band k > 0 (its conjugate band -k), tail
    # sums T_j of the band against l_j = sqrt(2 theta)/(sqrt(j) + sqrt(j+k)) for j >= 1
    # and the anchor l_0 = sqrt(theta/2)/sqrt(k); real and sqrt set the precision
    theta, n = real(s1.theta), max(s1.support, s2.support)
    c1, c2 = ([complex(x) for x in s.c] + [0j] * (n - s.support) for s in (s1, s2))
    total = real(0)
    for k in range(n):
        for j in range(n - k):
            re = im = real(0)
            for m in range(j, n - k):
                for c, sign in ((c1, 1), (c2, -1)):
                    x, y = c[m], c[m + k]  # conj(x) y
                    re += sign * (real(x.real) * real(y.real) + real(x.imag) * real(y.imag))
                    im += sign * (real(x.real) * real(y.imag) - real(x.imag) * real(y.real))
            if j > 0:
                ell = sqrt(2 * theta) / (sqrt(real(j)) + sqrt(real(j + k)))
            else:
                ell = sqrt(theta / 2) / sqrt(real(k)) if k else real(0)
            total += (1 if k == 0 else 2) * ell * sqrt(re * re + im * im)
    return total


def _random_pairs(rng, count):
    # complex finite pairs with supports 2 to 6, theta cycling through THETAS
    return [tuple(finite_state(rng.standard_normal(k) + 1j * rng.standard_normal(k), THETAS[i % 3])
                  for k in rng.integers(2, 7, 2)) for i in range(count)]


def test_upper_bound_against_brute_force_weight_sum():
    # restated for the band-transport bound: it agrees with an independent band-by-band
    # loop and never exceeds the inversion-formula envelope it replaced
    pairs = [(finite_state([0.6, 0.8j], 2.0), finite_state([1.0, 2.0, 2.0], 2.0)),
             (finite_state([1.0, 2.0, 3.0], 1.0), basis_state(0, 1.0))]
    for s1, s2 in pairs + _random_pairs(np.random.default_rng(11), 12):
        got = analytic_upper_bound(s1, s2)
        assert got == pytest.approx(_band_loop(s1, s2), rel=1e-13)
        assert got <= _envelope(s1, s2)
    assert analytic_upper_bound(*pairs[1]) == pytest.approx(2.50254, abs=1e-5)


def test_upper_bound_dominates_optimizer_on_random_pairs():
    for s1, s2 in _random_pairs(np.random.default_rng(12), 10):
        order = 4 * max(s1.support, s2.support)
        # a feasible lower bound wherever the iteration stops, so a cap keeps it cheap
        res = optimize_distance(s1, s2, order=order, max_iter=500)
        assert 0.0 < res.value <= analytic_upper_bound(s1, s2)


def test_upper_bound_dominates_gaps_of_random_ball_members():
    rng = np.random.default_rng(13)
    for s1, s2 in _random_pairs(rng, 10):
        upper = analytic_upper_bound(s1, s2)
        for _ in range(30):
            order = max(s1.support, s2.support) + int(rng.integers(0, 4))
            x = rng.standard_normal((order, order)) + 1j * rng.standard_normal((order, order))
            a = MoyalElement(s1.theta, x + x.conj().T)
            a = (1.0 / commutator_norm(a)) * a
            assert abs(s1.expect(a) - s2.expect(a)) <= upper


def test_upper_bound_holds_in_floating_point():
    # at least the same formula evaluated in extended precision, also where equal
    # diagonals (the same moduli, other phases) make band 0 cancel
    rng = np.random.default_rng(14)
    for i in range(24):
        theta = THETAS[i % 3]
        n = int(rng.integers(2, 9))
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        if i % 2:
            d = np.abs(c) * np.exp(2j * np.pi * rng.random(n))
        else:
            d = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        s1, s2 = finite_state(c, theta), finite_state(d, theta)
        exact = _band_loop(s1, s2, real=np.longdouble, sqrt=np.sqrt)
        assert analytic_upper_bound(s1, s2) >= exact


def _dense_upper_bound(s1, s2):
    """(B with its rounding terms, sum(l S)) by the dense formula the band chunks replaced:
    W and M as n x n arrays, tail sums row by row, row sums under math.fsum."""
    n = max(s1.support, s2.support)
    w = difference_matrix(s1, s2, n)
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
    rounding = (4 * (n + 8) * 2.0 ** -53 + 2 * nu) * slack + 2.0 ** -1022 * (1.0 + s1.theta)
    return bound + rounding, slack


def test_upper_bound_matches_the_dense_formula_to_its_rounding():
    # both sums are within (2n + 12)u sum(l S) of the exact B, so they differ by at most the
    # 4(n + 8)u sum(l S) the bound adds; 218 = SWEEP_BLOCK // 300 bands fill a chunk at 300
    rng = np.random.default_rng(15)
    weights = lambda k, cplx: rng.standard_normal(k) + (1j * rng.standard_normal(k) if cplx else 0)
    for i, n1 in enumerate((1, 2, 3, 7, 64, 217, 218, 219, 299, 300)):
        n2 = int(rng.integers(1, 301))
        for cplx1, cplx2 in ((False, False), (True, False), (False, True), (True, True)):
            theta = THETAS[i % 3]
            s1, s2 = (finite_state(weights(k, c), theta) for k, c in ((n1, cplx1), (n2, cplx2)))
            want, slack = _dense_upper_bound(s1, s2)
            n = max(n1, n2)
            assert abs(analytic_upper_bound(s1, s2) - want) <= 4 * (n + 8) * 2.0 ** -53 * slack


def test_upper_bound_memory_does_not_grow_with_the_square_of_the_support():
    # the dense arrays held 40 bytes per n^2 entry, 153 MiB at support 2,000; the band
    # chunks hold about SWEEP_BLOCK entries at a time
    rng = np.random.default_rng(16)
    s1, s2 = (finite_state(rng.standard_normal(k) + 1j * rng.standard_normal(k), 1.0)
              for k in (2000, 1500))
    tracemalloc.start()
    try:
        analytic_upper_bound(s1, s2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2 ** 20


def test_upper_bound_unavailable_for_zeta_states():
    with pytest.raises(UnboundedSupportError):
        analytic_upper_bound(basis_state(0, 1.0), zeta_state(1.2, 50, 1.0))
    # and past the size cap: support 5,478 squared exceeds MAX_OPERATOR_ENTRIES
    with pytest.raises(UnboundedSupportError, match=r"3e\+07.*support 5478"):
        analytic_upper_bound(basis_state(5477, 1.0), basis_state(0, 1.0))


def _loop_unpack(x, n):
    # the dense oracle's hermitian parametrization: the diagonal, then (re, im) pairs of
    # the strict upper triangle in row-major order
    a = np.zeros((n, n), dtype=complex)
    a[np.arange(n), np.arange(n)] = x[:n]
    k = n
    for m in range(n):
        for q in range(m + 1, n):
            a[m, q] = x[k] + 1j * x[k + 1]
            a[q, m] = x[k] - 1j * x[k + 1]
            k += 2
    return a


def _loop_objective(w):
    n = w.shape[0]
    out = np.empty(n * n)
    out[:n] = np.diag(w).real
    k = n
    for m in range(n):
        for q in range(m + 1, n):
            out[k] = 2.0 * w[m, q].real
            out[k + 1] = -2.0 * w[m, q].imag
            k += 2
    return out


def _loop_pack(g):
    # parameter gradient of x -> Re <A(x), g>: Re g_pp, then (re, im) of g_mq + conj(g_qm)
    n = g.shape[0]
    out = list(np.diag(g).real)
    for m in range(n):
        for q in range(m + 1, n):
            h = g[m, q] + np.conj(g[q, m])
            out += [h.real, h.imag]
    return np.array(out)


def _random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g + g.conj().T


def test_hermitian_unpack_is_hermitian(rng):
    for n in (1, 2, 5, 12):
        a = _loop_unpack(rng.standard_normal(n * n), n)
        assert a.shape == (n, n)
        assert np.array_equal(a, a.conj().T)


def test_objective_vector_is_gradient_of_pairing(rng):
    for n in (1, 2, 5, 12):
        w = _random_hermitian(rng, n)
        x = rng.standard_normal(n * n)
        pairing = np.sum(w * _loop_unpack(x, n))
        assert abs(pairing.imag) < 1e-12
        assert _loop_objective(w) @ x == pytest.approx(pairing.real, abs=1e-12)
        assert _loop_pack(w.conj()) @ x == pytest.approx(pairing.real, abs=1e-12)


def _dense_dz(n, theta):
    # the realified dz operator on the hermitian parametrization, one column per
    # parameter (real parts of the image's entries, then imaginary parts), and its
    # inverse Gram
    cols = []
    for e in np.eye(n * n):
        t = dz(MoyalElement(theta, _loop_unpack(e, n))).coeffs
        cols.append(np.concatenate([t.real.ravel(), t.imag.ravel()]))
    d = np.array(cols).T
    return d, np.linalg.inv(d.T @ d)


def _dense_closures(d, gram_inv, side):
    nz = side * side

    def apply(x):
        v = d @ x
        return v[:nz].reshape(side, side) + 1j * v[nz:].reshape(side, side)

    def adjoint(y):
        return d.T @ np.concatenate([y.real.ravel(), y.imag.ravel()])

    return apply, adjoint, gram_inv.__matmul__


def test_plane_stencils_match_the_dense_operator(rng):
    for theta in THETAS:
        for n in range(1, 13):
            d, _ = _dense_dz(n, theta)
            apply, adjoint, _ = plane_closures(n, theta)
            scale = np.max(np.abs(d))
            cols = [apply(_loop_unpack(e, n)).ravel() for e in np.eye(n * n)]
            stencil = np.array([np.concatenate([c.real, c.imag]) for c in cols]).T
            assert np.max(np.abs(stencil - d)) <= 1e-14 * scale
            for _ in range(3):
                y = rng.standard_normal((n + 1, n + 1)) + 1j * rng.standard_normal((n + 1, n + 1))
                want = d.T @ np.concatenate([y.real.ravel(), y.imag.ravel()])
                assert np.max(np.abs(_loop_pack(adjoint(y)) - want)) <= 1e-14 * scale
                x = _random_hermitian(rng, n)
                lhs = np.vdot(apply(x), y).real
                rhs = np.vdot(x, adjoint(y)).real
                assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_plane_apply_is_calculus_dz_bit_for_bit(rng):
    # the optimizer's dz is calculus' recurrence, not a stencil of its own
    for n in (2, 5, 12):
        for theta in THETAS:
            apply, _, _ = plane_closures(n, theta)
            x = _random_hermitian(rng, n)
            assert apply(x).tobytes() == dz(MoyalElement(theta, x)).coeffs.tobytes()


def test_band_inverses_match_the_dense_gram_inverse():
    for theta in THETAS:
        for n in range(1, 13):
            _, gram_inv = _dense_dz(n, theta)
            inv = band_inverses(n, theta)
            # parameter index of the real part of x[i, i+k]; the imaginary part follows it
            upper = {(m, q): n + 2 * j for j, (m, q) in enumerate(zip(*np.triu_indices(n, 1)))}
            want = np.zeros((n * n, n * n))
            for k in range(n):
                if k == 0:
                    want[:n, :n] = inv[0]
                    continue
                idx = np.array([upper[(i, i + k)] for i in range(n - k)])
                block = 0.5 * inv[k, :n - k, :n - k]  # a real/imaginary pair counts twice
                want[np.ix_(idx, idx)] = block
                want[np.ix_(idx + 1, idx + 1)] = block
                assert not np.any(inv[k, n - k:]) and not np.any(inv[k, :, n - k:])
            assert np.max(np.abs(want - gram_inv)) <= 1e-10 * np.max(np.abs(gram_inv))


def _dense_optimizer_value(s1, s2, n):
    theta = s1.theta
    d, gram_inv = _dense_dz(n, theta)
    # the loop in parameters p = iso q, with q orthonormal for the Frobenius product on
    # hermitian matrices, so that the balancing's dual residual is the plane's
    iso = np.where(np.arange(n * n) < n, 1.0, math.sqrt(0.5))
    wx = iso * _loop_objective(difference_matrix(s1, s2, n))
    best_x, it, _ = admm_maximize(wx, *_dense_closures(d * iso, gram_inv / np.outer(iso, iso),
                                                       n + 1),
                                  ENTRY_BOUND, 1.0, 100000, 10)
    a = MoyalElement(theta, _loop_unpack(iso * best_x, n))
    cert = (1.0 / commutator_norm(a)) * a
    return abs(s1.expect(cert) - s2.expect(cert)), it


def test_optimizer_matches_the_dense_admm_oracle():
    pairs = [
        (basis_state(0, 1.0), basis_state(1, 1.0), 8),
        (basis_state(1, 0.5), basis_state(4, 0.5), 10),
        (basis_state(0, 2.0), basis_state(3, 2.0), 16),
        (finite_state([1.0, 0.7, 0.2], 1.0), basis_state(0, 1.0), 7),
        (finite_state([1.0, 0.5j, 0.25], 1.0), finite_state([0.2, 1.0], 1.0), 6),
        (finite_state([0.6, 0.8j], 2.0), finite_state([1.0, 2.0, 2.0, 1j], 2.0), 7),
        (finite_state([1.0, -1.0j, 0.5], 0.5), basis_state(4, 0.5), 8),
    ]
    for s1, s2, n in pairs:
        res = optimize_distance(s1, s2, n)
        value, iterations = _dense_optimizer_value(s1, s2, n)
        assert res.iterations == iterations
        assert abs(res.value - value) <= 1e-9


def test_weak_duality_on_the_plane_and_torus_closures(rng):
    # the gap exit's certificate: for every Y, Y' = Y + apply(solve(c - adjoint(Y))) has
    # Herm(adjoint(Y')) = Herm(c), so radius ||Y'||_* bounds Re<c, x> on the ball
    def check(c, apply, adjoint, solve, radius, random_x, herm):
        shape = apply(random_x()).shape
        for _ in range(5):
            y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            y = y + apply(solve(c - adjoint(y)))
            assert np.max(np.abs(herm(adjoint(y)) - herm(c))) <= 1e-12
            bound = radius * nuclear_norm(y)
            for _ in range(5):
                x = random_x()
                x = x * (radius / op_norm(apply(x)))
                assert np.vdot(c, x).real <= bound + 1e-12

    for theta in THETAS:
        for n in (2, 5, 12):
            c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            check(c, *plane_closures(n, theta), ENTRY_BOUND,
                  lambda: _random_hermitian(rng, n), lambda a: 0.5 * (a + a.conj().T))
        # whole support boxes (every box index folded) and an axis (the line n2 = 0 alone)
        for sites, box in ((torus._hermitian_sites(1), 3), (torus._hermitian_sites(2), 5),
                           ([(1, 0), (2, 0), (3, 0)], 5)):
            c = rng.standard_normal(len(sites))  # one real parameter a_p = a_-p per site
            check(c, *torus.torus_closures(sites, theta, box), 1.0,
                  lambda: rng.standard_normal(c.size), lambda a: a)


# (iterations, value) of optimize_distance under the stall rule alone, before the gap exit,
# when the rule judged every iterate with a relative margin of 1e-8
STALL_RULE_RUNS = [
    (finite_state([1.0, 2.0, 3.0], 1.0), basis_state(0, 1.0), 12, 5915, 1.3253554082054975),
    (finite_state([-0.7817, -0.4848], 2.0),
     finite_state([-0.3586, -0.4167, 0.6048, 0.2257, -0.3439], 2.0), 14, 1381, 2.058399913670684),
    (finite_state([1.0, 0.5, 0.25], 0.5), basis_state(2, 0.5), 10, 2332, 0.9165461156872743),
    (basis_state(0, 1.0), basis_state(1, 1.0), 10, 51, 0.7071067811865475),
    (basis_state(0, 2.0), finite_state([1.0, 1.0], 2.0), 10, 4141, 1.1074801856210046),
    (basis_state(0, 2.0), finite_state([1.0, 1.0], 2.0), 6, 521, 1.096911724293122),
    (basis_state(0, 2.0), finite_state([1.0, 1.0], 2.0), 8, 488, 1.1056717474994004),
    (basis_state(0, 1.0), basis_state(3, 1.0), 32, 110, 1.615355071277084),
    (basis_state(1, 1.0), basis_state(4, 1.0), 32, 106, 1.2618016804794885),
    (basis_state(2, 1.0), basis_state(6, 1.0), 32, 98, 1.366704576207691),
]


def test_gap_exit_is_no_longer_and_keeps_the_value_within_its_tolerance():
    # f12, f14 and m of the benchmark, the verify distance suite's pairs and b32: the
    # stall-rule value is feasible, so the gap exit stops within GAP_TOL of it or above
    for s1, s2, order, iterations, value in STALL_RULE_RUNS:
        res = optimize_distance(s1, s2, order)
        assert res.converged and res.iterations <= iterations
        assert res.value >= value * (1.0 - GAP_TOL)


def test_clip_spectral_eigh_fallback_matches_the_svd(rng, monkeypatch):
    mat = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    sigma = np.linalg.svd(mat, compute_uv=False)[0]
    radius = 0.5 * sigma
    want = clip_spectral(mat, radius)

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    got = clip_spectral(mat, radius)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_clip_spectral_returns_its_input_inside_the_ball(rng, monkeypatch):
    # the identity clip is the input itself on both paths, so skipping it is exact
    mat = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    sigma = np.linalg.svd(mat)[1][0]  # the clip's own SVD, as it rounds
    for radius in (sigma, 2.0 * sigma):
        assert clip_spectral(mat, radius) is mat
    assert clip_spectral(mat, 0.99 * sigma) is not mat

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    assert clip_spectral(mat, 1.01 * sigma) is mat
    assert clip_spectral(mat, 0.99 * sigma) is not mat


def test_blockwise_clip_matches_the_dense_clip(rng):
    cases = [random_block_shapes(rng) for _ in range(150)] + [[(1, 1)] * 6, [(1, 1), (1, 2)]]
    for shapes in cases:
        m = permuted_blocks(rng, shapes, *rng.integers(0, 3, size=2))
        u, s, vt = np.linalg.svd(m, full_matrices=False)
        radius = s[0] * rng.uniform(0.1, 0.95)
        want = (u * np.minimum(s, radius)) @ vt
        got = clip_spectral(m, radius)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
        # nothing above the radius: the input itself
        assert clip_spectral(m, s[0] * (1.0 + 1e-12)) is m
    # a block within the radius keeps its entries exactly, beside one of its shape that
    # is clipped
    small, big = (permuted_blocks(rng, [(2, 3)]) for _ in range(2))
    m = np.zeros((4, 6), dtype=complex)
    m[:2, :3] = 0.5 * small / np.linalg.svd(small, compute_uv=False)[0]
    m[2:, 3:] = 3.0 * big / np.linalg.svd(big, compute_uv=False)[0]
    got = clip_spectral(m, 1.0)
    assert np.array_equal(got[:2], m[:2]) and not np.any(got[2:, :3])
    assert np.linalg.svd(got[2:, 3:], compute_uv=False)[0] == pytest.approx(1.0, rel=1e-14)


def test_plane_basis_pair_iteration_counts_with_elementwise_clips(monkeypatch):
    # basis-pair iterates are single bands: every clip and norm is elementwise, and the
    # iteration counts are those of dense SVD clips
    def fail(*args, **kwargs):
        raise AssertionError("no SVD expected")

    monkeypatch.setattr(np.linalg, "svd", fail)
    for (m, n), iterations in (((0, 3), 30), ((1, 4), 20), ((2, 6), 20)):
        res = optimize_distance(basis_state(m, 1.0), basis_state(n, 1.0), 32)
        assert res.iterations == iterations
        assert res.value == pytest.approx(basis_distance(m, n, 1.0), rel=1e-3)


def test_plane_finite_pair_takes_every_clip_svd(monkeypatch):
    # one clip per iteration, except the last, which exits on the gap before its clip
    clips = []

    def counted(mat, radius):
        clips.append(mat.shape)
        return clip_spectral(mat, radius)

    monkeypatch.setattr(admm, "clip_spectral", counted)
    res = optimize_distance(finite_state([1.0, 2.0, 3.0], 1.0), basis_state(0, 1.0), 12)
    assert res.iterations == 190  # the gap exit; the stall rule alone takes 68,680
    assert len(clips) == 189


def test_capped_run_ends_at_its_check_without_a_clip(monkeypatch):
    # iteration max_iter checks and ends the run, so its clip would be read by nothing
    clips = []

    def counted(mat, radius):
        clips.append(mat.shape)
        return clip_spectral(mat, radius)

    monkeypatch.setattr(admm, "clip_spectral", counted)
    res = optimize_distance(finite_state([1.0, 2.0, 3.0], 1.0), basis_state(0, 1.0), 12,
                            max_iter=3)
    assert (res.iterations, res.converged, len(clips)) == (3, False, 2)
    assert res.value == pytest.approx(1.218239885694769, rel=1e-9)


def test_admm_takes_the_iterate_norm_only_at_its_checks(monkeypatch):
    # one norm per check, every GAP_EVERY iterations: f12 exits on the gap and the torus
    # vector pair on the stall rule, each at a check (their clips are pinned elsewhere)
    norms = []

    def counted(mat):
        norms.append(mat.shape)
        return op_norm(mat)

    monkeypatch.setattr(admm, "op_norm", counted)
    res = optimize_distance(finite_state([1.0, 2.0, 3.0], 1.0), basis_state(0, 1.0), 12)
    assert (res.iterations, len(norms)) == (190, 19)
    norms.clear()
    res = torus.optimize_torus_distance(torus.vector_state(0.37, (1, 0)),
                                        torus.vector_state(0.37, (0, 1)), box_radius=5)
    assert (res.iterations, len(norms)) == (90, 9)


def test_penalty_balancing_closes_the_gap_at_every_theta(monkeypatch):
    # f12's pair at theta 0.1, 1 and 10: with rho fixed at 1 the gap closes after 2,160,
    # 680 and 60 iterations, with rho fixed at 0.25 after 530 at theta 0.1.  Without the
    # stall rule only the gap exit reports converged.  The distance scales as
    # sqrt(theta), so the three values agree within the gap tolerance
    monkeypatch.setattr(admm, "STALL_ITERS", 10 ** 9)
    values = []
    for theta in (0.1, 1.0, 10.0):
        res = optimize_distance(finite_state([1.0, 2.0, 3.0], theta), basis_state(0, theta),
                                12, max_iter=300)
        assert res.converged
        values.append(res.value / math.sqrt(theta))
    assert max(values) <= min(values) / (1.0 - GAP_TOL)


def test_optimizer_reaches_the_closed_form_at_order_128():
    res = optimize_distance(basis_state(0, 1.0), basis_state(3, 1.0), 128)
    assert res.value == pytest.approx(basis_distance(0, 3, 1.0), rel=1e-3)
    assert res.feasibility_residual <= 1e-9


def test_optimizer_order_ceiling():
    # the band inverses hold order**3 floats: 310 is the last order under 3e7
    with pytest.raises(ParameterError, match="too large"):
        optimize_distance(basis_state(0, 1.0), basis_state(1, 1.0), 311)


def test_optimizer_one_step_pair():
    res = optimize_distance(basis_state(0, 1.0), basis_state(1, 1.0), 8)
    assert res.value == pytest.approx(1 / math.sqrt(2), rel=1e-3)
    assert res.converged
    assert res.feasibility_residual <= 1e-10


def test_rescaled_gap_on_each_algebra():
    # the one rescale step of both optimizers, on a plane and a torus element
    theta = 0.37
    cases = ((basis_state(0, theta), basis_state(1, theta), commutator_norm,
              zero(theta, 4), 3.0 * staircase(2, theta), basis_distance(0, 1, theta)),
             (torus.vector_state(theta, (1, 0)), torus.tracial_state(theta),
              lambda a: torus.torus_commutator_norm(a, 3), torus.TorusElement(theta),
              5.0 * torus.weyl_certificate((1, 0), theta), 1 / (4 * math.pi)))
    for s1, s2, norm, nothing, a, gap in cases:
        # a zero element: value and residual 0, the run's counts passed through
        res = rescaled_gap(s1, s2, nothing, norm, 17, False, 9)
        assert res == distance.OptimizeResult(0.0, 17, False, 0.0, 9)
        # a nonzero element: the gap of a/||a||, here a unit-norm certificate times 3 or 5
        res = rescaled_gap(s1, s2, a, norm, 4, True, 9)
        cert = (1.0 / norm(a)) * a
        assert res.value == abs(s1.expect(cert) - s2.expect(cert))
        assert res.value == pytest.approx(gap, rel=1e-15)
        assert res.feasibility_residual <= 1e-15
        assert (res.iterations, res.converged, res.order) == (4, True, 9)


def test_optimizer_two_step_pair():
    res = optimize_distance(basis_state(0, 1.0), basis_state(2, 1.0), 12)
    want = math.sqrt(0.5) * (1 + 1 / math.sqrt(2))
    assert res.value == pytest.approx(want, rel=1e-3)


def test_optimizer_identical_states():
    s = basis_state(1, 1.0)
    res = optimize_distance(s, s, 8)
    assert res.value == 0.0
    assert res.converged


def test_optimizer_requires_headroom():
    with pytest.raises(ParameterError):
        optimize_distance(basis_state(5, 1.0), basis_state(0, 1.0), 6)


def test_optimizer_monotone_in_order():
    s1 = basis_state(0, 1.0)
    s2 = finite_state([1.0, 0.7, 0.2], 1.0)
    vals = [optimize_distance(s1, s2, k).value for k in (5, 7, 9)]
    assert vals[0] <= vals[1] + 1e-7
    assert vals[1] <= vals[2] + 1e-7


def test_report_basis_pair_brackets():
    rep = moyal_report(basis_state(0, 1.0), basis_state(1, 1.0), order=8)
    closed = basis_distance(1, 0, 1.0)
    assert rep.closed_form == pytest.approx(closed, abs=1e-15)
    assert rep.certificate_lower == pytest.approx(closed, abs=1e-13)
    assert rep.analytic_upper == pytest.approx(closed, abs=1e-13)
    assert rep.optimizer_lower == pytest.approx(closed, rel=1e-3)
    assert rep.bracket_width is not None and rep.bracket_width < 1e-3
    d = rep.to_dict()
    assert d["state_a"] == "basis:0" and d["state_b"] == "basis:1"
    assert d["converged"] is True


def test_report_zeta_pair_is_bounds_only():
    rep = moyal_report(basis_state(0, 1.0), zeta_state(1.2, 2000, 1.0),
                       order=8, optimize=False, probe=True)
    assert rep.closed_form is None
    assert rep.analytic_upper is None
    assert rep.certificate_lower > 1.0  # already large at moderate cutoffs
    assert rep.divergence == "divergent"
    assert rep.bracket_width is None


def test_report_skips_optimizer_without_order_headroom():
    rep = moyal_report(basis_state(0, 1.0), zeta_state(1.2, 50, 1.0), order=8)
    assert rep.optimizer_lower is None
    assert rep.iterations is None


def test_report_identical_zeta_pair_not_divergent():
    st = zeta_state(1.2, 500, 1.0)
    rep = moyal_report(st, st, order=8, optimize=False, probe=True)
    assert rep.certificate_lower == 0.0
    assert rep.divergence is None


def test_report_certificate_is_the_radial_gap():
    pairs = [
        (basis_state(0, 1.0), basis_state(3, 1.0)),
        (finite_state([1.0, 0.5j, 0.25], 1.0), finite_state([0.2, 1.0], 1.0)),
        (basis_state(0, 1.0), zeta_state(1.2, 500, 1.0)),
    ]
    for s1, s2 in pairs:
        rep = moyal_report(s1, s2, optimize=False)
        assert rep.certificate_id == f"radial({max(s1.support, s2.support) - 1})"
        assert rep.certificate_lower == radial_gap(s1, s2)


def test_report_rejects_unknown_keywords():
    s1, s2 = basis_state(0, 1.0), basis_state(1, 1.0)
    with pytest.raises(TypeError):
        moyal_report(s1, s2, optimize=False, tol=1e-9)
    with pytest.raises(TypeError):
        moyal_report(s1, zeta_state(1.2, 50, 1.0), order=8, bogus=3)


def test_report_schema_keys():
    rep = moyal_report(basis_state(0, 1.0), basis_state(1, 1.0), order=8)
    assert set(rep.to_dict()) == {
        "theta", "order", "state_a", "state_b", "closed_form", "certificate_lower",
        "certificate_id", "analytic_upper", "optimizer_lower", "feasibility_residual",
        "iterations", "converged", "bracket_width", "divergence",
    }


def test_report_bound_ordering_invariants():
    # whenever both ends of the bracket exist:
    #   certificate <= closed form <= upper, and optimizer <= upper
    pairs = [
        (basis_state(0, 1.0), basis_state(2, 1.0)),
        (basis_state(1, 0.5), basis_state(4, 0.5)),
        (finite_state([1.0, 1.0], 2.0), basis_state(0, 2.0)),
        (finite_state([1.0, 0.5j, 0.25], 1.0), finite_state([0.2, 1.0], 1.0)),
    ]
    for s1, s2 in pairs:
        rep = moyal_report(s1, s2, order=8)
        tol = 1e-9
        assert rep.certificate_lower <= rep.analytic_upper + tol
        assert rep.optimizer_lower <= rep.analytic_upper + tol
        if rep.closed_form is not None:
            assert rep.certificate_lower <= rep.closed_form + tol
            assert rep.closed_form <= rep.analytic_upper + tol


def test_basis_distance_is_the_fsum_closed_form_up_to_the_cap():
    top = MAX_SUPPORT - 1
    pairs = [(0, 0), (0, 1), (1, 0), (5, 17), (0, 65_536), (65_535, 131_073), (1000, top),
             (top - 1, top), (top, 0)]
    for m, n in pairs:
        lo, hi = min(m, n), max(m, n)
        total = math.fsum(1.0 / math.sqrt(k) for k in range(lo + 1, hi + 1))
        for theta in (0.37, 1.0, 2.0, 5e-324, 1e300):
            assert basis_distance(m, n, theta) == math.sqrt(2.0 * theta) / 2.0 * total
    with pytest.raises(ParameterError):
        basis_distance(0, MAX_SUPPORT, 1.0)


def _complex_copy(state):
    return MoyalPureState(state.theta, state.c.astype(complex), kind=state.kind,
                          meta=state.meta)


def test_a_real_pair_reports_as_the_pair_with_zero_imaginary_parts():
    pairs = [(finite_state([1.0, 2.0, 3.0], 1.0), basis_state(0, 1.0), 12),
             (finite_state([0.3, -0.7], 2.0), finite_state([0.2, 0.1, -0.5, 0.9], 2.0), 10),
             (basis_state(1, 0.5), basis_state(4, 0.5), 12)]
    for s1, s2, order in pairs:
        assert s1.c.dtype == s2.c.dtype == np.float64
        real = moyal_report(s1, s2, order=order)
        cplx = moyal_report(_complex_copy(s1), _complex_copy(s2), order=order)
        for field in ("certificate_lower", "analytic_upper", "closed_form"):
            assert getattr(real, field) == getattr(cplx, field), field
        assert real.optimizer_lower == pytest.approx(cplx.optimizer_lower, rel=1e-12)
        assert real.iterations == cplx.iterations


def test_optimizer_runs_real_for_phased_real_states_and_complex_otherwise(monkeypatch):
    seen = []
    admm = distance.admm_maximize
    monkeypatch.setattr(distance, "admm_maximize",
                        lambda c, *rest: seen.append(c.dtype) or admm(c, *rest))
    phased = finite_state(np.array([1.0, 2.0, 3.0]) * np.exp(0.7j), 1.0)
    assert np.any(phased.c.imag)
    optimize_distance(phased, basis_state(0, 1.0), 8)
    optimize_distance(finite_state([1.0, 2.0j, 3.0], 1.0), basis_state(0, 1.0), 8)
    assert seen == [np.float64, np.complex128]


@pytest.mark.parametrize("n, degrees, value", [(1, 15, 0.504414), (1, 45, 1.107778),
                                               (1, 60, 1.123918), (1, 75, 1.044067),
                                               (2, 15, 0.413026), (2, 45, 1.218473)])
def test_two_level_superpositions_sit_between_the_bounds(n, degrees, value):
    # e_0 against psi = cos(alpha) e_0 + sin(alpha) e_n, theta = 1, order 24: the radial
    # bound sees only the diagonal, so it lies strictly below the optimizer; for n = 1 it
    # is sin^2(alpha) sqrt(theta/2).  Values in units of sqrt(theta/2) = d(e_0, e_1)
    alpha, unit = math.radians(degrees), math.sqrt(0.5)
    psi = finite_state([math.cos(alpha)] + [0.0] * (n - 1) + [math.sin(alpha)], 1.0)
    report = moyal_report(basis_state(0, 1.0), psi, order=24)
    assert report.converged is True
    assert report.certificate_lower < report.optimizer_lower <= report.analytic_upper
    assert report.optimizer_lower / unit == pytest.approx(value, abs=2e-6)
    if n == 1:
        assert report.certificate_lower / unit == pytest.approx(math.sin(alpha) ** 2,
                                                                rel=1e-14)
    if degrees == 60:  # above d(e_0, e_1) = d(e_0, psi_90): not monotone in alpha
        assert report.optimizer_lower > unit


def test_restriction_check_draws_each_instance_as_one_at_a_time(monkeypatch):
    # the stacked self-adjoint restriction check draws what it drew one instance at a
    # time: each element, then (its commutator norm being positive) its basis index and
    # its weights.  The suite's earlier draws, for global_phase_invariance, come first.
    rng = verify.Draws(verify.DEFAULT_SEED + 4)
    for _ in range(20):
        rng.standard_normal(4), rng.standard_normal(4), rng.integers(0, 4)
        rng.uniform(0, 2 * np.pi)
    want = []
    for i in range(100):
        a = verify.rand_element(rng, THETAS[i % 3], 8)
        assert commutator_norm(a) > 0
        want.append((a.coeffs, int(rng.integers(0, 6)),
                     rng.standard_normal(5) + 1j * rng.standard_normal(5)))
    drawn, stacked = [], verify._stacked

    def recording(count, draw, evaluate):
        return stacked(count, lambda i: drawn.append(draw(i)) or drawn[-1], evaluate)

    monkeypatch.setattr(verify, "_stacked", recording)
    result = verify.distance_suite()
    assert result.passed and len(drawn) == len(want) == 100
    # its margin: the larger of norm - 1 and |g| - Re of b's gap, which is |g| to rounding
    assert abs(result.checks[-1].worst) <= 1e-12
    for (a, index, w), (coeffs, want_index, want_w) in zip(drawn, want):
        assert np.array_equal(verify._padded(a.theta, [a]).coeffs[0], coeffs)
        assert index == want_index
        assert w.tobytes() == want_w.tobytes()
