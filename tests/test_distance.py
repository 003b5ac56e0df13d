import math

import numpy as np
import pytest

from specdist import distance, torus
from specdist.algebra import MoyalElement
from specdist.calculus import dz
from specdist.distance import (GAP_EVERY, GAP_TOL, RELAX, SPECTRAL_RADIUS, STALL_ITERS,
                               STALL_TOL, admm_maximize, analytic_upper_bound, band_inverses,
                               basis_distance, clip_spectral, moyal_report, optimize_distance,
                               plane_closures, schur_bound, triangle_residual)
from specdist.errors import ParameterError, PreconditionError, UnboundedSupportError
from specdist.lipschitz import commutator_norm, nuclear_norm, op_norm
from specdist.probes import radial_gap
from specdist.states import basis_state, difference_matrix, finite_state, zeta_state

from conftest import THETAS, permuted_blocks, random_block_shapes


def test_closed_form_values():
    for theta in THETAS:
        assert basis_distance(1, 0, theta) == pytest.approx(math.sqrt(theta / 2), abs=1e-15)
    assert basis_distance(4, 4, 1.0) == 0.0
    assert basis_distance(2, 0, 2.0) == pytest.approx(1 + 1 / math.sqrt(2), abs=1e-14)
    assert basis_distance(2, 0, 2.0) == basis_distance(0, 2, 2.0)


def test_triangle_residuals():
    assert triangle_residual(0, 1, 2, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert triangle_residual(3, 3, 3, 1.0) == 0.0
    with pytest.raises(PreconditionError):
        triangle_residual(2, 1, 3, 1.0)


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
    wx = _loop_objective(difference_matrix(s1, s2, n))
    best_x, it, _ = admm_maximize(wx, *_dense_closures(d, gram_inv, n + 1), SPECTRAL_RADIUS,
                                  1.0, 100000)
    a = MoyalElement(theta, _loop_unpack(best_x, n))
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


def _unscreened_admm(c, apply, adjoint, solve, radius, rho, max_iter):
    # admm_maximize without the norm screen, the Schur gate or the cached dual: one
    # op_norm SVD and one clip SVD every iteration, the dual bound at every check
    best_x = np.zeros_like(c)
    z = u = np.zeros_like(apply(best_x))
    c_rho = c / rho
    best_val, stall, it = 0.0, 0, 0
    for it in range(1, max_iter + 1):
        x = solve(c_rho + adjoint(z - u))
        dx = apply(x)
        sig = op_norm(dx)
        scaled = float(np.vdot(c, x).real) * (radius / sig) if sig > 0.0 else 0.0
        if scaled > best_val * (1.0 + STALL_TOL):
            best_val, best_x, stall = scaled, x, 0
        else:
            stall += 1
        if stall >= STALL_ITERS:
            return best_x, it, True
        if it % GAP_EVERY == 0:
            dual = rho * radius * nuclear_norm(apply(solve(c_rho - adjoint(u))) + u)
            if best_val >= dual * (1.0 - GAP_TOL):
                return best_x, it, True
        v = RELAX * dx + (1.0 - RELAX) * z + u
        z = clip_spectral(v, radius)[0]
        u = v - z
    return best_x, it, False


def test_norm_screen_leaves_every_iterate_bit_identical(monkeypatch):
    # the arguments the plane and torus optimizers hand to admm_maximize, and its results
    calls = []

    def record(*args):
        calls.append((args, admm_maximize(*args)))
        return calls[-1][1]

    monkeypatch.setattr(distance, "admm_maximize", record)
    monkeypatch.setattr(torus, "admm_maximize", record)
    optimize_distance(finite_state([1.0, 2.0, 3.0], 1.0), basis_state(0, 1.0), 12)
    optimize_distance(basis_state(1, 0.5), basis_state(5, 0.5), 24)
    torus.optimize_torus_distance(torus.vector_state(0.25, (1, 0)), torus.tracial_state(0.25),
                                  box_radius=5)
    torus.optimize_torus_distance(torus.vector_state(0.37, (1, 1)), torus.tracial_state(0.37))
    # skips its clip SVDs up to iteration 10, then clips: the switch is covered
    torus.optimize_torus_distance(torus.vector_state(0.37, (1, 0)),
                                  torus.vector_state(0.37, (0, 1)), box_radius=5)
    assert len(calls) == 5
    for args, (best_x, it, converged) in calls:
        want_x, want_it, want_converged = _unscreened_admm(*args)
        assert np.array_equal(best_x, want_x)
        assert (it, converged) == (want_it, want_converged)


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
            check(c, *plane_closures(n, theta), SPECTRAL_RADIUS,
                  lambda: _random_hermitian(rng, n), lambda a: 0.5 * (a + a.conj().T))
        for support, box in ((1, 3), (2, 5)):
            sites = torus._hermitian_sites(support)
            c = rng.standard_normal(2 * len(sites))
            check(c, *torus.torus_closures(sites, theta, box), 1.0,
                  lambda: rng.standard_normal(c.size), lambda a: a)  # real parameters


# (iterations, value) of optimize_distance under the stall rule alone, before the gap exit
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
    want, q = clip_spectral(mat, radius)
    assert np.linalg.norm(mat @ q) == pytest.approx(sigma, rel=1e-12)

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    got, q = clip_spectral(mat, radius)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert np.linalg.norm(mat @ q) == pytest.approx(sigma, rel=1e-12)


def test_clip_spectral_returns_its_input_inside_the_ball(rng, monkeypatch):
    # the identity clip is the input itself on both paths, so skipping it is exact
    mat = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    sigma = np.linalg.svd(mat)[1][0]  # the clip's own SVD, as it rounds
    for radius in (sigma, 2.0 * sigma):
        assert clip_spectral(mat, radius)[0] is mat
    assert clip_spectral(mat, 0.99 * sigma)[0] is not mat

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    got, q = clip_spectral(mat, 1.01 * sigma)
    assert got is mat
    assert np.linalg.norm(mat @ q) == pytest.approx(sigma, rel=1e-12)
    assert clip_spectral(mat, 0.99 * sigma)[0] is not mat


def test_blockwise_clip_matches_the_dense_clip(rng):
    cases = [random_block_shapes(rng) for _ in range(150)] + [[(1, 1)] * 6, [(1, 1), (1, 2)]]
    for shapes in cases:
        m = permuted_blocks(rng, shapes, *rng.integers(0, 3, size=2))
        u, s, vt = np.linalg.svd(m, full_matrices=False)
        radius = s[0] * rng.uniform(0.1, 0.95)
        want = (u * np.minimum(s, radius)) @ vt
        got, q = clip_spectral(m, radius)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
        assert np.linalg.norm(q) == pytest.approx(1.0, rel=1e-14)
        assert np.linalg.norm(m @ q) == pytest.approx(s[0], rel=1e-13)
        # nothing above the radius: the input itself
        same, q = clip_spectral(m, s[0] * (1.0 + 1e-12))
        assert same is m and np.linalg.norm(m @ q) == pytest.approx(s[0], rel=1e-13)
    # a block within the radius keeps its entries exactly, beside one of its shape that
    # is clipped
    small, big = (permuted_blocks(rng, [(2, 3)]) for _ in range(2))
    m = np.zeros((4, 6), dtype=complex)
    m[:2, :3] = 0.5 * small / np.linalg.svd(small, compute_uv=False)[0]
    m[2:, 3:] = 3.0 * big / np.linalg.svd(big, compute_uv=False)[0]
    got, _ = clip_spectral(m, 1.0)
    assert np.array_equal(got[:2], m[:2]) and not np.any(got[2:, :3])
    assert np.linalg.svd(got[2:, 3:], compute_uv=False)[0] == pytest.approx(1.0, rel=1e-14)


def test_plane_basis_pair_iteration_counts_with_elementwise_clips(monkeypatch):
    # basis-pair iterates are single bands: every clip and norm is elementwise, and the
    # iteration counts are those of dense SVD clips
    def fail(*args, **kwargs):
        raise AssertionError("no SVD expected")

    monkeypatch.setattr(np.linalg, "svd", fail)
    for (m, n), iterations in (((0, 3), 30), ((1, 4), 30), ((2, 6), 20)):
        res = optimize_distance(basis_state(m, 1.0), basis_state(n, 1.0), 32)
        assert res.iterations == iterations
        assert res.value == pytest.approx(basis_distance(m, n, 1.0), rel=1e-3)


def test_schur_bound_is_above_the_computed_largest_singular_value(rng):
    def check(m, tight):
        sigma = np.linalg.svd(m, compute_uv=False)[0]
        assert schur_bound(m) >= sigma
        if tight:  # here only the margin lies between the two
            assert schur_bound(m) <= sigma * (1.0 + 1e-9)

    for shape in ((1, 1), (5, 5), (9, 4), (30, 31), (225, 225)):
        check(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), False)
        # rank 1 with unimodular factors: ||m||_1 ||m||_inf = sigma^2 exactly
        u, v = (np.exp(2j * np.pi * rng.random(k)) for k in shape)
        check(0.7 * np.outer(u, v), True)
        check(np.outer(rng.standard_normal(shape[0]), rng.standard_normal(shape[1])), False)
        # weighted partial permutation: every row and column sum is one |entry|
        m = np.zeros(shape, dtype=complex)
        k = min(shape)
        m[rng.permutation(shape[0])[:k], rng.permutation(shape[1])[:k]] = (
            rng.standard_normal(k) + 1j * rng.standard_normal(k))
        check(m, True)


def test_plane_finite_pair_takes_every_clip_svd(monkeypatch):
    # the first clip moves something, so the Schur bound is never taken (a call fails)
    clips = []

    def counted(mat, radius):
        clips.append(mat.shape)
        return clip_spectral(mat, radius)

    monkeypatch.setattr(distance, "clip_spectral", counted)
    monkeypatch.setattr(distance, "schur_bound", None)
    res = optimize_distance(finite_state([1.0, 2.0, 3.0], 1.0), basis_state(0, 1.0), 12)
    assert res.iterations == 680  # the gap exit; the stall rule alone took 5,915
    assert len(clips) == 679


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
    assert commutator_norm(res.certificate) == pytest.approx(1.0, abs=1e-10)


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
