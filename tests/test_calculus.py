import math

import numpy as np
import pytest

from specdist.algebra import MoyalElement, basis, radial, zero
from specdist.calculus import bump_diagonal, dz, dz_stencil, dzbar, reconstruct, staircase
from specdist.errors import ParameterError
from specdist.lipschitz import commutator_norm
from specdist.verify import (derivative_conjugation, leibniz_rule, radial_derivative_band,
                             reconstruction_roundtrip)

from conftest import THETAS, rand_coeffs, rand_element


def test_dz_of_ground_state():
    out = dz(basis(1.0, 0, 0))
    expected = np.zeros((2, 2))
    expected[1, 0] = -1.0
    assert np.allclose(out.coeffs, expected, atol=1e-15)


def test_dzbar_of_ground_state():
    out = dzbar(basis(1.0, 0, 0))
    expected = np.zeros((2, 2))
    expected[0, 1] = -1.0
    assert np.allclose(out.coeffs, expected, atol=1e-15)


def test_derivatives_of_zero():
    assert not np.any(dz(zero(1.0, 5)).coeffs)
    assert not np.any(dzbar(zero(1.0, 5)).coeffs)


def test_dz_against_recurrence_oracle(rng):
    # direct elementwise recurrence, independent of the vectorized path
    for theta in THETAS:
        a = rand_element(rng, theta, 9)
        n = a.order
        al = dz(a).coeffs
        pad = np.zeros((n + 2, n + 2), complex)
        pad[:n, :n] = a.coeffs
        for r in range(n + 1):
            for c in range(n + 1):
                want = math.sqrt((c + 1) / theta) * pad[r, c + 1]
                if r >= 1:
                    want -= math.sqrt(r / theta) * pad[r - 1, c]
                assert abs(al[r, c] - want) < 1e-13


def test_derivative_conjugation(rng):
    for _ in range(20):
        lhs, rhs = derivative_conjugation(rand_element(rng, 1.0, 10))
        assert np.max(np.abs(lhs - rhs)) < 1e-14


def test_staircase_derivative_is_constant_subdiagonal():
    for theta in THETAS:
        for m0 in (0, 1, 4, 9):
            al = dz(staircase(m0, theta)).coeffs
            sub = np.diag(al, -1)
            assert np.allclose(sub[: m0 + 1], -1 / math.sqrt(2), atol=1e-14)
            assert np.count_nonzero(al) == m0 + 1


def test_leibniz_rule(rng):
    for _ in range(30):
        theta = float(rng.choice(THETAS))
        a = rand_element(rng, theta, 10)
        b = rand_element(rng, theta, 10)
        lhs, rhs = leibniz_rule(a, b)
        scale = max(1.0, float(np.max(np.abs(lhs))))
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * scale


def test_reconstruct_zero():
    al = dz(zero(1.0, 3))
    be = dzbar(zero(1.0, 3))
    assert not np.any(reconstruct(0.0, al, be).coeffs)


def test_reconstruct_ground_state_entry():
    # with a00 = 1 the (1,1) entry assembles to 1 + (alpha10 + beta01)/2 = 0
    al = dz(basis(1.0, 0, 0))
    be = dzbar(basis(1.0, 0, 0))
    out = reconstruct(1.0, al, be)
    assert out.coeffs[0, 0] == 1.0
    assert abs(out.coeffs[1, 1]) < 1e-15


def test_reconstruct_roundtrip(rng):
    for _ in range(60):
        theta = float(rng.choice(THETAS))
        back, want = reconstruction_roundtrip(rand_element(rng, theta, 12))
        assert np.max(np.abs(back - want)) < 1e-12


def _loop_reconstruct(a00, al, be, theta):
    # the per-entry inversion sum reconstruct used before its diagonal recurrence
    n = al.shape[0]
    out = np.zeros((n, n), dtype=complex)
    sq = np.sqrt(np.arange(n + 1, dtype=float))
    for p in range(n):
        for q in range(n):
            if p == 0 and q == 0:
                out[0, 0] = a00
                continue
            k = np.arange(min(p, q) + 1)
            num = np.zeros(k.size, dtype=complex)
            ka = k[k <= q - 1]
            num[: len(ka)] += al[p - ka, q - ka - 1]
            kb = k[k <= p - 1]
            num[: len(kb)] += be[p - kb - 1, q - kb]
            den = sq[p - k] + sq[q - k]
            live = den > 0.0  # the k = p = q corner has no numerator entry
            out[p, q] = (a00 if p == q else 0.0) + np.sqrt(theta) * np.sum(num[live] / den[live])
    return out


def test_reconstruct_against_loop_oracle(rng):
    # arbitrary (alpha, beta) pairs, not the derivatives of any element
    for n in (1, 2, 5, 13):
        for theta in THETAS:
            al, be = rand_coeffs(rng, n), rand_coeffs(rng, n)
            a00 = complex(*rng.uniform(-1.0, 1.0, 2))
            got = reconstruct(a00, MoyalElement(theta, al), MoyalElement(theta, be)).coeffs
            assert np.max(np.abs(got - _loop_reconstruct(a00, al, be, theta))) < 1e-13


def test_reconstruct_rejects_mismatch():
    with pytest.raises(ParameterError):
        reconstruct(0.0, dz(zero(1.0, 3)), dzbar(zero(1.0, 4)))


def test_staircase_values():
    a = staircase(0, 2.0)
    assert a.coeffs[0, 0] == pytest.approx(1.0, abs=1e-15)
    b = staircase(1, 2.0)
    assert b.coeffs[0, 0] == pytest.approx(1 + 1 / math.sqrt(2), abs=1e-14)
    assert b.coeffs[1, 1] == pytest.approx(1 / math.sqrt(2), abs=1e-14)


def test_staircase_diagonal_monotone():
    d = np.real(np.diag(staircase(100, 1.0).coeffs))
    assert np.all(d >= 0)
    assert np.all(np.diff(d) <= 0)


def test_radial_bump_values():
    assert radial(2.0, bump_diagonal(0, 2.0)).coeffs[0, 0] == pytest.approx(1.0, abs=1e-15)
    for n in (1, 3, 7):
        val = radial(0.5, bump_diagonal(n, 0.5)).coeffs[n, n]
        assert val == pytest.approx(math.sqrt(0.25) / math.sqrt(n + 1), abs=1e-15)


def test_radial_bump_commutator_norm_is_one():
    for n in range(21):
        bump = radial(1.0, bump_diagonal(n, 1.0))
        assert commutator_norm(bump) == pytest.approx(1.0, abs=1e-12)


def test_radial_derivative_band(rng):
    for _ in range(20):
        al, band = radial_derivative_band(1.0, rng.uniform(-1, 1, 8))
        assert np.count_nonzero(al - band) == 0



def test_derivations_act_slice_by_slice_on_stacks(rng):
    for theta in THETAS:
        for order in range(1, 13):
            a = MoyalElement(theta, np.stack([rand_coeffs(rng, order) for _ in range(4)]))
            al, be = dz(a), dzbar(a)
            a00 = rand_coeffs(rng, 2).ravel()  # one value per slice
            back = reconstruct(a00, al, be)
            for j, c in enumerate(a.coeffs):
                x = MoyalElement(theta, c)
                assert al.coeffs[j].tobytes() == dz(x).coeffs.tobytes()
                assert be.coeffs[j].tobytes() == dzbar(x).coeffs.tobytes()
                want = reconstruct(a00[j], dz(x), dzbar(x)).coeffs
                assert np.max(np.abs(back.coeffs[j] - want)) <= 1e-15 * np.max(np.abs(want))


def _dz_stencil_one_matrix(x, s):
    # dz_stencil as written for a single matrix, before it took stacks
    n = x.shape[0]
    out = np.zeros((n + 1, n + 1), dtype=np.result_type(x, s))
    np.multiply(x[:, 1:], s[1:n], out=out[:n, :n - 1])
    out[1:, :n] -= s[1:, None] * x
    return out


def test_dz_stencil_on_one_real_matrix_is_unchanged(rng):
    # the plane optimizer applies dz_stencil to real symmetric iterates every iteration
    for theta in THETAS:
        for n in range(1, 13):
            x = rng.standard_normal((n, n))
            x = x + x.T
            s = np.sqrt(np.arange(n + 1) / theta)
            got = dz_stencil(x, s)
            assert got.dtype == np.float64
            assert got.tobytes() == _dz_stencil_one_matrix(x, s).tobytes()
