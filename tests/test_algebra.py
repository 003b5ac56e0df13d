import json
import math

import numpy as np
import pytest

from specdist.algebra import (MoyalElement, basis, inner, integral, involution, radial,
                              sobolev_norm, star, zero)
from specdist.errors import ParameterError
from specdist.verify import (involution_antihomomorphism, left_multiplication_adjoint,
                             trace_cyclicity)

from conftest import THETAS, rand_element


def test_star_matches_basis_composition_rule():
    # f_{01} * f_{12} = f_{02}
    out = star(basis(1.0, 0, 1), basis(1.0, 1, 2))
    expected = np.zeros((3, 3))
    expected[0, 2] = 1.0
    assert np.array_equal(out.coeffs, expected)


def test_star_annihilates_mismatched_indices():
    out = star(basis(1.0, 0, 1), basis(1.0, 0, 1))
    assert not np.any(out.coeffs)


def test_star_is_plain_matrix_product():
    a = MoyalElement(1.0, [[1, 2], [3, 4]])
    b = MoyalElement(1.0, [[5, 6], [7, 8]])
    assert np.array_equal(star(a, b).coeffs, [[19, 22], [43, 50]])


def test_star_pads_mixed_orders_exactly():
    a = basis(2.0, 0, 3)
    b = basis(2.0, 3, 0)
    out = star(a, b)
    assert out.order == 4
    assert out.coeffs[0, 0] == 1.0
    assert np.count_nonzero(out.coeffs) == 1


def test_involution_swaps_indices():
    assert involution(basis(1.0, 0, 1)).coeffs[1, 0] == 1.0


def test_involution_fixes_real_diagonal():
    a = radial(1.0, [0.3, -1.2, 0.5])
    assert np.array_equal(involution(a).coeffs, a.coeffs)


def test_involution_antihomomorphism(rng):
    for _ in range(25):
        a = rand_element(rng, 1.0, 8)
        b = rand_element(rng, 1.0, 8)
        lhs, rhs = involution_antihomomorphism(a, b)
        assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_integral_of_diagonal_basis_elements():
    for m in (0, 1, 5):
        assert integral(basis(1.0, m, m)) == pytest.approx(2 * math.pi, abs=1e-14)


def test_integral_zero_and_offdiagonal():
    assert integral(zero(1.0, 4)) == 0
    assert integral(basis(1.0, 0, 1)) == 0


def test_integral_cyclic(rng):
    for theta in THETAS:
        a = rand_element(rng, theta, 10)
        b = rand_element(rng, theta, 10)
        lhs, rhs = trace_cyclicity(a, b)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_inner_orthogonality():
    f01 = basis(1.0, 0, 1)
    f10 = basis(1.0, 1, 0)
    assert inner(f01, f01) == pytest.approx(2 * math.pi, abs=1e-14)
    assert inner(f01, f10) == 0


def test_inner_positive(rng):
    for _ in range(10):
        a = rand_element(rng, 2.0, 8)
        val = inner(a, a)
        assert val.real >= 0 and abs(val.imag) < 1e-14


def test_inner_is_left_multiplication_adjoint(rng):
    a, b, c = (rand_element(rng, 1.0, 8) for _ in range(3))
    lhs, rhs = left_multiplication_adjoint(a, b, c)
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_weighted_norm_values():
    assert sobolev_norm(basis(1.0, 0, 0), 0, 0) == pytest.approx(1.0, abs=1e-15)
    assert sobolev_norm(basis(2.0, 1, 1), 1, 1) == pytest.approx(3.0, abs=1e-14)


def test_weighted_norm_monotone_for_large_theta(rng):
    # termwise monotonicity requires theta*(m+1/2) >= 1 at every index
    for _ in range(20):
        a = rand_element(rng, 2.0, 10)
        assert sobolev_norm(a, 0, 0) <= sobolev_norm(a, 1, 0) * (1 + 1e-12)
        assert sobolev_norm(a, 1, 1) <= sobolev_norm(a, 2, 2) * (1 + 1e-12)


def test_seminorm_values():
    # the k-th seminorm of the rapid-decrease topology is the (k, k) weighted norm
    assert sobolev_norm(basis(1.0, 0, 0), 0, 0) == pytest.approx(1.0, abs=1e-15)
    assert sobolev_norm(basis(1.0, 0, 0), 1, 1) == pytest.approx(0.5, abs=1e-15)
    assert sobolev_norm(zero(1.0, 3), 4, 4) == 0.0


def test_json_roundtrip(rng):
    a = rand_element(rng, 0.5, 6)
    d = a.to_dict()
    json.dumps(d)  # serializable
    back = MoyalElement.from_dict(d)
    assert back.theta == a.theta
    assert np.array_equal(back.coeffs, a.coeffs)


def test_elements_are_immutable():
    a = basis(1.0, 0, 1)
    with pytest.raises(ValueError):
        a.coeffs[0, 0] = 5.0


def test_construction_does_not_freeze_caller_arrays():
    raw = np.eye(3, dtype=complex)
    MoyalElement(1.0, raw)
    raw[0, 0] = 2.0  # caller's array must stay writable


def test_invalid_parameters():
    with pytest.raises(ParameterError):
        MoyalElement(0.0, [[1.0]])
    with pytest.raises(ParameterError):
        MoyalElement(math.inf, [[1.0]])
    with pytest.raises(ParameterError):
        MoyalElement(1.0, [[1.0, 2.0]])
