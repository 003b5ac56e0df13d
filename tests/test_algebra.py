import json
import math

import numpy as np
import pytest

from specdist.algebra import (MoyalElement, basis, inner, integral, involution, radial,
                              sobolev_norm, star, zero)
from specdist import verify
from specdist.errors import ParameterError
from specdist.verify import (DEFAULT_SEED, Draws, involution_antihomomorphism,
                             left_multiplication_adjoint, trace_cyclicity)

from conftest import THETAS, rand_coeffs, rand_element


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


def random_stack(rng, theta, order, k=4):
    """k random elements of one theta and order: one stack, and its slices as elements."""
    stack = MoyalElement(theta, np.stack([rand_coeffs(rng, order) for _ in range(k)]))
    return stack, [MoyalElement(theta, c) for c in stack.coeffs]


def assert_close(x, y):
    assert np.max(np.abs(x - y)) <= 1e-15 * np.max(np.abs(y))


def test_operations_act_slice_by_slice_on_stacks(rng):
    for theta in THETAS:
        for order in range(1, 13):
            a, a_slices = random_stack(rng, theta, order)
            b, b_slices = random_stack(rng, theta, 13 - order)  # mixed orders pad
            assert a.order == order
            for j, (x, y) in enumerate(zip(a_slices, b_slices)):
                for got, want in ((a.pad(order + 2), x.pad(order + 2)), (a + b, x + y),
                                  (involution(a), involution(x))):
                    assert got.coeffs[j].tobytes() == want.coeffs.tobytes()
                assert_close(star(a, b).coeffs[j], star(x, y).coeffs)
                assert_close(integral(a)[j], integral(x))
                assert_close(inner(a, b)[j], inner(x, y))
                assert_close(sobolev_norm(a, 1.0, 0.5)[j], sobolev_norm(x, 1.0, 0.5))


def test_stack_shapes():
    assert MoyalElement(1.0, np.zeros((2, 5, 3, 3))).order == 3
    for shape in ((3,), (2, 3, 4), (3, 3, 1)):
        with pytest.raises(ParameterError):
            MoyalElement(1.0, np.zeros(shape))


def test_algebra_suite_reports_violations_in_instance_order(monkeypatch):
    # instances 7 and 523 fall in different chunks and are evaluated inside stacks; a
    # broken associativity must be reported for exactly those two, in instance order
    # the suite's draws, replayed to find the first element of each chosen instance
    marks, rng = [], Draws(DEFAULT_SEED)
    for i in range(524):
        a, _, _ = (rand_element(rng, THETAS[i % 3]) for _ in range(3))
        if i in (7, 523):
            marks.append(a.coeffs[0, 0])
    associativity = verify.associativity

    def broken(a, b, c):
        lhs, rhs = associativity(a, b, c)
        hit = np.isin(a.coeffs[..., 0, 0], marks)
        return lhs + hit[..., None, None], rhs

    assert 7 // verify.CHUNK != 523 // verify.CHUNK
    monkeypatch.setattr(verify, "associativity", broken)
    checks = {c.name: c for c in verify.algebra_suite().checks}
    assert [v.split(":")[0] for v in checks["associativity"].violations] == [
        "instance 7", "instance 523"]
    assert all(c.passed for name, c in checks.items() if name != "associativity")


def test_check_results_keep_the_worst_recorded_deviation():
    check = verify.CheckResult("x", 4)
    assert check.worst is None
    for i, d in enumerate((2e-16, 5e-15, np.float64(1e-15))):
        check.record(i, d, 1e-12)
    check.flag(True, "instance 3")  # a flag records no deviation
    assert check.worst == 5e-15 and type(check.worst) is float
    assert check.violations == ["instance 3"]
    check.record(4, 2e-12, 1e-12)
    assert check.worst == 2e-12 and check.violations[-1] == "instance 4: deviation 2e-12"
    check.flag(False, "instance 5", np.float64(3e-12))  # a one-sided check's signed margin
    assert check.worst == 3e-12 and type(check.worst) is float and len(check.violations) == 2
    inside = verify.CheckResult("y", 2)
    inside.flag(False, "instance 0", -0.5)
    inside.flag(False, "instance 1", -0.25)
    assert inside.worst == -0.25 and inside.passed
