import math
import tracemalloc
import warnings

import numpy as np
import pytest

from specdist.algebra import MoyalElement, basis, zero
from specdist.calculus import staircase
from specdist.errors import ParameterError
from specdist.states import (SWEEP_BLOCK, MoyalPureState, basis_state, diagonal_difference,
                             finite_state, zeta_state)
from specdist.zeta import zeta, zeta_partial


def test_basis_state_reads_diagonal():
    a = staircase(4, 1.0)
    for m in range(5):
        assert basis_state(m, 1.0).expect(a) == a.coeffs[m, m]


def test_expect_on_zero_element():
    assert basis_state(2, 1.0).expect(zero(1.0, 5)) == 0


def test_expect_offdiagonal_weights():
    st = finite_state([1.0, 1.0], 1.0)
    assert st.expect(basis(1.0, 0, 1)) == pytest.approx(0.5, abs=1e-15)
    st_i = finite_state([1.0, 1.0j], 1.0)
    assert st_i.expect(basis(1.0, 0, 1)) == pytest.approx(0.5j, abs=1e-15)


def test_expect_acts_slice_by_slice_on_a_stack(rng):
    # two leading axes, elements shorter and longer than the state; one element gives a
    # complex, the bits of the one-element expression
    for st in (finite_state(rng.standard_normal(6) + 1j * rng.standard_normal(6), 2.0),
               basis_state(3, 2.0), zeta_state(1.5, 7, 2.0)):
        for order in (2, 6, 9):
            shape = (2, 3, order, order)
            c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            values = st.expect(MoyalElement(2.0, c))
            assert values.shape == (2, 3)
            for j in np.ndindex(2, 3):
                one = st.expect(MoyalElement(2.0, c[j]))
                n = min(st.support, order)
                assert type(one) is complex
                assert one == complex(st.c[:n].conj() @ c[j][:n, :n] @ st.c[:n])
                assert abs(values[j] - one) <= 1e-15 * max(1.0, abs(one))


def test_expect_pads_small_elements():
    st = finite_state([1.0, 1.0, 1.0], 1.0)
    assert st.expect(basis(1.0, 0, 0)) == pytest.approx(1 / 3, abs=1e-15)


def test_basis_state_on_staircase_suffix_sums():
    theta = 2.0
    m0 = 6
    a = staircase(m0, theta)
    for n in range(m0 + 1):
        want = math.sqrt(theta / 2) * sum(1 / math.sqrt(k + 1) for k in range(n, m0 + 1))
        assert basis_state(n, theta).expect(a) == pytest.approx(want, abs=1e-13)
    assert basis_state(m0 + 1, theta).expect(a) == 0


def test_zeta_state_weights():
    st = zeta_state(2.0, 200000, 1.0)
    assert abs(st.c[0]) ** 2 == pytest.approx(1 / zeta(2.0), rel=1e-5)
    assert float(np.sum(np.abs(st.c) ** 2)) == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(np.abs(st.c)) < 0)


def test_zeta_state_and_diagonal_difference_match_the_array_expressions():
    # the in-place versions against the whole-array expressions they replace, bit for bit
    n = 3 * SWEEP_BLOCK + 5
    for s in (1.01, 1.1, 1.5, 2.0, 3.7):
        w = np.sqrt((np.arange(n, dtype=float) + 1.0) ** (-s))
        squares = np.split(w ** 2, range(SWEEP_BLOCK, n, SWEEP_BLOCK))
        w /= math.sqrt(sum(float(np.sum(b)) for b in squares))  # in order, block by block
        st = zeta_state(s, n - 1, 1.0)
        assert np.array_equal(st.c, w.astype(complex))
        for other in (basis_state(7, 1.0), finite_state([0.3, -1j, 2.0], 1.0), st):
            for a, b in ((st, other), (other, st)):
                d = np.zeros(n)
                d[: a.support] += np.abs(a.c) ** 2
                d[: b.support] -= np.abs(b.c) ** 2
                assert np.array_equal(diagonal_difference(a, b), d)


def test_zeta_state_memory_is_linear_in_the_support():
    # 64 bytes per index before the weights were built in one buffer, 16 while the state
    # copied them; the state keeps that buffer, and the sum of squares takes blocks
    m_cut = 10 ** 6
    tracemalloc.start()
    try:
        zeta_state(1.1, m_cut, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (m_cut + 1) + 4 * 8 * SWEEP_BLOCK


def test_zeta_state_metadata():
    # the state is named by s and m_cut, and normalized by its own partial sum
    st = zeta_state(1.5, 40000, 1.0)
    assert st.meta == {"s": 1.5, "m_cut": 40000}
    assert st.c[0] ** 2 == pytest.approx(1 / zeta_partial(1.5, 40001), rel=1e-14)


def test_zeta_state_rejects_bad_exponent():
    with pytest.raises(ParameterError):
        zeta_state(1.0, 100, 1.0)
    with pytest.raises(ParameterError):
        zeta_state(0.5, 100, 1.0)


def test_finite_state_normalizes_and_records_factor():
    st = finite_state([3.0, 4.0], 1.0)
    assert float(np.sum(np.abs(st.c) ** 2)) == pytest.approx(1.0, abs=1e-15)
    # weights whose squared norm overflows or underflows, without warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big, small = finite_state([1e200, 1.0], 1.0), finite_state([1e-200], 1.0)
    assert big.c[0] == 1.0 and big.c[1] == pytest.approx(1e-200, rel=1e-15)
    assert small.c[0] == 1.0
    # the rescale is exact: ordinary weights keep the bits of plain division by the norm,
    # the root of the sum of squares taken block by block in order (no BLAS thread count
    # changes it)
    for size in (7, 2 * SWEEP_BLOCK + 3):
        w = np.random.default_rng(3).standard_normal(size) * (1 + 1j) * 1e-3
        squares = np.split(np.abs(w) ** 2, range(SWEEP_BLOCK, size, SWEEP_BLOCK))
        nrm = math.sqrt(sum(float(np.sum(b)) for b in squares))
        assert np.array_equal(finite_state(w, 1.0).c, w / nrm)


def test_finite_state_single_weight_is_basis_like():
    st = finite_state([1.0], 1.0)
    assert st.expect(basis(1.0, 0, 0)) == pytest.approx(1.0, abs=1e-15)


def test_diagonal_difference_examples():
    s0 = basis_state(0, 1.0)
    s1 = basis_state(1, 1.0)
    assert np.allclose(diagonal_difference(s1, s0), [-1.0, 1.0])
    assert not np.any(diagonal_difference(s0, s0))


def test_diagonal_difference_zeta_vs_basis():
    st = zeta_state(1.5, 50, 1.0)
    d = diagonal_difference(st, basis_state(0, 1.0))
    z = zeta_partial(1.5, 51)
    assert d[0] == pytest.approx(1.0 / z - 1.0, abs=1e-13)
    assert d[3] == pytest.approx(4.0 ** -1.5 / z, abs=1e-13)
    assert float(np.sum(d)) == pytest.approx(0.0, abs=1e-12)


def test_unnormalized_rejected():
    with pytest.raises(ParameterError):
        MoyalPureState(1.0, np.array([1.0, 1.0]))


def test_states_never_share_a_writable_array_with_the_caller():
    # finite_state writes only its own buffer
    for w in (np.array([3.0, -4.0]), np.array([3.0, 4j])):
        before = w.copy()
        st = finite_state(w, 1.0)
        assert w.flags.writeable and np.array_equal(w, before)
        assert not np.shares_memory(st.c, w) and not st.c.flags.writeable
    # a view, a list or another dtype is copied, and the caller's base stays writable
    base = np.array([0.6, 0.8, 5.0])
    st = MoyalPureState(1.0, base[:2])
    assert not np.shares_memory(st.c, base) and base.flags.writeable
    base[0] = 1.0
    assert st.c[0] == 0.6
    for c in ([0.6, 0.8], np.array([0.0, 1.0], dtype=np.float32), np.array([0, 1])):
        assert MoyalPureState(1.0, c).c.dtype == np.float64
    # a C-ordered float64 or complex128 array that owns its data is adopted, read-only
    for owned in (np.array([0.6, 0.8]), np.array([0.6, 0.8j])):
        st = MoyalPureState(1.0, owned)
        assert st.c is owned and not owned.flags.writeable


def test_spec_strings():
    assert basis_state(3, 1.0).spec_string() == "basis:3"
    assert zeta_state(1.2, 100, 1.0).spec_string() == "zeta:1.2:100"
    assert finite_state([1, 2], 1.0).spec_string() == "finite[2]"


def test_real_states_store_float64_and_complex_weights_complex128():
    for st in (basis_state(3, 1.0), zeta_state(1.2, 50, 1.0), finite_state([1, -2.5, 3], 1.0),
               finite_state(np.array([0.5, 2.0]), 1.0)):
        assert st.c.dtype == np.float64
    for weights in ([1.0, 1.0j], [1.0 + 0j, 2.0], np.array([0.5, 2.0], dtype=complex)):
        assert finite_state(weights, 1.0).c.dtype == np.complex128


def test_real_finite_weights_give_the_complex_state_bit_for_bit(rng):
    for size in (1, 2, 7, 300, 2 * SWEEP_BLOCK + 3):
        w = rng.uniform(-1.0, 1.0, size)
        real, cplx = finite_state(w, 0.5), finite_state(w.astype(complex), 0.5)
        assert np.array_equal(real.c, cplx.c.real) and not np.any(cplx.c.imag)
        assert np.array_equal(diagonal_difference(real, basis_state(0, 0.5)),
                              diagonal_difference(cplx, basis_state(0, 0.5)))
