import math

import numpy as np
import pytest

from specdist.algebra import MoyalElement, zero
from specdist.calculus import dz, radial_bump, staircase
from specdist.errors import ParameterError, PreconditionError
from specdist.lipschitz import (ball_report, commutator_norm, nuclear_norm, op_norm,
                                radial_in_ball, split_blocks)
from specdist.verify import (ball_entry_bound, radial_membership_agreement,
                             self_adjoint_norm_symmetry, submultiplicativity)

from conftest import THETAS, permuted_blocks, rand_coeffs, rand_element, random_block_shapes


def test_op_norm_partial_isometry():
    assert op_norm([[0, 1], [0, 0]]) == pytest.approx(1.0, abs=1e-15)


def test_op_norm_diagonal():
    assert op_norm(np.diag([0.5, -3.0, 2.0])) == pytest.approx(3.0, abs=1e-14)


def test_op_norm_empty_and_zero():
    assert op_norm(np.zeros((0, 0))) == 0.0
    assert op_norm(np.zeros((4, 4))) == 0.0


def test_op_norm_against_gram_eigenvalue_oracle(rng):
    for _ in range(25):
        m = rand_coeffs(rng, 8)
        oracle = math.sqrt(max(np.linalg.eigvalsh(m.conj().T @ m)))
        assert op_norm(m) == pytest.approx(oracle, rel=1e-10)


def test_op_norm_dense_svd_at_dimension_80(rng):
    # a dense matrix gets the full decomposition at every size
    m = rand_coeffs(rng, 80)
    dense = np.linalg.svd(m, compute_uv=False)[0]
    assert op_norm(m) == pytest.approx(dense, rel=1e-9)


def test_op_norm_dense_svd_with_clustered_spectrum(rng):
    # nearly tied top singular values at dimension 80
    u, _ = np.linalg.qr(rand_coeffs(rng, 80))
    v, _ = np.linalg.qr(rand_coeffs(rng, 80))
    sigma = np.linspace(1.0, 0.1, 80)
    sigma[1] = sigma[0] * (1 - 1e-9)
    m = (u * sigma) @ v.conj().T
    assert op_norm(m) == pytest.approx(sigma[0], rel=1e-8)


def test_op_norm_of_radial_band_is_not_below_its_entries():
    # the norm of any matrix is at least its largest entry modulus; the
    # order-1023 staircase derivative is one band, a case an estimate from
    # below misses
    m = dz(staircase(1023, 1.0)).coeffs
    assert op_norm(m) >= np.abs(m).max()


def test_partial_permutation_norm_matches_svd(rng):
    # at most one nonzero per row and per column: the norm is the largest entry
    # modulus, for square and rectangular shapes with empty rows and columns
    for rows, cols in [(1, 1), (6, 6), (7, 4), (4, 9), (70, 90)]:
        for _ in range(5):
            k = rng.integers(1, max(min(rows, cols) - 1, 1) + 1)
            m = np.zeros((rows, cols), dtype=complex)
            r = rng.choice(rows, k, replace=False)
            c = rng.choice(cols, k, replace=False)
            m[r, c] = rng.normal(size=k) + 1j * rng.normal(size=k)
            assert op_norm(m) == np.abs(m).max()
            assert op_norm(m) == pytest.approx(np.linalg.svd(m, compute_uv=False)[0],
                                               rel=1e-14)


def test_op_norm_of_permuted_block_matrices_matches_the_dense_svd(rng):
    # square, rectangular and 1x1 blocks with empty rows and columns: split_blocks finds
    # every block, unless the nonzero count proves there is one, and the norm is the
    # dense SVD's
    for _ in range(300):
        shapes = random_block_shapes(rng)
        m = permuted_blocks(rng, shapes, *rng.integers(0, 3, size=2))
        blocks = split_blocks(m)
        if blocks is None:
            assert len(shapes) == 1
        else:
            found = [(int((ri[k] >= 0).sum()), int((ci[k] >= 0).sum()))
                     for ri, ci, _ in blocks for k in range(len(ri))]
            assert sorted(found) == sorted(shapes)
        assert op_norm(m) == pytest.approx(np.linalg.svd(m, compute_uv=False)[0], rel=1e-13)


def test_nuclear_norm_of_permuted_block_matrices_matches_the_dense_svd(rng):
    # the sum over op_norm's blocks: square, rectangular and 1x1 blocks with empty rows
    # and columns, a weighted partial permutation (1x1 blocks alone), and zero
    cases = [permuted_blocks(rng, random_block_shapes(rng), *rng.integers(0, 3, size=2))
             for _ in range(300)]
    cases += [permuted_blocks(rng, [(1, 1)] * 7, 2, 1), np.zeros((4, 3), dtype=complex)]
    for m in cases:
        want = np.linalg.svd(m, compute_uv=False).sum()
        assert nuclear_norm(m) == pytest.approx(want, rel=1e-13)


def test_split_blocks_nonzero_count_bound_is_tight():
    # an entry beside a full (rows-1) x (cols-1) block is two blocks with
    # 1 + (rows-1)(cols-1) nonzeros; one more nonzero joins them
    for rows, cols in ((2, 2), (5, 3), (4, 7)):
        m = np.zeros((rows, cols))
        m[0, 0], m[1:, 1:] = 2.0, 1.0
        assert sum(len(ri) for ri, _, _ in split_blocks(m)) == 2
        assert op_norm(m) == pytest.approx(max(2.0, math.sqrt((rows - 1) * (cols - 1))),
                                           rel=1e-14)
        m[0, 1] = 1.0
        assert split_blocks(m) is None


def test_op_norm_two_ones_in_one_row_or_column():
    # a rule that inspected only rows or only columns would return 1 for some of
    # these; the square ones have no more nonzeros than their side
    for m in ([[1, 1]], [[1], [1]], [[1, 1], [0, 0]], [[1, 0], [1, 0]]):
        assert op_norm(m) == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_ball_report_rejects_tolerance_outside_range():
    for tol in (math.nan, math.inf, -1e-9):
        with pytest.raises(ParameterError):
            ball_report(radial_bump(3, 1.0), tol=tol)


def test_commutator_norm_of_staircase_is_one():
    for theta in THETAS:
        for m0 in (0, 3, 11):
            assert commutator_norm(staircase(m0, theta)) == pytest.approx(1.0, abs=1e-12)


def test_commutator_norm_zero_and_homogeneous(rng):
    assert commutator_norm(zero(1.0, 4)) == 0.0
    a = staircase(5, 1.0)
    for lam in (-2.5, 0.25, 3.0):
        assert commutator_norm(lam * a) == pytest.approx(abs(lam), rel=1e-12)


def test_ball_report_accepts_staircase():
    rep = ball_report(staircase(3, 1.0))
    assert rep.member
    assert rep.violations == ()
    assert rep.commutator_norm == pytest.approx(1.0, abs=1e-12)
    assert rep.slack == pytest.approx(0.0, abs=1e-12)


def test_ball_report_rejects_scaled_staircase():
    rep = ball_report(2.0 * staircase(3, 1.0))
    assert not rep.member
    assert rep.violations
    worst = max(v for (_, _, v) in rep.violations)
    assert worst == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_ball_report_zero_member_at_zero_tol():
    assert ball_report(zero(1.0, 3), tol=0.0).member


def test_ball_report_json():
    d = ball_report(2.0 * staircase(1, 1.0)).to_dict()
    assert set(d) == {"commutator_norm", "member", "violations"}
    assert all(len(v) == 3 for v in d["violations"])


def test_radial_membership():
    assert radial_in_ball(staircase(4, 0.5))
    assert radial_in_ball(radial_bump(2, 2.0))
    assert not radial_in_ball(3.0 * radial_bump(0, 2.0))


def test_radial_membership_requires_radial():
    with pytest.raises(PreconditionError):
        radial_in_ball(MoyalElement(1.0, [[0, 1], [0, 0]]))


def test_radial_membership_agrees_with_ball_report(rng):
    for i in range(40):
        theta = THETAS[i % 3]
        diag = rng.uniform(-1, 1, int(rng.integers(2, 10)))
        radial_member, ball_member = radial_membership_agreement(theta, diag, rng)
        assert radial_member == ball_member


def test_ball_entry_bound_after_rescaling(rng):
    for _ in range(40):
        worst, bound = ball_entry_bound(rand_element(rng, 1.0, 10))
        assert worst <= bound + 1e-9


def test_self_adjoint_derivative_norms_match(rng):
    for _ in range(20):
        lhs, rhs = self_adjoint_norm_symmetry(rand_element(rng, 2.0, 10))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_operator_norm_submultiplicative(rng):
    for _ in range(25):
        a = rand_element(rng, 1.0, 8)
        b = rand_element(rng, 1.0, 8)
        lhs, rhs = submultiplicativity(a, b)
        assert lhs <= rhs * (1 + 1e-12)


def test_norm_is_max_transport_ratio(rng):
    # ||L(a) phi|| / ||phi|| never exceeds the singular value, and the top
    # right singular vector achieves it
    a = rand_coeffs(rng, 8)
    nrm = op_norm(a)
    for _ in range(25):
        phi = rand_coeffs(rng, 8)
        assert np.linalg.norm(a @ phi) <= nrm * np.linalg.norm(phi) * (1 + 1e-12)
    _, _, vh = np.linalg.svd(a)
    phi = vh[0].conj().reshape(-1, 1)
    assert np.linalg.norm(a @ phi) == pytest.approx(nrm, rel=1e-10)
