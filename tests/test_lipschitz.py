import math
import warnings

import numpy as np
import pytest

from specdist import lipschitz, verify
from specdist.algebra import MoyalElement, involution, radial, zero
from specdist.calculus import bump_diagonal, dz, dzbar, staircase
from specdist.errors import ParameterError
from specdist.lipschitz import (LAYOUT_CACHE_SIZE, _block_layout, _blocks,
                                ball_report, commutator_norm, nuclear_norm, op_norm,
                                radial_ball_report)
from specdist.verify import (DEFAULT_SEED, Draws, ball_entry_bound, radial_membership_agreement,
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


def _groups(m):
    """`_blocks` of one matrix as a list of (index, blocks) per group, index None for a
    matrix whose nonzero count proves it is one block."""
    return [(index, blocks) for _, index, blocks in _blocks(m[None])]


def _whole(m):
    """Whether `_blocks` takes the matrix m whole."""
    return [index is None for index, _ in _groups(m)] == [True]


def _block_shapes(groups):
    """The shape of every block of `_groups`, a tall one as its transpose."""
    return sorted(index.shape[1:] for index, _ in groups for _ in index)


def test_op_norm_of_permuted_block_matrices_matches_the_dense_svd(rng):
    # square, rectangular and 1x1 blocks with empty rows and columns: _blocks finds
    # every block, unless the nonzero count proves there is one, and the norm is the
    # dense SVD's
    for _ in range(300):
        shapes = random_block_shapes(rng)
        m = permuted_blocks(rng, shapes, *rng.integers(0, 3, size=2))
        if _whole(m):
            assert len(shapes) == 1
        else:
            assert _block_shapes(_groups(m)) == sorted((min(s), max(s)) for s in shapes)
        assert op_norm(m) == pytest.approx(np.linalg.svd(m, compute_uv=False)[0], rel=1e-13)


def test_blocks_groups_partition_the_nonzeros(rng):
    # tall and wide blocks with empty rows and columns, 1x1 blocks alone and one block
    # alone: the groups' indices are disjoint and cover exactly the nonzeros
    # (every block is dense), each stack is its index's gather bit for bit, and no
    # stack is tall
    cases = [random_block_shapes(rng) for _ in range(200)]
    cases = [s + [(q, p) for p, q in s[:2]] for s in cases] + [[(1, 1)] * 5, [(5, 2)], [(2, 5)]]
    for shapes in cases:
        m = permuted_blocks(rng, shapes, *rng.integers(1, 3, size=2))
        covered = np.zeros(m.size, dtype=int)
        for index, stack in _groups(m):
            assert stack.shape == index.shape and index.shape[1] <= index.shape[2]
            assert stack.tobytes() == m.ravel()[index].tobytes()
            np.add.at(covered, index.ravel(), 1)
        assert np.array_equal(covered.reshape(m.shape), (m != 0).astype(int))


def test_nuclear_norm_of_permuted_block_matrices_matches_the_dense_svd(rng):
    # the sum over op_norm's blocks: square, rectangular and 1x1 blocks with empty rows
    # and columns, a weighted partial permutation (1x1 blocks alone), and zero
    cases = [permuted_blocks(rng, random_block_shapes(rng), *rng.integers(0, 3, size=2))
             for _ in range(300)]
    cases += [permuted_blocks(rng, [(1, 1)] * 7, 2, 1), np.zeros((4, 3), dtype=complex)]
    for m in cases:
        want = np.linalg.svd(m, compute_uv=False).sum()
        assert nuclear_norm(m) == pytest.approx(want, rel=1e-13)


def test_blocks_nonzero_count_bound_is_tight():
    # an entry beside a full (rows-1) x (cols-1) block is two blocks with
    # 1 + (rows-1)(cols-1) nonzeros; one more nonzero joins them
    for rows, cols in ((2, 2), (5, 3), (4, 7)):
        m = np.zeros((rows, cols))
        m[0, 0], m[1:, 1:] = 2.0, 1.0
        assert sum(len(index) for index, _ in _groups(m)) == 2
        assert op_norm(m) == pytest.approx(max(2.0, math.sqrt((rows - 1) * (cols - 1))),
                                           rel=1e-14)
        m[0, 1] = 1.0
        assert _whole(m)


def _assert_same_groups(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for x, y in zip(g, w):
            assert x.dtype == y.dtype and x.shape == y.shape
            assert x.tobytes() == y.tobytes()  # bit for bit


def test_blocks_labels_each_pattern_once(rng):
    # four blocks in three groups, a 3 x 2 block with its 2 x 3 transpose, with empty
    # rows and columns: the nonzero count does not prove one block, so the layout comes
    # from the cache
    shapes = [(2, 3), (3, 2), (2, 2), (4, 4)]
    m = permuted_blocks(rng, shapes, 2, 1)
    _block_layout.cache_clear()
    first = _groups(m)
    assert _block_layout.cache_info()[:2] == (0, 1)  # (hits, misses)
    _assert_same_groups(_groups(m), first)
    assert _block_layout.cache_info()[:2] == (1, 1)
    _block_layout.cache_clear()
    _assert_same_groups(_groups(m), first)
    # the same pattern with other values: the cached layout, the blocks of the new matrix
    scaled = _groups(2.0 * m)
    assert _block_layout.cache_info()[:2] == (1, 1)
    for (_, s), (_, f) in zip(scaled, first):
        assert np.array_equal(s, 2.0 * f)
    # the same shape with another pattern gets its own labelling
    other = permuted_blocks(rng, shapes, 2, 1)
    assert not np.array_equal(other != 0, m != 0)
    blocks = _groups(other)
    assert _block_layout.cache_info()[:2] == (1, 2)
    assert len(blocks) == 3
    assert _block_shapes(blocks) == [(2, 2), (2, 3), (2, 3), (4, 4)]
    for index, stack in blocks:  # read-only indices; the blocks are the caller's
        assert not index.flags.writeable
        with pytest.raises(ValueError):
            index[0, 0, 0] = 0
        assert stack.flags.writeable


def test_blocks_cache_stays_within_its_maxsize(rng):
    _block_layout.cache_clear()
    for _ in range(LAYOUT_CACHE_SIZE + 5):
        _groups(permuted_blocks(rng, [(2, 2), (2, 3), (3, 3)], 1, 1))
    info = _block_layout.cache_info()
    assert info.misses == LAYOUT_CACHE_SIZE + 5
    assert info.maxsize == info.currsize == LAYOUT_CACHE_SIZE


def test_blocks_of_a_stack_stay_inside_their_slices(rng):
    # a diagonal and a shifted diagonal, laid over one another, are one 6 x 6 block; with
    # labelled slices and a dense one, every block lies in the slice owner names, and the
    # groups partition exactly the nonzeros of the slices that are not whole
    shift = np.roll(np.diag(rng.standard_normal(6)), 1, axis=1)
    slices = [np.diag(rng.standard_normal(6)), shift, rand_coeffs(rng, 6)]
    slices += [permuted_blocks(rng, [(2, 3), (3, 2), (1, 1)]) for _ in range(3)]
    stack = np.stack(slices)
    groups = list(_blocks(stack))
    assert [list(owner) for owner, index, _ in groups if index is None] == [[2]]
    covered = np.zeros(stack.size, dtype=int)
    for owner, index, blocks in groups[1:]:
        assert index is not None and len(owner) == len(index)
        assert np.array_equal(index // 36, np.broadcast_to(owner[:, None, None], index.shape))
        assert blocks.tobytes() == stack.ravel()[index].tobytes()
        np.add.at(covered, index.ravel(), 1)
    want = (stack != 0).astype(int)
    want[2] = 0
    assert np.array_equal(covered.reshape(stack.shape), want)
    assert sum(len(index) for _, index, b in groups[1:] if b.shape[1:] == (1, 1)) == 15
    assert np.array_equal(op_norm(stack), [op_norm(m) for m in slices])


def test_blocks_labels_a_stack_in_one_call(rng):
    # a dense slice, a band, a slice that is one block on its nonzero lines and a labelled
    # one: the slices that are not whole take one labelling, and the same pattern a hit
    slices = [rand_coeffs(rng, 7), np.diag(rng.standard_normal(6), 1),
              _placed(rng, rand_coeffs(rng, 3)[:2], 7, 7),
              permuted_blocks(rng, [(2, 3), (3, 2), (2, 2)])]
    stack = np.stack(slices)
    _block_layout.cache_clear()
    first = [g for g in _blocks(stack) if g[1] is not None]
    assert _block_layout.cache_info()[:2] == (0, 1)  # (hits, misses)
    _assert_same_groups([g for g in _blocks(stack) if g[1] is not None], first)
    assert _block_layout.cache_info()[:2] == (1, 1)
    assert sorted(set(np.concatenate([owner for owner, _, _ in first]).tolist())) == [1, 2, 3]


def test_op_norm_two_ones_in_one_row_or_column():
    # a rule that inspected only rows or only columns would return 1 for some of
    # these; the square ones have no more nonzeros than their side
    for m in ([[1, 1]], [[1], [1]], [[1, 1], [0, 0]], [[1, 0], [1, 0]]):
        assert op_norm(m) == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_ball_report_rejects_tolerance_outside_range():
    for tol in (math.nan, math.inf, -1e-9):
        with pytest.raises(ParameterError):
            ball_report(radial(1.0, bump_diagonal(3, 1.0)), tol=tol)


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
    assert ball_report(staircase(4, 0.5)).member
    assert ball_report(radial(2.0, bump_diagonal(2, 2.0))).member
    assert not ball_report(3.0 * radial(2.0, bump_diagonal(0, 2.0))).member


def test_radial_membership_agrees_with_ball_report(rng):
    for i in range(40):
        theta = THETAS[i % 3]
        diag = rng.uniform(-1, 1, int(rng.integers(2, 10)))
        (member, radial_rep), (svd_member, dense_rep) = radial_membership_agreement(theta, diag,
                                                                                    rng)
        assert member == svd_member
        assert radial_rep == dense_rep


def test_radial_ball_report_is_ball_report_of_the_radial_element(rng):
    # random complex diagonals whose derivative entries have modulus between 0.35 and
    # 0.71 before the scale, so members and violations both occur
    violations = 0
    for order in range(1, 41):
        for theta in THETAS:
            steps = (rng.uniform(0.5, 1.0, order) * np.exp(2j * np.pi * rng.uniform(size=order))
                     * np.sqrt(theta / 2.0 / np.arange(1, order + 1)))
            base = np.cumsum(steps[::-1])[::-1]
            for scale in (0.0, -1.5, 0.5, 1.0, 2.0, 3.0):
                for tol in (0.0, 1e-9):
                    got = radial_ball_report(theta, scale * base, tol)
                    want = ball_report(radial(theta, scale * base), tol)
                    assert got == want
                    assert got.to_dict() == want.to_dict()
                    violations += len(got.violations)
    assert violations > 0


def test_radial_ball_report_refuses_what_ball_report_of_radial_refuses():
    assert radial_ball_report(1.0, []) == ball_report(radial(1.0, []))
    for theta, tol in ((0.0, 1e-9), (math.nan, 1e-9), (-1.0, math.nan), (1.0, math.nan),
                       (1.0, math.inf), (1.0, -1e-9)):
        with pytest.raises(ParameterError) as dense:
            ball_report(radial(theta, [1.0, 0.5]), tol)
        with pytest.raises(ParameterError) as diagonal:
            radial_ball_report(theta, [1.0, 0.5], tol)
        assert str(diagonal.value) == str(dense.value)


def test_a_commutator_norm_past_the_float_range_is_refused_without_warnings():
    # finite coefficients whose derivative overflows at tiny theta, on both paths, and a
    # finite derivative whose norm times sqrt(2) overflows
    cases = ((lambda: radial_ball_report(1e-20, [1.5e308, 1e308]), 1e-20),
             (lambda: ball_report(radial(1e-20, [1.5e308, 1e308])), 1e-20),
             (lambda: ball_report(MoyalElement(1e-300, [[1e300, 0.0], [0.0, 0.0]])), 1e-300),
             (lambda: ball_report(MoyalElement(1.0, [[1.5e308, 0.0], [0.0, 0.0]])), 1.0),
             (lambda: radial_ball_report(1.0, [1.5e308]), 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for report, theta in cases:
            with pytest.raises(ParameterError, match=f"overflows the float range at theta {theta}"):
                report()


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


def _counting_op_norm(monkeypatch):
    calls = []
    op = lipschitz.op_norm
    monkeypatch.setattr(lipschitz, "op_norm", lambda m: calls.append(m.shape) or op(m))
    return calls


def test_a_hermitian_element_takes_one_svd_within_4_ulps_of_both(rng, monkeypatch):
    calls = _counting_op_norm(monkeypatch)
    for order in (1, 2, 5, 16, 40):
        for theta in THETAS:
            a = MoyalElement(theta, rand_coeffs(rng, order))
            h = 0.5 * (a + involution(a))
            assert np.array_equal(dzbar(h).coeffs, dz(h).coeffs.conj().T)
            both = float(np.sqrt(2.0) * max(op_norm(dz(h).coeffs), op_norm(dzbar(h).coeffs)))
            calls.clear()
            one = commutator_norm(h)
            assert abs(one - both) <= 4 * np.spacing(both)
            assert ball_report(h).commutator_norm == one
            assert len(calls) == 2  # one SVD for each of the two calls
            if order > 1:  # a non-hermitian element still takes both derivatives
                want = float(np.sqrt(2.0) * max(op_norm(dz(a).coeffs), op_norm(dzbar(a).coeffs)))
                calls.clear()
                assert commutator_norm(a) == want
                assert len(calls) == 2


def test_a_hermitian_element_lists_dzbar_violations_as_dz_transposes(rng):
    for order in (3, 8, 20):
        a = MoyalElement(1.0, rand_coeffs(rng, order))
        h = 0.5 * (a + involution(a))
        want = []  # the two scans of the two-derivative listing
        for mat in (dz(h).coeffs, dzbar(h).coeffs):
            rows, cols = np.nonzero(np.abs(mat) > lipschitz.ENTRY_BOUND + 1e-9)
            want += [(int(r), int(c), float(abs(mat[r, c]))) for r, c in zip(rows, cols)]
        assert want and ball_report(h).violations == tuple(want)


@pytest.mark.parametrize("dtype", [float, complex])
def test_clip_falls_back_to_gram_eigendecompositions_when_the_svd_fails(rng, dtype,
                                                                        monkeypatch):
    # LAPACK's divide-and-conquer SVD sporadically fails to converge; the fallback must
    # give the SVD path's tops and clip, to rounding of the largest singular value
    stack = rng.standard_normal((6, 5, 3)).astype(dtype)
    if dtype is complex:
        stack += 1j * rng.standard_normal((6, 5, 3))
    tops = np.linalg.svd(stack, compute_uv=False)[:, 0]
    scale = float(tops.max())
    radii = (float(np.median(tops)), 2.0 * scale)  # half the matrices clipped, then none
    expected = [lipschitz._clip_stack(stack, radius) for radius in radii]
    failures = []

    def failing_svd(*args, **kwargs):
        failures.append(args)
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    for radius, (top, clipped) in zip(radii, expected):
        fallback_top, fallback_clipped = lipschitz._clip_stack(stack, radius)
        assert np.max(np.abs(fallback_top - top)) <= 1e-12 * scale
        if clipped is None:
            assert fallback_clipped is None
        else:
            assert fallback_clipped.dtype == stack.dtype
            assert np.max(np.abs(fallback_clipped - clipped)) <= 1e-12 * scale
    assert len(failures) == 2 and expected[1][1] is None


def _placed(rng, block, rows, cols):
    """block in a zero rows x cols matrix, on randomly chosen rows and columns."""
    m = np.zeros((rows, cols), dtype=block.dtype)
    r = np.sort(rng.choice(rows, block.shape[0], replace=False))
    c = np.sort(rng.choice(cols, block.shape[1], replace=False))
    m[np.ix_(r, c)] = block
    return m


def _two_blocks(rng, draw, big):
    """A 2 x 2 and a 2 x 3 block, block big ten times the other, with one empty row and
    column and the rows and columns shuffled: the largest norm in either group."""
    m = np.zeros((5, 6), dtype=draw(1, 1).dtype)
    m[:2, :2] = draw(2, 2) * (10.0 if big == 0 else 1.0)
    m[2:4, 2:5] = draw(2, 3) * (10.0 if big == 1 else 1.0)
    return m[rng.permutation(5)][:, rng.permutation(6)]


def _branch_instances(rng, dtype):
    """Matrices of each kind of pattern, each unpadded: dense (the whole-matrix SVD;
    each either 11 x 12 or smaller in both dimensions, so no padded slice takes the
    whole-matrix SVD over zero lines), weighted partial permutations (1x1 blocks alone),
    one wide and one tall block on some of the lines, several blocks of three shapes
    and zero."""
    draw = lambda *shape: (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                           if dtype is complex else rng.standard_normal(shape))
    out = {"dense": [draw(n, n + 1) for n in range(2, 12)] + [draw(n, n) for n in range(2, 11)],
           "bands": [np.diag(draw(n), k) for n in range(1, 9) for k in (-1, 1)],
           "wide": [_placed(rng, draw(3, 5), 6, 8), _placed(rng, draw(2, 4), 5, 9)],
           "tall": [_placed(rng, draw(5, 3), 8, 6), _placed(rng, draw(4, 2), 9, 5)],
           "labelled": [permuted_blocks(rng, [(2, 3), (3, 2), (2, 2)], 1, 1).real.astype(dtype)
                        for _ in range(3)] + [_two_blocks(rng, draw, big) for big in (0, 1)],
           "zero": [np.zeros((3, 4), dtype), np.zeros((1, 1), dtype)]}
    return out


def _padded_stack(instances, lead):
    """The instances zero-padded to one shape and stacked along the leading shape lead."""
    rows = max(m.shape[0] for m in instances)
    cols = max(m.shape[1] for m in instances)
    stack = np.zeros((len(instances), rows, cols), dtype=instances[0].dtype)
    for j, m in enumerate(instances):
        stack[j, :m.shape[0], :m.shape[1]] = m
    return stack.reshape(lead + (rows, cols))


@pytest.mark.parametrize("dtype", [float, complex])
def test_op_norm_of_a_stack_is_each_slice_norm_bit_for_bit(rng, dtype):
    # every kind alone and all of them in one stack, with two leading axes: each norm is
    # the norm of its slice alone and of the unpadded instance it was padded from
    branches = _branch_instances(rng, dtype)
    assert _whole(branches["dense"][0])
    assert all(b.shape[1:] == (1, 1) for m in branches["bands"] for _, b in _groups(m))
    assert all(not _whole(m) and len(_groups(m)) == 1
               for m in branches["wide"] + branches["tall"])
    assert all(len(_groups(m)) == 2 for m in branches["labelled"])
    assert _block_shapes(_groups(branches["labelled"][-1])) == [(2, 2), (2, 3)]
    cases = list(branches.values()) + [[m for ms in branches.values() for m in ms]]
    for instances in cases:
        instances = instances + instances[:len(instances) % 2]  # an even count, for (2, k/2)
        stack = _padded_stack(instances, (2, len(instances) // 2))
        norms = op_norm(stack)
        assert norms.shape == stack.shape[:2] and norms.dtype == np.float64
        for j, m in enumerate(instances):
            at = np.unravel_index(j, stack.shape[:2])
            assert norms[at].tobytes() == np.float64(op_norm(stack[at])).tobytes()
            assert norms[at].tobytes() == np.float64(op_norm(m)).tobytes()
            assert norms[at] == pytest.approx(np.linalg.svd(m, compute_uv=False)[0], rel=1e-13)
    assert np.array_equal(op_norm(np.zeros((2, 3, 0, 4))), np.zeros((2, 3)))
    assert op_norm(np.zeros((0, 3, 3))).shape == (0,)


def test_a_slice_padded_along_one_axis_may_take_the_whole_svd_over_its_zero_lines(rng):
    # a dense 12 x 12 matrix padded to 12 x 13 is still one block by its nonzero count, so
    # the padded slice takes the SVD of all 13 columns, one of them zero: the unpadded
    # matrix's norm to a few ulps, not bit for bit
    m = rand_coeffs(rng, 12)
    padded = _padded_stack([m, np.zeros((12, 13))], (2,))
    assert _whole(padded[0])
    assert abs(op_norm(padded)[0] - op_norm(m)) <= 4 * np.spacing(op_norm(m))


def test_op_norm_refuses_fewer_than_two_axes():
    for value in (2.0, np.zeros(3), [1.0, 2.0]):
        with pytest.raises(ParameterError, match="matrix or a stack"):
            op_norm(value)


def test_commutator_norm_of_a_stack_is_each_slice_norm_bit_for_bit(rng, monkeypatch):
    # hermitian and non-hermitian slices of several orders, zero-padded to one order, with
    # two leading axes; a stack takes one op_norm call for dz and one for the others' dzbar
    for theta in THETAS:
        elements = []
        for order in (1, 2, 5, 8, 12):
            a = MoyalElement(theta, rand_coeffs(rng, order))
            elements += [a, 0.5 * (a + involution(a)), zero(theta, order)]
        c = _padded_stack([e.coeffs for e in elements], (3, len(elements) // 3))
        stack = MoyalElement(theta, c)
        calls = _counting_op_norm(monkeypatch)
        norms = commutator_norm(stack)
        assert len(calls) == 2 and norms.shape == c.shape[:2]
        calls.clear()
        for j in np.ndindex(c.shape[:2]):
            alone = commutator_norm(MoyalElement(theta, c[j]))
            assert norms[j].tobytes() == np.float64(alone).tobytes()
        hermitian = MoyalElement(theta, c.reshape((-1,) + c.shape[2:])[1::3])
        calls.clear()
        commutator_norm(hermitian)
        assert len(calls) == 1
        monkeypatch.undo()


def test_ball_report_refuses_a_stack():
    stack = MoyalElement(1.0, np.zeros((2, 3, 3)))
    with pytest.raises(ParameterError, match=r"one element, got coefficients of shape \(2, 3, 3\)"):
        ball_report(stack)


def test_lipschitz_suite_reports_violations_in_instance_order(monkeypatch):
    # instances 7 and 163 of the norm symmetry check fall in different chunks and are
    # evaluated inside stacks; a broken identity must be reported for exactly those two,
    # in instance order.  The suite's draws, replayed, mark the two instances.
    marks, rng = [], Draws(DEFAULT_SEED + 2)
    for i in range(164):
        a = rand_element(rng, THETAS[i % 3], 12)
        if i in (7, 163):
            marks.append(a.coeffs[0, 0])
    symmetry = verify.self_adjoint_norm_symmetry

    def broken(a):
        lhs, rhs = symmetry(a)
        return lhs + np.isin(a.coeffs[..., 0, 0], marks), rhs

    assert 7 // verify.CHUNK != 163 // verify.CHUNK
    monkeypatch.setattr(verify, "self_adjoint_norm_symmetry", broken)
    checks = {c.name: c for c in verify.lipschitz_suite().checks}
    assert [v.split(":")[0] for v in checks["self_adjoint_norm_symmetry"].violations] == [
        "instance 7", "instance 163"]
    assert all(c.passed for name, c in checks.items() if name != "self_adjoint_norm_symmetry")


def test_one_sided_checks_keep_their_largest_signed_margin():
    # entry - bound for the entry bound (replayed one instance at a time, to rounding),
    # ratio - 1 for submultiplicativity, and for exactness the larger of ratio - 1 and the
    # top vector's deviation; the boolean membership check keeps none
    checks = {c.name: c for c in verify.lipschitz_suite().checks}
    rng = Draws(DEFAULT_SEED + 2)
    for i in range(200):
        rand_element(rng, THETAS[i % 3], 12)
    entries = [ball_entry_bound(rand_element(rng, THETAS[i % 3], 12))[0] for i in range(500)]
    assert checks["ball_entry_bound"].worst == pytest.approx(
        max(entries) - lipschitz.ENTRY_BOUND, abs=1e-12)
    assert -1.0 < checks["ball_entry_bound"].worst < 0.0
    assert -1.0 < checks["operator_norm_submultiplicative"].worst < 0.0
    assert 0.0 <= checks["left_multiplication_norm_exactness"].worst <= 1e-10
    assert checks["radial_membership_agreement"].worst is None
