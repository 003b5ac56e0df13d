import math

import numpy as np
import pytest

from specdist import admm, torus, verify
from specdist.admm import admm_maximize
from specdist.errors import ParameterError
from specdist.torus import (TorusElement, _element_from_params, _hermitian_sites, bicharacter,
                            box_matrix, box_shifts, coefficient_bound, deriv, deriv_bar,
                            involution, optimize_torus_distance, product, torus_closures,
                            torus_commutator_norm, torus_op_norm, torus_report, trace,
                            tracial_state, vector_state, weyl, weyl_certificate)
from specdist.verify import bicharacter_identities, weyl_certificate_gap

THETAS = (0.0, 0.25, 1 / 3, 0.37, math.sqrt(2) - 1)


def test_bicharacter_on_aligned_pairs():
    for theta in THETAS:
        for m in [(1, 0), (2, -3), (-4, 5)]:
            assert bicharacter(m, m, theta) == pytest.approx(1.0, abs=1e-15)
            assert bicharacter(m, (-m[0], -m[1]), theta) == pytest.approx(1.0, abs=1e-15)


def test_bicharacter_generator_exchange():
    assert bicharacter((1, 0), (0, 1), 0.25) == pytest.approx(np.exp(1j * np.pi / 4), abs=1e-15)


def test_bicharacter_equals_numpy_exp_bit_for_bit():
    # cmath.exp against np.exp of the same phase, signed zeros included, on the verify
    # torus suite's thetas and more, for m1 n2 - m2 n1 = k from -2000 to 2000
    thetas = (0.0, 0.25, 1.0 / 3.0, 0.37, math.sqrt(2.0) - 1.0, 0.9,
              0.5, 1.0, 2.0, -0.37, 1.7, 1e-3, 3.3)
    got, want = [], []
    for theta in thetas:
        for k in range(-2000, 2001):
            got.append(bicharacter((k, 0), (0, 1), theta))
            want.append(complex(np.exp(1j * np.pi * math.fmod(theta, 2.0) * k)))
    assert np.array_equal(np.array(got).view(np.uint64), np.array(want).view(np.uint64))


def test_bicharacter_identities(rng):
    for i in range(200):
        theta = THETAS[i % len(THETAS)]
        m, n, p = (tuple(rng.integers(-15, 16, 2)) for _ in range(3))
        lhs, rhs = bicharacter_identities(m, n, p, theta)
        # the homomorphism identities in the first and in the second argument
        assert lhs[:2] == pytest.approx(rhs[:2], abs=1e-12)


def test_weyl_product_exchange_phase():
    out = product(weyl(0.25, (1, 0)), weyl(0.25, (0, 1)))
    assert set(out.terms) == {(1, 1)}
    assert out.terms[(1, 1)] == pytest.approx(np.exp(1j * np.pi / 4), abs=1e-15)


def test_weyl_times_inverse_is_unit():
    for theta in THETAS:
        m = (2, -3)
        out = product(weyl(theta, m), weyl(theta, (-m[0], -m[1])))
        assert set(out.terms) == {(0, 0)}
        assert out.terms[(0, 0)] == pytest.approx(1.0, abs=1e-15)


def test_unit_is_neutral(rng):
    a = TorusElement(0.37, {(1, 2): 1 + 2j, (-3, 0): 0.5j})
    for out in (product(weyl(0.37, (0, 0)), a), product(a, weyl(0.37, (0, 0)))):
        assert out.terms == pytest.approx(a.terms)


def test_involution_reflects_and_conjugates():
    a = weyl(0.5, (2, -1), 1 + 1j)
    assert involution(a).terms == {(-2, 1): 1 - 1j}
    b = TorusElement(0.5, {(1, 0): 2.0, (-1, 0): 2.0})
    assert involution(b).terms == pytest.approx(b.terms)


def test_involution_antihomomorphism(rng):
    theta = 0.37
    a = TorusElement(theta, {(1, 0): 1 + 1j, (0, 2): -0.5})
    b = TorusElement(theta, {(0, 1): 2.0, (-1, -1): 1j})
    lhs = involution(product(a, b)).terms
    rhs = product(involution(b), involution(a)).terms
    assert set(lhs) == set(rhs)
    for k in lhs:
        assert lhs[k] == pytest.approx(rhs[k], abs=1e-14)


def test_derivations():
    d = deriv(weyl(0.3, (1, 0)))
    assert d.terms[(1, 0)] == pytest.approx(2j * np.pi, abs=1e-15)
    assert deriv(weyl(0.3, (0, 0))).terms == {}
    db = deriv_bar(weyl(0.3, (0, 1)))
    assert db.terms[(0, 1)] == pytest.approx(2 * np.pi, abs=1e-14)


def test_trace_and_derivation(rng):
    a = TorusElement(0.37, {(0, 0): 3.0, (1, 2): 1j, (-1, -2): -1j})
    assert trace(a) == 3.0
    assert trace(deriv(a)) == 0.0
    assert trace(weyl(0.5, (0, 0))) == 1.0


def test_vector_state_reads_coefficients():
    theta = 0.37
    m = (2, 1)
    st = vector_state(theta, m)
    assert st.expect(weyl(theta, m)) == pytest.approx(0.5, abs=1e-15)
    a = TorusElement(theta, {(0, 0): 2.0, m: 0.25, (-m[0], -m[1]): 0.75, (5, 5): 9.0})
    assert st.expect(a) - trace(a) == pytest.approx(0.5 * (0.25 + 0.75), abs=1e-15)


def test_vector_state_requires_nonzero_index():
    with pytest.raises(ParameterError):
        vector_state(0.37, (0, 0))


def test_box_norm_of_single_weyl():
    for theta in THETAS:
        m = (1, -2)
        for radius in (4, 16):
            assert torus_op_norm(weyl(theta, m), radius) == pytest.approx(1.0, abs=1e-12)
    assert torus_op_norm(TorusElement(0.5, {}), 3) == 0.0


def test_box_norm_monotone_in_radius(rng):
    a = TorusElement(0.37, {(1, 0): 1.0, (0, 1): 1.0, (-1, 1): 0.5j})
    vals = [torus_op_norm(a, r) for r in (4, 8, 12)]
    assert vals[0] <= vals[1] + 1e-12
    assert vals[1] <= vals[2] + 1e-12


def test_box_requires_headroom():
    with pytest.raises(ParameterError):
        torus_op_norm(weyl(0.37, (3, 0)), 3)


def test_certificate_commutator_norm_is_one():
    # deriv(c) = i U^M and deriv_bar(c) = i (m1 - i m2)/(m1 + i m2) U^M
    for m in [(1, 0), (0, 1), (3, 4), (-2, 3)]:
        c = weyl_certificate(m, 0.37)
        for d in (deriv(c), deriv_bar(c)):
            assert list(d.terms) == [m] and abs(abs(d.terms[m]) - 1.0) <= 1e-15
        r = c.support_radius + 1
        for radius in (r, 2 * r):
            assert torus_commutator_norm(c, radius) == pytest.approx(1.0, abs=1e-12)


def test_commutator_norm_homogeneous_and_zero():
    c = weyl_certificate((2, -1), 0.37)
    assert torus_commutator_norm(3.0 * c, box_radius=5) == pytest.approx(3.0, rel=1e-12)
    assert torus_commutator_norm(weyl(0.37, (0, 0)), box_radius=2) == 0.0


def test_certificate_report_builds_no_box(monkeypatch):
    def refuse(*args):
        raise AssertionError("a certificate-only report built a box matrix")

    monkeypatch.setattr(torus, "box_matrix", refuse)
    theta = 0.37
    rep = torus_report(vector_state(theta, (100, 0)), tracial_state(theta))
    assert rep.certificate_lower == pytest.approx(1 / (400 * np.pi), abs=1e-18)
    assert rep.order == 0
    # the larger of the two gaps, the first of equal ones
    for a, b, best in (((2, -5), (3, 4), "(3,4)"), ((4, 3), (3, 4), "(4,3)")):
        rep = torus_report(vector_state(theta, a), vector_state(theta, b))
        assert rep.certificate_id == f"weyl_certificate{best}"


def test_phases_reduce_theta_modulo_two():
    a = TorusElement(2.37, {(1, 0): 1.0, (0, 1): 0.5j, (-1, 2): 0.25})
    b = TorusElement(0.37, a.terms)
    assert abs(bicharacter((1, 2), (3, -1), 2.37) - bicharacter((1, 2), (3, -1), 0.37)) < 1e-12
    assert np.max(np.abs(box_matrix(a, 4) - box_matrix(b, 4))) < 1e-12
    for theta in (1e308, -1e300):
        assert np.all(np.isfinite(box_matrix(TorusElement(theta, a.terms), 4)))


def test_box_matrix_adjoint_symmetry():
    # the box restriction of the adjoint element is the adjoint of the restriction
    a = TorusElement(0.37, {(1, 0): 1 + 0.3j, (0, 2): -1j})
    t1 = box_matrix(involution(a), 4)
    t2 = box_matrix(a, 4).conj().T
    assert np.max(np.abs(t1 - t2)) < 1e-14


def test_report_vector_vs_trace():
    theta = 0.37
    rep = torus_report(vector_state(theta, (3, 4)), tracial_state(theta))
    # the distance 1/(pi^2 |M|) lies between the certificate and the coefficient bound
    assert rep.closed_form == pytest.approx(1 / (5 * np.pi ** 2), abs=1e-15)
    assert rep.analytic_upper == pytest.approx(1 / (10 * np.pi), abs=1e-15)
    # the scaled Weyl certificate realizes exactly half the coefficient bound
    assert rep.certificate_lower == pytest.approx(1 / (20 * np.pi), abs=1e-14)
    assert rep.certificate_id == "weyl_certificate(3,4)"


def test_fejer_means_of_the_triangle_wave_prove_the_closed_form():
    # torus_report's proof that the closed form is the supremum over polynomial elements.
    # sigma_K f(U^M) for f = L sum_{k odd} 4/(pi k^2) cos kt, L = 1/(2 pi |M|), has the
    # coefficient (2L/(pi k^2)) (1 - |k|/(K+1)) at kM (U^(kM) = (U^M)^k, as M commutes with
    # kM); its gap must tend to 1/(pi^2 |M|), and its commutator norm stay at most 1 on
    # every box (box norms approach the true norm from below)
    cases = [(m, k) for m in ((1, 0), (1, 1), (-1, 1)) for k in (4, 11)] + [((2, -3), 4)]
    for m, k_max in cases:
        lip = 1 / (2 * np.pi * math.hypot(*m))
        for theta in (0.25, 0.37, 0.5):
            a = TorusElement(theta, {(k * m[0], k * m[1]): 2 * lip / (np.pi * k * k)
                                     * (1 - abs(k) / (k_max + 1))
                                     for k in range(-k_max, k_max + 1) if k % 2})
            gap = abs(vector_state(theta, m).expect(a) - tracial_state(theta).expect(a))
            want = (1 - 1 / (k_max + 1)) / (np.pi ** 2 * math.hypot(*m))
            assert gap == pytest.approx(want, rel=1e-15, abs=0)
            r = a.support_radius + 1
            assert max(torus_commutator_norm(a, r), torus_commutator_norm(a, 2 * r)) <= 1.0


def test_report_same_state_zero():
    theta = 0.37
    rep = torus_report(tracial_state(theta), tracial_state(theta))
    assert rep.closed_form == 0.0 and rep.certificate_lower == 0.0
    rep = torus_report(vector_state(theta, (1, 0)), vector_state(theta, (-1, 0)))
    assert rep.closed_form == 0.0  # opposite indices generate the same functional


def test_report_rejects_unknown_keywords():
    with pytest.raises(TypeError):
        torus_report(vector_state(0.37, (1, 0)), tracial_state(0.37), bogus=3)
    with pytest.raises(TypeError):
        torus_report(vector_state(0.37, (1, 0)), tracial_state(0.37), optimize=True,
                     support_radius=2)


def test_report_vector_vector_bounds_only():
    theta = 0.37
    rep = torus_report(vector_state(theta, (1, 0)), vector_state(theta, (0, 1)))
    assert rep.closed_form is None
    assert rep.certificate_lower > 0
    assert rep.analytic_upper == pytest.approx(2 / (2 * np.pi), abs=1e-14)
    assert rep.certificate_lower <= rep.analytic_upper


def test_optimizer_beats_certificate():
    theta = 0.37
    s1 = vector_state(theta, (1, 0))
    s2 = tracial_state(theta)
    res = optimize_torus_distance(s1, s2, box_radius=6, max_iter=300)  # support 3
    cert, _ = weyl_certificate_gap((1, 0), theta)
    assert res.value > cert + 1e-4
    assert res.value <= coefficient_bound((1, 0)) + 1e-9
    assert res.feasibility_residual < 1e-9


def _column_list_operator(sites, theta, box_radius):
    # the torus optimizer's former build: a list of realified columns, stacked and transposed
    cols = []
    for i in range(2 * len(sites)):
        e = np.zeros(2 * len(sites))
        e[i] = 1.0
        t = box_matrix(deriv(_element_from_params(e, sites, theta)), box_radius)
        cols.append(np.concatenate([t.real.ravel(), t.imag.ravel()]))
    d = np.array(cols).T
    return d, np.linalg.inv(d.T @ d)


# (theta, support radius, box radius) of the closure checks
CLOSURE_CASES = ((0.37, 1, 3), (0.37, 2, 4), (0.25, 3, 5), (0.5, 3, 7))


def _gram_closed_form(sites, box_radius):
    side = 2 * box_radius + 1
    return np.repeat([2 * (2 * np.pi) ** 2 * (p1 * p1 + p2 * p2) * (side - abs(p1))
                      * (side - abs(p2)) for p1, p2 in sites], 2)


def test_box_shifts_fill_one_twisted_diagonal_per_mode():
    theta, r = 0.37, 4
    side = 2 * r + 1
    a = TorusElement(theta, {(1, 0): 1.0, (-2, 3): 2j, (0, -1): 0.5, (3, 3): -1.0})
    rows, cols, phases, counts = box_shifts(list(a.terms), theta, r)
    assert counts.tolist() == [(side - abs(p1)) * (side - abs(p2)) for p1, p2 in a.terms]
    for p, (lo, hi) in zip(a.terms, zip(np.cumsum(counts) - counts, np.cumsum(counts))):
        assert np.array_equal(rows[lo:hi], cols[lo:hi] + p[0] * side + p[1])
        n1, n2 = np.divmod(cols[lo:hi], side) - np.array(r)
        assert np.all((np.abs(n1 + p[0]) <= r) & (np.abs(n2 + p[1]) <= r))
        want = np.exp(1j * np.pi * theta * (p[0] * n2 - p[1] * n1))
        assert np.max(np.abs(phases[lo:hi] - want)) <= 1e-15
    hit = np.zeros((side * side, side * side), dtype=int)
    np.add.at(hit, (rows, cols), 1)
    assert hit.max() == 1  # every entry of the box matrix receives at most one term
    assert np.array_equal(box_matrix(a, r) != 0, hit == 1)


def test_torus_closures_match_the_column_list_operator(rng):
    for theta, support_radius, box_radius in CLOSURE_CASES:
        sites = _hermitian_sites(support_radius)
        d, gram_inv = _column_list_operator(sites, theta, box_radius)
        apply, adjoint, solve = torus_closures(sites, theta, box_radius)
        nz = (2 * box_radius + 1) ** 2
        for _ in range(3):
            x = rng.standard_normal(d.shape[1])
            want = d @ x
            got = apply(x)
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got.real.ravel() - want[:nz * nz])) <= 1e-12 * scale
            assert np.max(np.abs(got.imag.ravel() - want[nz * nz:])) <= 1e-12 * scale
            y = rng.standard_normal((nz, nz)) + 1j * rng.standard_normal((nz, nz))
            want = d.T @ np.concatenate([y.real.ravel(), y.imag.ravel()])
            assert np.max(np.abs(adjoint(y) - want)) <= 1e-12 * np.max(np.abs(want))
            r = rng.standard_normal(d.shape[1])
            want = gram_inv @ r
            assert np.max(np.abs(solve(r) - want)) <= 1e-12 * np.max(np.abs(want))


def test_torus_gram_is_the_closed_form_diagonal():
    for theta, support_radius, box_radius in CLOSURE_CASES:
        sites = _hermitian_sites(support_radius)
        d, _ = _column_list_operator(sites, theta, box_radius)
        gram = d.T @ d
        diag = _gram_closed_form(sites, box_radius)
        assert np.max(np.abs(np.diag(gram) - diag)) <= 1e-12 * np.max(diag)
        assert np.max(np.abs(gram - np.diag(np.diag(gram)))) <= 1e-12 * np.max(diag)
        _, _, solve = torus_closures(sites, theta, box_radius)
        ones = np.ones(len(diag))
        assert np.max(np.abs(solve(ones) * diag - 1.0)) <= 1e-14


def _dense_torus_optimizer(s1, s2, support_radius, box_radius):
    # optimize_torus_distance's steps, with closures over the column-list operator
    theta = s1.theta
    sites = _hermitian_sites(support_radius)
    d, gram_inv = _column_list_operator(sites, theta, box_radius)
    nz = (2 * box_radius + 1) ** 2

    def gap(x):
        el = _element_from_params(x, sites, theta)
        return float(np.real(s1.expect(el) - s2.expect(el)))

    def apply(x):
        v = d @ x
        return v[:nz * nz].reshape(nz, nz) + 1j * v[nz * nz:].reshape(nz, nz)

    wx = np.array([gap(e) for e in np.eye(d.shape[1])])
    best_x, it, _ = admm_maximize(
        wx, apply, lambda y: d.T @ np.concatenate([y.real.ravel(), y.imag.ravel()]),
        gram_inv.__matmul__, 1.0, 0.05, 2000)
    a = _element_from_params(best_x, sites, theta)
    cert = (1.0 / torus_commutator_norm(a, box_radius=box_radius + 2)) * a
    return abs(s1.expect(cert) - s2.expect(cert)), it


def test_optimizer_matches_the_dense_oracle():
    # (1, 0) at box 5, and (1, 1) at the default radii: support 3, box 7
    for theta, m, box_arg, box_radius in ((0.25, (1, 0), 5, 5), (0.37, (1, 1), None, 7)):
        s1, s2 = vector_state(theta, m), tracial_state(theta)
        res = optimize_torus_distance(s1, s2, box_radius=box_arg)
        assert res.order == box_radius
        value, iterations = _dense_torus_optimizer(s1, s2, 3, box_radius)
        assert res.iterations == iterations
        assert abs(res.value - value) <= 1e-12


def test_optimizer_clips_once_per_iteration_before_the_exit(monkeypatch):
    # every iteration clips, except the last, which exits before its clip; a clip that
    # moves nothing returns its input, so the iteration counts are those of dense clips
    clips, clip = [], admm.clip_spectral

    def counted(mat, radius):
        clips.append(mat.shape)
        return clip(mat, radius)

    monkeypatch.setattr(admm, "clip_spectral", counted)
    res = optimize_torus_distance(vector_state(0.37, (1, 0)), vector_state(0.37, (0, 1)),
                                  box_radius=5)
    assert (res.iterations, len(clips)) == (90, 89)  # the stall exit, at a check
    clips.clear()
    res = optimize_torus_distance(vector_state(0.25, (1, 0)), tracial_state(0.25), box_radius=5)
    assert (res.iterations, len(clips)) == (110, 109)


def test_box_svds_split_along_the_dual_action(monkeypatch):
    # on M = (1, 0) the iterates live on the sites (k, 0) with k odd (the dual action at
    # t = (pi, 0) negates the objective), so a box matrix splits by the line n2 and the
    # parity of n1: 22 blocks of 5 x 6 or 6 x 5 in the box of radius 5, 30 of 7 x 8 or
    # 8 x 7 in the validation box, each group taken as 5 x 6 and 7 x 8 by transposing
    # the tall blocks, where a dense SVD took 121 x 121 and 225 x 225
    shapes, svd = [], np.linalg.svd

    def recorded(a, *args, **kwargs):
        shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    res = optimize_torus_distance(vector_state(0.25, (1, 0)), tracial_state(0.25), box_radius=5)
    assert res.iterations == 110
    assert set(shapes) == {(22, 5, 6), (30, 7, 8)}


def test_split_box_optimizer_keeps_the_iteration_counts():
    # counts of the dense clips, for (0, 1) at theta 0.5 and the vector pair (1, 0), (0, 1)
    # (two parity blocks); (1, 0) and the vector pair are pinned above
    res = optimize_torus_distance(vector_state(0.5, (0, 1)), tracial_state(0.5), box_radius=5)
    assert res.iterations == 110
    res = optimize_torus_distance(vector_state(0.37, (1, 0)), vector_state(0.37, (0, 1)),
                                  box_radius=5)
    assert res.iterations == 90


def test_validation_box_of_deriv_bar_is_the_adjoint_of_derivs():
    # for self-adjoint a, deriv_bar(a) = deriv(a)*, bit for bit on every box, so
    # torus_commutator_norm takes one SVD
    rng = np.random.default_rng(14)
    for _ in range(30):
        support = int(rng.integers(1, 4))
        sites = _hermitian_sites(support)
        theta = float(rng.uniform(-3.0, 3.0))
        a = _element_from_params(rng.standard_normal(2 * len(sites)), sites, theta)
        a = float(rng.uniform(0.1, 10.0)) * a
        assert involution(a).terms == a.terms
        for radius in range(support + 2, support + 5):
            want = np.ascontiguousarray(box_matrix(deriv(a), radius).conj().T)
            got = box_matrix(deriv_bar(a), radius)
            assert np.array_equal(got.view(float), want.view(float))
            # the same singular values, up to the SVD's rounding on the transpose
            assert torus_op_norm(deriv_bar(a), radius) == pytest.approx(
                torus_op_norm(deriv(a), radius), rel=1e-13)
            assert torus_commutator_norm(a, radius) == torus_op_norm(deriv(a), radius)


def test_commutator_norm_of_non_self_adjoint_elements_is_the_larger_derivation_norm():
    rng = np.random.default_rng(30)
    elements = [weyl_certificate((2, -1), 0.37)] + [
        TorusElement(0.37, {tuple(int(v) for v in rng.integers(-2, 3, 2)):
                            complex(*rng.standard_normal(2)) for _ in range(5)})
        for _ in range(5)]
    spreads = []
    for el in elements:
        assert involution(el).terms != el.terms
        for radius in (3, 5):
            norms = torus_op_norm(deriv(el), radius), torus_op_norm(deriv_bar(el), radius)
            assert torus_commutator_norm(el, radius) == max(norms)
            spreads.append(abs(norms[0] - norms[1]) / max(norms))
    # the derivations' norms differ here, so one SVD would not give the larger
    assert max(spreads) > 1e-2


def test_verify_torus_suite_takes_one_box_norm_per_self_adjoint_element(monkeypatch):
    calls = []
    op_norm_of = torus.torus_op_norm

    def counting(a, box_radius):
        calls.append(box_radius)
        return op_norm_of(a, box_radius)

    monkeypatch.setattr(torus, "torus_op_norm", counting)
    verify.torus_suite()
    assert len(calls) == 60


def test_verify_coefficient_bound_takes_the_smallest_box_that_holds_every_coefficient(
        monkeypatch):
    # the check rescales by the norm at box support + 1, the smallest that box_matrix
    # accepts; coefficient p of either derivation is that box matrix's entry (p, 0), with
    # its own modulus, so the norm still dominates every coefficient.  Its margin is the
    # largest rescaled coefficient minus 1.
    seen, norm = [], torus.torus_commutator_norm

    def recording(a, box_radius):
        seen.append((a, box_radius))
        return norm(a, box_radius)

    monkeypatch.setattr(torus, "torus_commutator_norm", recording)
    check = verify.torus_suite().checks[4]
    assert check.name == "derivative_coefficient_bound" and check.passed and len(seen) == 60
    largest = []
    for a, r in seen:
        assert r == a.support_radius + 1
        with pytest.raises(ParameterError, match="undersized"):
            box_matrix(a, r - 1)
        side, scaled = 2 * r + 1, (1.0 / norm(a, r)) * a
        for d in (deriv(a), deriv_bar(a)):
            with pytest.raises(ParameterError, match="undersized"):
                box_matrix(d, r - 1)
            t = box_matrix(d, r)
            for (p1, p2), c in d.terms.items():
                assert abs(t[(p1 + r) * side + p2 + r, r * side + r]) == abs(c)
        largest += [abs(v) for d in (deriv(scaled), deriv_bar(scaled)) for v in d.terms.values()]
    assert check.worst == max(largest) - 1.0 and -0.5 < check.worst < 0.0


def test_optimizer_size_guard_is_unchanged():
    # refused exactly when npar * 2 (2R+1)^4 > 3e7, with npar = (2 support + 1)^2 - 1 and
    # support 3 max|m| (3 for the tracial state); a state against itself returns right
    # after the guard
    for s, last_box in ((tracial_state(0.37), 11), (vector_state(0.37, (2, 0)), 8)):
        res = optimize_torus_distance(s, s, box_radius=last_box)
        assert res.iterations == 0 and res.order == last_box
        with pytest.raises(ParameterError, match="size guard"):
            optimize_torus_distance(s, s, box_radius=last_box + 1)


def test_elements_are_immutable():
    a = weyl(0.37, (1, 0))
    with pytest.raises(TypeError):
        a.terms[(1, 0)] = 5.0
