import math

import numpy as np
import pytest

from specdist import distance, torus
from specdist.distance import admm_maximize
from specdist.errors import ParameterError
from specdist.lipschitz import op_norm
from specdist.torus import (TorusElement, _element_from_params, _hermitian_sites, bicharacter,
                            box_matrix, box_shifts, coefficient_bound, deriv, deriv_bar,
                            involution, optimize_torus_distance, product, torus_closures,
                            torus_commutator_norm, torus_op_norm, torus_report, trace,
                            tracial_state, unit, vector_state, weyl, weyl_certificate)
from specdist.verify import bicharacter_identities, weyl_certificate_gap

THETAS = (0.0, 0.25, 1 / 3, 0.37, math.sqrt(2) - 1)


def test_bicharacter_on_aligned_pairs():
    for theta in THETAS:
        for m in [(1, 0), (2, -3), (-4, 5)]:
            assert bicharacter(m, m, theta) == pytest.approx(1.0, abs=1e-15)
            assert bicharacter(m, (-m[0], -m[1]), theta) == pytest.approx(1.0, abs=1e-15)


def test_bicharacter_generator_exchange():
    assert bicharacter((1, 0), (0, 1), 0.25) == pytest.approx(np.exp(1j * np.pi / 4), abs=1e-15)


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
    for out in (product(unit(0.37), a), product(a, unit(0.37))):
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
    assert deriv(unit(0.3)).terms == {}
    db = deriv_bar(weyl(0.3, (0, 1)))
    assert db.terms[(0, 1)] == pytest.approx(2 * np.pi, abs=1e-14)


def test_trace_and_derivation(rng):
    a = TorusElement(0.37, {(0, 0): 3.0, (1, 2): 1j, (-1, -2): -1j})
    assert trace(a) == 3.0
    assert trace(deriv(a)) == 0.0
    assert trace(unit(0.5)) == 1.0


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
    assert torus_commutator_norm(unit(0.37), box_radius=2) == 0.0


def test_certificate_report_builds_no_box(monkeypatch):
    def refuse(*args):
        raise AssertionError("a certificate-only report built a box matrix")

    monkeypatch.setattr(torus, "box_matrix", refuse)
    theta = 0.37
    rep = torus_report(vector_state(theta, (100, 0)), tracial_state(theta))
    assert rep.certificate_lower == pytest.approx(1 / (400 * np.pi), abs=1e-18)
    assert rep.truncation_order == 0
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
    assert rep.closed_form == pytest.approx(1 / (10 * np.pi), abs=1e-15)
    assert rep.analytic_upper == pytest.approx(1 / (10 * np.pi), abs=1e-15)
    # the scaled Weyl certificate realizes exactly half the coefficient bound
    assert rep.certificate_lower == pytest.approx(1 / (20 * np.pi), abs=1e-14)
    assert rep.certificate_id == "weyl_certificate(3,4)"


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
    res = optimize_torus_distance(s1, s2, support_radius=2, box_radius=6,
                                  max_iter=300)
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
        assert res.box_radius == box_radius
        value, iterations = _dense_torus_optimizer(s1, s2, 3, box_radius)
        assert res.iterations == iterations
        assert abs(res.value - value) <= 1e-12


def test_optimizer_skips_most_tracking_norms(monkeypatch):
    # admm_maximize takes an iterate's norm only where its one-vector bound cannot
    # rule out an improvement
    calls = []

    def counted(m):
        calls.append(m.shape)
        return op_norm(m)

    monkeypatch.setattr(distance, "op_norm", counted)
    res = optimize_torus_distance(vector_state(0.25, (1, 0)), tracial_state(0.25), box_radius=5)
    assert res.iterations == 110
    assert 0 < len(calls) < res.iterations // 2


def test_optimizer_skips_idle_clip_svds(monkeypatch):
    # while no clip has moved anything, a Schur bound within the radius stands in for
    # the clip's SVD; iteration counts are those of a clip SVD every iteration
    clips, clip = [], distance.clip_spectral

    def counted(mat, radius):
        clips.append(mat.shape)
        return clip(mat, radius)

    monkeypatch.setattr(distance, "clip_spectral", counted)
    res = optimize_torus_distance(vector_state(0.37, (1, 1)), tracial_state(0.37))
    assert (res.iterations, len(clips)) == (51, 1)  # 50 clips, none moves anything
    clips.clear()
    res = optimize_torus_distance(vector_state(0.25, (1, 0)), tracial_state(0.25), box_radius=5)
    assert (res.iterations, len(clips)) == (110, 90)  # the first 21 of 109 move nothing


def test_box_svds_split_along_the_dual_action(monkeypatch):
    # on M = (1, 0) the iterates live on the sites (k, 0) with k odd (the dual action at
    # t = (pi, 0) negates the objective), so a box matrix splits by the line n2 and the
    # parity of n1: 22 blocks of at most 6 x 6 in the box of radius 5, 30 of at most
    # 8 x 8 in the validation box, where a dense SVD took 121 x 121 and 225 x 225
    shapes, svd = [], np.linalg.svd

    def recorded(a, *args, **kwargs):
        shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    res = optimize_torus_distance(vector_state(0.25, (1, 0)), tracial_state(0.25), box_radius=5)
    assert res.iterations == 110
    assert set(shapes) == {(22, 6, 6), (30, 8, 8)}


def test_split_box_optimizer_keeps_the_iteration_counts():
    # counts of the dense clips, for (0, 1) at theta 0.5 and the vector pair (1, 0), (0, 1)
    # (two parity blocks); (1, 0) and (1, 1) are pinned above
    res = optimize_torus_distance(vector_state(0.5, (0, 1)), tracial_state(0.5), box_radius=5)
    assert res.iterations == 110
    res = optimize_torus_distance(vector_state(0.37, (1, 0)), vector_state(0.37, (0, 1)),
                                  box_radius=5)
    assert res.iterations == 90


def test_validation_box_of_deriv_bar_is_the_adjoint_of_derivs():
    # for self-adjoint a, deriv_bar(a) = deriv(a)*, bit for bit on every box, so the
    # optimizer takes the validation commutator norm from one SVD
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


def test_optimizer_size_guard_is_unchanged():
    # refused exactly when npar * 2 (2R+1)^4 > 3e7, with npar = (2 support + 1)^2 - 1;
    # a state against itself returns right after the guard
    s = tracial_state(0.37)
    for support_radius, last_box in ((1, 18), (2, 13), (3, 11)):
        res = optimize_torus_distance(s, s, support_radius=support_radius, box_radius=last_box)
        assert res.iterations == 0 and res.box_radius == last_box
        with pytest.raises(ParameterError, match="size guard"):
            optimize_torus_distance(s, s, support_radius=support_radius,
                                    box_radius=last_box + 1)


def test_element_json_roundtrip():
    a = TorusElement(0.37, {(1, -2): 1 + 2j, (0, 3): -1.5})
    d = a.to_dict()
    assert d["terms"][0]["m"] == [0, 3]  # sorted, deterministic
    back = TorusElement.from_dict(d)
    assert back.terms == a.terms


def test_theta_mismatch_rejected():
    with pytest.raises(ParameterError):
        product(weyl(0.3, (1, 0)), weyl(0.4, (0, 1)))
    with pytest.raises(ParameterError):
        tracial_state(0.3).expect(weyl(0.4, (1, 0)))


def test_elements_are_immutable():
    a = weyl(0.37, (1, 0))
    with pytest.raises(TypeError):
        a.terms[(1, 0)] = 5.0
