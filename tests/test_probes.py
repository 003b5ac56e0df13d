import math

import numpy as np
import pytest

from specdist import probes
from specdist.errors import ParameterError
from specdist.probes import (ProbeSpec, asymptotic_fit, crossover_index, crossover_mass,
                             divergence_flag, estimate_checks, inv_sqrt_suffix_sum,
                             parse_probe_spec, probe_series, radial_gap, staircase_gap,
                             zeta_weight_gap)
from specdist.states import MAX_SUPPORT, basis_state, finite_state, zeta_state
from specdist.verify import radial_cross_path, staircase_cross_path
from specdist.zeta import zeta, zeta_partial, zeta_tail

from conftest import THETAS


def test_suffix_sum_values():
    assert inv_sqrt_suffix_sum(0, 0) == 1.0
    want = 1 / math.sqrt(2) + 1 / math.sqrt(3) + 0.5
    assert inv_sqrt_suffix_sum(1, 3) == pytest.approx(want, abs=1e-15)
    with pytest.raises(ParameterError):
        inv_sqrt_suffix_sum(3, 1)


def test_zeta_helpers():
    assert zeta(2.0) == pytest.approx(math.pi ** 2 / 6, rel=1e-13)
    assert zeta_partial(1.5, 100) + zeta_tail(1.5, 100) == pytest.approx(zeta(1.5), rel=1e-13)
    with pytest.raises(ParameterError):
        zeta(1.0)


def test_staircase_gap_identical_states():
    st = zeta_state(1.3, 100, 1.0)
    for m0 in (0, 5, 50):
        assert staircase_gap(m0, st, st) == 0.0


def test_staircase_gap_two_level_example():
    theta = 1.0
    s1 = basis_state(0, theta)
    s2 = finite_state([math.sqrt(3) / 2, 0.5], theta)
    assert staircase_gap(1, s1, s2) == pytest.approx(math.sqrt(theta / 2) / 4, abs=1e-14)


def test_staircase_gap_matches_expectation_gap(rng):
    for m0 in (10, 100, 1000):
        theta = 0.5
        w = rng.uniform(0.1, 1.0, 17)
        s1 = finite_state(w, theta)
        s2 = zeta_state(1.4, 60, theta)
        direct, fast = staircase_cross_path(m0, s1, s2)
        assert fast == pytest.approx(direct, abs=1e-10)


def _random_finite_pairs(rng, count=60):
    # supports 2-40; every third pair shares one support
    for i in range(count):
        theta = THETAS[i % 3]
        n1 = int(rng.integers(2, 41))
        n2 = n1 if i % 3 == 0 else int(rng.integers(2, 41))
        yield tuple(finite_state(rng.standard_normal(n) + 1j * rng.standard_normal(n), theta)
                    for n in (n1, n2))


def test_radial_certificate_has_unit_norm_and_the_radial_gap(rng):
    # commutator norm 1 within 1e-12 makes the element a ball_report member
    basis_pairs = [(basis_state(m, theta), basis_state(n, theta))
                   for theta in THETAS for m in range(5) for n in range(5)]
    for s1, s2 in basis_pairs + list(_random_finite_pairs(rng)):
        (direct, norm), (fast, one) = radial_cross_path(s1, s2)
        assert norm == pytest.approx(one, abs=1e-12)
        assert fast == pytest.approx(direct, abs=1e-12)


def test_radial_gap_dominates_every_staircase(rng):
    gains = []
    for s1, s2 in _random_finite_pairs(rng):
        best = max(staircase_gap(m0, s1, s2) for m0 in range(max(s1.support, s2.support)))
        assert radial_gap(s1, s2) >= best - 1e-12
        if s1.support == s2.support:
            gains.append(radial_gap(s1, s2) / best)
    assert max(gains) >= 1.05


def test_radial_gap_is_the_top_staircase_where_the_tail_keeps_one_sign():
    # T_j = sum_{p>=j} (|c1_p|^2 - |c2_p|^2) keeps one sign between basis:0 and a
    # zeta state, and between two zeta states of one cutoff
    top = 3000
    for theta in THETAS:
        other = zeta_state(1.05, top, theta)
        for s in (1.1, 1.5, 2.0):
            z = zeta_state(s, top, theta)
            for s1, s2 in ((basis_state(0, theta), z), (z, basis_state(0, theta)), (z, other)):
                assert radial_gap(s1, s2) == staircase_gap(top, s1, s2)


def test_weight_gap_sign_pattern():
    s1, s2 = 1.1, 1.4
    m_star = crossover_index(s1, s2)
    gaps = np.array([zeta_weight_gap(m, s1, s2) for m in range(0, m_star + 50)])
    assert np.all(gaps[: m_star + 1] <= 0)
    assert np.all(gaps[m_star + 1:] > 0)


def test_crossover_matches_scan_oracle():
    for (s1, s2) in [(1.1, 1.4), (1.2, 1.5), (1.01, 1.3)]:
        m = 0
        while zeta_weight_gap(m, s1, s2) <= 0:
            m += 1
        assert crossover_index(s1, s2) == m - 1


def test_crossover_masses_balance():
    for (s1, s2) in [(1.1, 1.3), (1.2, 1.5), (1.3, 1.5)]:
        plus, minus = crossover_mass(s1, s2)
        assert plus > 0
        assert plus == pytest.approx(minus, rel=1e-10)


def test_crossover_rejects_bad_exponents():
    with pytest.raises(ParameterError):
        crossover_index(1.4, 1.2)
    with pytest.raises(ParameterError):
        crossover_index(1.1, 1.7)


def test_probe_series_matches_materialized_states():
    # truncated normalization with cutoff factor c reproduces a state truncated
    # at exactly c * m0
    m0, factor = 50, 100
    theta = 1.0
    spec1 = ProbeSpec("basis", index=0)
    spec2 = ProbeSpec("zeta", s=1.3)
    b = probe_series(spec1, spec2, [m0], theta, normalization="truncated",
                     cutoff_factor=factor)[0]
    st = zeta_state(1.3, factor * m0, theta)
    direct = staircase_gap(m0, basis_state(0, theta), st)
    assert b == pytest.approx(direct, rel=1e-12)


def test_probe_series_exact_normalization():
    spec1 = ProbeSpec("basis", index=0)
    spec2 = ProbeSpec("zeta", s=1.5)
    b = probe_series(spec1, spec2, [10], normalization="exact")[0]
    # direct double sum with exact zeta weights
    u = [inv_sqrt_suffix_sum(m, 10) for m in range(11)]
    w = [(m + 1.0) ** -1.5 / zeta(1.5) for m in range(11)]
    w[0] -= 1.0
    want = math.sqrt(0.5) * abs(sum(ui * wi for ui, wi in zip(u, w)))
    assert b == pytest.approx(want, rel=1e-12)


def test_probe_series_matches_split_form():
    # the ground-state-versus-zeta bound rearranges into two positive pieces:
    # (1 - head/zeta) * full inverse-sqrt sum, plus the normalized double sum
    # with inner range k <= m-1 (the suffix-sum split forces the m-1)
    s, m0 = 1.25, 37
    z = zeta(s)
    head = sum((m + 1.0) ** -s for m in range(m0 + 1))
    a1 = (1.0 - head / z) * sum(1.0 / math.sqrt(k + 1.0) for k in range(m0 + 1))
    a2 = sum((m + 1.0) ** -s / z * sum(1.0 / math.sqrt(k + 1.0) for k in range(m))
             for m in range(m0 + 1))
    for theta in (0.5, 1.0, 2.0):
        want = math.sqrt(theta / 2.0) * (a1 + a2)
        got = probe_series(ProbeSpec("basis", index=0), ProbeSpec("zeta", s=s),
                           [m0], theta=theta, normalization="exact")[0]
        assert got == pytest.approx(want, rel=1e-12)


def test_probe_series_fixed_weights_path():
    st = finite_state([0.8, 0.6], 1.0)
    spec = probes.spec_of_state(st)
    assert spec.kind == "fixed"
    b = probe_series(spec, ProbeSpec("basis", index=0), [4])[0]
    direct = staircase_gap(4, st, basis_state(0, 1.0))
    assert b == pytest.approx(direct, rel=1e-12)


def test_fit_refuses_identical_specs():
    with pytest.raises(ParameterError):
        asymptotic_fit(ProbeSpec("zeta", s=1.2), ProbeSpec("zeta", s=1.2), [10, 100])


def test_fit_refuses_empty_window():
    with pytest.raises(ParameterError):
        asymptotic_fit(ProbeSpec("basis", index=0), ProbeSpec("zeta", s=1.2),
                       [10, 100, 1000], fit_window=(2000, 3000))


def test_probe_series_refuses_a_grid_top_above_the_support_cap():
    with pytest.raises(ParameterError, match="MAX_SUPPORT"):
        probe_series(ProbeSpec("basis", index=0), ProbeSpec("zeta", s=1.2), [10, MAX_SUPPORT])


def test_fit_requires_zeta_component():
    with pytest.raises(ParameterError):
        asymptotic_fit(ProbeSpec("basis", index=0), ProbeSpec("basis", index=1), [10, 100])


def test_default_grid_is_np_unique_of_the_rounded_grid():
    # ascending and descending ranges, repeats after rounding, and a single value
    for lo, hi in ((1e2, 1e6), (1e3, 1e5), (1.0, 10.0), (0.3, 40.0), (1e6, 1e2), (7.0, 7.0)):
        for points in (0, 1, 2, 6, 16, 25, 100, 1000):
            g = np.logspace(math.log10(lo), math.log10(hi), points)
            want = tuple(int(x) for x in np.unique(np.round(g).astype(int)))
            assert probes.default_grid(lo, hi, points) == want


def test_fit_slope_smoke():
    series = asymptotic_fit(ProbeSpec("basis", index=0), ProbeSpec("zeta", s=1.2),
                            probes.default_grid(1e3, 1e5, 15))
    assert series.theory_slope == pytest.approx(0.3, abs=1e-12)
    assert series.fitted_slope == pytest.approx(0.3, abs=0.1)
    rows = list(series.csv_rows())
    assert rows[0] == ("m0", "B", "log_m0", "log_B")
    assert len(rows) == len(series.m0_grid) + 1
    summary = series.summary_dict()
    assert set(summary) >= {"fitted_slope", "theory_slope", "gap"}


def test_divergence_flags():
    assert divergence_flag(ProbeSpec("basis", index=0), ProbeSpec("zeta", s=1.2)) == "divergent"
    assert divergence_flag(ProbeSpec("zeta", s=1.25), ProbeSpec("zeta", s=1.5)) == "inconclusive"
    assert divergence_flag(ProbeSpec("zeta", s=1.2), ProbeSpec("zeta", s=1.2)) is None
    # decaying bound for s > 3/2 must not be claimed divergent
    assert divergence_flag(ProbeSpec("basis", index=0), ProbeSpec("zeta", s=2.5)) != "divergent"


def test_parse_probe_spec():
    assert parse_probe_spec("basis:3") == ProbeSpec("basis", index=3)
    assert parse_probe_spec("zeta:1.2") == ProbeSpec("zeta", s=1.2)
    with pytest.raises(ParameterError):
        parse_probe_spec("zeta:0.9")
    with pytest.raises(ParameterError):
        parse_probe_spec("nonsense")


def test_estimate_checks_spot_values():
    # sqrt-sum family at (m, m0) = (0, 3)
    lo = math.sqrt(5) - 1
    mid = 0.5 * sum(1 / math.sqrt(k + 1) for k in range(0, 4))
    hi = 2.0
    assert lo == pytest.approx(1.2360679, abs=1e-6)
    assert mid == pytest.approx(1.3922285, abs=1e-6)
    assert lo <= mid <= hi
    # mean-value family at alpha = 1/2, k = 4
    assert 0.5 * 4 ** -0.5 >= math.sqrt(5) - 2 >= 0.5 * 5 ** -0.5


def test_estimate_checks_empty_on_small_grid():
    assert estimate_checks(m0_max=256, k_max=256) == []
