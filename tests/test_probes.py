import math
import re
import tracemalloc

import numpy as np
import pytest

from specdist import probes
from specdist.calculus import staircase_diagonal
from specdist.errors import ParameterError
from specdist.probes import (DEFAULT_CUTOFF_FACTOR, ProbeSpec, asymptotic_fit, crossover_index,
                             crossover_mass, divergence_flag,
                             parse_probe_spec, probe_series, radial_gap, radial_steps,
                             staircase_gap, zeta_weight_gap)
from specdist.states import (MAX_SUPPORT, SWEEP_BLOCK, basis_state, diagonal_difference,
                             finite_state, zeta_state)
from specdist.verify import radial_cross_path, staircase_cross_path
from specdist.zeta import zeta, zeta_partial, zeta_tail

from conftest import THETAS


def _suffix_sum(m, m0):
    # u(m, m0) = sum_{k=m}^{m0} 1/sqrt(k+1)
    return math.fsum(1.0 / math.sqrt(k + 1.0) for k in range(m, m0 + 1))


def test_suffix_sum_values():
    # the staircase diagonal is sqrt(theta/2) u(m, m0)
    assert staircase_diagonal(0, 2.0)[0] == 1.0
    want = 1 / math.sqrt(2) + 1 / math.sqrt(3) + 0.5
    assert staircase_diagonal(3, 2.0)[1] == pytest.approx(want, abs=1e-15)
    assert _suffix_sum(1, 3) == pytest.approx(want, abs=1e-15)


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


def test_staircase_cross_path_builds_only_the_block_its_states_read():
    # the dense staircase(1000) and its np.diag source were two 1001 x 1001 complex arrays
    s1 = finite_state(np.linspace(1.0, 0.1, 50), 1.0)
    s2 = zeta_state(1.3, 40, 1.0)
    staircase_cross_path(1000, s1, s2)  # warm-up: caches outside the measurement
    tracemalloc.start()
    try:
        direct, fast = staircase_cross_path(1000, s1, s2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fast == pytest.approx(direct, abs=1e-10)
    assert peak < 1e6


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


def _array_radial_terms(s1, s2):
    """T_{k+1}/sqrt(k+1), k < n - 1, as whole-array expressions, the oracle of the in-place
    version."""
    d = diagonal_difference(s1, s2)
    tail = np.cumsum(d[::-1])[::-1]  # tail[j] = T_j
    return tail[1:] / np.sqrt(np.arange(1, d.size, dtype=float))


def test_radial_steps_take_minus_the_tail_sign_and_carry_it_over_zero_runs(rng):
    # integer differences sum exactly, so T_{k+1} = 0 on runs that cross block boundaries;
    # one run starts the vector (+1), one fills whole blocks with the sign before them
    walk = rng.integers(-3, 4, size=3 * SWEEP_BLOCK + 7).astype(float)
    walk[rng.random(walk.size) < 0.5] = 0.0
    carried = np.zeros(2 * SWEEP_BLOCK + 3)
    carried[5], carried[SWEEP_BLOCK - 2] = -1.0, 1.0
    zero_tail = np.concatenate([rng.standard_normal(40), np.zeros(30)])
    cases = [rng.standard_normal(n) for n in (1, 2, 17, SWEEP_BLOCK + 1)]
    cases += [np.zeros(1), np.ones(1), walk, carried, zero_tail, -zero_tail]
    for d in cases:
        steps = radial_steps(d)
        sigma = np.sign(steps)
        assert np.array_equal(steps, sigma / np.sqrt(np.arange(d.size) + 1.0)), d.size
        assert np.all(np.abs(sigma) == 1.0), d.size  # so |step| sqrt(k+1) = 1 everywhere
        tail = np.append(np.cumsum(d[::-1])[::-1][1:], 0.0)  # T_{k+1}
        zero = tail == 0
        assert np.array_equal(sigma[~zero], -np.sign(tail[~zero])), d.size
        run = np.flatnonzero(zero)
        assert np.all(sigma[run[run > 0]] == sigma[run[run > 0] - 1]), d.size
        assert not zero[0] or sigma[0] == 1.0, d.size
    assert np.all(radial_steps(carried)[:5] > 0) and np.all(radial_steps(carried)[5:] < 0)


def _block_fsum(x):
    """math.fsum of the np.sum of each block of SWEEP_BLOCK entries from the start."""
    return math.fsum(float(np.sum(x[lo:lo + SWEEP_BLOCK])) for lo in range(0, x.size, SWEEP_BLOCK))


def test_radial_gap_matches_the_array_expressions_bit_for_bit(rng):
    # up to support SWEEP_BLOCK + 1 the terms form one block, whose np.sum the streamed
    # bound returns; above it, the block sums combine under math.fsum
    theta = 0.5
    pairs = [(basis_state(1000, theta), basis_state(999, theta)),
             (basis_state(999, theta), basis_state(1000, theta)),
             (basis_state(0, theta), basis_state(0, theta)),
             (finite_state([1.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0], theta), basis_state(2, theta)),
             (zeta_state(1.1, SWEEP_BLOCK, theta), basis_state(3, theta)),
             (basis_state(SWEEP_BLOCK, theta), zeta_state(1.3, SWEEP_BLOCK - 9, theta))]
    pairs += [(s1, s2) for s1, s2 in _random_finite_pairs(rng, 12)
              if s1.theta == theta and s2.theta == theta]
    pref = np.sqrt(2.0 * theta) / 2.0
    for s1, s2 in pairs:
        terms = _array_radial_terms(s1, s2)
        assert terms.size <= SWEEP_BLOCK
        assert radial_gap(s1, s2) == float(pref * np.sum(np.abs(terms)))
        n = max(s1.support, s2.support)
        for m0 in (0, n // 2, n - 1, n + 5):  # staircases shorter and longer than d
            assert staircase_gap(m0, s1, s2) == float(pref * abs(np.sum(terms[:m0 + 1])))
    for s1, s2 in ((zeta_state(1.1, 2 * SWEEP_BLOCK, theta), basis_state(3, theta)),
                   (basis_state(3 * SWEEP_BLOCK - 5, theta), zeta_state(1.05, 10, theta))):
        terms = _array_radial_terms(s1, s2)
        assert terms.size > SWEEP_BLOCK
        assert radial_gap(s1, s2) == float(pref * _block_fsum(np.abs(terms)))
        for m0 in (0, SWEEP_BLOCK - 1, SWEEP_BLOCK, terms.size // 2, terms.size + 5):
            assert staircase_gap(m0, s1, s2) == float(pref * abs(_block_fsum(terms[:m0 + 1])))


def test_radial_gap_is_accurate_to_its_certificate_in_long_double():
    # the certificate's gap sqrt(theta/2) |sum_m u_m d_m|, u the suffix sums of the steps,
    # in 64-bit-mantissa arithmetic on the same d; a float64 pairing of u with d cancels
    s1, s2 = basis_state(2, 1.0), zeta_state(1.1, 10 ** 6, 1.0)
    d = diagonal_difference(s1, s2)
    u = np.cumsum(radial_steps(d)[::-1].astype(np.longdouble))[::-1]
    exact = np.sqrt(np.longdouble(0.5)) * abs(np.sum(u * d.astype(np.longdouble)))
    assert abs(radial_gap(s1, s2) - exact) <= 1e-14 * exact


def test_radial_gap_memory_is_linear_in_the_support():
    # the whole-array version held 48 bytes per index beside the state, diagonal_difference's
    # buffer 8; the blocks streamed from the top hold a few SWEEP_BLOCK floats at any support
    st, other = zeta_state(1.1, 10 ** 6, 1.0), basis_state(2, 1.0)
    tracemalloc.start()
    try:
        radial_gap(other, st)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 8 * SWEEP_BLOCK < 8 * st.support


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


def test_crossover_refuses_an_unresolvable_estimate_before_its_scan(monkeypatch):
    # (1.01, 1.02) puts the root near 7.1e29, where float(m) + 1 no longer moves with m
    # and both weight gaps read 0, so a scan from there would never end
    def scan(*args):
        raise AssertionError("the crossover scan started")

    monkeypatch.setattr(probes, "zeta_weight_gap", scan)
    with pytest.raises(ParameterError, match=re.escape("(1.01, 1.02)")):
        crossover_index(1.01, 1.02)
    monkeypatch.undo()
    pairs = [(1.1, 1.3), (1.1, 1.4), (1.2, 1.5), (1.01, 1.25), (1.3, 1.5), (1.05, 1.1)]
    assert [crossover_index(*p) for p in pairs] == [140, 58, 11, 383878, 6, 596895]


def test_crossover_scans_up_from_an_estimate_below_the_sign_change():
    # the float estimate floors to 635683520070207, two below the index where the float
    # weight gap changes sign, so the scan steps up before it checks the sign change
    s1, s2 = 1.02, 1.04
    m = crossover_index(s1, s2)
    assert m == 635683520070209
    assert zeta_weight_gap(m, s1, s2) <= 0.0 < zeta_weight_gap(m + 1, s1, s2)


def test_crossover_rejects_bad_exponents():
    with pytest.raises(ParameterError):
        crossover_index(1.4, 1.2)
    with pytest.raises(ParameterError):
        crossover_index(1.1, 1.7)


def test_probe_series_matches_materialized_states():
    # dividing by the partial sum with cutoff factor c reproduces a state truncated
    # at exactly c * m0
    m0, factor = 50, DEFAULT_CUTOFF_FACTOR
    theta = 1.0
    spec1 = ProbeSpec("basis", index=0)
    spec2 = ProbeSpec("zeta", s=1.3)
    b = probe_series(spec1, spec2, [m0], theta)[0]
    st = zeta_state(1.3, factor * m0, theta)
    direct = staircase_gap(m0, basis_state(0, theta), st)
    assert b == pytest.approx(direct, rel=1e-12)


def _truncated_partial_sum(s, m0):
    """Direct smallest-first sum of m^-s over the first DEFAULT_CUTOFF_FACTOR m0 + 1 terms."""
    m = np.arange(1, DEFAULT_CUTOFF_FACTOR * m0 + 2, dtype=float)
    return float(np.sum((m ** (-s))[::-1]))


def test_probe_series_truncated_normalization():
    spec1 = ProbeSpec("basis", index=0)
    spec2 = ProbeSpec("zeta", s=1.5)
    b = probe_series(spec1, spec2, [10])[0]
    # direct double sum with zeta weights divided by their truncated partial sum
    u = [_suffix_sum(m, 10) for m in range(11)]
    w = [(m + 1.0) ** -1.5 / _truncated_partial_sum(1.5, 10) for m in range(11)]
    w[0] -= 1.0
    want = math.sqrt(0.5) * abs(sum(ui * wi for ui, wi in zip(u, w)))
    assert b == pytest.approx(want, rel=1e-12)


def test_probe_series_matches_split_form():
    # the ground-state-versus-zeta bound rearranges into two positive pieces:
    # (1 - head/zeta) * full inverse-sqrt sum, plus the normalized double sum
    # with inner range k <= m-1 (the suffix-sum split forces the m-1)
    s, m0 = 1.25, 37
    z = _truncated_partial_sum(s, m0)
    head = sum((m + 1.0) ** -s for m in range(m0 + 1))
    a1 = (1.0 - head / z) * sum(1.0 / math.sqrt(k + 1.0) for k in range(m0 + 1))
    a2 = sum((m + 1.0) ** -s / z * sum(1.0 / math.sqrt(k + 1.0) for k in range(m))
             for m in range(m0 + 1))
    for theta in (0.5, 1.0, 2.0):
        want = math.sqrt(theta / 2.0) * (a1 + a2)
        got = probe_series(ProbeSpec("basis", index=0), ProbeSpec("zeta", s=s),
                           [m0], theta=theta)[0]
        assert got == pytest.approx(want, rel=1e-12)


def _prefix_table_series(spec1, spec2, grid, theta):
    """The probe bound from full prefix tables over 0..top: X = cumsum(w) and
    F = cumsum(X / sqrt(j+1))."""
    top = max(grid)
    j = np.arange(top + 1, dtype=float)

    def weighted_sum(spec, m0):
        w = (j == spec.index).astype(float) if spec.kind == "basis" else (j + 1.0) ** (-spec.s)
        f = np.cumsum(np.cumsum(w) / np.sqrt(j + 1.0))[m0]
        return float(f if spec.kind == "basis"
                     else f / zeta_partial(spec.s, DEFAULT_CUTOFF_FACTOR * m0 + 1))

    pref = math.sqrt(2.0 * theta) / 2.0
    return np.array([pref * abs(weighted_sum(spec1, g) - weighted_sum(spec2, g)) for g in grid])


def test_probe_series_matches_full_prefix_tables():
    # unsorted grid with repeats; basis indices 0, one past a grid point (1, 46, 701),
    # between grid points, at one, above the top; two zeta specs; every pair, basis pairs too
    grid = [700, 3, 1500, 0, 45, 700, 3, 4000, 1001]
    specs = [ProbeSpec("basis", index=i) for i in (0, 1, 20, 45, 46, 701, 5000)] \
        + [ProbeSpec("zeta", s=1.1), ProbeSpec("zeta", s=1.4)]
    for theta in (0.5, 2.0):
        for i, spec1 in enumerate(specs):
            for spec2 in specs[i + 1:]:
                got = probe_series(spec1, spec2, grid, theta)
                want = _prefix_table_series(spec1, spec2, grid, theta)
                assert np.array_equal(got, want), (spec1.label(), spec2.label())


def test_probe_series_refuses_an_empty_grid():
    with pytest.raises(ParameterError, match="grid"):
        probe_series(ProbeSpec("basis", index=0), ProbeSpec("zeta", s=1.2), [])


def test_zeta_partial_above_the_direct_range_matches_the_direct_sum():
    for s in (1.01, 1.05, 1.1, 1.5, 2.0, 3.0):
        for k in (100_001, 654_321, 2_000_000):
            m = np.arange(1, k + 1, dtype=float)
            direct = float(np.sum((m ** (-s))[::-1]))
            assert zeta_partial(s, k) == pytest.approx(direct, rel=2e-15, abs=0.0), (s, k)


def test_probe_series_across_several_sweep_blocks_matches_full_prefix_tables():
    grid = [200_000, 5, 3 * SWEEP_BLOCK + 7]  # the middle gap spans three blocks and more
    specs = [ProbeSpec("basis", index=i) for i in (2, SWEEP_BLOCK + 3)] \
        + [ProbeSpec("zeta", s=1.1), ProbeSpec("zeta", s=1.4)]
    for i, spec1 in enumerate(specs):
        for spec2 in specs[i + 1:]:
            got = probe_series(spec1, spec2, grid, 2.0)
            assert np.array_equal(got, _prefix_table_series(spec1, spec2, grid, 2.0)), \
                (spec1.label(), spec2.label())


def test_probe_series_memory_is_bounded_by_the_sweep_block():
    # the 1e2..1e6 grid once held six full-length tables and 16 MB partial-sum temporaries,
    # then temporaries as long as its largest gap (12 MB)
    grid = probes.default_grid(1e2, 1e6, 25)
    zeta(1.1), zeta(1.4)  # cached values, outside the measurement
    tracemalloc.start()
    try:
        probe_series(ProbeSpec("zeta", s=1.1), ProbeSpec("zeta", s=1.4), grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_fit_refuses_identical_specs():
    with pytest.raises(ParameterError):
        asymptotic_fit(ProbeSpec("zeta", s=1.2), ProbeSpec("zeta", s=1.2), [10, 100], 1.5)


def test_fit_refuses_empty_window():
    # a window of one grid point; then decades that are not positive or whose power of
    # ten is not a finite float (400 overflowed and -400 divided by zero)
    for decades, match in [(0.5, "fewer than two")] + [
            (d, f"fit window of {d} decades") for d in (0, -1.0, -400.0, 400, 400.0, math.inf,
                                                         -math.inf, math.nan)]:
        with pytest.raises(ParameterError, match=match):
            asymptotic_fit(ProbeSpec("basis", index=0), ProbeSpec("zeta", s=1.2),
                           [10, 100, 1000], decades)


def test_probe_series_refuses_a_grid_top_above_the_support_cap():
    with pytest.raises(ParameterError, match="MAX_SUPPORT"):
        probe_series(ProbeSpec("basis", index=0), ProbeSpec("zeta", s=1.2), [10, MAX_SUPPORT])


def test_fit_requires_zeta_component():
    with pytest.raises(ParameterError):
        asymptotic_fit(ProbeSpec("basis", index=0), ProbeSpec("basis", index=1), [10, 100], 1.5)


def test_default_grid_is_np_unique_of_the_rounded_grid():
    # ascending and descending ranges, repeats after rounding, and a single value
    for lo, hi in ((1e2, 1e6), (1e3, 1e5), (1.0, 10.0), (0.3, 40.0), (1e6, 1e2), (7.0, 7.0)):
        for points in (0, 1, 2, 6, 16, 25, 100, 1000):
            g = np.logspace(math.log10(lo), math.log10(hi), points)
            want = tuple(int(x) for x in np.unique(np.round(g).astype(int)))
            assert probes.default_grid(lo, hi, points) == want


def test_fit_slope_smoke():
    series = asymptotic_fit(ProbeSpec("basis", index=0), ProbeSpec("zeta", s=1.2),
                            probes.default_grid(1e3, 1e5, 15), 1.5)
    assert series.theory_slope == pytest.approx(0.3, abs=1e-12)
    assert series.fitted_slope == pytest.approx(0.3, abs=0.1)
    rows = list(series.csv_rows())
    assert rows[0] == ("m0", "B", "log_m0", "log_B")
    assert len(rows) == len(series.m0_grid) + 1
    summary = series.summary_dict()
    assert set(summary) >= {"fitted_slope", "theory_slope", "gap"}


def test_divergence_flags():
    # the radial-certificate theorem: divergent exactly when the least zeta exponent is at
    # most 3/2, s = 3/2 and the pair (5/4, 3/2) included
    verdicts = {"divergent": [("basis:0", "zeta:1.2"), ("zeta:1.25", "zeta:1.5"),
                              ("basis:0", "zeta:1.5"), ("basis:30", "zeta:1.5")],
                "inconclusive": [("basis:0", "zeta:1.51"), ("basis:3", "zeta:1.7"),
                                 ("zeta:1.75", "zeta:1.8"), ("basis:0", "zeta:2.5")],
                None: [("zeta:1.2", "zeta:1.2"), ("basis:2", "basis:2"), ("basis:0", "basis:3")]}
    for verdict, pairs in verdicts.items():
        for a, b in pairs:
            spec1, spec2 = parse_probe_spec(a), parse_probe_spec(b)
            assert divergence_flag(spec1, spec2) == verdict, (a, b)
            assert divergence_flag(spec2, spec1) == verdict, (b, a)


def test_divergence_flags_of_states():
    # a finite state's spec keeps only its kind, all the verdict reads
    finite = probes.spec_of_state(finite_state([0.8, 0.6], 1.0))
    assert finite == ProbeSpec("finite")
    assert divergence_flag(finite, probes.spec_of_state(zeta_state(1.4, 50, 1.0))) == "divergent"
    assert divergence_flag(finite, probes.spec_of_state(basis_state(3, 1.0))) is None
    with pytest.raises(ParameterError, match="basis and zeta"):
        probe_series(finite, ProbeSpec("zeta", s=1.2), [10])


def test_parse_probe_spec():
    assert parse_probe_spec("basis:3") == ProbeSpec("basis", index=3)
    assert parse_probe_spec("zeta:1.2") == ProbeSpec("zeta", s=1.2)
    # exactly two fields; every refusal names the spec
    for text in ("zeta:0.9", "nonsense", "zeta:1.2:5", "basis:3:x", "basis:1.5", "basis:-1",
                 "zeta:nan", "zeta:inf"):
        with pytest.raises(ParameterError, match=re.escape(f"probe state spec {text!r}")):
            parse_probe_spec(text)


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

