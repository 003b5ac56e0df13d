"""Quantitative divergence machinery: staircase-certificate bounds over large
index grids, the weight-gap sequence and its crossover, mean-value estimates,
log-log slope fits of the lower bound's growth, and the divergence verdict the
radial certificate proves.

Grid evaluation is one prefix-sum sweep over the sorted grid in blocks of
SWEEP_BLOCK indices, O(max m0) in time and O(SWEEP_BLOCK) in memory; grids up to
1e6 are cheap.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .algebra import check_theta
from .errors import ParameterError, same_theta
from .states import MAX_SUPPORT, SWEEP_BLOCK, MoyalPureState, _difference_block
from .zeta import zeta, zeta_partial, zeta_tail

DEFAULT_CUTOFF_FACTOR = 100


def _check_exponents(s1: float, s2: float) -> None:
    if not (1.0 < s1 < s2 <= 1.5):
        raise ParameterError(f"exponents must satisfy 1 < s1 < s2 <= 3/2, got {(s1, s2)}")


def zeta_weight_gap(m: int, s1: float, s2: float) -> float:
    """G(m) = (m+1)^-s1 / zeta(s1) - (m+1)^-s2 / zeta(s2)."""
    _check_exponents(s1, s2)
    x = float(m) + 1.0
    return x ** (-s1) / zeta(s1) - x ** (-s2) / zeta(s2)


def crossover_index(s1: float, s2: float) -> int:
    """Smallest M with the weight gap nonpositive up to M and nonnegative after.

    Solved from (M+1)^(s2-s1) = zeta(s1)/zeta(s2) and then adjusted by a local
    scan so the sign-change postcondition holds exactly.

    A root x = M + 1 at or past (s2 - s1) 2^48 is refused, where rounding would decide
    the index.  With u = 2^-52: each weight term x^-s / zeta(s) rounds within 1.5u (pow
    within one ulp, the quotient half of one) and zeta(s) errs within 2u (at most 1.7u
    against mpmath on the 0.01 grid of exponents); near the root the terms are within a
    factor 2, so their difference is exact.  The computed ratio of the terms is thus
    within E = 7u of the exact one, and the gap's sign can be wrong only where the exact
    ratio is within E of 1.  One index step moves the ratio by about (s2 - s1)/x, at
    least 16u below the limit, more than 2E: at most one index is that close, so the
    scan finds the exact crossover, or its neighbour when the exact ratio is within E of 1
    there.
    """
    _check_exponents(s1, s2)
    ratio = zeta(s1) / zeta(s2)
    log_root = math.log(ratio) / (s2 - s1)  # log(M + 1), in logs so no power overflows
    if not log_root < math.log((s2 - s1) * 2.0 ** 48):
        raise ParameterError(
            f"exponents {(s1, s2)} put the crossover near 10^{log_root / math.log(10.0):.3g}, "
            f"past (s2 - s1) 2^48 = {(s2 - s1) * 2.0 ** 48:.3g}, where rounding would "
            "decide the index")
    est = ratio ** (1.0 / (s2 - s1)) - 1.0
    m = max(0, int(math.floor(est)))
    while zeta_weight_gap(m + 1, s1, s2) <= 0.0:
        m += 1
    while m > 0 and zeta_weight_gap(m, s1, s2) > 0.0:
        m -= 1
    if not (zeta_weight_gap(m, s1, s2) <= 0.0 < zeta_weight_gap(m + 1, s1, s2)):
        raise RuntimeError("crossover postcondition failed")  # unreachable for valid input
    return m


def crossover_mass(s1: float, s2: float) -> tuple[float, float]:
    """(sum of the gap beyond the crossover, minus the sum up to it); both equal alpha > 0.

    The two values are computed along independent paths (direct tail summation
    with a far-tail correction versus head partial sums) and agree because the
    gap sums to zero over all indices.
    """
    m = crossover_index(s1, s2)
    far = max(m + 2, 100_000)
    j = np.arange(m + 2, far + 1, dtype=float)
    plus = float(np.sum((j ** (-s1))[::-1])) / zeta(s1) \
        - float(np.sum((j ** (-s2))[::-1])) / zeta(s2) \
        + zeta_tail(s1, far) / zeta(s1) - zeta_tail(s2, far) / zeta(s2)
    minus = -(zeta_partial(s1, m + 1) / zeta(s1) - zeta_partial(s2, m + 1) / zeta(s2))
    return float(plus), float(minus)


def _radial_terms(s1: MoyalPureState, s2: MoyalPureState, m0: int | None = None):
    """Yield T_{k+1}/sqrt(k+1) for k <= m0, k < n - 1, in blocks of k in [lo, lo +
    SWEEP_BLOCK), lo a multiple of SWEEP_BLOCK, from the top block down; T_j = sum_{p>=j}
    d_p for the diagonal difference d.  Each block's d is `_difference_block`'s, and its
    reverse cumsum is seeded with the tail above it, so every T_j has the bits of one
    reverse cumsum over diagonal_difference.  By parts, sum_m u_m d_m = sum_k v_k P_k for
    u_m = sum_{k>=m} v_k, where P_k = sum_{m<=k} d_m = -T_{k+1} as d sums to zero."""
    same_theta(s1, s2)
    n = max(s1.support, s2.support)
    tail, d = 0.0, np.empty(min(SWEEP_BLOCK, n))
    for lo in reversed(range(0, n - 1, SWEEP_BLOCK)):
        t = d[:min(SWEEP_BLOCK, n - 1 - lo)]
        _difference_block(s1, s2, lo + 1, t)  # t[i] = d_{lo+1+i}
        t[-1] += tail
        np.cumsum(t[::-1], out=t[::-1])  # t[i] = T_{lo+1+i}
        tail = t[0]
        if m0 is None or lo <= m0:
            t = t[:None if m0 is None else m0 + 1 - lo]
            t /= np.sqrt(np.arange(lo + 1, lo + t.size + 1, dtype=float))
            yield t


def staircase_gap(m0: int, s1: MoyalPureState, s2: MoyalPureState) -> float:
    """Evaluation gap sqrt(theta/2) |sum_{m<=m0} u(m, m0) (|c1_m|^2 - |c2_m|^2)| of the
    staircase certificate, by parts sqrt(theta/2) |sum_{k<=m0} T_{k+1}/sqrt(k+1)|, the
    block sums of `_radial_terms` under math.fsum; it cross-checks against direct
    expectation values on the staircase element."""
    if m0 < 0:
        raise ParameterError(f"m0 must be a natural number, got {m0}")
    total = math.fsum(float(np.sum(t)) for t in _radial_terms(s1, s2, m0))
    return float(np.sqrt(2.0 * s1.theta) / 2.0 * abs(total))


def radial_steps(d: np.ndarray) -> np.ndarray:
    """Steps sigma_k/sqrt(k+1) of the best radial certificate for the diagonal difference
    d: sigma_k = -sign(T_{k+1}), T_j = sum_{p>=j} d_p.  Where T_{k+1} = 0 (always at the
    last step) the step adds nothing and keeps the sign before it (+1 if none), so dz
    is one band of modulus 1/sqrt(2) and the commutator norm is exactly 1."""
    tail = np.cumsum(d[::-1])[::-1]  # tail[j] = T_j
    sigma = -np.sign(np.append(tail[1:], 0.0))
    sigma = sigma[np.maximum.accumulate(np.where(sigma != 0, np.arange(sigma.size), 0))]
    return np.where(sigma != 0, sigma, 1.0) / np.sqrt(np.arange(d.size, dtype=float) + 1.0)


def radial_gap(s1: MoyalPureState, s2: MoyalPureState) -> float:
    """Gap R = sqrt(theta/2) sum_k |T_{k+1}|/sqrt(k+1) of the radial element with the
    steps radial_steps(d): the exact distance between the states averaged over the
    rotation action (a contraction; a 1-d Kantorovich distance on the basis chain).  A
    lower bound above every staircase gap, equal to staircase_gap(top) bit for bit where
    T keeps one sign (np.sum(-x) == -np.sum(x), and math.fsum is correctly rounded).  The
    block sums of `_radial_terms` combine under math.fsum: memory is O(SWEEP_BLOCK) beside
    the states."""
    total = math.fsum(float(np.sum(np.abs(t, out=t))) for t in _radial_terms(s1, s2))
    return float(np.sqrt(2.0 * s1.theta) / 2.0 * total)


# ---------------------------------------------------------------------------
# lightweight state specifications for large-grid probes
# ---------------------------------------------------------------------------

class ProbeSpec(namedtuple("ProbeSpec", "kind index s", defaults=(0, 0.0))):
    """Diagonal-weight description of a state for grid probes.

    kind "basis" uses an indicator weight at `index`; kind "zeta" uses (m+1)^-s
    weights divided by their running truncated partial sum.  spec_of_state gives a
    finite state kind "finite" and nothing else: only the divergence verdict reads it,
    and probe_series refuses it.
    """

    __slots__ = ()

    def label(self) -> str:
        return f"basis:{self.index}" if self.kind == "basis" else f"zeta:{self.s}"


def parse_probe_spec(text: str) -> ProbeSpec:
    """ProbeSpec of basis:m (a natural number m) or zeta:s (a finite s > 1)."""
    parts = text.split(":")
    try:
        if parts[0] == "basis" and len(parts) == 2 and int(parts[1]) >= 0:
            return ProbeSpec("basis", index=int(parts[1]))
        if parts[0] == "zeta" and len(parts) == 2 and 1 < float(parts[1]) < math.inf:
            return ProbeSpec("zeta", s=float(parts[1]))
    except ValueError:  # a number that does not parse
        pass
    raise ParameterError(f"cannot parse probe state spec {text!r}: expected basis:m with "
                         "a natural number m or zeta:s with a finite s > 1")


def spec_of_state(state: MoyalPureState) -> ProbeSpec:
    return ProbeSpec(state.kind, index=state.meta.get("index", 0), s=state.meta.get("s", 0.0))


def check_grid_top(top: int) -> None:
    if top > MAX_SUPPORT - 1:  # the sweep's time is O(top)
        raise ParameterError(f"grid top {top} exceeds the cap MAX_SUPPORT - 1 = "
                             f"{MAX_SUPPORT - 1}; choose a smaller grid")


def probe_series(spec1: ProbeSpec, spec2: ProbeSpec, m0_grid, theta: float = 1.0) -> np.ndarray:
    """Certificate bound sqrt(theta/2) |F1(m0) - F2(m0)| over a grid of staircase indices.

    F(m0) = sum_{m<=m0} u(m, m0) w_m, by parts sum_{k<=m0} X_k/sqrt(k+1) with
    X_k = sum_{j<=k} w_j, where w is the spec's weight vector: the indicator of `index`
    for "basis" and (m+1)^-s for "zeta", whose F is divided by the partial sum of its
    first DEFAULT_CUTOFF_FACTOR m0 + 1 terms.  One sweep over the sorted distinct grid
    carries X and F of each spec from each block of at most SWEEP_BLOCK indices to the
    next, blocks ending at every grid point, by np.cumsum with the running value
    prepended.  np.cumsum adds in sequence, so they equal full-array prefix sums bit for
    bit; memory is O(SWEEP_BLOCK) whatever the grid, time is O(top).
    Values come back in the caller's grid order, duplicates included.
    """
    check_theta(theta)
    specs = (spec1, spec2)
    if any(sp.kind not in ("basis", "zeta") for sp in specs):
        raise ParameterError("probe series take basis and zeta specs only")
    grid = [int(g) for g in m0_grid]
    if not grid:
        raise ParameterError("the grid of staircase indices m0 is empty")
    if min(grid) < 0:
        raise ParameterError("grid indices must be natural numbers")
    check_grid_top(max(grid))
    x, f = [0.0, 0.0], [0.0, 0.0]  # X and F of each spec
    f_at, prev = {}, -1
    for g in sorted(set(grid)):
        for lo in range(prev + 1, g + 1, SWEEP_BLOCK):
            j = np.arange(lo, min(lo + SWEEP_BLOCK, g + 1), dtype=float)
            root = np.sqrt(j + 1.0)
            for i, sp in enumerate(specs):
                w = (j == sp.index).astype(float) if sp.kind == "basis" else (j + 1.0) ** (-sp.s)
                x_seg = np.cumsum(np.concatenate(([x[i]], w)))
                x[i] = x_seg[-1]
                f[i] = np.cumsum(np.concatenate(([f[i]], x_seg[1:] / root)))[-1]
        prev = g
        f_at[g] = [float(f[i] / zeta_partial(sp.s, DEFAULT_CUTOFF_FACTOR * g + 1)
                         if sp.kind == "zeta" else f[i]) for i, sp in enumerate(specs)]
    pref = math.sqrt(2.0 * theta) / 2.0
    return np.array([pref * abs(f_at[g][0] - f_at[g][1]) for g in grid])


class ProbeSeries(namedtuple("ProbeSeries",
                             "m0_grid b_values fitted_slope fit_window theory_slope")):
    """A probe run: grid, bound values, and the fitted versus predicted slope."""

    __slots__ = ()

    def csv_rows(self):
        yield ("m0", "B", "log_m0", "log_B")
        for m0, b in zip(self.m0_grid, self.b_values):
            yield (m0, repr(float(b)), repr(math.log10(m0)), repr(math.log10(b)))

    def summary_dict(self) -> dict:
        return {
            "fitted_slope": self.fitted_slope,
            "theory_slope": self.theory_slope,
            "gap": self.fitted_slope - self.theory_slope,
            "fit_window": list(self.fit_window),
            "points": len(self.m0_grid),
        }


def default_grid(lo: float = 1e2, hi: float = 1e6, points: int = 25) -> tuple:
    g = np.round(np.logspace(math.log10(lo), math.log10(hi), points)).astype(int)
    return tuple(sorted(set(g.tolist())))  # np.unique's values; it would import numpy.ma


def asymptotic_fit(spec1: ProbeSpec, spec2: ProbeSpec, m0_grid, decades: float,
                   theta: float = 1.0) -> ProbeSeries:
    """Fit the log-log growth of the certificate bound over the grid's top `decades`
    decades, (max(grid) / 10**decades, max(grid)), and compare to theory.

    The predicted exponent is 3/2 minus the smallest zeta exponent of the pair; a
    window at the top of the grid suppresses the subleading term.
    """
    if spec1 == spec2:
        raise ParameterError("identical state specs give a zero series; fit refused")
    exponents = [sp.s for sp in (spec1, spec2) if sp.kind == "zeta"]
    if not exponents:
        raise ParameterError("slope fits need at least one zeta-type spec")
    try:
        scale = 10.0 ** decades
    except OverflowError:
        scale = math.inf
    if not 1.0 < scale < math.inf:  # decades > 0 and 10**decades a finite float
        raise ParameterError(f"a fit window of {decades} decades needs 1 < 10**decades < inf")
    grid = [int(g) for g in m0_grid]
    b = probe_series(spec1, spec2, grid, theta)
    lo_w, hi_w = max(grid) / scale, max(grid)
    mask = [(lo_w <= g <= hi_w) for g in grid]
    if sum(mask) < 2:
        raise ParameterError("fit window selects fewer than two grid points; widen it")
    if any(b[i] <= 0 for i, m in enumerate(mask) if m):
        raise ParameterError("bound vanishes inside the fit window; widen the window")
    xs = np.log([g for g, m in zip(grid, mask) if m])
    ys = np.log([float(b[i]) for i, m in enumerate(mask) if m])
    design = np.vstack([xs, np.ones_like(xs)]).T
    slope, _ = np.linalg.lstsq(design, ys, rcond=None)[0]
    return ProbeSeries(
        m0_grid=tuple(grid),
        b_values=tuple(float(x) for x in b),
        fitted_slope=float(slope),
        fit_window=(float(lo_w), float(hi_w)),
        theory_slope=1.5 - min(exponents),
    )


def divergence_flag(spec1: ProbeSpec, spec2: ProbeSpec) -> str | None:
    """Verdict on the distance between the untruncated states of two specs: None for
    equal specs or when neither is zeta, else "divergent" when the least zeta exponent
    s is at most 3/2 and "inconclusive" above.

    Proof.  The radial certificate of radial_steps cut at K (steps sigma_k/sqrt(k+1),
    k < K) has commutator norm exactly 1, and as the differences d_p of the diagonal
    weights sum to 0 its gap is R_K = sqrt(theta/2) sum_{k<K} |T_{k+1}|/sqrt(k+1), with
    T_j = sum_{p>=j} d_p.  The zeta state's weights summed from j up give
    sum_{m>j} m^-s / zeta(s) >= (j+1)^(1-s) / ((s-1) zeta(s)).  The other state's sum is
    0 beyond a basis index or a finite support, and at most j^(1-s')/((s'-1) zeta(s')) =
    o(j^(1-s)) for a larger exponent s'.  So |T_{k+1}| >= c (k+2)^(1-s) with c > 0 for
    all large k, and R_K grows like sum_k k^(1/2-s), which diverges exactly when
    s <= 3/2 (the harmonic series at s = 3/2): the distance, at least every R_K, is
    infinite.  Above 3/2 the tails are O(j^(1-s)) and R_K converges, so this certificate
    decides nothing.
    """
    ss = [sp.s for sp in (spec1, spec2) if sp.kind == "zeta"]
    if spec1 == spec2 or not ss:
        return None
    return "divergent" if min(ss) <= 1.5 else "inconclusive"


# ---------------------------------------------------------------------------
# mean-value and partial-sum estimates
# ---------------------------------------------------------------------------

def _geometric_indices(lo: int, hi: int) -> list[int]:
    out = []
    v = lo
    while v < hi:
        out.append(v)
        v *= 2
    out.append(hi)
    return sorted(set(out))


def estimate_checks() -> list[str]:
    """Check the four families of closed-form inequalities on geometric grids up to
    10^4, at the exponents s = 1.01, 1.1, 1.25 and 1.5.

    Returns a list of human-readable violations; an empty list means every
    sampled instance holds.  Violations are data here, not errors.
    """
    top, s_values = 10 ** 4, (1.01, 1.1, 1.25, 1.5)
    violations = []
    j = np.arange(top + 1, dtype=float)
    s_prefix = np.cumsum(1.0 / np.sqrt(j + 1.0))

    # two-sided square-root bound for suffix sums of 1/sqrt(k+1)
    for m0 in _geometric_indices(1, top):
        for m in [x for x in _geometric_indices(1, m0) if x < m0] + [0]:
            mid = 0.5 * (s_prefix[m0] - (s_prefix[m - 1] if m >= 1 else 0.0))
            lo = math.sqrt(m0 + 2.0) - math.sqrt(m + 1.0)
            hi = math.sqrt(m0 + 1.0) - math.sqrt(float(m))
            if not (lo <= mid <= hi):
                violations.append(f"sqrt-sum bound fails at m={m}, m0={m0}: "
                                  f"{lo} <= {mid} <= {hi}")

    # two-sided bound for power partial sums, A >= 1
    for s in s_values:
        w_prefix = np.cumsum((j + 1.0) ** (-s))
        for m0 in _geometric_indices(2, top):
            for a in [x for x in _geometric_indices(1, m0) if x < m0]:
                val = (s - 1.0) * (w_prefix[m0] - w_prefix[a - 1])
                lo = (a + 1.0) ** (1.0 - s) - (m0 + 2.0) ** (1.0 - s)
                hi = float(a) ** (1.0 - s) - (m0 + 1.0) ** (1.0 - s)
                if not (lo <= val <= hi):
                    violations.append(f"power-sum bound fails at s={s}, A={a}, m0={m0}: "
                                      f"{lo} <= {val} <= {hi}")

    ks = np.array(_geometric_indices(1, top), dtype=float)
    diff = lambda alpha: (ks + 1.0) ** alpha - ks ** alpha

    # mean-value bounds, increasing case alpha in (0, 1]
    for alpha in (0.1, 0.25, 0.5, 0.75, 1.0):
        d = diff(alpha)
        bad = ~((alpha * ks ** (alpha - 1.0) >= d) & (d >= alpha * (ks + 1.0) ** (alpha - 1.0)))
        for k in ks[bad]:
            violations.append(f"mean-value bound fails at alpha={alpha}, k={int(k)}")

    # mean-value bounds, decreasing case alpha < 0
    neg = sorted({1.0 - s for s in s_values} | {-0.5, -1.0, -2.0})
    for alpha in neg:
        d = diff(alpha)
        bad = ~((alpha * ks ** (alpha - 1.0) <= d) & (d <= alpha * (ks + 1.0) ** (alpha - 1.0)))
        for k in ks[bad]:
            violations.append(f"mean-value bound fails at alpha={alpha}, k={int(k)}")

    return violations
