"""Quantitative divergence machinery: staircase-certificate bounds over large
index grids, the weight-gap sequence and its crossover, mean-value estimates,
and log-log slope fits certifying power-law growth of the lower bound.

Grid evaluation uses prefix sums so each grid point costs O(1) after an
O(max m0) precomputation; grids up to 1e6 are cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import check_theta
from .errors import ParameterError
from .states import MAX_SUPPORT, MoyalPureState, diagonal_difference
from .zeta import zeta, zeta_partial, zeta_tail

TRUNCATED = "truncated"
EXACT = "exact"
DEFAULT_CUTOFF_FACTOR = 100


def inv_sqrt_suffix_sum(m: int, m0: int) -> float:
    """u(m, m0) = sum_{k=m}^{m0} 1/sqrt(k+1)."""
    if not 0 <= m <= m0:
        raise ParameterError(f"need 0 <= m <= m0, got {(m, m0)}")
    return math.fsum(1.0 / math.sqrt(k + 1.0) for k in range(m, m0 + 1))


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
    """
    _check_exponents(s1, s2)
    est = (zeta(s1) / zeta(s2)) ** (1.0 / (s2 - s1)) - 1.0
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


def staircase_gap(m0: int, s1: MoyalPureState, s2: MoyalPureState) -> float:
    """Evaluation gap of the staircase certificate between two states.

    Equals sqrt(theta/2) |sum_{m<=m0} u(m, m0) (|c1_m|^2 - |c2_m|^2)| and
    cross-checks against direct expectation values on the staircase element.
    """
    if m0 < 0:
        raise ParameterError(f"m0 must be a natural number, got {m0}")
    return radial_gap(s1, s2, 1.0 / np.sqrt(np.arange(m0 + 1, dtype=float) + 1.0))


def radial_steps(d: np.ndarray) -> np.ndarray:
    """Steps sigma_k/sqrt(k+1) of the best radial certificate for the diagonal difference
    d: sigma_k = -sign(T_{k+1}), T_j = sum_{p>=j} d_p.  Where T_{k+1} = 0 (always at the
    last step) the step adds nothing and keeps the sign before it (+1 if none), so dz
    is one band of modulus 1/sqrt(2) and the commutator norm is exactly 1."""
    tail = np.cumsum(d[::-1])[::-1]  # tail[j] = T_j
    sigma = -np.sign(np.append(tail[1:], 0.0))
    sigma = sigma[np.maximum.accumulate(np.where(sigma != 0, np.arange(sigma.size), 0))]
    return np.where(sigma != 0, sigma, 1.0) / np.sqrt(np.arange(d.size, dtype=float) + 1.0)


def radial_gap(s1: MoyalPureState, s2: MoyalPureState, steps=None) -> float:
    """Gap sqrt(theta/2) |sum_m u_m d_m| of the radial element with diagonal sqrt(theta/2) u,
    u_m = sum_{k>=m} steps_k.  The default radial_steps(d) give R = sqrt(theta/2) sum_k
    |T_{k+1}|/sqrt(k+1), the exact distance between the states averaged over the rotation
    action (a contraction; a 1-d Kantorovich distance on the basis chain): a lower bound
    above every staircase gap, equal to staircase_gap(top) bit for bit where T keeps one sign.
    """
    d = diagonal_difference(s1, s2)
    steps = radial_steps(d) if steps is None else steps
    n = min(steps.size, d.size)
    u = np.cumsum(steps[::-1])[::-1]
    return float(np.sqrt(s1.theta / 2.0) * abs(np.dot(u[:n], d[:n])))


# ---------------------------------------------------------------------------
# lightweight state specifications for large-grid probes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProbeSpec:
    """Diagonal-weight description of a state for grid probes.

    kind "basis" uses an indicator weight at `index`; kind "zeta" uses
    (m+1)^-s weights with either the exact zeta normalization or the running
    truncated normalization; kind "fixed" carries an explicit weight vector.
    """

    kind: str
    index: int = 0
    s: float = 0.0
    weights: tuple = ()

    def label(self) -> str:
        if self.kind == "basis":
            return f"basis:{self.index}"
        if self.kind == "zeta":
            return f"zeta:{self.s}"
        return f"fixed[{len(self.weights)}]"


def parse_probe_spec(text: str) -> ProbeSpec:
    parts = text.split(":")
    if parts[0] == "basis" and len(parts) >= 2:
        if int(parts[1]) < 0:
            raise ParameterError(f"basis index must be a natural number, got {parts[1]}")
        return ProbeSpec("basis", index=int(parts[1]))
    if parts[0] == "zeta" and len(parts) >= 2:
        s = float(parts[1])
        if not (math.isfinite(s) and s > 1):
            raise ParameterError(f"zeta spec requires a finite s > 1, got {s}")
        return ProbeSpec("zeta", s=s)
    raise ParameterError(f"cannot parse probe state spec {text!r}")


def spec_of_state(state: MoyalPureState) -> ProbeSpec:
    if state.kind == "basis":
        return ProbeSpec("basis", index=state.meta["index"])
    if state.kind == "zeta":
        return ProbeSpec("zeta", s=state.meta["s"])
    return ProbeSpec("fixed", weights=tuple(float(x) for x in np.abs(state.c) ** 2))


class _GridEvaluator:
    """Prefix-sum tables shared by all grid points of one probe run."""

    def __init__(self, specs, max_m0: int, normalization: str, cutoff_factor: int):
        if normalization not in (TRUNCATED, EXACT):
            raise ParameterError(f"unknown normalization {normalization!r}")
        self.normalization = normalization
        self.cutoff_factor = cutoff_factor
        j = np.arange(max_m0 + 1, dtype=float)
        self.s_prefix = np.cumsum(1.0 / np.sqrt(j + 1.0))
        self.tables = {}
        for spec in specs:
            if spec.kind == "zeta" and spec.s not in self.tables:
                w = (j + 1.0) ** (-spec.s)
                self.tables[spec.s] = self._prefix_pair(w)
            elif spec.kind == "fixed" and ("fixed", spec.weights) not in self.tables:
                w = np.asarray(spec.weights, dtype=float)
                self.tables[("fixed", spec.weights)] = self._prefix_pair(w)

    def _prefix_pair(self, w: np.ndarray):
        x = np.cumsum(w)
        s_shift = np.concatenate([[0.0], self.s_prefix[: w.size - 1]])
        t = np.cumsum(s_shift * w)
        return x, t

    def weighted_sum(self, spec: ProbeSpec, m0: int) -> float:
        """sum_{m<=m0} u(m, m0) * (normalized weight of spec at m)."""
        s_m0 = self.s_prefix[m0]
        if spec.kind == "basis":
            if spec.index > m0:
                return 0.0
            lower = self.s_prefix[spec.index - 1] if spec.index >= 1 else 0.0
            return float(s_m0 - lower)
        if spec.kind == "zeta":
            x, t = self.tables[spec.s]
            raw = s_m0 * x[m0] - t[m0]
            if self.normalization == EXACT:
                z = zeta(spec.s)
            else:
                z = zeta_partial(spec.s, self.cutoff_factor * m0 + 1)
            return float(raw / z)
        x, t = self.tables[("fixed", spec.weights)]
        j = min(m0, len(spec.weights) - 1)
        return float(s_m0 * x[j] - t[j])


def probe_series(spec1: ProbeSpec, spec2: ProbeSpec, m0_grid, theta: float = 1.0,
                 normalization: str = TRUNCATED,
                 cutoff_factor: int = DEFAULT_CUTOFF_FACTOR) -> np.ndarray:
    """Certificate bound over a grid of staircase indices, from state specs.

    Nothing large is materialized: the truncated normalization for zeta specs
    is evaluated through tail-corrected partial sums, so grids to 1e6 are fast.
    """
    check_theta(theta)
    grid = [int(g) for g in m0_grid]
    if any(g < 0 for g in grid):
        raise ParameterError("grid indices must be natural numbers")
    top = max(grid)
    if top > MAX_SUPPORT - 1:  # the prefix tables hold top + 1 floats each
        raise ParameterError(f"grid top {top} exceeds the cap MAX_SUPPORT - 1 = "
                             f"{MAX_SUPPORT - 1}; choose a smaller grid")
    ev = _GridEvaluator((spec1, spec2), top, normalization, cutoff_factor)
    pref = math.sqrt(theta / 2.0)
    return np.array([
        pref * abs(ev.weighted_sum(spec1, g) - ev.weighted_sum(spec2, g)) for g in grid
    ])


@dataclass(frozen=True)
class ProbeSeries:
    """A probe run: grid, bound values, and the fitted versus predicted slope."""

    m0_grid: tuple
    b_values: tuple
    fitted_slope: float
    fit_window: tuple
    theory_slope: float

    @property
    def slope_gap(self) -> float:
        return self.fitted_slope - self.theory_slope

    def csv_rows(self):
        yield ("m0", "B", "log_m0", "log_B")
        for m0, b in zip(self.m0_grid, self.b_values):
            yield (m0, repr(float(b)), repr(math.log10(m0)), repr(math.log10(b)))

    def summary_dict(self) -> dict:
        return {
            "fitted_slope": self.fitted_slope,
            "theory_slope": self.theory_slope,
            "gap": self.slope_gap,
            "fit_window": list(self.fit_window),
            "points": len(self.m0_grid),
        }


def default_grid(lo: float = 1e2, hi: float = 1e6, points: int = 25) -> tuple:
    g = np.round(np.logspace(math.log10(lo), math.log10(hi), points)).astype(int)
    return tuple(sorted(set(g.tolist())))  # np.unique's values; it would import numpy.ma


def asymptotic_fit(spec1: ProbeSpec, spec2: ProbeSpec, m0_grid,
                   fit_window: tuple | None = None, theta: float = 1.0,
                   normalization: str = TRUNCATED,
                   cutoff_factor: int = DEFAULT_CUTOFF_FACTOR) -> ProbeSeries:
    """Fit the log-log growth of the certificate bound and compare to theory.

    The predicted exponent is 3/2 minus the smallest zeta exponent of the
    pair.  The default window keeps the top 1.5 decades of the grid to
    suppress the subleading term.
    """
    if spec1 == spec2:
        raise ParameterError("identical state specs give a zero series; fit refused")
    exponents = [sp.s for sp in (spec1, spec2) if sp.kind == "zeta"]
    if not exponents:
        raise ParameterError("slope fits need at least one zeta-type spec")
    grid = [int(g) for g in m0_grid]
    b = probe_series(spec1, spec2, grid, theta, normalization, cutoff_factor)
    if fit_window is None:
        hi = max(grid)
        fit_window = (hi / 10 ** 1.5, hi)
    lo_w, hi_w = fit_window
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


_UNDECIDABLE_PAIR = (1.25, 1.5)


def divergence_flag(spec1: ProbeSpec, spec2: ProbeSpec, theta: float = 1.0) -> str | None:
    """Growth verdict for a state pair: "divergent", "inconclusive", or None.

    The exponent pair (5/4, 3/2) is never flagged divergent: the two-term
    expansion of the bound cancels at leading order there, so growth of this
    certificate proves nothing.
    """
    if spec1 == spec2:
        return None
    ss = sorted(sp.s for sp in (spec1, spec2) if sp.kind == "zeta")
    if len(ss) == 2 and abs(ss[0] - _UNDECIDABLE_PAIR[0]) < 1e-12 \
            and abs(ss[1] - _UNDECIDABLE_PAIR[1]) < 1e-12:
        return "inconclusive"
    if not ss:
        return None
    grid = default_grid(1e2, 1e5, 10)
    try:
        series = asymptotic_fit(spec1, spec2, grid, fit_window=(grid[0], grid[-1]), theta=theta)
    except ParameterError:
        return "inconclusive"
    growing = series.b_values[-1] > 2.0 * series.b_values[0]
    return "divergent" if growing and series.fitted_slope > 0.05 else "inconclusive"


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


def estimate_checks(m0_max: int = 10 ** 4,
                    s_values=(1.01, 1.1, 1.25, 1.5),
                    k_max: int = 10 ** 4) -> list[str]:
    """Check the four families of closed-form inequalities on geometric grids.

    Returns a list of human-readable violations; an empty list means every
    sampled instance holds.  Violations are data here, not errors.
    """
    violations = []
    j = np.arange(m0_max + 1, dtype=float)
    s_prefix = np.cumsum(1.0 / np.sqrt(j + 1.0))

    # two-sided square-root bound for suffix sums of 1/sqrt(k+1)
    for m0 in _geometric_indices(1, m0_max):
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
        for m0 in _geometric_indices(2, m0_max):
            for a in [x for x in _geometric_indices(1, m0) if x < m0]:
                val = (s - 1.0) * (w_prefix[m0] - w_prefix[a - 1])
                lo = (a + 1.0) ** (1.0 - s) - (m0 + 2.0) ** (1.0 - s)
                hi = float(a) ** (1.0 - s) - (m0 + 1.0) ** (1.0 - s)
                if not (lo <= val <= hi):
                    violations.append(f"power-sum bound fails at s={s}, A={a}, m0={m0}: "
                                      f"{lo} <= {val} <= {hi}")

    ks = np.array(_geometric_indices(1, k_max), dtype=float)
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
