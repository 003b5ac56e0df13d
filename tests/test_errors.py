import math
import re

import numpy as np
import pytest

from specdist.algebra import basis, inner, star, zero
from specdist.calculus import dz, dzbar, reconstruct
from specdist.distance import (analytic_upper_bound, basis_distance, moyal_report,
                               optimize_distance)
from specdist.errors import ParameterError
from specdist.probes import ProbeSpec, probe_series, radial_gap, staircase_gap
from specdist.states import (MoyalPureState, basis_state, diagonal_difference,
                             difference_matrix, finite_state, zeta_state)
from specdist.torus import (TorusElement, TorusState, optimize_torus_distance, product,
                            torus_report, tracial_state, vector_state, weyl,
                            weyl_certificate)
from specdist.zeta import zeta_partial, zeta_tail


# every public entry that takes two theta-carrying values, called with theta 1 against 2
# (0.3 against 0.4 on the torus)
A, B = basis_state(0, 1.0), finite_state([0.6, 0.8], 2.0)
MISMATCHED = {
    "star": lambda: star(basis(1.0, 0, 0), basis(2.0, 0, 0)),
    "inner": lambda: inner(basis(1.0, 0, 1), basis(2.0, 0, 1)),
    "moyal_add": lambda: basis(1.0, 0, 0) + basis(2.0, 1, 1),
    "moyal_sub": lambda: basis(1.0, 0, 0) - basis(2.0, 1, 1),
    "moyal_expect": lambda: basis_state(0, 1.0).expect(basis(2.0, 0, 0)),
    "diagonal_difference": lambda: diagonal_difference(basis_state(0, 1.0), basis_state(0, 2.0)),
    "difference_matrix": lambda: difference_matrix(A, B, 4),
    "reconstruct": lambda: reconstruct(0.0, dz(zero(1.0, 3)), dzbar(zero(2.0, 3))),
    "radial_gap": lambda: radial_gap(A, B),
    "staircase_gap": lambda: staircase_gap(1, A, B),
    "analytic_upper_bound_zeta": lambda: analytic_upper_bound(zeta_state(1.2, 100, 1.0),
                                                              zeta_state(1.2, 100, 2.0)),
    "optimize_distance": lambda: optimize_distance(A, B, 6),
    "moyal_report": lambda: moyal_report(A, B),
    "torus_product": lambda: product(weyl(0.3, (1, 0)), weyl(0.4, (0, 1))),
    "torus_add": lambda: weyl(0.3, (1, 0)) + weyl(0.4, (0, 1)),
    "torus_expect": lambda: tracial_state(0.3).expect(weyl(0.4, (1, 0))),
    "torus_report": lambda: torus_report(tracial_state(0.3), vector_state(0.4, (1, 0))),
    "optimize_torus_distance": lambda: optimize_torus_distance(tracial_state(0.3),
                                                               vector_state(0.4, (1, 0))),
}


@pytest.mark.parametrize("call", MISMATCHED.values(), ids=MISMATCHED)
def test_theta_mismatch_raises_the_one_message(call):
    with pytest.raises(ParameterError, match=r"^theta differs: (1\.0 vs 2\.0|2\.0 vs 1\.0|"
                                             r"0\.3 vs 0\.4|0\.4 vs 0\.3)$"):
        call()


# every other refusal of a bad argument, with its own message
REFUSED = {
    "basis_distance": (lambda: basis_distance(-1, 0, 1.0),
                       "basis indices must be natural numbers"),
    "staircase_gap": (lambda: staircase_gap(-1, A, A), "m0 must be a natural number, got -1"),
    "probe_series": (lambda: probe_series(ProbeSpec("basis"), ProbeSpec("zeta", s=1.2), [-1]),
                     "grid indices must be natural numbers"),
    "state_empty": (lambda: MoyalPureState(1.0, np.array([])),
                    "state coefficients must be a nonempty 1-d sequence"),
    "state_2d": (lambda: MoyalPureState(1.0, [[1.0]]),
                 "state coefficients must be a nonempty 1-d sequence"),
    "basis_state": (lambda: basis_state(-1, 1.0), "basis index must be a natural number, got -1"),
    "zeta_state": (lambda: zeta_state(1.2, 0, 1.0), "m_cut must be at least 1, got 0"),
    "finite_state": (lambda: finite_state([], 1.0), "weights must be a nonempty 1-d sequence"),
    "torus_element": (lambda: TorusElement(math.inf), "theta must be finite, got inf"),
    "torus_state": (lambda: TorusState(0.37, "mixed"), "unknown torus state kind 'mixed'"),
    "weyl_certificate": (lambda: weyl_certificate((0, 0), 0.37),
                         "certificate index must be nonzero"),
    "zeta_tail": (lambda: zeta_tail(1.0, 100), "zeta tail requires s > 1, got 1.0"),
    "zeta_partial": (lambda: zeta_partial(1.0, 10),
                     "partial zeta sums are used only for s > 1, got 1.0"),
}


@pytest.mark.parametrize("call, message", REFUSED.values(), ids=REFUSED)
def test_bad_arguments_raise_their_own_message(call, message):
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        call()
