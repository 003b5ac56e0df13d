import pytest

from specdist.algebra import basis, inner, star, zero
from specdist.calculus import dz, dzbar, reconstruct
from specdist.distance import analytic_upper_bound, moyal_report, optimize_distance
from specdist.errors import ParameterError
from specdist.probes import radial_gap, staircase_gap
from specdist.states import (basis_state, diagonal_difference, difference_matrix,
                             finite_state, zeta_state)
from specdist.torus import (optimize_torus_distance, product, torus_report, tracial_state,
                            vector_state, weyl)


# every public entry that takes two theta-carrying values, called with theta 1 against 2
# (0.3 against 0.4 on the torus)
A, B = basis_state(0, 1.0), finite_state([0.6, 0.8], 2.0)
MISMATCHED = {
    "star": lambda: star(basis(1.0, 0, 0), basis(2.0, 0, 0)),
    "inner": lambda: inner(basis(1.0, 0, 1), basis(2.0, 0, 1)),
    "moyal_add": lambda: basis(1.0, 0, 0) + basis(2.0, 1, 1),
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
