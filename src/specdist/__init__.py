"""Spectral distances on the truncated plane and the noncommutative torus.

Numerics for the state-space metric induced by a Dirac operator: exact
matrix-basis algebra, Lipschitz-ball certificates, closed-form and optimized
distance brackets, and divergence-rate probes.
"""

from .algebra import (MoyalElement, basis, frechet_seminorm, inner, integral, involution,
                      radial, sobolev_norm, star, zero)
from .calculus import DerivativeCoefficients, dz, dzbar, radial_bump, reconstruct, staircase
from .distance import (DistanceReport, OptimizeResult, analytic_upper_bound, basis_distance,
                       moyal_report, optimize_distance, triangle_residual)
from .errors import ParameterError, PreconditionError, UnboundedSupportError
from .lipschitz import BallReport, ball_report, commutator_norm, op_norm, radial_in_ball
from .probes import (ProbeSeries, ProbeSpec, asymptotic_fit, crossover_index, divergence_flag,
                     estimate_checks, inv_sqrt_suffix_sum, probe_series, radial_gap,
                     staircase_gap, zeta_weight_gap)
from .states import (MoyalPureState, basis_state, diagonal_difference, difference_matrix,
                     finite_state, zeta_state)
from .torus import (TorusElement, TorusState, bicharacter, torus_commutator_norm,
                    torus_op_norm, torus_report, tracial_state, vector_state,
                    weyl_certificate)

__version__ = "0.1.0"
