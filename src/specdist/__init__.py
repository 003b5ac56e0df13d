"""Spectral distances on the truncated plane and the noncommutative torus.

Numerics for the state-space metric induced by a Dirac operator: exact
matrix-basis algebra, Lipschitz-ball certificates, closed-form and optimized
distance brackets, and divergence-rate probes.

Attributes load on first use (PEP 562): ``import specdist`` imports no
submodule, and ``specdist.star`` imports ``specdist.algebra`` when first read.
"""

from importlib import import_module as _import_module

# the public API: submodule -> the names it exports as specdist.<name>
_API = {
    "algebra": ("MoyalElement", "basis", "inner", "integral", "involution", "radial",
                "sobolev_norm", "star", "zero"),
    "calculus": ("dz", "dzbar", "reconstruct", "staircase"),
    "distance": ("DistanceReport", "OptimizeResult", "analytic_upper_bound", "basis_distance",
                 "moyal_report", "optimize_distance"),
    "errors": ("ParameterError", "UnboundedSupportError"),
    "lipschitz": ("BallReport", "ball_report", "commutator_norm", "op_norm",
                  "radial_ball_report"),
    "probes": ("ProbeSeries", "ProbeSpec", "asymptotic_fit", "crossover_index",
               "divergence_flag", "estimate_checks", "probe_series", "radial_gap",
               "staircase_gap", "zeta_weight_gap"),
    "states": ("MoyalPureState", "basis_state", "diagonal_difference", "difference_matrix",
               "finite_state", "zeta_state"),
    "torus": ("TorusElement", "TorusState", "bicharacter", "torus_commutator_norm",
              "torus_op_norm", "torus_report", "tracial_state", "vector_state",
              "weyl_certificate"),
}
_HOME = {name: module for module, names in _API.items() for name in names}
_SUBMODULES = (*_API, "cli", "verify", "zeta")

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _HOME:
        value = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME, *_SUBMODULES})
