"""The package's lazy import: the public API resolves on first use, `import
specdist.cli` loads no numerics, and each subcommand loads only the modules it
runs, so an eager import anywhere on a subcommand's path fails here."""

import json
import subprocess
import sys

import pytest

import specdist

# the names `import specdist` exported when it imported every submodule eagerly
PUBLIC = """
    MoyalElement basis frechet_seminorm inner integral involution radial sobolev_norm star zero
    DerivativeCoefficients dz dzbar radial_bump reconstruct staircase
    DistanceReport OptimizeResult analytic_upper_bound basis_distance moyal_report
    optimize_distance triangle_residual
    ParameterError PreconditionError UnboundedSupportError
    BallReport ball_report commutator_norm op_norm radial_in_ball
    ProbeSeries ProbeSpec asymptotic_fit crossover_index divergence_flag estimate_checks
    inv_sqrt_suffix_sum probe_series radial_gap staircase_gap zeta_weight_gap
    MoyalPureState basis_state diagonal_difference difference_matrix finite_state zeta_state
    TorusElement TorusState bicharacter torus_commutator_norm torus_op_norm torus_report
    tracial_state vector_state weyl_certificate
""".split()
SUBMODULES = ("algebra", "calculus", "cli", "distance", "errors", "lipschitz", "probes",
              "states", "torus", "verify", "zeta")

# what each subcommand must load besides specdist.cli itself
_NUMERICS = {"algebra", "calculus", "distance", "errors", "lipschitz", "probes", "states",
             "zeta"}
LOADED = {
    ("ball-check", "--staircase", "5"): {"errors", "algebra", "calculus", "lipschitz"},
    ("probe", "--pair", "zeta:1.2,basis:0", "--grid", "1e2:1e3", "--points", "6"):
        {"errors", "algebra", "zeta", "states", "probes"},
    ("moyal-distance", "--a", "basis:0", "--b", "basis:1", "--no-optimize"): _NUMERICS,
    ("torus-distance", "--m", "1,0"): _NUMERICS | {"torus"},
    ("verify", "--suite", "states"): _NUMERICS | {"torus", "verify"},
}

_RUN_AND_LIST = """
import contextlib, io, json, sys
from specdist.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("specdist."))]))
"""


def _fresh(code: str, *argv):
    """Last stdout line of a new interpreter running code, parsed as JSON."""
    run = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                         check=True)
    return json.loads(run.stdout.splitlines()[-1])


def test_cli_import_loads_no_numerics():
    loaded = _fresh("import json, sys, specdist.cli\n"
                    "print(json.dumps(sorted(m for m in sys.modules\n"
                    "                        if m == 'numpy' or m.startswith('specdist'))))")
    assert loaded == ["specdist", "specdist.cli", "specdist.errors"]


@pytest.mark.parametrize("argv", list(LOADED), ids=lambda argv: argv[0])
def test_subcommand_loads_only_its_modules(argv):
    code, loaded = _fresh(_RUN_AND_LIST, *argv)
    assert code == 0
    assert loaded == sorted(f"specdist.{m}" for m in LOADED[argv] | {"cli"})


def test_probes_load_no_numpy_ma():
    # np.unique's first call imports numpy.ma, about 11 ms of a probe job; default_grid
    # serves both the probe subcommand and the divergence flag of moyal-distance --probe
    run = _RUN_AND_LIST.replace('sorted(m for m in sys.modules if m.startswith("specdist."))',
                                '"numpy.ma" in sys.modules')
    for argv in (("probe", "--pair", "zeta:1.1,zeta:1.4", "--grid", "1e2:1e4", "--points", "6"),
                 ("moyal-distance", "--a", "basis:0", "--b", "zeta:1.2:1000", "--probe",
                  "--no-optimize")):
        assert _fresh(run, *argv) == [0, False]


def test_attribute_loads_its_module_on_first_use():
    loaded = _fresh("import json, sys, specdist\n"
                    "before = sorted(m for m in sys.modules if m.startswith('specdist.'))\n"
                    "specdist.star\n"
                    "after = sorted(m for m in sys.modules if m.startswith('specdist.'))\n"
                    "print(json.dumps([before, after]))")
    assert loaded == [[], ["specdist.algebra", "specdist.errors"]]


@pytest.mark.parametrize("name", PUBLIC + list(SUBMODULES))
def test_public_name_resolves(name):
    value = getattr(specdist, name)
    if name in SUBMODULES:
        assert value is sys.modules[f"specdist.{name}"]
    else:
        assert getattr(sys.modules[value.__module__], name) is value
    namespace = {}
    exec(f"from specdist import {name}", namespace)
    assert namespace[name] is value
    assert name in dir(specdist)


def test_all_is_the_public_api():
    assert sorted(specdist.__all__) == sorted(PUBLIC)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        specdist.no_such_name
    with pytest.raises(ImportError):
        exec("from specdist import no_such_name", {})
    assert "no_such_name" not in dir(specdist)
