"""The package's lazy import: the public API resolves on first use, `import
specdist.cli` loads no numerics, and each subcommand loads only the modules it
runs, so an eager import anywhere on a subcommand's path fails here.  The value
types are named tuples and slotted classes, because importing dataclasses adds to
every job's start-up; their contract is pinned here."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import specdist
from specdist.algebra import MoyalElement
from specdist.lipschitz import BallReport
from specdist.probes import ProbeSeries, ProbeSpec
from specdist.report import DistanceReport, OptimizeResult
from specdist.states import MoyalPureState
from specdist.torus import TorusElement, TorusState
from specdist.verify import DEFAULT_SEED, SUITES, Draws, rand_element

# the names `import specdist` exported when it imported every submodule eagerly
PUBLIC = """
    MoyalElement basis inner integral involution radial sobolev_norm star zero
    dz dzbar reconstruct staircase
    DistanceReport OptimizeResult analytic_upper_bound basis_distance moyal_report
    optimize_distance
    ParameterError UnboundedSupportError
    BallReport ball_report commutator_norm op_norm radial_ball_report
    ProbeSeries ProbeSpec asymptotic_fit crossover_index divergence_flag estimate_checks
    probe_series radial_gap staircase_gap zeta_weight_gap
    MoyalPureState basis_state diagonal_difference difference_matrix finite_state zeta_state
    TorusElement TorusState bicharacter torus_commutator_norm torus_op_norm torus_report
    tracial_state vector_state weyl_certificate
""".split()
SUBMODULES = ("algebra", "calculus", "cli", "distance", "errors", "lipschitz", "probes",
              "report", "states", "torus", "verify", "zeta")

# what each subcommand must load besides specdist.cli itself
_NUMERICS = {"algebra", "calculus", "distance", "errors", "lipschitz", "probes", "report",
             "states", "zeta"}
_VERIFY = {"algebra", "calculus", "errors", "verify"}
LOADED = {
    ("ball-check", "--staircase", "5"): {"errors", "algebra", "calculus", "lipschitz"},
    ("probe", "--pair", "zeta:1.2,basis:0", "--grid", "1e2:1e3", "--points", "6"):
        {"errors", "algebra", "zeta", "states", "probes"},
    ("moyal-distance", "--a", "basis:0", "--b", "basis:1", "--no-optimize"): _NUMERICS,
    ("torus-distance", "--m", "1,0"): {"errors", "report", "torus"},
    ("verify", "--suite", "states"): _VERIFY | {"states", "zeta"},
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


def test_states_load_no_zeta_function():
    # a zeta state is normalized by its own sum of squares and names itself by s and m_cut
    loaded = _fresh("import json, sys, specdist.states\n"
                    "print(json.dumps('specdist.zeta' in sys.modules))")
    assert loaded is False


@pytest.mark.parametrize("argv", list(LOADED), ids=lambda argv: argv[0])
def test_subcommand_loads_only_its_modules(argv):
    code, loaded = _fresh(_RUN_AND_LIST, *argv)
    assert code == 0
    assert loaded == sorted(f"specdist.{m}" for m in LOADED[argv] | {"cli"})


def _loads(module: str, *argv):
    """[exit code, whether module is in sys.modules] after a subcommand run in a new
    interpreter."""
    return _fresh(_RUN_AND_LIST.replace(
        'sorted(m for m in sys.modules if m.startswith("specdist."))',
        f"{module!r} in sys.modules"), *argv)


def test_probes_load_no_numpy_ma():
    # np.unique's first call imports numpy.ma, about 11 ms of a probe job; default_grid
    # serves both the probe subcommand and the divergence flag of moyal-distance --probe
    for argv in (("probe", "--pair", "zeta:1.1,zeta:1.4", "--grid", "1e2:1e4", "--points", "6"),
                 ("moyal-distance", "--a", "basis:0", "--b", "zeta:1.2:1000", "--probe",
                  "--no-optimize")):
        assert _loads("numpy.ma", *argv) == [0, False]


def test_verify_suite_loads_probes_torus_and_distance_only_if_it_runs_them():
    # nor lipschitz, states and zeta: the algebra and calculus suites check algebra and
    # calculus alone
    for suite in ("algebra", "calculus"):
        code, loaded = _fresh(_RUN_AND_LIST, "verify", "--suite", suite)
        assert code == 0 and loaded == sorted(f"specdist.{m}" for m in _VERIFY | {"cli"})


@pytest.mark.parametrize("suite", SUITES)
def test_verify_suite_loads_no_numpy_random(suite):
    # numpy.random adds about 6 MB of RSS to a job; the suites draw through verify.Draws
    assert _loads("numpy.random", "verify", "--suite", suite) == [
        2 if suite == "torus" else 0, False]


def _sample(draws):
    return [draws.uniform(-1.0, 2.0, (40, 30)), draws.uniform(0.5, 1.5), draws.integers(2, 17),
            draws.standard_normal(5), draws.standard_normal()]


def test_draws_repeat_by_seed_and_stay_in_range():
    values = _sample(Draws(DEFAULT_SEED))
    for x, y in zip(values, _sample(Draws(DEFAULT_SEED))):
        assert np.array_equal(x, y)
    u, x, j = values[:3]
    assert u.shape == (40, 30) and u.dtype == np.float64
    assert -1.0 <= u.min() and u.max() < 2.0 and 0.5 <= x < 1.5
    assert 2 <= j < 17
    assert not np.array_equal(Draws(DEFAULT_SEED + 1).uniform(0.0, 1.0, 8),
                              Draws(DEFAULT_SEED).uniform(0.0, 1.0, 8))


@pytest.mark.parametrize("rng", [np.random.default_rng(DEFAULT_SEED), Draws(DEFAULT_SEED)],
                         ids=["numpy", "draws"])
def test_rand_element_takes_either_generator(rng):
    for _ in range(20):
        a = rand_element(rng, 2.0, 6)
        assert 2 <= a.order <= 6 and a.coeffs.dtype == np.complex128
        assert np.abs(a.coeffs).max() <= 1.0  # entries in the unit disk


# torus-distance jobs by their benchmark slot: certificates and closed forms take no
# box norm, so only the box optimizer on a non-parallel vector pair (vv) loads numpy
TORUS_NUMPY = {
    "c4": (("--a=phi:4,4", "--b=tracial"), False),
    "d": (("--a=phi:1,1", "--b=tracial", "--optimize"), False),
    "cv": (("--a=phi:3,4", "--b=phi:2,-5"), False),
    "vv": (("--a=phi:1,0", "--b=phi:0,1", "--optimize", "--box", "5"), True),
}


@pytest.mark.parametrize("slot", TORUS_NUMPY)
def test_torus_job_loads_numpy_only_for_the_box_optimizer(slot):
    argv, loads_numpy = TORUS_NUMPY[slot]
    assert _loads("numpy", "torus-distance", "--theta", "0.37", *argv) == [0, loads_numpy]


@pytest.mark.parametrize("slot", [slot for slot in TORUS_NUMPY if not TORUS_NUMPY[slot][1]])
def test_numpy_free_torus_job_loads_no_dataclasses(slot):
    # dataclasses imports inspect, the largest import of a numpy-free job (numpy itself
    # imports inspect, so vv is not checked)
    for module in ("dataclasses", "inspect"):
        assert _loads(module, "torus-distance", "--theta", "0.37",
                      *TORUS_NUMPY[slot][0]) == [0, False]


def test_no_module_imports_dataclasses():
    src = Path(specdist.__file__).parent
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            assert "dataclasses" not in names, path.name


def _report(**kw):
    return DistanceReport(theta=1.0, order=4, state_a="basis:0", state_b="basis:1",
                          certificate_lower=0.5, certificate_id="radial", **kw)


def _series(slope):
    return ProbeSeries(m0_grid=(10, 100), b_values=(0.1, 0.2), fitted_slope=slope,
                       fit_window=(10.0, 100.0), theory_slope=0.3)


# value types: a maker of equal instances (by keyword) and an unequal instance
RECORDS = {
    "OptimizeResult": (lambda: OptimizeResult(value=0.5, iterations=3, converged=True,
                                              feasibility_residual=0.0, order=8),
                       OptimizeResult(0.5, 3, False, 0.0, 8)),
    "DistanceReport": (lambda: _report(analytic_upper=1.0), _report(analytic_upper=2.0)),
    "BallReport": (lambda: BallReport(commutator_norm=0.5, member=True,
                                      violations=((0, 1, 0.25),)),
                   BallReport(0.5, True, ())),
    "ProbeSpec": (lambda: ProbeSpec("zeta", s=1.2), ProbeSpec("zeta", s=1.3)),
    "ProbeSeries": (lambda: _series(0.3), _series(0.4)),
    "TorusState": (lambda: TorusState(0.37, "vector", (np.int64(1), 2)),
                   TorusState(0.37, "vector", (2, 1))),
}
# identity types: a maker of instances from equal inputs
IDENTITIES = {
    "MoyalElement": lambda: MoyalElement(theta=1.0, coeffs=np.eye(2)),
    "MoyalPureState": lambda: MoyalPureState(theta=1.0, c=np.array([1.0])),
    "TorusElement": lambda: TorusElement(theta=0.37, terms={(1, 0): 1.0}),
}


@pytest.mark.parametrize("name", [*RECORDS, *IDENTITIES])
def test_value_types_refuse_assignment(name):
    obj = RECORDS[name][0]() if name in RECORDS else IDENTITIES[name]()
    fields = getattr(obj, "_fields", None) or type(obj).__slots__
    for field in (*fields, "no_such_field"):
        with pytest.raises(AttributeError):
            setattr(obj, field, 0)
    for field in fields:
        with pytest.raises(AttributeError):
            delattr(obj, field)


@pytest.mark.parametrize("name", RECORDS)
def test_records_compare_and_hash_by_value(name):
    make, other = RECORDS[name]
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != other


@pytest.mark.parametrize("name", IDENTITIES)
def test_elements_and_states_compare_by_identity(name):
    a, b = IDENTITIES[name](), IDENTITIES[name]()
    assert a == a and a != b
    assert len({a, b}) == 2


def test_record_defaults_and_dicts():
    d = DistanceReport(1.0, 4, "basis:0", "basis:1", 0.5, "radial").to_dict()
    assert sorted(d) == [
        "analytic_upper", "bracket_width", "certificate_id", "certificate_lower",
        "closed_form", "converged", "divergence", "feasibility_residual", "iterations",
        "optimizer_lower", "order", "state_a", "state_b", "theta"]
    assert sorted(k for k, v in d.items() if v is None) == [
        "analytic_upper", "bracket_width", "closed_form", "converged", "divergence",
        "feasibility_residual", "iterations", "optimizer_lower"]
    assert ProbeSpec("basis") == ProbeSpec(kind="basis", index=0, s=0.0)
    state = MoyalPureState(1.0, [1.0])
    assert (state.kind, state.meta) == ("finite", {})
    assert TorusState(0.37, "tracial").m is None
    assert BallReport(0.5, False, ((0, 1, np.float64(0.25)),)).to_dict() == {
        "commutator_norm": 0.5, "member": False, "violations": [[0, 1, 0.25]]}


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
