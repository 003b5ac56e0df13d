import json
import math
import os
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from specdist.algebra import MoyalElement
from specdist.cli import main
from specdist.distance import basis_distance
from specdist.lipschitz import ball_report


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_moyal_distance_basic(capsys):
    code, out, _ = run_cli(capsys, "moyal-distance", "--theta", "1", "--a", "basis:0",
                           "--b", "basis:1", "--order", "8")
    assert code == 0
    report = json.loads(out)
    assert report["closed_form"] == pytest.approx(0.70711, abs=5e-6)
    assert report["certificate_lower"] == pytest.approx(report["closed_form"], abs=1e-12)
    assert report["analytic_upper"] == pytest.approx(report["closed_form"], abs=1e-12)
    assert report["optimizer_lower"] == pytest.approx(report["closed_form"], rel=1e-3)
    assert report["converged"] is True


def test_moyal_distance_identical_states(capsys):
    code, out, _ = run_cli(capsys, "moyal-distance", "--a", "basis:3", "--b", "basis:3",
                           "--order", "8")
    assert code == 0
    report = json.loads(out)
    assert report["closed_form"] == 0.0
    assert report["certificate_lower"] == 0.0
    assert report["optimizer_lower"] == 0.0


def test_moyal_distance_zeta_probe(capsys):
    code, out, _ = run_cli(capsys, "moyal-distance", "--a", "basis:0",
                           "--b", "zeta:1.2:2000", "--probe", "--no-optimize")
    assert code == 0
    report = json.loads(out)
    assert report["closed_form"] is None
    assert report["analytic_upper"] is None
    assert report["divergence"] == "divergent"
    assert report["certificate_lower"] > 0


def test_moyal_distance_upper_bound_past_the_size_cap(capsys):
    # support 5,478 squared exceeds MAX_OPERATOR_ENTRIES: no n x n difference matrix is
    # built and the upper bound is null, as for zeta pairs
    code, out, _ = run_cli(capsys, "moyal-distance", "--a", "basis:5477", "--b", "basis:0",
                           "--no-optimize")
    assert code == 0
    report = json.loads(out)
    assert report["closed_form"] == pytest.approx(basis_distance(5477, 0, 1.0), rel=1e-15)
    assert report["certificate_lower"] == pytest.approx(report["closed_form"], rel=1e-12)
    assert report["analytic_upper"] is None and report["bracket_width"] is None


def test_the_smallest_theta_keeps_the_closed_form_and_the_probe_fit(capsys):
    # sqrt(theta / 2) underflowed to 0 at theta = 5e-324: the report gave closed_form and
    # certificate_lower 0.0 under analytic_upper 1.57e-162, and the probe blamed its fit
    # window for the vanishing bound
    code, out, _ = run_cli(capsys, "moyal-distance", "--a", "basis:0", "--b", "basis:1",
                           "--theta", "5e-324", "--no-optimize")
    report = json.loads(out)
    assert code == 0
    assert report["closed_form"] == report["certificate_lower"] == math.sqrt(2.0) * 2.0 ** -538
    assert report["certificate_lower"] <= report["analytic_upper"]
    slopes = []
    for theta in ("5e-324", "1"):
        code, out, err = run_cli(capsys, "probe", "--pair", "zeta:1.2,basis:0", "--grid",
                                 "1e2:1e3", "--points", "5", "--theta", theta, "--format", "json")
        assert (code, err) == (0, "")
        slopes.append(json.loads(out)["fitted_slope"])
    assert slopes[0] == pytest.approx(slopes[1], rel=1e-9)


def test_a_million_term_zeta_certificate_stays_small(capsys):
    # the plane-bounds z6 job; the whole-array certificate peaked at 64 MB, and 17 MB while
    # the state copied its vector and the radial bound held the diagonal difference
    argv = ("moyal-distance", "--theta", "1.0", "--a=basis:2", "--b=zeta:1.1:1000000",
            "--no-optimize", "--probe")
    run_cli(capsys, *argv)  # warm-up: imports and caches
    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and json.loads(out)["divergence"] == "divergent"
    assert peak < 11e6  # one real support-sized vector, c, and blocks of SWEEP_BLOCK floats


def test_moyal_distance_deterministic_output(capsys):
    args = ("moyal-distance", "--theta", "2", "--a", "finite:1,1", "--b", "basis:0",
            "--order", "8")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_deterministic_across_processes():
    # byte-identical output from fresh interpreters, not just repeated calls
    import subprocess
    import sys
    cmd = [sys.executable, "-m", "specdist.cli", "moyal-distance", "--theta", "1",
           "--a", "basis:0", "--b", "basis:2", "--order", "6"]
    runs = [subprocess.run(cmd, capture_output=True, text=True) for _ in range(2)]
    assert runs[0].returncode == 0
    assert runs[0].stdout == runs[1].stdout


def test_plane_bounds_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the radial bound and the zeta and finite normalizations sum in a fixed order; a BLAS
    # dot or norm splits its sum across threads and moved certificate_lower in its last
    # digits (for the finite pair below, 420.43014228124014 on one thread, ...065 on two)
    weights = np.random.default_rng(1).uniform(0.1, 1.0, 200_000)
    spec = tmp_path / "finite.json"
    spec.write_text(json.dumps({"a": "finite:" + ",".join(map(repr, weights.tolist())),
                                "b": "basis:0", "theta": 1.0}))
    for pair in (("--theta", "1.0", "--a=basis:2", "--b=zeta:1.1:1000000"),
                 ("--theta", "2.0", "--a=basis:0", "--b=zeta:1.3:100000"),
                 ("--spec-file", str(spec))):
        cmd = [sys.executable, "-m", "specdist.cli", "moyal-distance", *pair, "--no-optimize",
               "--probe"]
        runs = [subprocess.run(cmd, capture_output=True, text=True,
                               env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
                for threads in ("1", "2")]
        assert runs[0].returncode == 0 and runs[0].stdout.startswith("{"), runs[0].stderr
        assert runs[0].stdout == runs[1].stdout, pair


def test_moyal_distance_spec_file(tmp_path, capsys):
    spec = tmp_path / "pair.json"
    spec.write_text(json.dumps({"a": "basis:0", "b": "basis:2", "theta": 2.0}))
    code, out, _ = run_cli(capsys, "moyal-distance", "--spec-file", str(spec),
                           "--order", "8", "--no-optimize")
    assert code == 0
    report = json.loads(out)
    assert report["closed_form"] == pytest.approx(1 + 1 / math.sqrt(2), abs=1e-12)


def test_moyal_distance_probe_with_a_support_above_the_probe_grid(tmp_path, capsys):
    # a finite state with more weights than the probe grid's top + 2 once failed with a
    # numpy broadcast error; the verdict now reads only the zeta exponent 1.2 <= 3/2
    spec = tmp_path / "big.json"
    spec.write_text(json.dumps({"a": "finite:" + ",".join(["1"] * 100_010),
                                "b": "zeta:1.2:1000"}))
    code, out, _ = run_cli(capsys, "moyal-distance", "--spec-file", str(spec),
                           "--no-optimize", "--probe")
    assert code == 0
    assert json.loads(out)["divergence"] == "divergent"


def test_parameter_errors_exit_one(capsys):
    code, _, err = run_cli(capsys, "moyal-distance", "--a", "nonsense:1", "--b", "basis:0")
    assert code == 1
    assert "error" in err
    code, _, _ = run_cli(capsys, "moyal-distance", "--a", "zeta:0.5:100", "--b", "basis:0")
    assert code == 1
    # a number that does not parse names the spec; the state's own messages survive
    for spec, message in (("finite:", None), ("finite:1,,2", None), ("finite:1,", None),
                          ("finite:,", None), ("basis:x", None), ("zeta:1.2:x", None),
                          ("finite:0,0", "weights must not all vanish"),
                          ("finite:nan,1", "weights must be finite"),
                          ("finite:1e400,1", "weights must be finite")):
        code, out, err = run_cli(capsys, "moyal-distance", "--a", spec, "--b", "basis:0")
        assert code == 1 and out == ""
        assert err == f"error: {message or f'cannot parse state spec {spec!r}'}\n"


def _run_subprocess(*argv):
    return subprocess.run([sys.executable, "-m", "specdist.cli", *argv],
                          capture_output=True, text=True)


def _assert_clean_parameter_error(run):
    # exit 1 with a single error line: no traceback, no numpy warnings
    assert run.returncode == 1
    assert run.stdout == ""
    lines = run.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_order_out_of_range_exits_one():
    # from order 311 on the plane optimizer's band inverses exceed 3e7 floats
    for order in ("0", "-3", "311"):
        _assert_clean_parameter_error(_run_subprocess(
            "moyal-distance", f"--order={order}", "--a=basis:0", "--b=basis:1"))


def test_non_finite_theta_exits_one():
    for argv in (("moyal-distance", "--a=basis:0", "--b=basis:1"), ("torus-distance", "--m=1,0"),
                 ("probe", "--pair=zeta:1.2,basis:0", "--format=json")):
        for theta in ("inf", "-inf", "nan"):
            _assert_clean_parameter_error(_run_subprocess(*argv, f"--theta={theta}"))


def test_ball_check_refuses_a_negative_theta_before_any_arithmetic():
    # the radial elements used to take sqrt(theta / 2) first and print numpy's warning
    for argv in (("ball-check", "--staircase=5"), ("ball-check", "--bump=3")):
        for theta in ("-1", "-inf"):
            run = _run_subprocess(*argv, f"--theta={theta}")
            _assert_clean_parameter_error(run)
            assert "theta must be positive and finite" in run.stderr


def test_non_finite_state_input_exits_one():
    for argv in (("moyal-distance", "--a=finite:nan,1", "--b=basis:0", "--no-optimize"),
                 ("moyal-distance", "--a=finite:inf,1", "--b=basis:0", "--no-optimize"),
                 ("moyal-distance", "--a=zeta:nan:100", "--b=basis:0", "--no-optimize"),
                 ("probe", "--pair=zeta:nan,basis:0", "--format=json")):
        _assert_clean_parameter_error(_run_subprocess(*argv))


def test_negative_probe_basis_index_exits_one():
    _assert_clean_parameter_error(_run_subprocess("probe", "--pair=zeta:1.2,basis:-1",
                                                  "--format=json"))


def test_bad_probe_specs_are_named(capsys):
    # a fractional basis index once ended in int()'s message, which names no spec
    for pair, bad in (("basis:1.5,zeta:1.2", "basis:1.5"), ("zeta:1.2:5,basis:0", "zeta:1.2:5"),
                      ("zeta:1.2,basis:3:x", "basis:3:x")):
        code, out, err = run_cli(capsys, "probe", "--pair", pair)
        assert code == 1 and out == ""
        assert err.startswith(f"error: cannot parse probe state spec {bad!r}")


def test_malformed_spec_file_exits_one(tmp_path):
    # each payload used to end in an AttributeError, TypeError or KeyError traceback
    payloads = ([1, 2], {"a": 3, "b": "basis:0"}, {"a": "basis:0", "b": ["basis:1"]},
                {"a": "basis:0", "b": "basis:1", "theta": None}, "basis:0")
    for i, payload in enumerate(payloads):
        path = tmp_path / f"spec{i}.json"
        path.write_text(json.dumps(payload))
        run = _run_subprocess("moyal-distance", f"--spec-file={path}", "--no-optimize")
        _assert_clean_parameter_error(run)
        assert f"--spec-file {path}" in run.stderr


def test_malformed_element_file_exits_one(tmp_path):
    # json writes and reads NaN and Infinity; a NaN coefficient used to print
    # "commutator_norm": NaN, which is not JSON, and exit 0
    payloads = ([[1.0]], {"re": [[0.0]], "im": [[0.0]]}, {"theta": 1.0, "im": [[0.0]]},
                {"theta": None, "re": [[0.0]], "im": [[0.0]]},
                {"theta": 1.0, "re": [[0.0, 1.0]], "im": [[0.0, 1.0]]},
                {"theta": 1.0, "re": [[0.0, math.nan], [1.0, 0.0]], "im": [[0.0] * 2] * 2},
                {"theta": 1.0, "re": [[0.0] * 2] * 2, "im": [[0.0, -math.inf], [0.0, 0.0]]},
                {"theta": 1.0, "order": 3, "re": [[0.0, 1.0], [1.0, 0.0]], "im": [[0.0] * 2] * 2})
    for i, payload in enumerate(payloads):
        path = tmp_path / f"element{i}.json"
        path.write_text(json.dumps(payload))
        run = _run_subprocess("ball-check", f"--element-file={path}")
        _assert_clean_parameter_error(run)
        assert f"--element-file {path}" in run.stderr
    path = tmp_path / "broken.json"
    path.write_text("{")
    _assert_clean_parameter_error(_run_subprocess("ball-check", f"--element-file={path}"))


def test_element_file_refuses_a_stack(tmp_path):
    # MoyalElement takes stacks of coefficient matrices; an element file holds one matrix
    path = tmp_path / "stack.json"
    path.write_text(json.dumps({"theta": 1.0, "re": [[[0.0, 1.0], [1.0, 0.0]]] * 2,
                                "im": [[[0.0] * 2] * 2] * 2}))
    run = _run_subprocess("ball-check", f"--element-file={path}")
    _assert_clean_parameter_error(run)
    assert "coefficients must be a square matrix, got shape (2, 2, 2)" in run.stderr


def test_bad_probe_options_are_named(capsys):
    # a fit window of 400 decades once overflowed and one of -400 divided by zero
    small = ("--pair", "zeta:1.2,basis:0", "--grid", "1e2:1e3", "--points", "5", "--fit-top")
    for argv, option in ((("--pair", "zeta:1.2"), "--pair"),
                         (("--pair", "zeta:1.2,basis:0,basis:1"), "--pair"),
                         (("--pair", "zeta:1.2,basis:0", "--fit-top", "abc"), "--fit-top"),
                         (("--pair", "zeta:1.2,basis:0", "--fit-top", "nandec"), "--fit-top"),
                         (small + ("400",), "--fit-top"), (small + ("-400",), "--fit-top")):
        code, out, err = run_cli(capsys, "probe", *argv)
        assert code == 1 and out == "" and err.count("\n") == 1
        assert err.startswith(f"error: {option}") and repr(argv[-1]) in err
    _assert_clean_parameter_error(_run_subprocess("probe", "--pair=zeta:1.2"))
    _assert_clean_parameter_error(_run_subprocess("probe", *small, "400", "--format=json"))


def test_scale_must_be_finite(capsys):
    for value in ("nan", "inf", "x"):
        code, out, err = run_cli(capsys, "ball-check", "--bump", "3", "--scale", value)
        assert code == 1 and out == ""
        assert f"argument --scale: expected a finite number, got '{value}'" in err


def test_tolerance_must_be_finite_and_nonnegative(capsys):
    for value in ("nan", "inf", "-1", "x"):
        code, out, err = run_cli(capsys, "ball-check", "--bump", "3", "--tol", value)
        assert code == 1 and out == ""
        assert f"argument --tol: expected a finite number >= 0, got '{value}'" in err


def test_moyal_distance_has_no_tolerance(capsys):
    # the radial certificate needs no ball check, so there is nothing to tolerate
    code, out, err = run_cli(capsys, "moyal-distance", "--a", "basis:0", "--b", "basis:1",
                             "--no-optimize", "--tol", "1e-9")
    assert code == 1 and out == ""
    assert "unrecognized arguments: --tol 1e-9" in err


def test_counts_must_be_positive(capsys):
    for argv in (("probe", "--pair", "zeta:1.2,basis:0", "--points"),
                 ("moyal-distance", "--a", "basis:0", "--b", "basis:1", "--max-iter"),
                 ("torus-distance", "--m", "1,0", "--max-iter")):
        for value in ("0", "-3", "x"):
            code, out, err = run_cli(capsys, *argv, value)
            assert code == 1 and out == ""
            assert f"argument {argv[-1]}: expected a positive integer, got '{value}'" in err


def test_probe_grid_is_validated(capsys):
    for grid in ("0:10", "1e3", "-1:1e3", "nan:1e3", "1e2:inf", "a:b", "1:2:3", "0.4:1e3"):
        code, out, err = run_cli(capsys, "probe", "--pair", "zeta:1.2,basis:0", f"--grid={grid}")
        assert code == 1 and out == ""
        assert err.startswith("error: --grid") and repr(grid) in err


def test_torus_index_pair_errors_name_the_spec(capsys):
    for argv, spec in ((("--m", "1"), "--m 1"), (("--m", "1,x"), "--m 1,x"),
                       (("--a", "phi:1", "--b", "tracial"), "phi:1")):
        code, out, err = run_cli(capsys, "torus-distance", *argv)
        assert code == 1 and out == ""
        assert err.startswith("error:") and repr(spec) in err


def test_torus_m_excludes_a_and_b(capsys):
    for extra in (("--a", "phi:2,0", "--b", "phi:0,1"), ("--b", "phi:0,1"), ("--a", "tracial")):
        code, out, err = run_cli(capsys, "torus-distance", "--m", "1,0", *extra)
        assert (code, out) == (1, "")
        assert err == "error: --m sets both states and excludes --a and --b\n"
    code, out, _ = run_cli(capsys, "torus-distance", "--m", "1,0")
    report = json.loads(out)
    assert code == 0 and (report["state_a"], report["state_b"]) == ("phi:1,0", "tracial")


def test_moyal_spec_file_excludes_the_options_it_sets(tmp_path, capsys):
    # the file used to override --a, --b and --theta silently
    full, pair = tmp_path / "full.json", tmp_path / "pair.json"
    full.write_text(json.dumps({"a": "basis:0", "b": "basis:1", "theta": 2.0}))
    pair.write_text(json.dumps({"a": "basis:0", "b": "basis:1"}))
    for path, option, value in ((full, "--a", "basis:5"), (full, "--b", "basis:7"),
                                (full, "--theta", "3"), (pair, "--a", "basis:5")):
        code, out, err = run_cli(capsys, "moyal-distance", "--spec-file", str(path),
                                 option, value, "--no-optimize")
        assert (code, out) == (1, "")
        key = option[2:]
        assert err == f"error: {option} and --spec-file {path} both set {key!r}\n"
    # one source for each key: the same report however the keys are split
    a_only = tmp_path / "a.json"
    a_only.write_text(json.dumps({"a": "basis:0"}))
    outs = set()
    for argv in (("--spec-file", str(full)), ("--spec-file", str(pair), "--theta", "2"),
                 ("--spec-file", str(a_only), "--b", "basis:1", "--theta", "2"),
                 ("--a", "basis:0", "--b", "basis:1", "--theta", "2")):
        code, out, _ = run_cli(capsys, "moyal-distance", *argv, "--no-optimize")
        assert code == 0
        outs.add(out)
    assert len(outs) == 1 and json.loads(outs.pop())["theta"] == 2.0
    code, out, _ = run_cli(capsys, "moyal-distance", "--spec-file", str(pair), "--no-optimize")
    assert code == 0 and json.loads(out)["theta"] == 1.0


def test_ball_check_element_file_excludes_theta(tmp_path, capsys):
    # the file carries theta; a --theta beside it used to be ignored silently
    element = MoyalElement(2.0, np.arange(9.0).reshape(3, 3))
    path = tmp_path / "element.json"
    path.write_text(json.dumps(element.to_dict()))
    code, out, err = run_cli(capsys, "ball-check", "--element-file", str(path), "--theta", "2")
    assert (code, out, err) == (1, "", "error: --element-file carries theta and excludes --theta\n")
    code, out, _ = run_cli(capsys, "ball-check", "--element-file", str(path))
    assert code == 0 and json.loads(out) == ball_report(element).to_dict()
    # a radial element keeps theta 1.0 by default
    reports = [run_cli(capsys, "ball-check", "--staircase", "5", *theta)[:2]
               for theta in ((), ("--theta", "1.0"))]
    assert reports[0] == reports[1] and reports[0][0] == 0


@pytest.mark.parametrize("option, argv", [
    ("--a", ("moyal-distance", "--a=basis:0", "--a=basis:5", "--b=basis:1", "--no-optimize")),
    ("--m", ("torus-distance", "--m", "1,0", "--m", "0,1")),
    ("--grid", ("probe", "--pair", "zeta:1.2,basis:0", "--grid", "1e2:1e3", "--grid", "1e3:1e4")),
    ("--suite", ("verify", "--suite", "lipschitz", "--suite", "states")),
    ("--staircase", ("ball-check", "--staircase", "3", "--staircase", "1023")),
], ids=["moyal-distance", "torus-distance", "probe", "verify", "ball-check"])
def test_a_repeated_option_is_refused(capsys, option, argv):
    # argparse keeps the last value of a repeated option and drops the first unannounced
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        f"error: {option} given more than once"]


def test_usage_error_exit_one(capsys):
    code, _, _ = run_cli(capsys, "moyal-distance", "--bogus-flag")
    assert code == 1


def test_torus_distance_shorthand(capsys):
    code, out, _ = run_cli(capsys, "torus-distance", "--theta", "0.37", "--m", "3,4")
    assert code == 0
    report = json.loads(out)
    assert report["closed_form"] == pytest.approx(1 / (5 * np.pi ** 2), abs=1e-9)
    assert report["state_a"] == "phi:3,4"
    assert report["state_b"] == "tracial"


def test_torus_distance_explicit_states(capsys):
    code, out, _ = run_cli(capsys, "torus-distance", "--theta", "0.25",
                           "--a", "phi:1,0", "--b", "tracial")
    assert code == 0
    assert json.loads(out)["closed_form"] == pytest.approx(1 / np.pi ** 2, abs=1e-12)


def test_torus_distance_with_optimizer(capsys, monkeypatch):
    # a vector state against the trace has a proved closed form, and two states that
    # read the same coefficients the closed form 0; the optimizer reports either with
    # no iteration, and --box and --max-iter are accepted and unused
    from specdist import admm, torus

    def refuse(*args, **kwargs):
        raise AssertionError("the optimizer ran on a pair with a closed form")

    monkeypatch.setattr(torus, "optimize_torus_distance", refuse)
    monkeypatch.setattr(admm, "admm_maximize", refuse)
    for pair, closed in ((("--m", "1,0"), 1 / np.pi ** 2),
                         (("--a", "tracial", "--b", "phi:3,-4"), 1 / (5 * np.pi ** 2)),
                         (("--a", "phi:1,0", "--b", "phi:-1,0"), 0.0),
                         (("--a", "phi:2,-3", "--b", "phi:-2,3"), 0.0),
                         (("--a", "tracial", "--b", "tracial"), 0.0)):
        code, out, _ = run_cli(capsys, "torus-distance", "--theta", "0.37", *pair,
                               "--optimize", "--box", "5", "--max-iter", "150")
        assert code == 0
        report = json.loads(out)
        assert report["optimizer_lower"] == report["closed_form"] == closed
        assert report["iterations"] == 0 and report["converged"] is True
        assert report["feasibility_residual"] == 0.0 and report["order"] == 0


def test_torus_theta_enters_modulo_two(capsys):
    # the algebra has period 2 in theta; phases of any finite theta stay finite
    pair = ("--a=phi:1,0", "--b=phi:0,1", "--optimize", "--box", "5")
    code, out, _ = run_cli(capsys, "torus-distance", "--theta", "1e308", *pair)
    assert code == 0
    report = json.loads(out)
    assert all(math.isfinite(report[k]) for k in ("certificate_lower", "optimizer_lower",
                                                  "bracket_width"))
    # a short run is enough to compare: both stop at the same iteration cap
    reports = []
    for theta in ("2.37", "0.37"):
        code, out, _ = run_cli(capsys, "torus-distance", "--theta", theta, *pair,
                               "--max-iter", "40")
        reports.append(json.loads(out))
    for key in ("certificate_lower", "optimizer_lower", "feasibility_residual"):
        assert abs(reports[0][key] - reports[1][key]) <= 1e-12
    assert reports[0]["iterations"] == reports[1]["iterations"] == 40


def test_state_support_cap_exits_one():
    for spec in ("basis:99999999", "zeta:1.5:99999999"):
        run = _run_subprocess("moyal-distance", f"--a={spec}", "--b=basis:0", "--no-optimize")
        _assert_clean_parameter_error(run)
        assert "MAX_SUPPORT" in run.stderr


def test_probe_grid_top_above_the_support_cap_exits_one():
    # 5e6 is just above MAX_SUPPORT - 1 and still affordable to run without the cap
    run = _run_subprocess("probe", "--pair=zeta:1.2,basis:0", "--grid=1e2:5e6", "--format=json")
    _assert_clean_parameter_error(run)
    assert "MAX_SUPPORT" in run.stderr and "5000000" in run.stderr


def test_probe_grid_end_past_the_int64_range_gets_the_cap_message():
    # an end of 2^63 or more used to overflow the grid's int64 cast (a numpy
    # RuntimeWarning) and then be refused as a negative index
    for grid in ("1e2:1e19", "1e19:1e2"):
        run = _run_subprocess("probe", "--pair=zeta:1.2,basis:0", f"--grid={grid}")
        _assert_clean_parameter_error(run)
        assert "RuntimeWarning" not in run.stderr
        assert run.stderr == ("error: grid top 10000000000000000000 exceeds the cap "
                              "MAX_SUPPORT - 1 = 4194303; choose a smaller grid\n")


def test_sizes_above_their_caps_are_refused_before_allocating():
    # an order-5,478 dense element exceeds MAX_OPERATOR_ENTRIES, and a grid of more than
    # MAX_SUPPORT points, built before it is deduplicated, cannot hold more distinct ones;
    # at 1e5 and 1e8 the two used to end in a MemoryError traceback
    for argv, option in ((("ball-check", "--staircase=5477"), "--staircase 5477"),
                         (("ball-check", "--bump=5477"), "--bump 5477"),
                         (("probe", "--pair=zeta:1.2,basis:0", "--points=4194305"),
                          "--points 4194305")):
        run = _run_subprocess(*argv)
        _assert_clean_parameter_error(run)
        assert run.stderr.startswith(f"error: {option}")


def test_overflowing_inputs_are_refused_not_printed_as_nan(tmp_path):
    # the first two used to print NaN or Infinity, which is not JSON, and exit 0; the next
    # two, finite coefficients times sqrt(m/theta) past the float range at tiny theta, used
    # to print numpy warnings and end in a JSON error naming neither theta nor --scale; the
    # last, the optimizer's weights sqrt(m/theta) past it, in "SVD did not converge"
    path = tmp_path / "element.json"
    path.write_text(json.dumps({"theta": 1e-300, "re": [[1e300, 0], [0, 0]],
                                "im": [[0, 0], [0, 0]]}))
    for argv, name in ((("ball-check", "--staircase=1", "--theta=1000", "--scale=1e308"),
                        "--scale 1e+308"),
                       (("moyal-distance", "--a=basis:0", "--b=basis:1", "--theta=1e308",
                         "--no-optimize"), "theta 1e+308"),
                       (("ball-check", "--staircase=5476", "--theta=1e-20",
                         "--scale=1.7976931348623157e308"),
                        "--scale 1.7976931348623157e+308: the commutator norm overflows the "
                        "float range at theta 1e-20"),
                       (("ball-check", f"--element-file={path}"), "theta 1e-300"),
                       (("moyal-distance", "--a=basis:0", "--b=basis:1", "--theta=2e-308"),
                        "order 16 over theta 2e-308")):
        run = _run_subprocess(*argv)
        _assert_clean_parameter_error(run)
        assert name in run.stderr


def test_torus_size_guard_refuses_before_building_the_sites(capsys):
    # support radius 900: the guard used to refuse only after a list of 1.6 M sites
    run_cli(capsys, "torus-distance", "--m", "1,0")  # warm-up: imports
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "torus-distance", "--a", "phi:300,0", "--b", "phi:0,1",
                                 "--optimize")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and out == "" and err.startswith("error: optimizer size guard")
    assert peak < 5e6


def test_torus_box_requires_the_optimizer(capsys):
    code, out, err = run_cli(capsys, "torus-distance", "--m", "1,0", "--box", "5")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "--box" in err


def test_torus_box_refusal_names_the_smallest_accepted_box(capsys):
    # the support radius is 3 max(|m1|, |m2|) over the vector states, and the box must
    # exceed it by 2
    for a, box, support in (("phi:1,0", "4", 3), ("phi:2,0", "7", 6)):
        code, out, err = run_cli(capsys, "torus-distance", "--a", a, "--b", "phi:0,1",
                                 "--optimize", "--box", box)
        assert code == 1 and out == ""
        assert err == (f"error: box radius {box} is too small for support radius {support}; "
                       f"the smallest accepted box radius is {support + 2}\n")


def test_probe_output_deterministic(capsys):
    args = ("probe", "--pair", "zeta:1.3,basis:0", "--grid", "1e2:1e3", "--points", "6")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_probe_csv_and_json(tmp_path, capsys):
    out_path = tmp_path / "series.csv"
    code, _, _ = run_cli(capsys, "probe", "--pair", "zeta:1.2,basis:0",
                         "--grid", "1e2:1e4", "--points", "8", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "m0,B,log_m0,log_B"
    assert len(lines) >= 8

    code, out, _ = run_cli(capsys, "probe", "--pair", "zeta:1.2,basis:0",
                           "--grid", "1e2:1e4", "--points", "8", "--format", "json")
    assert code == 0
    summary = json.loads(out)
    assert summary["theory_slope"] == pytest.approx(0.3, abs=1e-12)
    assert "fitted_slope" in summary and "gap" in summary
    assert summary["divergence"] == "divergent"


@pytest.mark.parametrize("suite",
                         ["algebra", "calculus", "lipschitz", "states", "distance", "probes"])
def test_verify_suite_passes(capsys, suite):
    code, out, _ = run_cli(capsys, "verify", "--suite", suite)
    assert code == 0
    assert f"suite {suite}: PASS" in out


def test_verify_torus_suite_reports_known_gap(capsys):
    # the scaled-Weyl certificate evaluates to half the coefficient bound, so
    # the saturation check in the torus suite fails by design; the command
    # must surface that as a suite failure
    code, out, _ = run_cli(capsys, "verify", "--suite", "torus")
    assert code == 2
    assert "certificate_meets_coefficient_bound" in out


def test_verify_unknown_suite_exits_one(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "bogus")
    assert code == 1 and out == ""
    assert err.startswith("error: unknown suite 'bogus'") and "distance" in err


def test_ball_check_staircase(capsys):
    code, out, _ = run_cli(capsys, "ball-check", "--staircase", "3")
    assert code == 0
    report = json.loads(out)
    assert report["member"] is True
    assert report["violations"] == []

    code, out, _ = run_cli(capsys, "ball-check", "--staircase", "3", "--scale", "2")
    assert code == 0
    report = json.loads(out)
    assert report["member"] is False
    assert report["violations"]


def test_ball_check_radial_errors(capsys):
    for argv, message in (
            (("--staircase", "3", "--theta", "0"),
             "--staircase 3: theta must be positive and finite, got 0.0"),
            (("--bump", "3", "--theta", "nan"),
             "--bump 3: theta must be positive and finite, got nan"),
            (("--staircase", "-1"), "--staircase -1: m0 must be a natural number, got -1"),
            (("--staircase", "5477"),
             "--staircase 5477: an element of order 5478 is past the cap MAX_OPERATOR_ENTRIES"),
            (("--bump", "5477"),
             "--bump 5477: an element of order 5478 is past the cap MAX_OPERATOR_ENTRIES")):
        assert run_cli(capsys, "ball-check", *argv) == (1, "", f"error: {message}\n")


def test_ball_check_at_the_cap_stays_small(capsys):
    # the staircase is checked from its diagonal: the dense element alone would be 480 MB
    run_cli(capsys, "ball-check", "--staircase", "5476")  # warm-up: imports and caches
    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, "ball-check", "--staircase", "5476")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and json.loads(out)["member"] is True
    assert peak < 2e6


def test_ball_check_element_file(tmp_path, capsys):
    from specdist.algebra import radial
    from specdist.calculus import bump_diagonal
    path = tmp_path / "element.json"
    path.write_text(json.dumps(radial(1.0, bump_diagonal(2, 1.0)).to_dict()))
    code, out, _ = run_cli(capsys, "ball-check", "--element-file", str(path))
    assert code == 0
    assert json.loads(out)["member"] is True


def test_ball_check_takes_exactly_one_element_source(tmp_path, capsys):
    from specdist.algebra import radial
    from specdist.calculus import bump_diagonal
    path = tmp_path / "element.json"
    path.write_text(json.dumps(radial(1.0, bump_diagonal(2, 1.0)).to_dict()))
    sources = (("--element-file", str(path)), ("--staircase", "2"), ("--bump", "2"))
    for i, first in enumerate(sources):
        code, out, _ = run_cli(capsys, "ball-check", *first)
        assert code == 0 and json.loads(out)["member"] is True
        for second in sources[i + 1:]:
            code, out, err = run_cli(capsys, "ball-check", *first, *second)
            assert (code, out) == (1, "")
            assert f"error: argument {second[0]}: not allowed with argument {first[0]}" in err
    code, out, err = run_cli(capsys, "ball-check")
    assert (code, out) == (1, "")
    assert "error: one of the arguments --element-file --staircase --bump is required" in err


def test_timing_flag_adds_field(capsys):
    code, out, _ = run_cli(capsys, "ball-check", "--staircase", "1", "--timing")
    assert code == 0
    assert "elapsed_s" in json.loads(out)


def test_non_convergence_exits_three(capsys):
    # a cap below the first check leaves one check, at the cap's last iteration, and f12's
    # gap is still open there; the best feasible iterate is that check's, still reported
    for max_iter, value in ((3, 1.218239885694769), (5, 1.312403773008286)):
        code, out, _ = run_cli(capsys, "moyal-distance", "--a", "finite:1,2,3", "--b",
                               "basis:0", "--order", "12", "--max-iter", str(max_iter))
        assert code == 3
        report = json.loads(out)
        assert report["converged"] is False and report["iterations"] == max_iter
        assert report["optimizer_lower"] == pytest.approx(value, rel=1e-9)


def test_finite_spec_weights_stay_real_unless_written_complex():
    # weights in Python's float and complex literal syntax, underscores and spaces included
    from specdist.cli import parse_state_spec
    from specdist.states import finite_state
    for text, weights in (("finite:1,2.5,-3e-2", [1.0, 2.5, -3e-2]),
                          ("finite:1_000, 2 ", [1000.0, 2.0])):
        c = parse_state_spec(text, 1.0).c
        assert c.dtype == np.float64 and np.array_equal(c, finite_state(weights, 1.0).c)
    for text in ("finite:(0.6+0.8j),1", "finite:1,2j", "finite:1+0j", "finite:(1+2j)"):
        assert parse_state_spec(text, 1.0).c.dtype == np.complex128
    assert np.array_equal(parse_state_spec("finite:(1+2j)", 1.0).c, [(1 + 2j) / math.sqrt(5)])


def test_finite_spec_blocks_convert_as_one_array():
    # weights converted a block of text at a time have the bits of one conversion of all
    # the weight texts, for float, complex and a real spec that turns complex in its last
    # block; each spec crosses several block boundaries
    from specdist.cli import parse_state_spec
    from specdist.states import SWEEP_BLOCK, finite_state
    rng = np.random.default_rng(2)
    weights = rng.uniform(0.1, 1.0, 3 * SWEEP_BLOCK // 19)
    phased = weights * np.exp(1j * rng.uniform(0.0, 6.28, weights.size))
    for texts, dtype in (([repr(v) for v in weights.tolist()], float),
                         ([repr(v) for v in phased.tolist()], complex),
                         ([repr(v) for v in weights.tolist()] + ["2j"], complex)):
        c = parse_state_spec("finite:" + ",".join(texts), 1.0).c
        expected = finite_state(np.array(texts, dtype=dtype), 1.0).c
        assert c.dtype == expected.dtype and c.tobytes() == expected.tobytes()


def test_finite_spec_parse_memory_per_weight():
    # 200,000 weights whose reprs take 19 characters on average (42 written complex): one
    # numpy array of the weights, the state's normalized copy and the texts of one block of
    # SWEEP_BLOCK characters.  Splitting the whole text (one str per weight) peaked at 103.7
    # and 156.2 bytes per weight, a per-weight list of Python numbers at 126.6 and 181.2
    from specdist.cli import parse_state_spec
    rng = np.random.default_rng(1)
    weights = rng.uniform(0.1, 1.0, 200_000)
    phased = weights * np.exp(1j * rng.uniform(0.0, 6.28, weights.size))
    for values in (weights, phased):
        text = "finite:" + ",".join(map(repr, values.tolist()))
        parse_state_spec("finite:1,2j", 1.0)  # warm-up: imports
        tracemalloc.start()
        try:
            parse_state_spec(text, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40 * values.size, peak / values.size


def test_readme_command_lines_run(capsys):
    # every `specdist ...` line of README's "Command line" block exits 0, and the two
    # closed forms its comments state are the reports' closed_form
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    stated = {"(closed form 0.70711...)": 1 / math.sqrt(2),
              "(closed form 1/(5 pi^2))": 1 / (5 * math.pi ** 2)}
    comment, ran, checked = "", 0, 0
    for line in block.splitlines():
        if line.startswith("#"):
            comment = line
        elif line.startswith("specdist "):
            code, out, _ = run_cli(capsys, *shlex.split(line, comments=True)[1:])
            assert code == 0, line
            ran += 1
            for phrase, value in stated.items():
                if phrase in comment:
                    assert json.loads(out)["closed_form"] == pytest.approx(value, rel=1e-15)
                    checked += 1
    assert (ran, checked) == (6, 2)
