"""Tests of the benchmark's own code: python3 -m pytest perfbench -q"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_tail_takes_the_highest_percentile_with_ten_samples_beyond():
    value, pct = check.tail([float(x) for x in range(1, 31)])
    assert value == 20.0
    assert pct == pytest.approx(100.0 * 20 / 30)
    assert check.tail([float(x) for x in range(1, 201)]) == (190.0, 95.0)


def test_tail_needs_more_than_ten_samples():
    assert check.tail([1.0] * 10) is None
    assert check.tail([]) is None
    assert check.tail([float(x) for x in range(11)]) == (0.0, pytest.approx(100.0 / 11))


def test_self_time_subtracts_direct_children_only():
    trace = [
        ["distance.moyal_report", 0.0, 10.0, -1, "j", {}],
        ["distance.certificate_lower_bound", 1.0, 4.0, 0, "j", {"candidates": 5}],
        ["lipschitz.ball_report", 2.0, 3.0, 1, "j", {}],
        ["distance.optimize_distance", 5.0, 9.0, 0, "j", {"iterations": 7}],
    ]
    assert spans.self_times(trace) == [3.0, 2.0, 1.0, 4.0]
    agg = spans.aggregate(trace)
    assert agg["layers"]["distance"] == {"calls": 3, "busy_s": 10.0, "self_s": 9.0}
    assert agg["layers"]["lipschitz"] == {"calls": 1, "busy_s": 1.0, "self_s": 1.0}
    assert agg["names"]["distance.certificate_lower_bound"]["busy_s"] == 3.0
    assert agg["names"]["distance.optimize_distance"]["counts"] == {"iterations": 7}


def test_tracer_records_parents_and_counts():
    tracer = spans.Tracer("job-1")
    inner = tracer.wrap(lambda x: x + 1, "algebra.star", lambda a, k, r: {"out": r})
    outer = tracer.wrap(lambda x: inner(x) * 2, "calculus.reconstruct")
    assert outer(1) == 4
    (o_name, _, _, o_parent, o_job, _), (i_name, _, _, i_parent, _, i_counts) = tracer.spans
    assert (o_name, o_parent, o_job, i_name, i_parent, i_counts) == (
        "calculus.reconstruct", -1, "job-1", "algebra.star", 0, {"out": 2})


REF = {"theta": 1.0, "state_a": "finite[3]", "state_b": "basis:0", "closed_form": None,
       "certificate_lower": 0.9, "analytic_upper": 3.5, "optimizer_lower": 1.3,
       "feasibility_residual": 2e-16}


def _problems(**changes):
    rep = dict(REF, **changes)
    ref = {"exit": 0, "stdout": json.dumps(REF)}
    return check.problems("moyal-distance", json.dumps(rep), 0, ref)


def test_reference_report_passes():
    assert _problems() == []


def test_crossing_bracket_fails():
    assert _problems(optimizer_lower=3.6)
    assert _problems(certificate_lower=3.6, optimizer_lower=None)


def test_loosened_upper_bound_fails():
    assert _problems(analytic_upper=3.5 + 1e-9)


def test_tightened_bounds_pass():
    assert _problems(certificate_lower=1.0, optimizer_lower=1.4, analytic_upper=2.0) == []


def test_lowered_lower_bounds_fail():
    assert _problems(certificate_lower=0.9 - 1e-9)
    assert _problems(optimizer_lower=1.3 * (1 - 2e-3))
    assert _problems(optimizer_lower=1.3 * (1 - 5e-4)) == []


def test_infeasible_certificate_fails():
    assert _problems(feasibility_residual=1e-8)


def test_basis_closed_form_is_checked():
    exact = check.basis_closed_form(0, 3, 1.0)
    basis = dict(REF, state_a="basis:0", state_b="basis:3", closed_form=exact,
                 certificate_lower=exact, analytic_upper=exact, optimizer_lower=exact - 1e-9)
    ref = {"exit": 0, "stdout": json.dumps(basis)}
    assert check.problems("moyal-distance", json.dumps(basis), 0, ref) == []
    wrong = dict(basis, closed_form=exact + 1e-11)
    assert check.problems("moyal-distance", json.dumps(wrong), 0, ref)


def test_a_job_must_repeat_its_first_pass_output():
    tally = run.Tally({"k": {"exit": 0, "stdout": json.dumps(REF)}})
    job = workloads.Job("k", "moyal-distance", ("moyal-distance",), ())
    first = run.Outcome(job, json.dumps(REF).encode(), 0, 1.0, 1.0)
    tally.judge(first)
    tally.judge(first, first)
    assert tally.failures == []
    tightened = json.dumps(dict(REF, certificate_lower=1.0)).encode()
    tally.judge(run.Outcome(job, tightened, 0, 1.0, 1.0), first)  # passes the reference rules
    assert tally.attempted == 3 and len(tally.failures) == 1


def test_exit_code_and_suite_lines_are_checked():
    ref = {"exit": 2, "stdout": "suite torus: FAIL\n  [FAIL] torus/x (1 instances)\n"}
    assert check.problems("verify", ref["stdout"], 2, ref) == []
    assert check.problems("verify", ref["stdout"], 0, ref)
    assert check.problems("verify", "suite torus: PASS\n", 2, ref)


def test_probe_fields_are_checked():
    ref_rep = json.loads(run.load_reference("plane-bounds")["p2.0"]["stdout"])
    ref = {"exit": 0, "stdout": json.dumps(ref_rep)}
    assert check.problems("probe", json.dumps(ref_rep), 0, ref) == []
    for key, value in (("gap", ref_rep["gap"] + 1e-6), ("theory_slope", 0.5),
                       ("fit_window", [1e4, 1e6]), ("fitted_slope", 0.5)):
        assert check.problems("probe", json.dumps(dict(ref_rep, **{key: value})), 0, ref)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generation_is_seeded_and_every_job_has_a_reference(workload):
    refs = run.load_reference(workload)
    first = workloads.generate(workload, 7)
    assert first == workloads.generate(workload, 7)
    assert {j.key for j in first} <= set(refs)
    assert len(first) == len(workloads.slots(workload))
    keys = {tuple(sorted(j.key.split(".")[0] for j in workloads.generate(workload, s)))
            for s in range(5)}
    assert len(keys) == 1  # every seed fills every slot once


def test_benchmark_json_lists_the_reported_metrics():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"] for m in bench["end_to_end"]} == set(run.END_TO_END)
    for m in bench["end_to_end"]:
        assert m["unit"] == run.unit_of(m["name"])
    empty = run.layer_metrics(spans.aggregate([]), {s: [] for s in run.SUBCOMMANDS}, 0.0)
    names = set(empty) | {"trace.untraced_wall_s", "trace.traced_wall_s",
                          "trace.overhead_frac", "trace.replay_agree_frac"}
    assert {m["name"] for m in bench["per_layer"]} == names
    for m in bench["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"])
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_replay_reproduces_the_cli_report_and_records_spans(tmp_path):
    argv = ["moyal-distance", "--a", "finite:1,2", "--b", "basis:0", "--order", "6"]
    env = run.child_env()
    cli_out, cli_exit, _, _ = run.run_child([sys.executable, "-m", "specdist.cli", *argv],
                                            tmp_path, env)
    out = tmp_path / "replay.json"
    _, code, _, _ = run.run_child(
        [sys.executable, str(HERE / "replay.py"), "job-7", str(out), "--", *argv], tmp_path, env)
    rec = json.loads(out.read_text())
    assert code == 0 and rec["exit"] == cli_exit == 0
    assert rec["stdout"].encode() == cli_out
    names = {s[0] for s in rec["spans"]}
    assert {"cli.moyal-distance", "distance.optimize_distance", "lipschitz.ball_report",
            "lipschitz.commutator_norm.dense", "states.expect"} <= names
    assert {s[4] for s in rec["spans"]} == {"job-7"}
    assert rec["setup_s"] > 0


def test_replay_names_the_functions_it_cannot_find(tmp_path):
    code = ("import types, sys; sys.path.insert(0, sys.argv[1]); import replay, spans; "
            "m = types.ModuleType('specdist.gone'); "
            "print(replay._wrap(spans.Tracer('j'), m, 'fn', 'gone.fn'))")
    out, status, _, _ = run.run_child([sys.executable, "-c", code, str(HERE)], tmp_path,
                                      run.child_env())
    assert status == 0 and out.decode().strip() == "specdist.gone.fn"
