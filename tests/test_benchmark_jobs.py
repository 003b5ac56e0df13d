"""The benchmark's correctness rules on its optimizer and probe jobs, run in-process.

For every canonical variant of the `plane-optimize` and `torus` slots, whose optimizer
values move in their last digits when the rounding of a norm or clip changes, of the
slots that report divergence verdicts (`plane-bounds` p2, p3, z5 and z6, `selfcheck`
probes) and of the `plane-bounds` ball checks (s1023 takes the radial path, e63-e256 the
dense one), the CLI's output must pass `perfbench.check.problems` against the committed
reference: the rule a benchmark run applies to every job it times.  The finite-pair slots
also run as the benchmark transforms them, for three fixed seeds: a random global phase
on each finite state (so its spec is written complex), the two states swapped or not, and
the pair inline or in a --spec-file.  So do the torus vector pairs, the one slot whose
optimizer exits on the stall rule, with the two states kept and swapped.

The benchmark's per-layer table names the functions it spans; every name must resolve
but the two the program is known to have dropped, so that renaming or deleting a spanned
function fails here, in the change that makes it.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from specdist.cli import main

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))
_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # perfbench/ stays as committed
try:
    from perfbench import check, workloads
finally:
    sys.dont_write_bytecode = _write_bytecode


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def _check(workload, jobs, tmp_path, monkeypatch, capsys):
    reference = json.loads((ROOT / "perfbench" / "reference" / f"{workload}.json").read_text())
    monkeypatch.chdir(tmp_path)  # where the jobs' input files are written
    for job in jobs:
        workloads.write_inputs([job], tmp_path)
        code = main(list(job.argv))
        out = capsys.readouterr().out
        if out.startswith("{"):  # a JSON report is strict JSON: no NaN or Infinity
            json.loads(out, parse_constant=_refuse_constant)
        assert check.problems(job.cmd, out, code, reference[job.key]) == [], job.key


@pytest.mark.parametrize("workload", ["plane-optimize", "torus"])
def test_every_optimizer_variant_passes_the_benchmark_check(workload, tmp_path, monkeypatch,
                                                            capsys):
    variants = [v for slot in workloads.slots(workload) for v in slot]
    assert len(variants) == {"plane-optimize": 20, "torus": 33}[workload]
    _check(workload, map(workloads.materialize, variants), tmp_path, monkeypatch, capsys)


def _variants(workload, names):
    return [v for slot in workloads.slots(workload) for v in slot
            if v.key.rsplit(".", 1)[0] in names]


@pytest.mark.parametrize("workload, names", [("plane-bounds", {"p2", "p3", "z5", "z6"}),
                                             ("selfcheck", {"probes"})],
                         ids=["plane-bounds", "selfcheck"])
def test_every_variant_of_the_verdict_slots_passes_the_benchmark_check(workload, names,
                                                                       tmp_path, monkeypatch,
                                                                       capsys):
    variants = _variants(workload, names)
    assert len(variants) == {"plane-bounds": 11, "selfcheck": 1}[workload]
    _check(workload, map(workloads.materialize, variants), tmp_path, monkeypatch, capsys)


def test_every_ball_check_variant_passes_the_benchmark_check(tmp_path, monkeypatch, capsys):
    variants = _variants("plane-bounds", {"s1023", "e63", "e64", "e128", "e256"})
    assert [v.key for v in variants] == ["s1023.0", "s1023.1", "s1023.2", "e63.0", "e64.0",
                                         "e128.0", "e256.0"]
    _check("plane-bounds", map(workloads.materialize, variants), tmp_path, monkeypatch,
           capsys)


@pytest.mark.parametrize("workload, names", [("plane-optimize", {"f12", "f14"}),
                                             ("plane-bounds", {"u100", "u300"}),
                                             ("selfcheck", {"m"})],
                         ids=["plane-optimize", "plane-bounds", "selfcheck"])
def test_transformed_finite_pairs_pass_the_benchmark_check(workload, names, tmp_path,
                                                           monkeypatch, capsys):
    # seeds 0, 1 and 5 swap, keep, keep the states and pass a short pair inline, inline,
    # through --spec-file; every phase is nonzero, so every finite spec is complex
    variants = _variants(workload, names)
    assert len(variants) == {"plane-optimize": 2, "plane-bounds": 6, "selfcheck": 1}[workload]
    jobs = [workloads.materialize(v, random.Random(k)) for v in variants for k in (0, 1, 5)]
    for job in jobs:
        specs = [t[4:] for t in job.argv if t[:4] in ("--a=", "--b=")]
        specs += [payload[k] for _, payload in job.files for k in "ab"]
        finite = [t for t in specs if t.startswith("finite:")]
        assert len(specs) == 2 and finite and all("j" in t for t in finite), job.argv
    _check(workload, jobs, tmp_path, monkeypatch, capsys)


def test_transformed_vector_pairs_pass_the_benchmark_check(tmp_path, monkeypatch, capsys):
    # seeds 0 and 1 keep and swap the states of each pair
    variants = _variants("torus", {"vv"})
    assert len(variants) == 2
    jobs = []
    for v in variants:
        pair = [workloads.materialize(v, random.Random(k)) for k in (0, 1)]
        assert [job.argv[3] for job in pair] == [f"--a={v.params[s]}" for s in "ab"]
        jobs += pair
    _check("torus", jobs, tmp_path, monkeypatch, capsys)


def test_the_benchmark_spans_every_function_it_names_but_two_known_gaps():
    # instrumenting patches the modules it wraps, so it runs in a process of its own
    code = "import json, replay, spans; print(json.dumps(replay.instrument(spans.Tracer('t'))))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT / "perfbench", env=env,
                         capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == ["specdist.distance.certificate_lower_bound",
                               "specdist.torus.commutator_norm_converged"]
