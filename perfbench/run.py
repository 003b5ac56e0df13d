"""specdist benchmark: seeded batches of CLI jobs, each in its own process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds src/specdist.  Load is a closed
loop with one client: this process starts each job after the previous one
ended.  Every child runs with one BLAS thread.

--trace 0 makes max(1, round(S / PASS_S)) passes over the workload's jobs and
reports the end-to-end metrics.  It sets up once before the first pass and
once before every SETUP_EVERY-th job, outside the pass timer, so the set-ups
sample the whole run, and reports their median as setup_s.  Before every job
it also times PROBES_PER_JOB bare interpreter starts (HOST_PROBE), outside the
pass timer; batch_s and setup_s are scaled by HOST_REF_S over the mean probe
time, so that the speed of the shared host during the run divides out.  The
unscaled times are printed too.

--trace 1 makes one untraced pass, then replays each job in a fresh process
with spans around the public calls of each module (perfbench/replay.py), and
reports the per-layer metrics, the tracing overhead and whether each replay
reproduced its job's report; a replay that crashes or differs from its job
counts as a failed job.

Every job's output is checked against perfbench/reference (check.py); every
pass after the first re-runs each job, whose stdout and exit code must equal
the first pass's byte for byte.
The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import check
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_EVERY = 3  # jobs between two set-ups of a --trace 0 run
# A bare interpreter start, no site module and no imports: nothing the program
# can change.  On the 2-vCPU shared host where the benchmark was defined the
# same pass took 6.6 s in one run and 9.5 s minutes later, with CPU time equal
# to wall time; the mean probe time of a run moved with the pass time, so
# dividing by it removes most of that drift (perfbench/README.md).
HOST_PROBE = (sys.executable, "-S", "-c", "pass")
HOST_REF_S = 0.0125  # about the mean probe time on that host
PROBES_PER_JOB = 3
JOB_TIMEOUT_S = 60.0
SUBCOMMANDS = ("moyal-distance", "torus-distance", "probe", "verify", "ball-check")

END_TO_END = {"batch_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "bracket_rel_width": "ratio"}


@dataclass
class Outcome:
    job: workloads.Job
    stdout: bytes
    exit: int
    seconds: float
    rss_mb: float


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), **BLAS_ENV)


def run_child(argv, workdir: Path, env: dict):
    """(stdout, exit code, seconds, peak RSS in MB) of one child process."""
    t0 = time.perf_counter()
    with open(workdir / "stderr.txt", "ab") as err:
        proc = subprocess.Popen(argv, cwd=workdir, env=env, stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return out, proc.returncode, time.perf_counter() - t0, usage.ru_maxrss / 1024.0


def probe_host(env) -> float:
    """Seconds of one HOST_PROBE child: how fast the host runs right now."""
    t0 = time.perf_counter()
    subprocess.run(HOST_PROBE, env=env, check=True)  # no timeout: Popen would poll
    return time.perf_counter() - t0


def run_job(job, workdir, env) -> Outcome:
    return Outcome(job, *run_child([sys.executable, "-m", "specdist.cli", *job.argv],
                                   workdir, env))


def load_reference(workload: str) -> dict:
    return json.loads((HERE / "reference" / f"{workload}.json").read_text())


def set_up(workload, seed, workdir, env):
    """Generate and write the inputs, then import the package once in a child."""
    t0 = time.perf_counter()
    jobs = workloads.generate(workload, seed)
    workloads.write_inputs(jobs, workdir)
    _, code, _, _ = run_child([sys.executable, "-c", "import specdist.cli"], workdir, env)
    if code != 0:
        raise RuntimeError("import specdist.cli failed; see stderr.txt in the work directory")
    return jobs, time.perf_counter() - t0


class Tally:
    """Attempted and failed jobs, with the reason of every failure."""

    def __init__(self, reference):
        self.reference = reference
        self.attempted = 0
        self.failures = []

    def judge(self, out: Outcome, first: Outcome = None) -> None:
        """Check one job; first is the same job's outcome in the first pass."""
        self.attempted += 1
        found = check.problems(out.job.cmd, out.stdout.decode(errors="replace"), out.exit,
                               self.reference[out.job.key])
        if first is not None and (first.stdout != out.stdout or first.exit != out.exit):
            found.append("stdout or exit code differs from the first pass")
        if found:
            self.failures.append(f"{out.job.key} {' '.join(out.job.argv)[:120]}: {found[0]}")


def one_pass(jobs, workdir, env, tally, first=(), before_job=None):
    """Run every job once, calling before_job() before each.

    first holds the outcomes of the run's first pass, whose output every job
    must repeat.  Returns (seconds, outcomes); seconds covers the jobs only.
    """
    seconds, outcomes = 0.0, []
    for i, job in enumerate(jobs):
        if before_job is not None:
            before_job()
        t0 = time.perf_counter()
        out = run_job(job, workdir, env)
        seconds += time.perf_counter() - t0
        tally.judge(out, first[i] if first else None)
        outcomes.append(out)
    return seconds, outcomes


def end_to_end(workload, seed, passes, workdir, env, tally) -> dict:
    jobs, first = set_up(workload, seed, workdir, env)
    setups, probes, done = [first], [], itertools.count(1)

    def before_job():
        if next(done) % SETUP_EVERY == 0:
            setups.append(set_up(workload, seed, workdir, env)[1])
        probes.extend(probe_host(env) for _ in range(PROBES_PER_JOB))

    batch, outcomes = [], []
    for _ in range(passes):
        seconds, outs = one_pass(jobs, workdir, env, tally, outcomes[:len(jobs)], before_job)
        batch.append(seconds)
        outcomes += outs
    latencies = [o.seconds for o in outcomes]
    tail = check.tail(latencies)
    if tail is None:
        raise RuntimeError(f"only {len(latencies)} job latencies; the tail needs 11")
    widths = [w for o in outcomes if o.job.cmd in ("moyal-distance", "torus-distance")
              and o.exit == 0 and (w := check.bracket_rel_width(o.stdout)) is not None]
    probe_s = statistics.fmean(probes)
    scale = HOST_REF_S / probe_s
    print(f"passes {passes}, jobs per pass {len(jobs)}, latency samples {len(latencies)}, "
          f"set-ups {len(setups)}, host probes {len(probes)}")
    print(f"host_probe_s {probe_s!r} s (mean; median {statistics.median(probes)!r}); "
          f"times below scaled by {scale!r}")
    # printed but not bounded: unscaled, or too noisy from run to run
    print(f"batch_wall_s {statistics.fmean(batch)!r} s")
    print(f"setup_wall_s {statistics.median(setups)!r} s")
    print(f"job_p50_s {statistics.median(latencies)!r} s")
    print(f"job_tail_s {tail[0]!r} s (p{tail[1]:.1f} of {len(latencies)} samples)")
    return {
        "batch_s": statistics.fmean(batch) * scale,
        "setup_s": statistics.median(setups) * scale,
        "peak_rss_mb": max(o.rss_mb for o in outcomes),
        "bracket_rel_width": statistics.fmean(widths) if widths else 0.0,
    }


def replay(job, workdir, env, index):
    out_path = workdir / f"replay-{index}.json"
    argv = [sys.executable, str(HERE / "replay.py"), f"{index}:{job.key}", str(out_path), "--",
            *job.argv]
    _, code, seconds, _ = run_child(argv, workdir, env)
    if code != 0:
        return None, seconds
    return json.loads(out_path.read_text()), seconds


def traced(jobs, workdir, env, tally) -> dict:
    untraced_s, outcomes = one_pass(jobs, workdir, env, tally)
    latencies = {sub: [o.seconds for o in outcomes if o.job.cmd == sub] for sub in SUBCOMMANDS}
    all_spans, agree, probe_s, traced_s, missing = [], 0, 0.0, 0.0, set()
    for i, out in enumerate(outcomes):
        rec, seconds = replay(out.job, workdir, env, i)
        tally.attempted += 1
        if rec is None:
            tally.failures.append(f"{out.job.key}: replay exited non-zero")
            traced_s += seconds
            continue
        missing.update(rec["missing"])
        if rec["exit"] == out.exit and rec["stdout"].encode() == out.stdout:
            agree += 1
        else:
            tally.failures.append(f"{out.job.key}: replay output differs from the CLI job")
        probe_s += rec["setup_s"] or 0.0
        traced_s += seconds - (rec["setup_s"] or 0.0)  # the probe is not the job's work
        base = len(all_spans)
        all_spans += [[n, s, e, p + base if p >= 0 else -1, j, c]
                      for n, s, e, p, j, c in rec["spans"]]
    (workdir / "spans.json").write_text(json.dumps(all_spans))
    for name in sorted(missing):
        print(f"warning: {name} not found in specdist; its per-layer metrics read 0")
    jobs_s = sum(o.seconds for o in outcomes)
    print(f"untraced pass {untraced_s:.3f} s; its jobs {jobs_s:.3f} s; "
          f"traced replays {traced_s:.3f} s; replays agreeing {agree}/{len(jobs)}")
    metrics = layer_metrics(spans.aggregate(all_spans), latencies, probe_s)
    metrics.update({
        "trace.untraced_wall_s": jobs_s,
        "trace.traced_wall_s": traced_s,
        "trace.overhead_frac": traced_s / jobs_s - 1.0,
        "trace.replay_agree_frac": agree / len(jobs),
    })
    return metrics


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(agg, latencies, probe_s) -> dict:
    names = agg["names"]

    def get(name, key):
        rec = names.get(name, {})
        return rec.get(key, rec.get("counts", {}).get(key, 0))

    m = {f"cli.{sub}.p50_s": statistics.median(v) if v else 0.0 for sub, v in latencies.items()}
    simple = [
        ("algebra.star", ("calls", "busy_s")),
        ("calculus.reconstruct", ("calls", "busy_s")),
        ("calculus.dz", ("busy_s",)),
        ("lipschitz.commutator_norm.dense", ("calls", "busy_s")),
        ("lipschitz.commutator_norm.power", ("calls", "busy_s")),
        ("lipschitz.ball_report", ("calls", "busy_s")),
        ("distance.certificate_lower_bound", ("busy_s", "candidates")),
        ("distance.analytic_upper_bound", ("busy_s", "terms")),
        ("distance.optimize_distance", ("calls", "busy_s", "iterations")),
        ("states.zeta_state", ("busy_s",)),
        ("states.expect", ("calls",)),
        ("probes.asymptotic_fit", ("calls", "busy_s")),
        ("probes.divergence_flag", ("busy_s",)),
        ("probes.staircase_gap", ("calls", "busy_s")),
        ("torus.commutator_norm_converged", ("calls", "busy_s", "max_box_radius")),
        ("torus.optimize_torus_distance", ("busy_s", "iterations")),
    ] + [(f"verify.{s}", ("busy_s",)) for s in workloads.SUITES]
    for name, keys in simple:
        for key in keys:
            m[f"{name}.{key}"] = get(name, key)
    cert, opt = "distance.certificate_lower_bound", "distance.optimize_distance"
    fit, tor = "probes.asymptotic_fit", "torus.commutator_norm_converged"
    tor_opt = "torus.optimize_torus_distance"
    m[f"{cert}.useful_ratio"] = _ratio(get(cert, "calls"), get(cert, "candidates"))
    m[f"{opt}.s_per_iter"] = _ratio(get(opt, "busy_s"), get(opt, "iterations"))
    m[f"{opt}.setup_s"] = probe_s
    m[f"{opt}.converged_frac"] = _ratio(get(opt, "converged"), get(opt, "calls"))
    m[f"{fit}.points_per_s"] = _ratio(get(fit, "points"), get(fit, "busy_s"))
    m[f"{tor}.converged_frac"] = _ratio(get(tor, "converged"), get(tor, "calls"))
    m[f"{tor_opt}.s_per_iter"] = _ratio(get(tor_opt, "busy_s"), get(tor_opt, "iterations"))
    for layer, rec in agg["layers"].items():
        for key in ("calls", "busy_s", "self_s"):
            m[f"{layer}.{key}"] = rec[key]
    return m


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("points_per_s"):
        return "1/s"
    if name.endswith(("_s", "s_per_iter")):
        return "s"
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "specdist" / "cli.py").is_file():
        print(f"error: no specdist sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = child_env()
    print(f"workload {args.workload}, seed {args.seed}, one client, closed loop; child BLAS "
          + " ".join(f"{k}={v}" for k, v in BLAS_ENV.items()))
    tally = Tally(load_reference(args.workload))

    if args.trace:
        jobs, _ = set_up(args.workload, args.seed, workdir, env)
        metrics = traced(jobs, workdir, env, tally)
    else:
        passes = max(1, round(args.seconds / workloads.PASS_S))
        metrics = end_to_end(args.workload, args.seed, passes, workdir, env, tally)
    failed = len(tally.failures)
    for line in tally.failures:
        print(f"FAILED {line}")
    if not args.trace:
        print(f"failed_frac {failed / tally.attempted!r} ratio ({failed}/{tally.attempted})")
    for name, value in metrics.items():
        print(f"{name} {value!r} {unit_of(name)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
