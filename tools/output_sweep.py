"""Run every benchmark job in-process and record its exit code and stdout.

The jobs are the 85 canonical variants of the four workloads in
`perfbench/workloads.py`, plus each non-verify variant as the benchmark transforms it
(`workloads.materialize(v, random.Random(k))` for k = 1, 2 and 3): 319 jobs, 10-20 s on
one core.  Each runs through `specdist.cli.main` of the checkout that holds this script,
with one OpenBLAS thread, as the benchmark runs it.

    python tools/output_sweep.py OUT.json                  # write {job: [exit, stdout]}
    python tools/output_sweep.py OUT.json --against OLD.json

A verify job's entry also holds {suite/check: worst}, the largest margin each check
recorded (`CheckResult.worst`, which verify does not print: a deviation, a signed margin
for a one-sided check, None for a boolean one), so that a change can show it checks the
same instances as before.  With --against, the jobs whose exit code or stdout differ
from OLD.json are listed, with the fields that differ when both outputs are JSON
objects, and the exit status is 1 if any differ; then, for information only, each
numeric field's largest relative change over those jobs, with the job it occurs in,
and the checks whose worst moved.  To compare two commits, run the script in a checkout
of each.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads: the dense SVD depends on it

import argparse
import contextlib
import io
import json
import math
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
sys.dont_write_bytecode = True  # perfbench/ stays as committed

from perfbench import workloads  # noqa: E402
from specdist import verify  # noqa: E402
from specdist.cli import main  # noqa: E402

SEEDS = (1, 2, 3)


def jobs() -> dict:
    """Every job of the sweep, by name: workload/key, and workload/key~k when transformed."""
    out = {}
    for workload in workloads.WORKLOADS:
        for v in (v for slot in workloads.slots(workload) for v in slot):
            out[f"{workload}/{v.key}"] = workloads.materialize(v)
            if v.cmd != "verify":
                for k in SEEDS:
                    out[f"{workload}/{v.key}~{k}"] = workloads.materialize(v, random.Random(k))
    return out


def sweep() -> dict:
    results, worst = {}, {}
    run_suites = verify.run_suites

    def recording(names=None):  # what `verify` runs, with each check's worst deviation
        suites = run_suites(names)
        worst.update((f"{r.name}/{c.name}", c.worst) for r in suites for c in r.checks)
        return suites

    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)  # where the jobs' input files are written
        verify.run_suites = recording
        try:
            for name, job in jobs().items():
                workloads.write_inputs([job], Path(tmp))
                out = io.StringIO()
                worst.clear()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = main(list(job.argv))
                results[name] = [code, out.getvalue()] + ([dict(worst)] if worst else [])
        finally:
            verify.run_suites = run_suites
            os.chdir(cwd)
    return results


def _reports(old_stdout: str, new_stdout: str):
    """Both stdouts as JSON objects, or None when either is not one."""
    try:
        r0, r1 = json.loads(old_stdout), json.loads(new_stdout)
    except ValueError:
        return None
    return (r0, r1) if isinstance(r0, dict) and isinstance(r1, dict) else None


def differences(old: dict, new: dict) -> list:
    """One line per job whose exit code or stdout differs, or that only one side ran."""
    lines = []
    for name in sorted(old.keys() | new.keys()):
        if name not in old or name not in new:
            lines.append(f"{name}: only in {'new' if name in new else 'old'}")
        elif old[name][:2] != new[name][:2]:
            (c0, s0), (c1, s1) = old[name][:2], new[name][:2]
            detail = f"exit {c0} -> {c1}" if c0 != c1 else "stdout"
            reports = _reports(s0, s1)
            if reports:
                r0, r1 = reports
                keys = sorted(k for k in r0.keys() | r1.keys() if r0.get(k) != r1.get(k))
                detail += ": " + ", ".join(keys)
            lines.append(f"{name}: {detail}")
    return lines


def largest_changes(old: dict, new: dict) -> list:
    """One line per numeric field that differs between the JSON objects of a job on
    both sides: its largest relative change (new - old) / |old|, signed, and its job."""
    largest = {}  # field -> (change, job, old value, new value)
    for name in sorted(old.keys() & new.keys()):
        reports = _reports(old[name][1], new[name][1])
        if reports is None:
            continue
        r0, r1 = reports
        for key in r0.keys() & r1.keys():
            v0, v1 = r0[key], r1[key]
            if v0 == v1 or not all(type(v) in (int, float) for v in (v0, v1)):
                continue
            change = (v1 - v0) / abs(v0) if v0 else math.copysign(math.inf, v1)
            if key not in largest or abs(change) > abs(largest[key][0]):
                largest[key] = (change, name, v0, v1)
    return [f"{key}: {change:+.3g} at {name} ({v0!r} -> {v1!r})"
            for key, (change, name, v0, v1) in sorted(largest.items())]


def moved(old: dict, new: dict) -> list:
    """One line per check of a verify job on both sides whose worst differs."""
    lines = []
    for name in sorted(old.keys() & new.keys()):
        w0, w1 = (side[name][2] if len(side[name]) > 2 else {} for side in (old, new))
        for check in sorted(w0.keys() & w1.keys()):
            if w0[check] != w1[check]:
                lines.append(f"{name} {check}: worst {w0[check]!r} -> {w1[check]!r}")
    return lines


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", help="where to write {job: [exit, stdout]} as JSON")
    parser.add_argument("--against", help="an older sweep to compare with")
    args = parser.parse_args(argv)
    results = sweep()
    Path(args.out).write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    if args.against is None:
        print(f"{len(results)} jobs")
        return 0
    old = json.loads(Path(args.against).read_text())
    lines = differences(old, results)
    print("\n".join(lines + [f"{len(lines)} of {len(results)} jobs differ"]))
    changes = largest_changes(old, results)
    print("\n".join(changes + [f"{len(changes)} numeric fields changed, largest relative "
                                "change each (information only)"]))
    worst = moved(old, results)
    print("\n".join(worst + [f"{len(worst)} checks' worst moved (information only)"]))
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(run())
