"""Replay one specdist CLI job in this process, with a span around each public call.

    python3 perfbench/replay.py JOB OUT.json -- <specdist arguments>

The public functions are wrapped where the program looks them up: module
attributes, the verify suite table and MoyalPureState.expect.  Then the CLI
entry point runs in-process with the job's arguments, so the replay makes the
same calls with the same inputs as the CLI job, and keeps doing so when the
program changes.  OUT.json receives the exit code, the captured stdout (the
caller compares it with the CLI job's), the spans tagged with JOB, the names
of the table's functions the program no longer has, and for optimizer jobs
the set-up probe: the time of a max_iter=1 optimize_distance call at the
job's order and a theta the process has not seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

import spans
import workloads

from specdist import (algebra, calculus, cli, distance, lipschitz, probes, states, torus,
                      verify)

_MODULES = (cli, algebra, calculus, lipschitz, states, distance, probes, torus, verify)


def _patch(fn, wrapped, modules=_MODULES) -> None:
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is fn:
                setattr(module, attr, wrapped)


def _norm_path(args) -> str:
    # the library's own switch between dense SVD and Gram power iteration
    limit = getattr(lipschitz, "_DENSE_SVD_LIMIT", 64)
    return "dense" if max(getattr(args[0], "shape", (0,))) <= limit else "power"


def _wrap(tracer, module, attr, name, counts=None, variant=None, modules=_MODULES):
    """Wrap module.attr where it is looked up; its qualified name if it is missing.

    A function the program no longer has is skipped, and its metrics read 0.
    """
    fn = getattr(module, attr, None)
    if fn is None:
        return f"{module.__name__}.{attr}"
    _patch(fn, tracer.wrap(fn, name, counts, variant), modules)
    return None


def instrument(tracer: spans.Tracer) -> list:
    """Wrap every public function named in the per-layer metric table.

    Returns the qualified names of the functions that could not be found.
    """
    missing = []
    for sub in ("moyal_distance", "torus_distance", "probe", "verify", "ball_check"):
        missing.append(_wrap(tracer, cli, f"cmd_{sub}", f"cli.{sub.replace('_', '-')}"))
    table = [
        (algebra, "star", None),
        (calculus, "dz", None),
        (calculus, "reconstruct", None),
        (lipschitz, "ball_report", None),
        (states, "zeta_state", None),
        (distance, "moyal_report", None),
        (distance, "certificate_lower_bound",
         lambda a, k, r: {"candidates": len(a[2] if len(a) > 2 else k["candidates"])}),
        (distance, "analytic_upper_bound",
         lambda a, k, r: {"terms": max(a[0].support, a[1].support)}),
        (distance, "optimize_distance",
         lambda a, k, r: {"iterations": r.iterations, "converged": int(bool(r.converged))}),
        (probes, "asymptotic_fit", lambda a, k, r: {"points": len(r.m0_grid)}),
        (probes, "divergence_flag", None),
        (probes, "staircase_gap", None),
        (probes, "zeta_partial", None),
        (torus, "torus_report", None),
        (torus, "commutator_norm_converged",
         lambda a, k, r: {"converged": int(bool(r[2])), "max_box_radius": r[1]}),
        (torus, "optimize_torus_distance",
         lambda a, k, r: {"iterations": r.iterations, "converged": int(bool(r.converged))}),
    ]
    for module, attr, counts in table:
        missing.append(_wrap(tracer, module, attr, f"{module.__name__.split('.')[-1]}.{attr}",
                             counts))
    # only the norms lipschitz itself takes (commutator_norm, ball_report); the
    # optimizers' per-iteration norms stay unwrapped
    missing.append(_wrap(tracer, lipschitz, "op_norm", "lipschitz.commutator_norm",
                         variant=_norm_path, modules=(lipschitz,)))
    if hasattr(states.MoyalPureState, "expect"):
        states.MoyalPureState.expect = tracer.wrap(states.MoyalPureState.expect, "states.expect")
    else:
        missing.append("specdist.states.MoyalPureState.expect")
    suites = getattr(verify, "SUITES", {})
    for suite in workloads.SUITES:
        if suite in suites:
            suites[suite] = tracer.wrap(suites[suite], f"verify.{suite}")
        else:
            missing.append(f"specdist.verify.SUITES[{suite!r}]")
    return [name for name in missing if name is not None]


def setup_probe(argv, optimize_distance):
    """Seconds of a max_iter=1 optimize_distance call at the job's order and a new theta."""
    args = cli.build_parser().parse_args(argv)
    if args.command != "moyal-distance" or args.no_optimize:
        return None
    spec = {}
    if args.spec_file:
        spec = json.loads(Path(args.spec_file).read_text())
    theta = 1.5 * float(spec.get("theta", args.theta))
    s1 = cli.parse_state_spec(spec.get("a", args.a), theta)
    s2 = cli.parse_state_spec(spec.get("b", args.b), theta)
    if args.order < max(s1.support, s2.support) + 2:
        return None
    t0 = time.perf_counter()
    optimize_distance(s1, s2, args.order, max_iter=1)
    return time.perf_counter() - t0


def main(job: str, out_path: str, argv: list) -> int:
    tracer = spans.Tracer(job)
    optimize_distance = distance.optimize_distance
    missing = instrument(tracer)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    tracer.enabled = False
    probe_s = setup_probe(argv, optimize_distance)
    Path(out_path).write_text(json.dumps(
        {"exit": code, "stdout": buf.getvalue(), "spans": tracer.spans, "setup_s": probe_s,
         "missing": missing}))
    return 0


if __name__ == "__main__":
    if len(sys.argv) < 4 or sys.argv[3] != "--":
        sys.exit("usage: replay.py JOB OUT.json -- <specdist arguments>")
    sys.exit(main(sys.argv[1], sys.argv[2], sys.argv[4:]))
