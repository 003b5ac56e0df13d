"""Correctness rules for job outputs, and the latency statistics.

A job fails when its output breaks a rule below.  "Worse" means a lower bound
that fell or an upper bound that rose against the reference made at the
commit that defined the benchmark; tightening in either direction passes.
"""

from __future__ import annotations

import json
import math

FEASIBILITY_TOL = 1e-9    # feasibility_residual of an optimizer certificate
CROSSING_TOL = 1e-9       # a lower bound above closed_form or analytic_upper
CLOSED_FORM_TOL = 1e-12   # basis-pair closed form against sqrt(theta/2) sum 1/sqrt(k)
REFERENCE_TOL = 1e-12     # certificate_lower / analytic_upper against the reference
OPTIMIZER_REL_TOL = 1e-3  # optimizer_lower against the reference, relative
NORM_REL_TOL = 1e-9       # ball-check norms and probe values against the reference


def basis_closed_form(m: int, n: int, theta: float) -> float:
    lo, hi = min(m, n), max(m, n)
    return math.sqrt(theta / 2.0) * math.fsum(1.0 / math.sqrt(k) for k in range(lo + 1, hi + 1))


def _close(x, ref, rel) -> bool:
    return abs(x - ref) <= rel * max(1.0, abs(ref))


def distance_problems(rep: dict, ref: dict) -> list:
    """Rule breaches of a distance report against its reference report."""
    out = []
    resid = rep.get("feasibility_residual")
    if resid is not None and resid > FEASIBILITY_TOL:
        out.append(f"feasibility_residual {resid:.3g}")
    lowers = [(k, rep[k]) for k in ("certificate_lower", "optimizer_lower")
              if rep.get(k) is not None]
    for upper_key in ("closed_form", "analytic_upper"):
        upper = rep.get(upper_key)
        if upper is None:
            continue
        for k, v in lowers:
            if v > upper + CROSSING_TOL:
                out.append(f"{k} {v!r} exceeds {upper_key} {upper!r}")
    a, b = rep.get("state_a", ""), rep.get("state_b", "")
    if a.startswith("basis:") and b.startswith("basis:"):
        exact = basis_closed_form(int(a[6:]), int(b[6:]), rep["theta"])
        if rep.get("closed_form") is None or abs(rep["closed_form"] - exact) > CLOSED_FORM_TOL:
            out.append(f"closed_form {rep.get('closed_form')!r} vs {exact!r}")
    if rep["certificate_lower"] < ref["certificate_lower"] - REFERENCE_TOL:
        out.append(f"certificate_lower fell: {rep['certificate_lower']!r} "
                   f"< reference {ref['certificate_lower']!r}")
    if ref.get("analytic_upper") is not None and (
            rep.get("analytic_upper") is None
            or rep["analytic_upper"] > ref["analytic_upper"] + REFERENCE_TOL):
        out.append(f"analytic_upper rose: {rep.get('analytic_upper')!r} "
                   f"> reference {ref['analytic_upper']!r}")
    if ref.get("optimizer_lower") is not None and (
            rep.get("optimizer_lower") is None
            or rep["optimizer_lower"] < ref["optimizer_lower"] * (1.0 - OPTIMIZER_REL_TOL)):
        out.append(f"optimizer_lower fell: {rep.get('optimizer_lower')!r} "
                   f"< reference {ref['optimizer_lower']!r}")
    return out


def _ball_problems(rep: dict, ref: dict) -> list:
    out = []
    if rep["member"] != ref["member"] or len(rep["violations"]) != len(ref["violations"]):
        out.append("membership or violations differ from the reference")
    if not _close(rep["commutator_norm"], ref["commutator_norm"], NORM_REL_TOL):
        out.append(f"commutator_norm {rep['commutator_norm']!r} "
                   f"vs reference {ref['commutator_norm']!r}")
    return out


def _probe_json_problems(rep: dict, ref: dict) -> list:
    out = []
    if rep["divergence"] != ref["divergence"] or rep["points"] != ref["points"]:
        out.append("divergence flag or point count differs from the reference")
    for key in ("fitted_slope", "gap", "theory_slope"):
        if not _close(rep[key], ref[key], NORM_REL_TOL):
            out.append(f"{key} {rep[key]!r} vs reference {ref[key]!r}")
    if len(rep["fit_window"]) != len(ref["fit_window"]) or not all(
            _close(x, r, NORM_REL_TOL) for x, r in zip(rep["fit_window"], ref["fit_window"])):
        out.append(f"fit_window {rep['fit_window']!r} vs reference {ref['fit_window']!r}")
    return out


def _probe_csv_problems(text: str, ref_text: str) -> list:
    rows = [r.split(",") for r in text.split()]
    ref_rows = [r.split(",") for r in ref_text.split()]
    if len(rows) != len(ref_rows) or rows[0] != ref_rows[0]:
        return ["probe series shape differs from the reference"]
    for row, ref_row in zip(rows[1:], ref_rows[1:]):
        if row[0] != ref_row[0] or not _close(float(row[1]), float(ref_row[1]), NORM_REL_TOL):
            return [f"probe value at m0={row[0]} differs from the reference"]
    return []


def _suite_lines(text: str) -> list:
    return [line for line in text.splitlines() if line.startswith("suite ")]


def problems(cmd: str, stdout: str, exit_code: int, ref: dict) -> list:
    """Every rule a job's output breaks; an empty list means the job passed.

    ref holds the reference run's "exit" code and "stdout" text.
    """
    if exit_code != ref["exit"]:
        return [f"exit code {exit_code}, expected {ref['exit']}"]
    try:
        if cmd == "verify":
            if _suite_lines(stdout) != _suite_lines(ref["stdout"]):
                return ["suite status lines differ from the reference"]
            return []
        if cmd == "probe" and not stdout.lstrip().startswith("{"):
            return _probe_csv_problems(stdout, ref["stdout"])
        rep, ref_rep = json.loads(stdout), json.loads(ref["stdout"])
        if cmd in ("moyal-distance", "torus-distance"):
            return distance_problems(rep, ref_rep)
        if cmd == "ball-check":
            return _ball_problems(rep, ref_rep)
        return _probe_json_problems(rep, ref_rep)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]


def bracket_rel_width(stdout: str):
    """bracket_width / analytic_upper of a distance report, or None."""
    rep = json.loads(stdout)
    width, upper = rep.get("bracket_width"), rep.get("analytic_upper")
    if width is None or not upper:
        return None
    return width / upper


def tail(samples, beyond: int = 10):
    """(value, percentile) at the highest percentile with `beyond` samples above it.

    Nearest rank: the value is the (beyond+1)-th largest sample and the
    percentile is 100 * (n - beyond) / n.  None when there are too few samples.
    """
    n = len(samples)
    if n <= beyond:
        return None
    return sorted(samples)[n - beyond - 1], 100.0 * (n - beyond) / n
