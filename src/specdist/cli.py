"""Batch command-line front end.

Subcommands: moyal-distance, torus-distance, probe, verify, ball-check.
Reports are emitted as deterministic JSON (sorted keys, no wall-clock fields
unless --timing); probe series are emitted as plot-ready CSV.

Exit codes: 0 success, 1 parameter error, 2 suite failure, 3 non-convergence.  A value
option given twice is a parameter error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

# each subcommand imports the modules it runs when it runs, so a job loads no
# numerics it does not use (moyal-distance never loads torus or verify)
from .errors import ParameterError

EXIT_OK = 0
EXIT_PARAMETER = 1
EXIT_SUITE_FAILURE = 2
EXIT_NON_CONVERGENCE = 3


class _StoreOnce(argparse._StoreAction):
    """argparse's store action, refusing a value option given twice: argparse would keep
    the last value and drop the first without a word."""

    def __call__(self, parser, namespace, values, option_string=None):
        given = namespace.__dict__.setdefault("_given", set())
        if self.dest in given:
            parser.error(f"{option_string} given more than once")
        given.add(self.dest)
        super().__call__(parser, namespace, values, option_string)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        for name in (None, "store"):  # add_argument's default action, and by name
            self.register("action", name, _StoreOnce)

    # usage problems are parameter errors (exit 1), not suite failures
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ParameterError(message)


def _finite_weights(text: str, dtype):
    """The weights of finite:w0,w1,... as an array of dtype, converted by numpy in slices of
    SWEEP_BLOCK characters extended to the next comma: never one str per weight at once."""
    import numpy as np

    from .states import SWEEP_BLOCK

    w = np.empty(text.count(",") + 1, dtype)
    i, lo, n = 0, len("finite:"), len(text)
    while lo <= n:
        hi = text.find(",", lo + SWEEP_BLOCK)
        hi = n if hi < 0 else hi  # no comma past the slice: the slice runs to the end
        block = np.array(text[lo:hi].split(","), dtype)
        w[i:i + block.size] = block
        i, lo = i + block.size, hi + 1
    return w


def parse_state_spec(text: str, theta: float):
    """MoyalPureState of the mini-grammar basis:m | zeta:s:Mcut | finite:w0,w1,..."""
    from .states import basis_state, finite_state, zeta_state

    try:
        if text.startswith("finite:") and text.count(":") == 1:
            try:  # numpy reads each weight as float() does, else all as complex() does
                w = _finite_weights(text, float)
            except ValueError:
                w = _finite_weights(text, complex)
            return finite_state(w, theta)
        parts = text.split(":")
        if parts[0] == "basis" and len(parts) == 2:
            return basis_state(int(parts[1]), theta)
        if parts[0] == "zeta" and len(parts) == 3:
            return zeta_state(float(parts[1]), int(parts[2]), theta)
    except ParameterError:  # the state's own message, e.g. non-finite or all-zero weights
        raise
    except ValueError:  # a number that does not parse
        pass
    raise ParameterError(f"cannot parse state spec {text!r}")


def _positive_int(text: str) -> int:
    """argparse type: an integer of at least 1."""
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")


def _finite_float(text: str, minimum: float = -math.inf) -> float:
    """argparse type: a finite number of at least minimum."""
    try:
        if math.isfinite(float(text)) and float(text) >= minimum:
            return float(text)
    except ValueError:
        pass
    at_least = f" >= {minimum:g}" if math.isfinite(minimum) else ""
    raise argparse.ArgumentTypeError(f"expected a finite number{at_least}, got {text!r}")


def _index_pair(text: str, spec: str) -> tuple:
    """Torus index pair m1,m2; spec names the option or state spec in the error."""
    try:
        m1, m2 = (int(v) for v in text.split(","))
    except ValueError:
        raise ParameterError(f"cannot parse index pair m1,m2 in {spec!r}") from None
    return m1, m2


def parse_torus_state(text: str, theta: float):
    """TorusState of the mini-grammar tracial | phi:m1,m2"""
    from . import torus

    if text == "tracial":
        return torus.tracial_state(theta)
    parts = text.split(":")
    if parts[0] == "phi" and len(parts) == 2:
        return torus.vector_state(theta, _index_pair(parts[1], text))
    raise ParameterError(f"cannot parse torus state spec {text!r}")


def _write(text: str, args) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(payload: dict, args) -> None:
    if getattr(args, "timing", False):
        payload = dict(payload)
        payload["elapsed_s"] = time.perf_counter() - args._t0
    # a NaN or infinity is not JSON: json raises ValueError, which ends as exit 1
    _write(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n", args)


def _emit_csv(rows, args) -> None:
    _write("\n".join(",".join(str(c) for c in row) for row in rows) + "\n", args)


def _load_json_file(path: str, option: str, build):
    """build(payload) for the JSON object in the file an option names; bad content ends
    in a ParameterError that names the file."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict):
            raise TypeError(f"expected a JSON object, got {type(payload).__name__}")
        return build(payload)
    except KeyError as exc:
        raise ParameterError(f"{option} {path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"{option} {path}: {exc}") from None


def _pair_spec(d: dict) -> dict:
    """A --spec-file payload: optional state spec strings a and b, optional number theta."""
    if not all(isinstance(d.get(key, ""), str) for key in ("a", "b")):
        raise TypeError("'a' and 'b' must be state spec strings")
    return {**d, "theta": float(d["theta"])} if "theta" in d else d


def cmd_moyal_distance(args) -> int:
    from .distance import moyal_report

    spec = _load_json_file(args.spec_file, "--spec-file", _pair_spec) if args.spec_file else {}
    for key in ("a", "b", "theta"):
        if key in spec and getattr(args, key) is not None:
            raise ParameterError(f"--{key} and --spec-file {args.spec_file} both set {key!r}")
    a_text = spec.get("a", args.a)
    b_text = spec.get("b", args.b)
    theta = spec.get("theta", 1.0 if args.theta is None else args.theta)
    if a_text is None or b_text is None:
        raise ParameterError("state specs --a and --b are required")
    s1, s2 = (parse_state_spec(text, theta) for text in (a_text, b_text))
    report = moyal_report(s1, s2, order=args.order, optimize=not args.no_optimize,
                          probe=args.probe, max_iter=args.max_iter)
    _emit(report.to_dict(), args)
    return EXIT_NON_CONVERGENCE if report.converged is False else EXIT_OK


def cmd_torus_distance(args) -> int:
    from . import torus

    if args.box is not None and not args.optimize:
        raise ParameterError("--box sets the optimizer's box radius and needs --optimize")
    theta = args.theta
    if args.m is not None:
        if args.a is not None or args.b is not None:
            raise ParameterError("--m sets both states and excludes --a and --b")
        s1 = torus.vector_state(theta, _index_pair(args.m, f"--m {args.m}"))
        s2 = torus.tracial_state(theta)
    else:
        if args.a is None or args.b is None:
            raise ParameterError("either --m or both --a and --b are required")
        s1 = parse_torus_state(args.a, theta)
        s2 = parse_torus_state(args.b, theta)
    report = torus.torus_report(s1, s2, optimize=args.optimize,
                                box_radius=args.box, max_iter=args.max_iter)
    _emit(report.to_dict(), args)
    return EXIT_NON_CONVERGENCE if report.converged is False else EXIT_OK


def _parse_grid(text: str, points: int):
    from .probes import MAX_SUPPORT, check_grid_top, default_grid

    try:
        lo, hi = (float(v) for v in text.split(":"))
    except ValueError:
        lo = hi = math.nan
    if not (math.isfinite(lo) and math.isfinite(hi) and lo >= 1 and hi >= 1):  # no m0 = 0 point
        raise ParameterError(f"--grid expects lo:hi with finite values of at least 1, got {text!r}")
    check_grid_top(round(max(lo, hi)))  # before default_grid casts the ends to int64
    if points > MAX_SUPPORT:  # all held before deduplication; no more can be distinct
        raise ParameterError(f"--points {points} exceeds the cap MAX_SUPPORT = {MAX_SUPPORT}")
    return default_grid(lo, hi, points)


def cmd_probe(args) -> int:
    from . import probes

    try:
        a_text, b_text = args.pair.split(",")
    except ValueError:
        raise ParameterError(f"--pair expects two specs a,b, got {args.pair!r}") from None
    spec1 = probes.parse_probe_spec(a_text)
    spec2 = probes.parse_probe_spec(b_text)
    grid = _parse_grid(args.grid, args.points)
    try:
        decades = float(args.fit_top.removesuffix("dec"))
    except ValueError:
        raise ParameterError(
            f"--fit-top expects a number of decades, got {args.fit_top!r}") from None
    try:
        series = probes.asymptotic_fit(spec1, spec2, grid, decades, theta=args.theta)
    except ParameterError as exc:
        if "decades" in str(exc):  # a refused window width names the option that sets it
            raise ParameterError(f"--fit-top {args.fit_top!r}: {exc}") from None
        raise
    if args.format == "csv":
        _emit_csv(series.csv_rows(), args)
    else:
        payload = series.summary_dict()
        payload["pair"] = [spec1.label(), spec2.label()]
        payload["theta"] = args.theta
        payload["divergence"] = probes.divergence_flag(spec1, spec2)
        _emit(payload, args)
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_suites

    failed = False
    for result in run_suites(None if args.suite == "all" else [args.suite]):
        status = "PASS" if result.passed else "FAIL"
        print(f"suite {result.name}: {status}")
        for line in result.summary_lines():
            print(line)
        failed = failed or not result.passed
    return EXIT_SUITE_FAILURE if failed else EXIT_OK


def cmd_ball_check(args) -> int:
    from .algebra import MoyalElement
    from .calculus import bump_diagonal, staircase_diagonal
    from .lipschitz import ball_report, radial_ball_report

    if args.element_file:
        if args.theta is not None:
            raise ParameterError("--element-file carries theta and excludes --theta")
        element = _load_json_file(args.element_file, "--element-file", MoyalElement.from_dict)
    else:  # a radial element, checked from its diagonal
        theta = 1.0 if args.theta is None else args.theta
        option, build, index = (("--staircase", staircase_diagonal, args.staircase)
                                if args.staircase is not None
                                else ("--bump", bump_diagonal, args.bump))
        try:
            element = build(index, theta)
        except ParameterError as exc:  # named, as --element-file names its file
            raise ParameterError(f"{option} {index}: {exc}") from None
    if args.scale != 1.0:  # coefficients times complex(scale), for an element or a diagonal
        coeffs = element.coeffs if args.element_file else element
        if not math.isfinite(float(abs(coeffs).max()) * abs(args.scale)):
            raise ParameterError(f"--scale {args.scale} overflows the element's coefficients")
        element = element * complex(args.scale)
    try:
        report = (ball_report(element, args.tol) if args.element_file
                  else radial_ball_report(theta, element, args.tol))
    except ParameterError as exc:  # a norm that overflows: name the scale, if any, too
        raise exc if args.scale == 1.0 else ParameterError(f"--scale {args.scale}: {exc}")
    _emit(report.to_dict(), args)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="specdist",
                     description="Spectral distances on the truncated plane and torus")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write the report to this path instead of stdout")
        p.add_argument("--timing", action="store_true",
                       help="include wall-clock time in the report")

    p = sub.add_parser("moyal-distance", help="bracketed distance between plane states")
    p.add_argument("--theta", type=float, help="deformation parameter (default 1.0)")
    p.add_argument("--a", help="state spec: basis:m | zeta:s:Mcut | finite:w0,w1,...")
    p.add_argument("--b", help="state spec")
    p.add_argument("--order", type=int, default=16, help="truncation order for the optimizer")
    p.add_argument("--max-iter", type=_positive_int, default=100000)
    p.add_argument("--no-optimize", action="store_true")
    p.add_argument("--probe", action="store_true", help="attach a divergence flag")
    p.add_argument("--spec-file", help="JSON file with keys a, b, theta")
    common(p)
    p.set_defaults(func=cmd_moyal_distance)

    p = sub.add_parser("torus-distance", help="bracketed distance between torus states")
    p.add_argument("--theta", type=float, default=0.37)
    p.add_argument("--m", help="shorthand: vector state index m1,m2 against the tracial state")
    p.add_argument("--a", help="state spec: tracial | phi:m1,m2")
    p.add_argument("--b", help="state spec")
    p.add_argument("--box", type=int, default=None, help="operator box radius for the optimizer")
    p.add_argument("--max-iter", type=_positive_int, default=2000)
    p.add_argument("--optimize", action="store_true")
    common(p)
    p.set_defaults(func=cmd_torus_distance)

    p = sub.add_parser("probe", help="growth series of the certificate bound")
    p.add_argument("--pair", required=True, help="spec pair, e.g. zeta:1.2,basis:0")
    p.add_argument("--grid", default="1e3:1e6", help="index range lo:hi")
    p.add_argument("--points", type=_positive_int, default=25)
    p.add_argument("--fit-top", default="1.5dec", help="fit window size in decades")
    p.add_argument("--theta", type=float, default=1.0)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    common(p)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("verify", help="run the self-check suites")
    p.add_argument("--suite", default="all",
                   help="one suite of specdist.verify.SUITES, or all")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("ball-check", help="Lipschitz-ball membership report")
    p.add_argument("--theta", type=float,
                   help="deformation parameter of --staircase or --bump (default 1.0)")
    p.add_argument("--tol", type=lambda text: _finite_float(text, 0.0), default=1e-9)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--element-file", help="JSON file with a serialized element")
    source.add_argument("--staircase", type=int, help="use the staircase element with this index")
    source.add_argument("--bump", type=int,
                        help="use the single-entry radial element at this index")
    p.add_argument("--scale", type=_finite_float, default=1.0, help="scale the element first")
    common(p)
    p.set_defaults(func=cmd_ball_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    t0 = time.perf_counter()
    try:
        args = parser.parse_args(argv)
        args._t0 = t0
        return args.func(args)
    except (ParameterError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMETER


if __name__ == "__main__":
    sys.exit(main())
