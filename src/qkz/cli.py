"""Command-line front end.

    qkz verify <SUITE_ID> [--seed S]... [--kmax K] [--lmax L] [--m M --n N]
               [--N N] [--jet-order J] [--out PATH] [--format json|csv]
    qkz solve   [--kmax K] [--lmax L] --seed S [--m M --n N] [--out FILE]
    qkz laumon  [--kmax K] [--lmax L] --seed S [--m M --n N] [--out FILE]
    qkz rmatrix --m M --n N --seed S [--lambda p/s] [--fourd] [--out FILE]
    qkz jackson --m M --n N [--lmax L] --seed S [--a2 p/s] [--out FILE]

Exit code 0 iff every check passes (a dump: on success), 1 if a check
fails, 2 on an invalid configuration, 3 when a dump command meets a
QkzError such as a degenerate point.  QKZ_THREADS caps the worker pool.
An option left out takes its suite's acceptance value (see the README).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import ConfigError, QkzError
from .scalars import Rat
from .suites import (
    SERIES_ORDERS, SUITE_OPTIONS, SUITES, WINDOW, WINDOWED, SuiteConfig, check_limits,
    report_passed, run_suite, sample_point, write_report)

# (low, high) bounds of the integer options of each dump command
_DUMP_LIMITS = {"solve": {**SERIES_ORDERS, **WINDOW}, "laumon": {**SERIES_ORDERS, **WINDOW},
                "rmatrix": WINDOW, "jackson": WINDOWED}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qkz", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    # options left out take the suite's acceptance values in SuiteConfig;
    # --out and --format belong to the command, not to the run
    ver = sub.add_parser("verify", help="run a verification suite",
                         argument_default=argparse.SUPPRESS)
    ver.add_argument("suite", metavar="SUITE_ID")
    ver.add_argument("--seed", action="append", type=int, dest="seeds", metavar="SEED")
    for name in SUITE_OPTIONS:
        ver.add_argument("--" + name.replace("_", "-"), type=int)
    ver.add_argument("--out", default=None)
    ver.add_argument("--format", choices=("json", "csv"), default="json")

    for name in ("solve", "laumon"):
        cmd = sub.add_parser(name, help="dump the series coefficient table")
        cmd.add_argument("--kmax", type=int, default=SUITES["SHAKIROV_EQ"].acceptance["kmax"])
        cmd.add_argument("--lmax", type=int, default=SUITES["SHAKIROV_EQ"].acceptance["lmax"])
        cmd.add_argument("--seed", type=int, required=True)
        cmd.add_argument("--m", type=int, default=None)
        cmd.add_argument("--n", type=int, default=None)
        cmd.add_argument("--out", default=None)

    rmx = sub.add_parser("rmatrix", help="print the connection matrix")
    rmx.add_argument("--m", type=int, required=True)
    rmx.add_argument("--n", type=int, required=True)
    rmx.add_argument("--seed", type=int, required=True)
    rmx.add_argument("--lambda", dest="lam", default=None, metavar="p/s")
    rmx.add_argument("--fourd", action="store_true")
    rmx.add_argument("--out", default=None)

    jck = sub.add_parser("jackson", help="dump the lattice-sum vector and residuals")
    jck.add_argument("--m", type=int, required=True)
    jck.add_argument("--n", type=int, required=True)
    jck.add_argument("--lmax", type=int, default=SUITES["ITO_QKZ"].acceptance["lmax"])
    jck.add_argument("--seed", type=int, required=True)
    jck.add_argument("--a2", default="5/7", metavar="p/s")
    jck.add_argument("--out", default=None)
    return parser


def _emit(text: str, path) -> None:
    """Write a command's output to the file `path`, or to stdout."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_out(path) -> None:
    """Reject an --out that cannot be written as a file, before any work:
    a directory, or a path whose parent directory is missing."""
    if path is None:
        return
    if os.path.isdir(path):
        raise ConfigError(f"--out {path!r} is a directory")
    parent = os.path.dirname(path) or os.curdir
    if not os.path.isdir(parent):
        raise ConfigError(f"--out {path!r}: no directory {parent!r}")


def _rational_option(text: str, flag: str):
    try:
        return Rat(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"{flag} must be a rational p/s, got {text!r}") from None


def _check_dump_options(args) -> None:
    """Reject a dump command's invalid options with ConfigError before any
    point is sampled; the rational options are parsed in place."""
    check_limits(args.command, _DUMP_LIMITS[args.command], args)
    if args.command == "rmatrix" and args.lam is not None:
        args.lam = _rational_option(args.lam, "--lambda")
    if args.command == "jackson":
        args.a2 = _rational_option(args.a2, "--a2")
        if args.a2 == 0:
            raise ConfigError("--a2 must be nonzero")


def cmd_verify(args) -> int:
    cfg = SuiteConfig(**{k: v for k, v in vars(args).items()
                         if k not in ("command", "out", "format")})
    report = run_suite(cfg)
    _emit(write_report(report, args.format), args.out)
    if args.out:
        summary = "PASS" if report_passed(report) else "FAIL"
        print(f"{cfg.suite}: {summary} ({len(report['checks'])} checks) -> {args.out}")
    return 0 if report_passed(report) else 1


def cmd_series_dump(args, from_partition_sum: bool) -> int:
    from .cone import solve_shakirov
    from .laumon import z_al

    window = None if args.m is None else (args.m, args.n)
    p = sample_point(args.seed, max(args.kmax, args.lmax), window)
    series = z_al(p, args.kmax, args.lmax) if from_partition_sum \
        else solve_shakirov(p, args.kmax, args.lmax)
    _emit(series.dump_csv(), args.out)
    return 0


def cmd_rmatrix(args) -> int:
    from .rmatrix import expansion_matrices, r1_fourd, r_via_linear_system

    p = sample_point(args.seed)
    lam = args.lam if args.lam is not None else sample_point(args.seed + 1).rq
    if args.fourd:
        import random
        rng = random.Random(args.seed)
        m1 = Rat(rng.randint(2, 30), rng.randint(2, 30))
        m4 = Rat(rng.randint(2, 30), rng.randint(2, 30))
        mat = r1_fourd((m1, -args.m, -args.n, m4), args.m, args.n, lam)
        meta = {"kind": "small-h first order", "m1": str(m1), "m4": str(m4)}
    else:
        mat = r_via_linear_system(
            *expansion_matrices(args.m, args.n, p.d1, p.d4, lam, p.q))
        meta = {"kind": "connection matrix", "point": json.loads(p.to_json())}
    obj = {
        **meta,
        "m": args.m,
        "n": args.n,
        "lambda": str(lam),
        "rows": [[str(mat[i, j]) for j in range(mat.cols)] for i in range(mat.rows)],
        "index_convention": f"rows/cols are paper indices {-args.n}..{args.m}",
    }
    _emit(json.dumps(obj, indent=2) + "\n", args.out)
    return 0


def cmd_jackson(args) -> int:
    from .jackson import JacksonParams, ito_qkz_check, jackson_vector

    p = sample_point(args.seed, window=(args.m, args.n))
    jp = JacksonParams.from_point(p, args.a2)
    vec, pivot = vector = jackson_vector(jp, args.lmax)
    equations = ito_qkz_check(jp, args.lmax, vector)
    obj = {
        "point": json.loads(p.to_json()),
        "a2": str(args.a2),
        "m": args.m,
        "n": args.n,
        "lmax": args.lmax,
        "pivot": str(pivot),
        "components": {
            str(j - args.n): [str(c) for c in vec[j].coeffs]
            for j in range(args.m + args.n + 1)
        },
        "equation_residuals": {
            name: [[str(c) for c in (a - b).coeffs] for a, b in zip(left, right)]
            for name, (left, right) in equations.items()
        },
    }
    _emit(json.dumps(obj, indent=2) + "\n", args.out)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_out(args.out)
        if args.command == "verify":
            return cmd_verify(args)
        _check_dump_options(args)
        if args.command == "solve":
            return cmd_series_dump(args, from_partition_sum=False)
        if args.command == "laumon":
            return cmd_series_dump(args, from_partition_sum=True)
        if args.command == "rmatrix":
            return cmd_rmatrix(args)
        if args.command == "jackson":
            return cmd_jackson(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except QkzError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
