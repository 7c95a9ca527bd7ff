"""Command-line front end: exact counts, table rows, identity verification
with JSON reports, and bijection tracing with SVG output."""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from contextlib import nullcontext

from .bijection import RestrictedPair, _check_preimage, inverse, trace
from .counting import (catalan, count_ballot_dp, count_pairs_height_diff,
                       exact_div, super_catalan, super_catalan_row)
from .identities import (IDENTITIES, VerificationReport, report_to_dict,
                         run_identity)
from .lattice_paths import Path, PathClass
from .svg import render_trace

ORDER_MIN = 1
ORDER_MAX = 200
ORDER_ENV = "SUPERCAT_ORDER"
# `count pairs` builds a height table of O(n^2 log n) big-integer sums and makes
# O(n^2) products for its one n, 0.3-0.5 s per process at this limit; past it a
# count is refused before it starts.  A higher limit needs its own time and RSS
PAIRS_N_MAX = 400
# `count ballot` walks at most one row of Pascal's triangle, 27-42 ms in process at
# this limit for a count of at most 3010 digits, and keeps one running sum for each
# of the two residue classes it sums: a traced peak of 0.02 MB under
# --max-height 2000 and 0.01 MB under cap 2.  Python's 4300-digit limit on
# printing an int would bind near 14300 steps
BALLOT_STEPS_MAX = 10_000
# C_n <= 4^n and T(m, n) <= 4^(m+n) / 2 have at most 4215 digits up to this
# n or m + n, inside Python's 4300-digit limit on printing an int, so
# `count catalan --n`, `count super --m + --n` and `table --m + --nmax` are
# refused above it before any value is computed
EXACT_N_MAX = 7000


def _order_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"order must be an integer, got {text!r}")
    if not ORDER_MIN <= value <= ORDER_MAX:
        raise argparse.ArgumentTypeError(
            f"order must be in [{ORDER_MIN}, {ORDER_MAX}], got {value}")
    return value


def _nonneg_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {value}")
    return value


def _bounded_arg(limit: int):
    """A nonnegative-integer argument type that refuses values above `limit`."""
    def parse(text: str) -> int:
        value = _nonneg_arg(text)
        if value > limit:
            raise argparse.ArgumentTypeError(f"must be at most {limit}, got {value}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supercat",
        description="Exact lattice-path counting and super Catalan identity checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="print one exact count")
    kinds = count.add_subparsers(dest="kind", required=True)
    c_catalan = kinds.add_parser("catalan", help="Catalan number C_n")
    c_catalan.add_argument("--n", type=_bounded_arg(EXACT_N_MAX), required=True,
                           help=f"0..{EXACT_N_MAX}")
    c_super = kinds.add_parser(
        "super", help=f"super Catalan number T(m,n), m + n <= {EXACT_N_MAX}")
    c_super.add_argument("--m", type=_nonneg_arg, required=True)
    c_super.add_argument("--n", type=_nonneg_arg, required=True)
    c_pairs = kinds.add_parser(
        "pairs", help="Dyck path pairs of total semilength n, heights within --diff")
    c_pairs.add_argument("--n", type=_bounded_arg(PAIRS_N_MAX), required=True,
                         help=f"0..{PAIRS_N_MAX}")
    c_pairs.add_argument("--diff", type=_nonneg_arg, default=1)
    c_ballot = kinds.add_parser(
        "ballot", help="nonnegative paths by step count, end level, height bound")
    c_ballot.add_argument("--steps", type=_bounded_arg(BALLOT_STEPS_MAX), required=True,
                          help=f"0..{BALLOT_STEPS_MAX}")
    c_ballot.add_argument("--end-level", type=_nonneg_arg, default=0)
    bound = c_ballot.add_mutually_exclusive_group()
    bound.add_argument("--max-height", type=int, default=None)
    bound.add_argument("--exact-height", type=int, default=None)

    table = sub.add_parser(
        "table", help=f"print the row T(m, 0..nmax), m + nmax <= {EXACT_N_MAX}")
    table.add_argument("--m", type=_nonneg_arg, required=True)
    table.add_argument("--nmax", type=_nonneg_arg, required=True)

    verify = sub.add_parser("verify", help="verify one identity (or all)")
    verify.add_argument("identity", choices=(*IDENTITIES, "all"))
    verify.add_argument("--order", type=_order_arg, default=None,
                        help=f"check order, {ORDER_MIN}..{ORDER_MAX} "
                             f"(default: per-identity, or ${ORDER_ENV})")
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.add_argument("--out", default=None, help="write the report to a file")

    bijection = sub.add_parser("bijection", help="apply the pair-to-path bijection")
    direction = bijection.add_mutually_exclusive_group(required=True)
    direction.add_argument("--forward", nargs=2, metavar=("P", "Q"))
    direction.add_argument("--inverse", metavar="D")
    bijection.add_argument("--svg", default=None, help="write a trace diagram")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built once per process: building one takes
    about a millisecond, and parsing leaves it unchanged."""
    return build_parser()


def _exact_size_error(args) -> str | None:
    """The refusal of a T(m, n) request whose m + n exceeds EXACT_N_MAX."""
    if args.command == "table":
        names, total = "--m + --nmax", args.m + args.nmax
    elif args.command == "count" and args.kind == "super":
        names, total = "--m + --n", args.m + args.n
    else:
        return None
    if total > EXACT_N_MAX:
        return f"{names} must be at most {EXACT_N_MAX}, got {total}"
    return None


def _resolve_order(args) -> int | None:
    if args.order is not None:
        return args.order
    env = os.environ.get(ORDER_ENV)
    if env is None:
        return None
    try:
        return _order_arg(env)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"{ORDER_ENV}: {exc}")


def dumps_report(data) -> str:
    """Canonical JSON encoding: fixed key order, two-space indent."""
    return json.dumps(data, indent=2) + "\n"


def format_report_text(report: VerificationReport) -> str:
    if report.passed:
        status = "PASS"
    else:
        fm = report.first_mismatch
        power = ",".join(map(str, fm.power)) if isinstance(fm.power, tuple) else fm.power
        status = f"FAIL at power {power}: lhs {fm.lhs} rhs {fm.rhs}"
    head = f"{report.identity}: {status} (order {report.order}, {report.elapsed_ms} ms)"
    return "\n".join([head] + [f"  note: {note}" for note in report.notes])


def _open_output(path: str | None, default=None):
    """The file at `path` opened for writing, else `default`.  Commands open
    their output before any work, so an unwritable path fails first."""
    return open(path, "w") if path else nullcontext(default)


def _cmd_count(args) -> int:
    if args.kind == "catalan":
        print(catalan(args.n))
    elif args.kind == "super":
        print(super_catalan(args.m, args.n))
    elif args.kind == "pairs":
        print(count_pairs_height_diff(args.n, args.diff))
    else:
        path_class = PathClass(end_level=args.end_level,
                               max_height=args.max_height,
                               exact_height=args.exact_height)
        print(count_ballot_dp(path_class, args.steps))
    return 0


def _cmd_table(args) -> int:
    row = super_catalan_row(args.m, args.nmax)
    if args.m == 0:
        print("note: T(0,0) = 1/2 is not an integer; printing the doubled row "
              "2*T(0,n), the middle binomial coefficients", file=sys.stderr)
    else:
        row = [exact_div(value, 2, f"T({args.m},{n})") for n, value in enumerate(row)]
    print(" ".join(map(str, row)))
    return 0


def _cmd_verify(args) -> int:
    order = _resolve_order(args)
    with _open_output(args.out, sys.stdout) as out:
        identities = IDENTITIES if args.identity == "all" else (args.identity,)
        reports = [run_identity(identity, order) for identity in identities]
        passed = all(report.passed for report in reports)
        if args.format == "json":
            if args.identity == "all":
                data = {"passed": passed,
                        "reports": [report_to_dict(report) for report in reports]}
            else:
                data = report_to_dict(reports[0])
            text = dumps_report(data)
        else:
            lines = [format_report_text(report) for report in reports]
            if args.identity == "all":
                failed = [report.identity for report in reports if not report.passed]
                lines.append("all identities passed" if passed
                             else "failed: " + ", ".join(failed))
            text = "\n".join(lines) + "\n"
        out.write(text)
    return 0 if passed else 1


def _cmd_bijection(args) -> int:
    if args.forward is not None:
        pair = RestrictedPair(Path(args.forward[0]), Path(args.forward[1]))
    else:
        dyck = Path(args.inverse)
        _check_preimage(dyck)  # before the output file is opened and emptied
    with _open_output(args.svg) as svg:
        if args.forward is None:
            pair = inverse(dyck)
        record = trace(pair)
        print(record.output if args.forward is not None else f"({pair.p}, {pair.q})")
        if svg is not None:
            svg.write(render_trace(record))
    return 0


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    error = _exact_size_error(args)
    if error:
        parser.error(error)
    try:
        if args.command == "count":
            return _cmd_count(args)
        if args.command == "table":
            return _cmd_table(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_bijection(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
