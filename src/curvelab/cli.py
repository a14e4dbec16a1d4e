"""Command-line front end.

Subcommands: analyze, family, gb, recover, verify.  Exit codes are a
contract: 0 success, 1 usage error, 2 mathematical refusal, 3 internal
inconsistency (verdict disagreement, recovery anomaly or any other bug).  All numeric
I/O is exact integers; JSON output round-trips byte-identically.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import traceback
from typing import Optional, Sequence

from .acm import AcmReport, _analyze, analyze_member, cross_validate, homogenized
from .bresinsky import (
    SKIP_FORM,
    BresinskyData,
    a_from_d,
    closed_form_basis,
    d_from_a,
    d_from_a_any_order,
    degree_refusal,
    generators,
    member_degrees,
    shift_vector,
)
from .errors import AnomalyError, DisagreementError, RefusalError, StepBoundExceeded
from .groebner import DEFAULT_STEP_BOUND, BinomialBasis, buchberger, reduce_basis
from .monomials import AFFINE_ORDER

ENV_PREFIX = "CURVELAB_"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REFUSED = 2
EXIT_INCONSISTENT = 3


class UsageError(Exception):
    pass


def _invalid_choice(value: str, choices) -> str:
    return f"invalid choice: {value!r} (choose from {', '.join(map(repr, choices))})"


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; our contract wants 1
    def error(self, message):
        raise UsageError(message)

    # pinned: newer argparse patch releases list the choices unquoted
    def _check_value(self, action, value):
        if action.choices is not None and value not in action.choices:
            raise argparse.ArgumentError(action, _invalid_choice(value, action.choices))


_FORMATS = ("json", "table")


def _apply_env(args: argparse.Namespace) -> None:
    """Fill --format and --step-bound from CURVELAB_* where the flag is
    absent.  Read on every call, since the parser is built once per
    process; a malformed value is a usage error, like the flag's.
    `recover` takes no --step-bound, so it ignores CURVELAB_STEP_BOUND."""
    if args.format is None:
        raw = os.environ.get(ENV_PREFIX + "FORMAT")
        if raw and raw not in _FORMATS:
            raise UsageError(f"{ENV_PREFIX}FORMAT: {_invalid_choice(raw, _FORMATS)}")
        args.format = raw or "table"
    if hasattr(args, "step_bound") and args.step_bound is None:
        raw = os.environ.get(ENV_PREFIX + "STEP_BOUND")
        try:
            args.step_bound = int(raw) if raw else DEFAULT_STEP_BOUND
        except ValueError:
            raise UsageError(f"{ENV_PREFIX}STEP_BOUND: invalid int value: {raw!r}")


def _parse_vector(raw: str, n: int, flag: str) -> tuple[int, ...]:
    try:
        vec = tuple(int(x) for x in raw.split(","))
    except ValueError:
        raise UsageError(f"{flag} expects {n} comma-separated integers, got {raw!r}")
    if len(vec) != n:
        raise UsageError(f"{flag} expects {n} comma-separated integers, got {len(vec)}")
    return vec


def _parse_a(raw: str) -> tuple[int, ...]:
    vec = _parse_vector(raw, 4, "--a")
    if any(x < 1 for x in vec):
        raise UsageError(f"--a entries must be positive: {vec}")
    return vec


def _parse_m_range(raw: str) -> tuple[int, int]:
    lo, sep, hi = raw.partition("..")
    if not sep or not lo.isdecimal() or not hi.isdecimal():
        raise UsageError(f"--m-range expects lo..hi with non-negative integers, got {raw!r}")
    lo_i, hi_i = int(lo), int(hi)
    if lo_i > hi_i:
        raise UsageError(f"--m-range is empty: {raw}")
    return lo_i, hi_i


def build_parser() -> argparse.ArgumentParser:
    """The argument parser; each subcommand binds its handler as `run`,
    which takes (args, out) and returns the exit code."""
    parser = _Parser(prog="curvelab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # recover is built with_d=False: it takes a degree vector only and
    # reduces nothing, so it has no --step-bound either
    def add_common(p: argparse.ArgumentParser, with_d: bool = True) -> None:
        p.add_argument("--a", metavar="a1,a2,a3,a4", help="degree vector input")
        if with_d:
            p.add_argument(
                "--d",
                metavar="d21,d41,d32,d42,d13,d23,d14,d34",
                help="parameter input",
            )
        # no defaults here: the parser is cached, so main reads the
        # environment on every call (_apply_env)
        p.add_argument("--format", choices=_FORMATS, help="output format (env CURVELAB_FORMAT)")
        if with_d:
            p.add_argument(
                "--step-bound",
                type=int,
                help="reduction step budget (env CURVELAB_STEP_BOUND)",
            )

    p_analyze = sub.add_parser(
        "analyze",
        help="dual-route verdict for a single shift",
        # pinned: argparse 3.13 wraps the generated line differently
        usage="%(prog)s [-h] [--a a1,a2,a3,a4]\n"
        "                        [--d d21,d41,d32,d42,d13,d23,d14,d34]\n"
        "                        [--format {json,table}] [--step-bound STEP_BOUND] --m\n"
        "                        M [--homogenize]",
    )
    add_common(p_analyze)
    p_analyze.set_defaults(run=cmd_analyze)
    p_analyze.add_argument("--m", type=int, required=True, help="shift index")
    p_analyze.add_argument(
        "--homogenize", action="store_true", help="include the homogeneous basis when ACM"
    )

    for name, text in (
        ("family", "scan a range of shifts"),
        ("verify", "family scan with a closing line saying both routes agreed"),
    ):
        p_scan = sub.add_parser(name, help=text)
        add_common(p_scan)
        p_scan.set_defaults(run=cmd_scan)
        p_scan.add_argument("--m-range", required=True, metavar="lo..hi")

    p_gb = sub.add_parser("gb", help="print the Groebner basis for one shift")
    add_common(p_gb)
    p_gb.set_defaults(run=cmd_gb)
    p_gb.add_argument("--m", type=int, required=True, help="shift index")
    p_gb.add_argument("--homogenize", action="store_true", help="print the homogenized basis")
    p_gb.add_argument(
        "--oracle",
        action="store_true",
        help="substitute the Buchberger engine for the closed form",
    )

    p_recover = sub.add_parser("recover", help="recover parameters from a degree vector")
    add_common(p_recover, with_d=False)
    p_recover.set_defaults(run=cmd_recover)

    return parser


_PARSER: Optional[argparse.ArgumentParser] = None


def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use."""
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    return _PARSER


def _resolve_input(args: argparse.Namespace) -> BresinskyData:
    if (args.a is None) == (args.d is None):
        raise UsageError("exactly one of --a and --d is required")
    if args.d is not None:
        vals = _parse_vector(args.d, 8, "--d")
        try:
            data = BresinskyData(*vals)
        except ValueError as exc:
            raise UsageError(str(exc))
        member_degrees(data, 0)  # refuse a base with a common factor up front
        return data
    vec = _parse_a(args.a)
    reason = degree_refusal(vec)
    if reason is not None:
        raise RefusalError(reason, {"degrees": vec})
    data = d_from_a(vec)
    if data is None:
        raise RefusalError(SKIP_FORM, {"degrees": vec})
    return data


def _member_input(args: argparse.Namespace) -> BresinskyData:
    """The base and a checked --m; a refused input is reported before a
    negative shift."""
    data = _resolve_input(args)
    if args.m < 0:
        raise UsageError(f"--m must be non-negative, got {args.m}")
    return data


def to_canonical_json(obj) -> str:
    """The one JSON rendering used everywhere, so that output parsed with
    json.loads re-serializes byte-identically."""
    return json.dumps(obj, indent=2)


_ROW_HEADER = (
    f"{'m':>4} | {'degrees':<23} | {'ok':<2} | {'case':<4} | {'w':<2} | "
    f"{'crit':<4} | {'gb':<4} | {'agree':<5} | note"
)


def _fmt_verdict(v: Optional[bool]) -> str:
    return "-" if v is None else ("T" if v else "F")


def report_row(r: AcmReport) -> str:
    note = r.skip_reason or ("reordered" if r.reordered else "-")
    return (
        f"{r.m:>4} | {','.join(str(x) for x in r.degrees):<23} | "
        f"{'y' if r.applicable else 'n':<2} | {r.case if r.case else '-':<4} | "
        f"{r.w if r.w else '-':<2} | {_fmt_verdict(r.verdict_criterion):<4} | "
        f"{_fmt_verdict(r.verdict_groebner):<4} | "
        f"{('y' if r.agree else 'n') if r.agree is not None else '-':<5} | {note}"
    )


def _summary(reports: list[AcmReport]) -> dict:
    return {
        "acm": sum(1 for r in reports if r.applicable and r.verdict_criterion),
        "non_acm": sum(1 for r in reports if r.applicable and not r.verdict_criterion),
        "skipped": sum(1 for r in reports if not r.applicable),
        "reordered": sum(1 for r in reports if r.reordered),
    }


def _print_basis(basis: BinomialBasis, out) -> None:
    for b in basis.sorted_elements():
        print(f"  {b}", file=out)


def cmd_analyze(args: argparse.Namespace, out) -> int:
    data = _member_input(args)
    if args.format == "json":
        report, x4 = analyze_member(data, args.m, step_bound=args.step_bound), ()
    else:
        # the table lists every x4-bearing initial generator, found before
        # anything is printed: one run of Buchberger to the end gives the
        # list and the verdict
        report, x4 = _analyze(data, args.m, args.step_bound, full=True)
    hom = None
    if args.homogenize and report.applicable and report.verdict_criterion and not report.reordered:
        # the criterion has passed, so the closed form exists: homogenize it directly
        hom = homogenized(closed_form_basis(data, args.m).basis, report.degrees)
    if args.format == "json":
        doc = report.to_dict()
        if args.homogenize:
            doc["homogeneous_basis"] = hom.to_json() if hom else None
        print(to_canonical_json(doc), file=out)
    else:
        print(_ROW_HEADER, file=out)
        print(report_row(report), file=out)
        for c in report.conditions:
            print(f"cond {c.name} = {c.value} ({'pass' if c.passed else 'fail'})", file=out)
        if x4:
            print(f"x4-bearing initial generators: {', '.join(map(str, x4))}", file=out)
        if hom is not None:
            print("homogeneous basis:", file=out)
            _print_basis(hom, out)
        elif args.homogenize:
            why = report.skip_reason or (
                "reordered coordinates" if report.verdict_criterion else "not ACM"
            )
            print(f"homogeneous basis unavailable ({why})", file=out)
    if not report.applicable:
        raise RefusalError(report.skip_reason or "not applicable",
                           {"m": report.m, "degrees": report.degrees})
    return EXIT_OK


def cmd_scan(args: argparse.Namespace, out) -> int:
    """`family` and `verify`: the same scan, which aborts on a verdict
    disagreement; `verify`'s table also says that none was found."""
    data = _resolve_input(args)
    lo, hi = _parse_m_range(args.m_range)
    reports = cross_validate(data, range(lo, hi + 1), step_bound=args.step_bound)
    if args.format == "json":
        doc = {"reports": [r.to_dict() for r in reports], "summary": _summary(reports)}
        print(to_canonical_json(doc), file=out)
    else:
        print(_ROW_HEADER, file=out)
        for r in reports:
            print(report_row(r), file=out)
        s = _summary(reports)
        print(
            f"summary: acm={s['acm']} non-acm={s['non_acm']} "
            f"skipped={s['skipped']} reordered={s['reordered']}",
            file=out,
        )
        if args.command == "verify":
            print("verified: both routes agree on every applicable member", file=out)
    return EXIT_OK


def cmd_gb(args: argparse.Namespace, out) -> int:
    data = _member_input(args)
    if args.oracle:
        basis = reduce_basis(
            buchberger(generators(data, args.m), AFFINE_ORDER, args.step_bound),
            step_bound=args.step_bound,
        )
        tag: dict = {"source": "oracle", "case": None, "reduced": True}
    else:
        closed = closed_form_basis(data, args.m)
        basis = closed.basis
        tag = {"source": "closed-form", "case": closed.case, "reduced": basis.is_reduced}
    if args.homogenize:
        degrees = member_degrees(data, args.m)
        reason = None if args.oracle else degree_refusal(degrees)
        if reason is not None:
            raise RefusalError(reason, {"m": args.m, "degrees": degrees})
        basis = homogenized(basis, degrees)
        tag["homogenized"] = True
    if args.format == "json":
        doc = {"tag": tag, "basis": basis.to_json()}
        print(to_canonical_json(doc), file=out)
    else:
        kind = "reduced Groebner basis" if tag["reduced"] else "Groebner basis"
        label = f"case {tag['case']}" if tag["case"] else "oracle"
        suffix = ", homogenized" if tag.get("homogenized") else ""
        print(f"{label} ({kind}, {len(basis)} elements{suffix})", file=out)
        _print_basis(basis, out)
    return EXIT_OK


def cmd_recover(args: argparse.Namespace, out) -> int:
    if not args.a:
        raise UsageError("recover requires --a")
    vec = _parse_a(args.a)
    hits = d_from_a_any_order(vec)
    if not hits:
        if args.format == "json":
            print(to_canonical_json({"solutions": []}), file=out)
        else:
            print(SKIP_FORM, file=out)
        raise RefusalError(SKIP_FORM, {"degrees": vec})
    if args.format == "json":
        doc = {
            "solutions": [
                {
                    "permutation": [i + 1 for i in perm],
                    "d": data.to_json(),
                    "a": list(a_from_d(data)),
                    "v": list(shift_vector(data)),
                    "generators": [b.to_json() for b in generators(data, 0)],
                }
                for perm, data in hits
            ]
        }
        print(to_canonical_json(doc), file=out)
    else:
        for perm, data in hits:
            if perm != (0, 1, 2, 3):
                print(f"permutation: {tuple(i + 1 for i in perm)}", file=out)
            print(" ".join(f"{k}={v}" for k, v in data.as_dict().items()), file=out)
            print(f"d1={data.d1} d2={data.d2} d3={data.d3} d4={data.d4}", file=out)
            print(f"a={','.join(str(x) for x in a_from_d(data))}", file=out)
            print(f"v={','.join(str(x) for x in shift_vector(data))}", file=out)
            print("generators:", file=out)
            for b in generators(data, 0):
                print(f"  {b}", file=out)
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out or sys.stdout
    try:
        args = _parser().parse_args(argv)
        _apply_env(args)
        return args.run(args, out)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RefusalError, StepBoundExceeded) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except (DisagreementError, AnomalyError) as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except Exception as exc:  # a bug; exit 1 would pass it off as a usage error
        print(f"internal error: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INCONSISTENT


def main_entry() -> None:
    # a closed stdout ends the process like any Unix filter, not as an internal error
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())
