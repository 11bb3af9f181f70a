"""Batch command-line front end.

Subcommands: ``formula`` (render a derivative formula), ``verify`` (run
invariant suites), ``eval`` (evaluate on a jet or built-in problem), and
``count`` (family sizes by stratum).  Exit codes: 0 success, 1 failed
verification, 2 invalid usage, 3 order above the cap, 4 singular jet,
5 unparseable input.  The order cap is set by ``--cap N`` (N >= 1,
default 12) and can never exceed the hard limit of 30; an order above
either exits 3.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .errors import (
    HARD_CAP,
    CapError,
    DomainError,
    JetError,
    SingularJetError,
    check_order,
)
from .formula import (
    delta_formula,
    elementary_formula,
    inverse_function_formula,
    render,
    specialize_fx_zero,
)
from .numeric import (
    PROBLEM_NAMES,
    builtin_problem,
    eval_formula,
    evaluate_problem,
    jet_from_json,
)
from .partitions import enumerate_A, enumerate_B
from .verification import SUITES, run_suites

DEFAULT_CAP = 12

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_OVER_CAP = 3
EXIT_SINGULAR = 4
EXIT_PARSE = 5


def _cap(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"cap must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="implicit-deriv",
        description="Exact higher derivatives of implicit functions",
    )
    parser.add_argument(
        "--cap",
        type=_cap,
        default=DEFAULT_CAP,
        help=f"order cap, at least 1 (default {DEFAULT_CAP}, never above {HARD_CAP})",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p_formula = commands.add_parser("formula", help="render a derivative formula")
    p_formula.add_argument("n", type=int, help="derivative order")
    p_formula.add_argument(
        "--form",
        choices=("delta", "elementary", "inverse", "fx0"),
        default="delta",
    )
    p_formula.add_argument(
        "--format", choices=("plain", "latex", "json"), default="plain"
    )

    p_verify = commands.add_parser("verify", help="run invariant suites")
    p_verify.add_argument("--max-n", type=int, default=8)
    p_verify.add_argument(
        "--suite", choices=tuple(SUITES) + ("all",), default="all"
    )

    p_eval = commands.add_parser("eval", help="evaluate a formula numerically")
    p_eval.add_argument("n", type=int, help="derivative order")
    source = p_eval.add_mutually_exclusive_group(required=True)
    source.add_argument("--jet", metavar="FILE", help="jet JSON file")
    source.add_argument("--problem", choices=PROBLEM_NAMES)
    p_eval.add_argument("--kind", choices=("rational", "float"), default=None)
    p_eval.add_argument(
        "--check-fd",
        action="store_true",
        help="also compare against finite differences (problems only)",
    )

    p_count = commands.add_parser("count", help="family sizes by stratum")
    p_count.add_argument("--family", choices=("A", "B"), required=True)
    p_count.add_argument("--max-n", type=int, required=True)

    return parser


def _scalar_json(value):
    if isinstance(value, Fraction):
        return str(value)
    return value


def _cmd_formula(args) -> int:
    if args.form == "delta":
        formula = delta_formula(args.n)
    elif args.form == "elementary":
        formula = elementary_formula(args.n)
    elif args.form == "inverse":
        formula = inverse_function_formula(args.n)
    else:
        formula = specialize_fx_zero(elementary_formula(args.n))
    print(render(formula, args.format))
    return EXIT_OK


def _cmd_verify(args) -> int:
    reports = run_suites([args.suite], args.max_n)
    failed = 0
    for report in reports:
        line = {
            "check": report.name,
            "passed": report.passed,
            "checked": report.checked,
            "failures": report.failures,
        }
        print(json.dumps(line))
        status = "ok" if report.passed else "FAIL"
        print(f"{status}: {report.name} ({report.checked} checks)", file=sys.stderr)
        failed += 0 if report.passed else 1
    summary = "all suites passed" if not failed else f"{failed} checks failed"
    print(summary, file=sys.stderr)
    return EXIT_OK if not failed else EXIT_VERIFY_FAILED


def _cmd_eval(args) -> int:
    check_order(args.n, 2)
    try:
        if args.problem:
            problem = builtin_problem(args.problem)
            if args.kind == "rational" and not problem.exact:
                print(f"problem {args.problem!r} has no exact jet", file=sys.stderr)
                return EXIT_USAGE
            report = evaluate_problem(
                problem, args.n, kind=args.kind, check_fd=args.check_fd
            )
            source = {"problem": args.problem}
        else:
            if args.check_fd:
                print("--check-fd needs --problem", file=sys.stderr)
                return EXIT_USAGE
            try:
                with open(args.jet, "r", encoding="utf-8") as handle:
                    jet = jet_from_json(handle.read())
            except SingularJetError:
                raise
            except (OSError, JetError) as exc:
                print(f"cannot read jet: {exc}", file=sys.stderr)
                return EXIT_PARSE
            report = eval_formula(delta_formula(args.n), jet)
            source = {"jet": args.jet}
    except SingularJetError as exc:
        print(f"singular jet: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except JetError as exc:
        print(f"bad jet: {exc}", file=sys.stderr)
        return EXIT_PARSE
    doc = {
        **source,
        "n": report.n,
        "form": "delta",
        "value": _scalar_json(report.value),
        "term_values": [_scalar_json(v) for v in report.term_values],
    }
    if report.analytic is not None:
        doc["analytic"] = _scalar_json(report.analytic)
        doc["rel_error_analytic"] = report.rel_error_analytic
    if report.fd is not None:
        doc["fd"] = report.fd
        doc["rel_error_fd"] = report.rel_error_fd
    print(json.dumps(doc))
    return EXIT_OK


def _cmd_count(args) -> int:
    enumerate_family = enumerate_A if args.family == "A" else enumerate_B
    start = 2 if args.family == "A" else 1
    print("family\tn\tstratum\tcount")
    for n in range(start, args.max_n + 1):
        members = enumerate_family(n)
        by_stratum: dict[int, int] = {}
        for element in members:
            by_stratum[element.total] = by_stratum.get(element.total, 0) + 1
        for stratum in sorted(by_stratum):
            print(f"{args.family}\t{n}\t{stratum}\t{by_stratum[stratum]}")
        print(f"{args.family}\t{n}\ttotal\t{len(members)}")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    order = args.max_n if args.command in ("verify", "count") else args.n
    cap = min(args.cap, HARD_CAP)
    try:
        if order > cap:
            raise CapError(f"order {order} exceeds cap {cap}")
        if args.command == "formula":
            return _cmd_formula(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "eval":
            return _cmd_eval(args)
        return _cmd_count(args)
    except CapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OVER_CAP
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
