"""Batch command-line front end.

Subcommands: ``formula`` (render a derivative formula), ``verify`` (run
invariant suites), ``eval`` (evaluate on a jet or built-in problem), and
``count`` (family sizes by stratum, read from a counting table; nothing
is enumerated).  Exit codes: 0 success, 1 failed
verification, 2 invalid usage (including a ``verify`` or ``count`` that
would check nothing, ``eval --check-fd`` above order 4, where finite
differences resolve nothing, and ``eval --jet`` with ``--kind``, since the
jet file names its own kind), 3 order above the cap, 4 singular jet, 5
unparseable, unreadable or unusable jet.  ``main`` maps each error to its
exit code by type.  The order cap is set by ``--cap N`` (N >= 1, default
12) and can never exceed the hard limit of 30; an order above either
exits 3.  So does a request whose formulas would hold more than
``TERM_BUDGET`` terms, predicted from the family sizes before anything
is built.

The argument parser is built once per process, by :func:`build_parser`
on the first call of ``main``, so a program that calls ``main`` many
times (the benchmark harness, the tests) pays for it once.  Nothing else
is kept between calls: every call reads its own family sizes and builds
its own formulas, tables and reports.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from functools import cache

from .errors import (
    HARD_CAP,
    CapError,
    DomainError,
    JetError,
    SingularJetError,
    check_order,
)
from .expressions import FORMATS, render
from .formula import (
    delta_formula,
    elementary_formula,
    fx_zero_formula,
    inverse_function_formula,
)
from .numeric import (
    PROBLEM_NAMES,
    builtin_problem,
    eval_formula,
    evaluate_problem,
    jet_from_json,
)
from .partitions import family_counts, family_sizes
from .verification import SUITES, run_suites

DEFAULT_CAP = 12

#: Most terms a command may build.  ``formula 24`` (391 409 terms) takes
#: 8.2 s and 230 MiB peak (Python 3.11, 2-CPU shared host), about 21 us
#: and 0.6 KiB per term, so a request at the budget needs about 10 s and
#: 300 MiB.  The lowest orders refused are ``formula 25`` (611 234 terms)
#: and ``formula 18 --form elementary`` (557 335).
TERM_BUDGET = 500_000

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_OVER_CAP = 3
EXIT_SINGULAR = 4
EXIT_PARSE = 5

#: Exit code and stderr prefix per error type, most specific first.
ERROR_EXITS = (
    (CapError, EXIT_OVER_CAP, "error"),
    (DomainError, EXIT_USAGE, "error"),
    (SingularJetError, EXIT_SINGULAR, "singular jet"),
    (JetError, EXIT_PARSE, "bad jet"),
)

#: Builder and the families bounding its terms (True for A), per ``--form``.
#: Each builder is looked up when called, so a rebound module global is
#: the one that runs.
FORMS = {
    "delta": (lambda n: delta_formula(n), (True,)),
    "elementary": (lambda n: elementary_formula(n), (False,)),
    "inverse": (lambda n: inverse_function_formula(n), ()),
    "fx0": (lambda n: fx_zero_formula(n), (True,)),
}

_INTEGER = re.compile(r"-?[0-9]+")


def _integer(text: str) -> int:
    """The command line's one integer rule: ASCII digits after an optional ``-``."""
    if not _INTEGER.fullmatch(text):
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="implicit-deriv",
        description="Exact higher derivatives of implicit functions",
    )
    parser.add_argument(
        "--cap",
        type=_integer,
        default=DEFAULT_CAP,
        help=f"order cap, at least 1 (default {DEFAULT_CAP}, never above {HARD_CAP})",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p_formula = commands.add_parser("formula", help="render a derivative formula")
    p_formula.add_argument("n", type=_integer, help="derivative order")
    p_formula.add_argument("--form", choices=FORMS, default="delta")
    p_formula.add_argument("--format", choices=FORMATS, default="plain")
    p_formula.set_defaults(
        run=_cmd_formula,
        families=lambda args: [(args.n, a) for a in FORMS[args.form][1]],
    )

    p_verify = commands.add_parser("verify", help="run invariant suites")
    p_verify.add_argument(
        "--max-n", dest="n", metavar="MAX_N", type=_integer, default=8
    )
    p_verify.add_argument("--suite", choices=tuple(SUITES) + ("all",), default="all")
    p_verify.set_defaults(
        run=_cmd_verify, families=lambda args: [(args.n + 1, True), (args.n, False)]
    )

    p_eval = commands.add_parser("eval", help="evaluate a formula numerically")
    p_eval.add_argument("n", type=_integer, help="derivative order")
    source = p_eval.add_mutually_exclusive_group(required=True)
    source.add_argument("--jet", metavar="FILE", help="jet JSON file")
    source.add_argument("--problem", choices=PROBLEM_NAMES)
    p_eval.add_argument("--kind", choices=("rational", "float"), default=None)
    p_eval.add_argument(
        "--check-fd",
        action="store_true",
        help="also compare against finite differences (problems only)",
    )
    p_eval.set_defaults(run=_cmd_eval, families=lambda args: [(args.n, True)])

    p_count = commands.add_parser("count", help="family sizes by stratum")
    p_count.add_argument("--family", choices=("A", "B"), required=True)
    p_count.add_argument(
        "--max-n", dest="n", metavar="MAX_N", type=_integer, required=True
    )
    p_count.set_defaults(run=_cmd_count, families=lambda args: [])

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use, not at import."""
    return build_parser()


def _scalar_json(value):
    if isinstance(value, Fraction):
        return str(value)
    return value


def _cmd_formula(args) -> int:
    build, _ = FORMS[args.form]
    print(render(build(args.n), args.format))
    return EXIT_OK


def _cmd_verify(args) -> int:
    reports = run_suites([args.suite], args.n)
    if not reports:
        raise DomainError(f"suite {args.suite!r} checks nothing up to order {args.n}")
    failed_reports = failed_checks = 0
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
        failed_reports += 0 if report.passed else 1
        failed_checks += len(report.failures)
    if failed_reports:
        summary = f"{failed_checks} checks failed in {failed_reports} reports"
    else:
        summary = "all suites passed"
    print(summary, file=sys.stderr)
    return EXIT_OK if not failed_reports else EXIT_VERIFY_FAILED


def _cmd_eval(args) -> int:
    check_order(args.n, 2)
    if args.problem:
        problem = builtin_problem(args.problem)
        if args.kind == "rational" and not problem.exact:
            raise DomainError(f"problem {args.problem!r} has no exact jet")
        report = evaluate_problem(
            problem, args.n, kind=args.kind, check_fd=args.check_fd
        )
        source = {"problem": args.problem}
    else:
        if args.check_fd:
            raise DomainError("--check-fd needs --problem")
        if args.kind is not None:
            raise DomainError("--kind needs --problem; a jet file names its own kind")
        try:
            with open(args.jet, "r", encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise JetError(f"cannot read jet: {exc}") from exc
        jet = jet_from_json(text)
        report = eval_formula(delta_formula(args.n), jet)
        source = {"jet": args.jet}
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
    counts = family_counts(args.n, args.family == "A")
    print("family\tn\tstratum\tcount")
    for n, strata in counts.items():
        for stratum, count in strata:
            print(f"{args.family}\t{n}\t{stratum}\t{count}")
        print(f"{args.family}\t{n}\ttotal\t{sum(c for _, c in strata)}")
    return EXIT_OK


def _predicted_terms(args) -> int:
    """Terms in the largest formulas the command builds, read from the family sizes.

    Block and f_x = 0 forms have one term per family-A element, the
    expanded form one per family-B element.  ``verify`` builds the
    compact form at ``max_n + 1`` (the recursion suite's last step) and
    the expanded form at ``max_n``.  Orders outside a family's range,
    below its start or above ``HARD_CAP``, count 0 and are left to the
    command's own checks; ``inverse`` and ``count`` build no such family.
    All sizes come from one counting table, at the largest order counted.
    """
    return sum(
        family_sizes(
            (n, family_a)
            for n, family_a in args.families(args)
            if (2 if family_a else 1) <= n <= HARD_CAP
        )
    )


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.cap < 1:
        parser.error(f"cap must be at least 1, got {args.cap}")
    cap = min(args.cap, HARD_CAP)
    try:
        if args.n > cap:
            raise CapError(f"order {args.n} exceeds cap {cap}")
        terms = _predicted_terms(args)
        if terms > TERM_BUDGET:
            raise CapError(
                f"order {args.n} needs {terms} terms, above the budget of"
                f" {TERM_BUDGET}"
            )
        return args.run(args)
    except (DomainError, JetError) as exc:
        for kind, code, prefix in ERROR_EXITS:
            if isinstance(exc, kind):
                print(f"{prefix}: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
