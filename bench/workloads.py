"""The benchmark's three workloads: op spaces, seeded op sequences, checks.

Every op is one call into a public entry point of the package:
``cli.main(argv)`` with stdout captured (``build``, ``verify``) or
``numeric.eval_formula(formula, jet)`` (``eval``).  A workload runs in
passes; each pass is a fixed op sequence drawn from the seed and the
pass index, so the same seed always gives the same inputs.

* ``build`` runs every argv of the formula/count space once per pass, in
  seeded order.  Its time goes to partitions, coeffs and expressions;
  numeric, oracle and verification do nothing.
* ``eval`` evaluates prebuilt block formulas of orders 8..14 on seeded
  rational and binary64 jets plus the built-in problem jets, with the
  orders interleaved.  Its time goes to numeric; partitions does nothing
  inside the loop.
* ``verify`` runs the four verify suites at max-n 7, 8 and 9 in seeded
  order.  It is the only workload that reaches the oracle, the
  recursion and expansion routes and the refinement sums.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import series_ref

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

BUILD_CAP = "16"
EVAL_ORDERS = tuple(range(8, 15))
EVAL_JET_ORDER = max(EVAL_ORDERS)
VERIFY_SUITES = ("recursion", "oracle", "johnson", "shift")
VERIFY_MAX_N = (7, 8, 9)

# Float results must lie within FLOAT_BOUND * sum|term_i| * 2**-52 of the
# exact value of the same jet.  The largest ratio seen on seeded jets of
# orders 8..14 was about 3, so 64 leaves a wide margin while a relative
# error of 2**-20 in the value still fails.
FLOAT_BOUND = 64


def build_argvs() -> list[list[str]]:
    """Every argv of the ``build`` op space."""
    argvs = []
    for n in range(8, 17):
        for fmt in ("plain", "latex", "json"):
            argvs.append(["formula", str(n), "--form", "delta", "--format", fmt])
    for form in ("elementary", "fx0", "inverse"):
        for n in range(6, 13):
            for fmt in ("plain", "latex", "json"):
                argvs.append(["formula", str(n), "--form", form, "--format", fmt])
    for m in range(2, 15):
        argvs.append(["count", "--family", "A", "--max-n", str(m)])
    for m in range(1, 13):
        argvs.append(["count", "--family", "B", "--max-n", str(m)])
    return [["--cap", BUILD_CAP] + argv for argv in argvs]


def verify_argvs() -> list[list[str]]:
    """Every argv of the ``verify`` op space."""
    return [
        ["verify", "--suite", suite, "--max-n", str(n)]
        for suite in VERIFY_SUITES
        for n in VERIFY_MAX_N
    ]


def argv_key(argv: list[str]) -> str:
    return " ".join(argv)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    """Call ``cli.main(argv)`` in process; return (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def verify_checked(stdout: str) -> list[list]:
    """(check name, checked count) per report line; None if any check failed."""
    rows = []
    for line in stdout.splitlines():
        doc = json.loads(line)
        if not doc["passed"]:
            return None
        rows.append([doc["check"], doc["checked"]])
    return rows


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@dataclass
class Op:
    """One timed call.  ``kind`` splits latencies (eval: jet kind)."""

    label: str
    kind: str
    call: Callable[[], object]
    meta: dict = field(default_factory=dict)


class CliWorkload:
    """Shared shape of ``build`` and ``verify``: seeded orders of fixed argvs."""

    name = ""

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.smoke = smoke
        self.expected: dict = {}
        self.mods = None

    def prepare(self, mods) -> None:
        self.mods = mods
        self.expected = dict(load_golden()[self.name])

    def argvs(self) -> list[list[str]]:
        raise NotImplementedError

    def ops(self, pass_index: int) -> list[Op]:
        argvs = self.argvs()
        random.Random(f"{self.name}:{self.seed}:{pass_index}").shuffle(argvs)
        mods = self.mods
        # cli.main is looked up at call time so the tracer's patch applies
        return [
            Op(argv_key(argv), self.name, lambda argv=argv: run_cli(mods.cli, argv))
            for argv in argvs
        ]

    def inject_fault(self) -> None:
        key = argv_key(self.argvs()[0])
        self.expected[key] = "corrupted"

    def finish(self) -> list[str]:
        return []


class BuildWorkload(CliWorkload):
    name = "build"

    def argvs(self) -> list[list[str]]:
        argvs = build_argvs()
        if self.smoke:  # formulas of order 6 or 8, counts up to 6 or 8
            argvs = [a for a in argvs if {a[3], a[-1]} & {"6", "8"}]
        return argvs

    def check(self, op: Op, result) -> bool:
        code, stdout = result
        return code == 0 and digest(stdout) == self.expected.get(op.label)


class VerifyWorkload(CliWorkload):
    name = "verify"

    def argvs(self) -> list[list[str]]:
        argvs = verify_argvs()
        if self.smoke:
            argvs = [a for a in argvs if a[-1] == "7"]
        return argvs

    def check(self, op: Op, result) -> bool:
        code, stdout = result
        return code == 0 and verify_checked(stdout) == self.expected.get(op.label)


def _rational_jet(mods, rng: random.Random, wide: bool):
    def scalar(nonzero: bool = False) -> Fraction:
        while True:
            if wide:
                value = Fraction(rng.randint(-(2**31), 2**31), rng.randint(1, 2**31))
            else:
                value = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            if value or not nonzero:
                return value

    order = EVAL_JET_ORDER
    partials = {
        (p, t): scalar() for p in range(order + 1) for t in range(order + 1 - p)
    }
    partials[(0, 0)] = Fraction(0)
    partials[(0, 1)] = scalar(nonzero=True)
    return mods.numeric.Jet(
        x0=scalar(), y0=scalar(), order=order, partials=partials, kind="rational"
    )


def _float_jet(mods, jet):
    return mods.numeric.Jet(
        x0=float(jet.x0),
        y0=float(jet.y0),
        order=jet.order,
        partials={key: float(v) for key, v in jet.partials.items()},
        kind="float",
    )


class EvalWorkload:
    """Prebuilt block formulas evaluated on seeded jets, checked afterwards.

    Each pass draws one small-entry and one wide-entry rational jet and
    their binary64 copies, and adds the exact ``circle``, ``exp`` and
    ``cubic`` jets and the float ``lambert`` jet.  Every jet is evaluated
    at every order, in one shuffled sequence.
    """

    name = "eval"
    PROBLEMS_EXACT = ("circle", "exp", "cubic")

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.smoke = smoke
        self.orders = EVAL_ORDERS[:2] if smoke else EVAL_ORDERS
        self.formulas: dict = {}
        self.problem_jets: list = []
        self.jets: dict = {}  # jet id -> (jet, analytic function or None)
        self.results: list = []  # (op label, jet id, n, value, sum |term|)
        self.corrupt_next = False
        self.mods = None

    def prepare(self, mods) -> None:
        self.mods = mods
        self.formulas = {n: mods.formula.delta_formula(n) for n in self.orders}
        problems = [mods.numeric.builtin_problem(p) for p in self.PROBLEMS_EXACT]
        self.problem_jets = [(p.name, p.jet(EVAL_JET_ORDER), p.analytic) for p in problems]
        self.problem_jets.append(
            ("lambert", mods.numeric.builtin_problem("lambert").jet(EVAL_JET_ORDER), None)
        )

    def ops(self, pass_index: int) -> list[Op]:
        rng = random.Random(f"eval:{self.seed}:{pass_index}")
        drawn = []
        for label, wide in (("small", False), ("wide", True)):
            jet = _rational_jet(self.mods, rng, wide)
            drawn.append((label, jet, None))
            drawn.append((label + "-f64", _float_jet(self.mods, jet), None))
        ops = []
        for label, jet, analytic in drawn + self.problem_jets:
            jet_id = f"p{pass_index}:{label}"
            self.jets[jet_id] = (jet, analytic)
            for n in self.orders:
                ops.append(
                    Op(
                        f"eval n={n} jet={jet_id}",
                        jet.kind,
                        lambda n=n, jet=jet: self.mods.numeric.eval_formula(
                            self.formulas[n], jet
                        ),
                        {"jet": jet_id, "n": n},
                    )
                )
        rng.shuffle(ops)
        return ops

    def inject_fault(self) -> None:
        self.corrupt_next = True

    def check(self, op: Op, result):
        value = result.value
        if self.corrupt_next:
            self.corrupt_next = False
            value = value * (1 + Fraction(1, 2**20)) + 1
        # sum |term_i| scales the float error bound; exact results need none
        magnitude = math.fsum(map(abs, result.term_values)) if op.kind == "float" else 0.0
        self.results.append((op.label, op.meta["jet"], op.meta["n"], value, magnitude))
        return None  # checked in finish(), against the series reference

    def finish(self) -> list[str]:
        """Labels of eval ops whose value disagrees with the exact reference."""
        reference = {}
        for jet_id, (jet, analytic) in self.jets.items():
            exact = {key: Fraction(v) for key, v in jet.partials.items()}
            reference[jet_id] = series_ref.derivatives(exact, max(self.orders))
        failed = []
        ulp = Fraction(1, 2**52)
        for label, jet_id, n, value, magnitude in self.results:
            jet, analytic = self.jets[jet_id]
            exact = reference[jet_id][n]
            if jet.kind == "rational":
                ok = isinstance(value, Fraction) and value == exact
            else:
                ok = isinstance(value, float) and math.isfinite(value) and (
                    abs(Fraction(value) - exact) <= FLOAT_BOUND * Fraction(magnitude) * ulp
                )
            if analytic is not None:
                ok = ok and value == analytic(n) == exact
            if not ok:
                failed.append(label)
        return failed


WORKLOADS = {"build": BuildWorkload, "eval": EvalWorkload, "verify": VerifyWorkload}
