"""Invariant suites exercising every identity the formulas rest on.

Four suites are exposed, mirroring the four independent routes through
the mathematics:

* ``recursion``: the coefficient recursion reproduces the directly
  computed coefficients, and both the differentiation step and the
  recursion-built formula reproduce the direct construction.
* ``oracle``: block expansion, the direct expanded form, and the
  brute-force differentiation oracle agree exactly, order by order; the
  oracle differentiates one integer chain from y' once per order, and
  the expanded form is compared with it in the oracle's packed form
  (:func:`~implicit_derivatives.oracle.pack_formula`), converted to an
  elementary formula only for the failure text of an order that
  disagrees.
* ``johnson``: the refinement sums collapse to single binomials for
  every family-B element and every admissible split; one call of
  :func:`~implicit_derivatives.coeffs.zgamma_sum` per element gives the
  sums of all its splits, and one table per suite call builds each key
  polynomial once.
* ``shift``: evaluating the f_x = 0 specialization on the sheared jet
  equals evaluating the compact formula on the original jet, exactly,
  on batches of random rational jets.

Each check returns a :class:`~implicit_derivatives.coeffs.CheckReport`;
a suite passes when every report carries no failures.  Checks hand the
report their failure text as a callable, called only when they fail.
Every suite takes an optional :class:`FormulaTable`; :func:`run_suites`
hands one table to all the suites of a call, so each formula is built
once per call.
"""

from __future__ import annotations

from functools import cache

from .coeffs import CheckReport, binom, verify_C_recursion, zgamma_sum
from .errors import DomainError
from .formula import (
    delta_formula,
    delta_formula_via_recursion,
    derive_next,
    elementary_formula,
    expand_delta,
    recursion_step,
    specialize_fx_zero,
)
from .keys import check_int
from .numeric import eval_formula, random_rational_jet, shift_jet
from .oracle import (
    as_elementary,
    first_derivative,
    formulas_equal,
    pack_formula,
    total_derivative,
)
from .partitions import Multiplicities, enumerate_B, predecessor_records

JETS_PER_ORDER = 50
SHIFT_SEED_BASE = 20_000


class FormulaTable:
    """Compact and expanded forms by order, each built once per table.

    Lives for one :func:`run_suites` call; nothing is kept across calls.
    """

    def __init__(self) -> None:
        # the module's builders as bound now, so a rebound global is the one used
        self.delta = cache(delta_formula)
        self.elementary = cache(elementary_formula)


def recursion_suite(
    max_n: int, formulas: FormulaTable | None = None
) -> list[CheckReport]:
    """Coefficient recursion and differentiation step versus direct construction.

    Both stepped routes carry their formula forward, one step per order,
    and share one pass of predecessor records per order with the
    coefficient check.
    """
    check_int(max_n, DomainError, "max_n")
    if formulas is None:
        formulas = FormulaTable()
    reports = []
    previous = formulas.delta(2)
    rebuilt = delta_formula_via_recursion(2)
    for n in range(2, max_n + 1):
        records = predecessor_records(n + 1)
        reports.append(verify_C_recursion(n, records))
        report = CheckReport(f"order step {n}->{n + 1}")
        direct = formulas.delta(n + 1)
        stepped = derive_next(previous)
        rebuilt = recursion_step(rebuilt, records)
        report.record(
            stepped == direct,
            lambda: "differentiation step disagrees with direct construction"
            f" at {n + 1}",
        )
        report.record(
            rebuilt == direct,
            lambda: "coefficient recursion disagrees with direct construction"
            f" at {n + 1}",
        )
        reports.append(report)
        previous = direct
    return reports


def oracle_suite(
    max_n: int, formulas: FormulaTable | None = None
) -> list[CheckReport]:
    """Triple agreement of expansion, direct expanded form, and the oracle.

    The oracle's chain is carried forward, one differentiation per order,
    and compared in its packed form with the packed expanded form.
    """
    check_int(max_n, DomainError, "max_n")
    if formulas is None:
        formulas = FormulaTable()
    reports = []
    chain = first_derivative()
    for n in range(1, max_n + 1):
        report = CheckReport(f"forms agree at order {n}")
        elementary = formulas.elementary(n)
        report.record(
            pack_formula(elementary) == chain,
            lambda: f"expanded form vs oracle at {n}: "
            + "; ".join(
                formulas_equal(elementary, as_elementary(n, chain)).differences[:3]
            ),
        )
        # advance before the expansion, and drop the chain at max_n: the
        # expression held through expand_delta would raise peak memory
        chain = total_derivative(chain) if n < max_n else None
        if n >= 2:
            diff = formulas_equal(expand_delta(formulas.delta(n)), elementary)
            report.record(
                diff.equal,
                lambda: f"block expansion vs expanded form at {n}: "
                + "; ".join(diff.differences[:3]),
            )
        reports.append(report)
    return reports


def johnson_suite(
    max_n: int, formulas: FormulaTable | None = None
) -> list[CheckReport]:
    """Refinement sums equal binomials for every element and admissible split.

    Builds no formula, so ``formulas`` is not consulted.
    """
    check_int(max_n, DomainError, "max_n")
    reports = []
    polys: dict = {}
    for n in range(1, max_n + 1):
        report = CheckReport(f"refinement binomial at order {n}")
        for gamma in enumerate_B(n):
            # dropping a key keeps the element's entries canonical
            core = Multiplicities._trusted(
                tuple(item for item in gamma.entries if item[0] != (1, 0))
            )
            top = core.sum_r
            row = zgamma_sum(core, polys)
            for s10 in range(top + 1):
                value = row[s10]
                expected = binom(top, s10)
                report.record(
                    value == expected,
                    lambda: f"gamma {gamma}, split {s10}: "
                    f"got {value}, want {expected}",
                )
        reports.append(report)
    return reports


def shift_suite(
    max_n: int, formulas: FormulaTable | None = None
) -> list[CheckReport]:
    """Sheared-jet evaluation of the specialized formula vs the compact formula."""
    check_int(max_n, DomainError, "max_n")
    if formulas is None:
        formulas = FormulaTable()
    reports = []
    for n in range(2, max_n + 1):
        report = CheckReport(f"shear identity at order {n}")
        compact = formulas.delta(n)
        specialized = specialize_fx_zero(formulas.elementary(n))
        for i in range(JETS_PER_ORDER):
            seed = SHIFT_SEED_BASE + 100 * n + i
            jet = random_rational_jet(n, seed=seed)
            expected = eval_formula(compact, jet).value
            sheared = eval_formula(specialized, shift_jet(jet, n)).value
            report.record(
                sheared == expected,
                lambda: f"jet seed {seed}: {sheared} vs {expected}",
            )
        reports.append(report)
    return reports


SUITES = {
    "recursion": recursion_suite,
    "oracle": oracle_suite,
    "johnson": johnson_suite,
    "shift": shift_suite,
}


def run_suites(names, max_n: int) -> list[CheckReport]:
    """Run the named suites (or all of them) up to the given order.

    The suites share one :class:`FormulaTable`, made for this call.
    """
    try:
        names = iter(names)
    except TypeError as exc:
        raise DomainError(f"expected suite names, got {type(names).__name__}") from exc
    chosen = []
    for name in names:
        if name == "all":
            chosen = list(SUITES)
            break
        if not isinstance(name, str) or name not in SUITES:
            raise DomainError(f"unknown suite {name!r}")
        chosen.append(name)
    formulas = FormulaTable()
    reports = []
    for name in chosen:
        reports.extend(SUITES[name](max_n, formulas))
    return reports
