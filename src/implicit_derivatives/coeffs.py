"""Exact combinatorial coefficients attached to the partition families.

Every element of family A carries the positive integer

    C(alpha) = (sum l*m)! (sum r*m)! / prod l!^m r!^m m!

which counts the ways to distribute n marked "x-slots" and h-1 marked
"y-slots" into h unlabeled boxes with the prescribed box profile; the
derivative formula uses it with the sign (-1)^h.  Family B carries the
analogous D(gamma) over keys (p, t).  Both quotients are exact integers;
they are computed as rationals and asserted integral rather than by
incremental division, so any bookkeeping slip trips an error instead of
silently truncating.

The module also houses two verifiers: the order-to-order recursion that
rebuilds C from predecessor elements, and the binomial identity for the
refinement sums tying the two coefficient families together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError
from .partitions import Multiplicities, enumerate_A, enumerate_Z, predecessors


def binom(a: int, b: int) -> int:
    """Binomial coefficient, 0 outside the range 0 <= b <= a."""
    if b < 0 or b > a or a < 0:
        return 0
    return math.comb(a, b)


class SignedCoefficient(NamedTuple):
    sign: int
    magnitude: int

    @property
    def value(self) -> int:
        return self.sign * self.magnitude


def _balls_in_boxes(mults: Multiplicities) -> int:
    num = math.factorial(mults.sum_l) * math.factorial(mults.sum_r)
    den = 1
    for key, count in mults.items():
        den *= (math.factorial(key.l) * math.factorial(key.r)) ** count
        den *= math.factorial(count)
    value = Fraction(num, den)
    if value.denominator != 1:
        raise ArithmeticError(f"coefficient for {mults} is not integral: {value}")
    return int(value)


def coeff_C(alpha: Multiplicities) -> int:
    """The box-counting coefficient of a family-A element."""
    for key, _ in alpha.items():
        if key.l + key.r < 2:
            raise DomainError(f"key {tuple(key)} not allowed in family A")
    return _balls_in_boxes(alpha)


def coeff_D(gamma: Multiplicities) -> int:
    """The box-counting coefficient of a family-B element; (1, 0) is allowed."""
    for key, _ in gamma.items():
        if key.l + key.r < 2 and key != (1, 0):
            raise DomainError(f"key {tuple(key)} not allowed in family B")
    return _balls_in_boxes(gamma)


def signed_coeff(alpha: Multiplicities) -> SignedCoefficient:
    """C(alpha) with the sign (-1)^h it carries in the derivative formula."""
    sign = -1 if alpha.total % 2 else 1
    return SignedCoefficient(sign, coeff_C(alpha))


def zgamma_sum(gamma: Multiplicities, s10: int) -> Fraction:
    """Weighted sum over the refinement systems of ``gamma``.

    Each system contributes prod s! * prod_j binom(t, j)^q / q!.  The
    total is asserted elsewhere (and verified by the test-suite) to be
    the single binomial binom(sum t*s, s10).
    """
    total = Fraction(0)
    base = Fraction(1)
    for _, count in gamma.items():
        base *= math.factorial(count)
    for system in enumerate_Z(gamma, s10):
        term = base
        for (_, t, j), q in system.items():
            term *= Fraction(binom(t, j) ** q, math.factorial(q))
        total += term
    return total


@dataclass
class CheckReport:
    """Outcome of one verification run: a counter plus collected failures."""

    name: str
    checked: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, ok: bool, message: str) -> None:
        self.checked += 1
        if not ok:
            self.failures.append(message)

    def __bool__(self) -> bool:
        return self.passed


def _recursion_weight(record, beta: Multiplicities) -> int:
    """Multiplier of the predecessor coefficient in the C-recursion."""
    if record.kind == "minus":
        key = record.pivot
        return beta.get((key.l - 1, key.r)) + 1
    if record.kind == "b":
        key = record.pivot
        return (key.l + 1) * (beta.get((key.l + 1, key.r - 1)) + 1)
    return beta.sum_r + 2 * beta.get((2, 0))


def signed_recursion_weight(record, beta: Multiplicities) -> int:
    """Multiplier of the predecessor's signed coefficient in the signed C-recursion.

    "minus" records enter with +, "b" and "d" records with -.
    """
    weight = _recursion_weight(record, beta)
    return weight if record.kind == "minus" else -weight


def verify_C_recursion(n: int) -> CheckReport:
    """Rebuild every order-(n+1) coefficient from order-n ones and compare.

    Checks both the unsigned statement (all three contribution kinds
    enter with +) and the signed statement (the "b" and "d" kinds enter
    with an overall minus) against the directly computed values.
    """
    if n < 2:
        raise DomainError("recursion check starts at order 2")
    report = CheckReport(f"C-recursion {n}->{n + 1}")
    for beta in enumerate_A(n + 1):
        records = predecessors(beta, n + 1)
        unsigned = sum(
            _recursion_weight(rec, beta) * coeff_C(rec.predecessor)
            for rec in records
        )
        signed = sum(
            signed_recursion_weight(rec, beta) * signed_coeff(rec.predecessor).value
            for rec in records
        )
        report.record(
            unsigned == coeff_C(beta),
            f"unsigned recursion at {beta}: got {unsigned}, want {coeff_C(beta)}",
        )
        report.record(
            signed == signed_coeff(beta).value,
            f"signed recursion at {beta}: got {signed}, "
            f"want {signed_coeff(beta).value}",
        )
    return report
