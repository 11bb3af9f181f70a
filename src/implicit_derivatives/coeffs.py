"""Exact combinatorial coefficients attached to the partition families.

Every element of family A carries the positive integer

    C(alpha) = (sum l*m)! (sum r*m)! / prod l!^m r!^m m!

which counts the ways to distribute n marked "x-slots" and h-1 marked
"y-slots" into h unlabeled boxes with the prescribed box profile; the
derivative formula uses it with the sign (-1)^h.  Family B carries the
analogous D(gamma) over keys (p, t).  Both quotients are exact integers;
each is computed as one quotient of integers whose remainder is
asserted zero, rather than by incremental division, so any bookkeeping
slip trips an error instead of silently truncating.

The module also houses the order-to-order recursion that rebuilds C
from predecessor elements, and the refinement sums tying the two
coefficient families together.  :func:`zgamma_sum` returns the sums for
every split at once: the weight of a refinement system is a product over
the keys, so the sum over all systems is a product of one integer
polynomial per key.  Each key's polynomial is summed by brute force over
its weak compositions, never taken from a closed form, and the keys'
polynomials are convolved; the binomial identity is then a check on the
result, not an ingredient of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .errors import DomainError, check_order
from .keys import BELOW_ORDER_TWO, F_AND_FY, check_keys
from .partitions import (
    Multiplicities,
    _check_multiplicities,
    _compositions,
    predecessor_records,
)


def binom(a: int, b: int) -> int:
    """Binomial coefficient, 0 outside the range 0 <= b <= a."""
    if b < 0 or b > a or a < 0:
        return 0
    return math.comb(a, b)


def _box_weight(key, count: int) -> int:
    """(l! r!)^count count!: what ``count`` boxes of profile key = (l, r) divide by."""
    l, r = key
    factorial = math.factorial
    return (factorial(l) * factorial(r)) ** count * factorial(count)


def _slot_orders(sum_l: int, sum_r: int) -> int:
    """sum_l! sum_r!: the numerator of every box count with those slot sums."""
    return math.factorial(sum_l) * math.factorial(sum_r)


def _balls_in_boxes(entries, slots: int, weights: dict | None = None) -> int:
    """``slots`` / prod l!^m r!^m m! over the (key, m) ``entries``.

    ``slots`` is :func:`_slot_orders` of the entries' sums, which a caller
    computes once for all the elements sharing them.  ``weights`` maps
    (key, m) entries to their :func:`_box_weight` and is filled as entries
    come; a caller computing many coefficients hands in one table, so each
    distinct entry is weighed once.
    """
    if weights is None:
        weights = {}
    den = 1
    for entry in entries:
        weight = weights.get(entry)
        if weight is None:
            weight = weights[entry] = _box_weight(*entry)
        den *= weight
    value, rest = divmod(slots, den)
    if rest:
        raise ArithmeticError(f"coefficient for {entries} is not integral: {slots}/{den}")
    return value


def coeff_C(alpha: Multiplicities) -> int:
    """The box-counting coefficient of a family-A element."""
    _check_multiplicities(alpha)
    check_keys(alpha.entries, BELOW_ORDER_TWO, DomainError)
    return _balls_in_boxes(alpha.entries, _slot_orders(alpha.sum_l, alpha.sum_r))


def coeff_D(gamma: Multiplicities) -> int:
    """The box-counting coefficient of a family-B element; (1, 0) is allowed."""
    _check_multiplicities(gamma)
    check_keys(gamma.entries, F_AND_FY, DomainError)
    return _balls_in_boxes(gamma.entries, _slot_orders(gamma.sum_l, gamma.sum_r))


def _sign(alpha: Multiplicities) -> int:
    """(-1)^h, the sign C(alpha) carries in the derivative formula."""
    return -1 if alpha.total % 2 else 1


def signed_coeff(alpha: Multiplicities) -> int:
    """C(alpha) with the sign (-1)^h it carries in the derivative formula."""
    _check_multiplicities(alpha)
    return _sign(alpha) * coeff_C(alpha)


def _key_polynomial(t: int, count: int) -> list[int]:
    """Refinement sum of one key (p, t) with multiplicity ``count``, by splits.

    Brute force over the weak compositions (q_0, ..., q_t) of ``count``:
    each adds count! * prod_j binom(t, j)^q_j / q_j! to the coefficient of
    z^(sum j * q_j).  Entry i of the result is that coefficient.
    """
    poly = [0] * (t * count + 1)
    choices = [binom(t, j) for j in range(t + 1)]
    for comp in _compositions(count, t + 1):
        num, den, degree = math.factorial(count), 1, 0
        for j, q in enumerate(comp):
            num *= choices[j] ** q
            den *= math.factorial(q)
            degree += j * q
        value, rest = divmod(num, den)
        if rest:
            raise ArithmeticError(f"refinement weight of {comp} is not integral")
        poly[degree] += value
    return poly


def zgamma_sum(gamma: Multiplicities, polys: dict | None = None) -> tuple[int, ...]:
    """Weighted sums over the refinement systems of ``gamma``, for every split.

    A system picks, for every key (p, t) of ``gamma`` with count s, a
    weak composition (q_0, ..., q_t) of s.  It contributes
    prod s! * prod_j binom(t, j)^q_j / q_j!, over all keys and j, to the
    split s10 = sum j * q_j, again over all keys and j.  The weight is a
    product over the keys, so the sum over all systems is the product of
    one polynomial in z per key (:func:`_key_polynomial`, itself a
    brute-force sum); the product is taken by convolution.  Entry s10 of
    the returned row, of length ``gamma.sum_r + 1``, is the coefficient
    of z^s10.  The row is asserted elsewhere (and verified by the
    test-suite) to be the binomials binom(sum t*s, s10).

    ``polys`` maps (t, count) to its key polynomial and is filled as keys
    come; a caller summing over many elements hands in one table, so each
    distinct polynomial is built once.
    """
    _check_multiplicities(gamma)
    if polys is None:
        polys = {}
    row = [1]
    for key, count in check_keys(gamma.entries, BELOW_ORDER_TWO, DomainError):
        poly = polys.get((key.r, count))
        if poly is None:
            poly = polys[key.r, count] = _key_polynomial(key.r, count)
        product = [0] * (len(row) + len(poly) - 1)
        for i, a in enumerate(row):
            for j, b in enumerate(poly):
                product[i + j] += a * b
        row = product
    return tuple(row)


@dataclass
class CheckReport:
    """Outcome of one verification run: a counter plus collected failures."""

    name: str
    checked: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, ok: bool, message: Callable[[], str]) -> None:
        """Count one check; on failure, keep the text ``message()`` makes.

        The text is made only for a failing check, so passing checks cost
        no formatting.
        """
        self.checked += 1
        if not ok:
            self.failures.append(message())

    def __bool__(self) -> bool:
        return self.passed


def verify_C_recursion(n: int, records: list | None = None) -> CheckReport:
    """Rebuild every order-(n+1) coefficient from order-n ones and compare.

    Checks both the unsigned statement (all three contribution kinds
    enter with +) and the signed statement (the "b" and "d" kinds enter
    with an overall minus) against the directly computed values.  Each
    predecessor's C is computed once per call; its signed value is C
    times (-1)^h.  ``records`` is
    :func:`~implicit_derivatives.partitions.predecessor_records` at
    order n + 1, made here when not handed in.
    """
    check_order(n, 2)
    if records is None:
        records = predecessor_records(n + 1)
    report = CheckReport(f"C-recursion {n}->{n + 1}")
    table = {}  # order-n element -> C, filled as predecessors come
    for beta, preds in records:
        unsigned = signed = 0
        for rec in preds:
            alpha = rec.predecessor
            value = table.get(alpha)
            if value is None:
                value = table[alpha] = coeff_C(alpha)
            unsigned += rec.weight * value
            signed += rec.signed_weight * _sign(alpha) * value
        want = coeff_C(beta)
        signed_want = _sign(beta) * want
        report.record(
            unsigned == want,
            lambda: f"unsigned recursion at {beta}: got {unsigned}, want {want}",
        )
        report.record(
            signed == signed_want,
            lambda: f"signed recursion at {beta}: got {signed}, want {signed_want}",
        )
    return report
