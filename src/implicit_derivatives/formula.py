"""Construction and transformation of the derivative formulas.

The compact form of the order-n derivative has one term per family-A
element alpha: coefficient (-1)^h C(alpha) and monomial

    prod D[l,r]^m[l,r] / f_y^(n+h),        h = sum m[l,r].

The expanded form has one term per family-B element gamma: coefficient
(-1)^k D(gamma) and monomial prod f_{x^p y^t}^s[p,t] / f_y^k with
k = sum s[p,t].  Three independent routes connect the orders and the two
forms, and all are exposed here so they can be checked against each
other: the direct constructions above, the differentiation step
:func:`derive_next`, the coefficient recursion
:func:`delta_formula_via_recursion`, and the block expansion
:func:`expand_delta`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain

from .coeffs import _balls_in_boxes, binom, signed_recursion_weight
from .errors import DomainError, FormulaError, check_order
from .expressions import DeltaFormula, DeltaMonomial, ElemFormula, ElemMonomial
from .keys import VectorKey, check_int, merge_entries
from .partitions import (
    Multiplicities,
    _family,
    _integer_partitions,
    is_member_A,
    predecessor_records,
    successor_advance,
    successor_mixed,
    successor_trade,
)


def _family_terms(n: int, monomial, fy_offset: int, family_a: bool) -> tuple:
    """One term per element of family A or B at order n, in canonical order.

    An element with count sum ``total`` has sum l * m = n and
    sum r * m = total - 1, so its coefficient is (-1)^total times the box
    count of those sums; its monomial has the element's entries over
    f_y^(fy_offset + total).  The family comes sorted by (total, entries),
    which is the monomials' canonical order.
    """
    weights: dict = {}  # (key, count) -> box weight, filled by this call
    terms = []
    for total, entries in _family(n, family_a):
        value = _balls_in_boxes(entries, n, total - 1, weights)
        coeff = Fraction(-value if total % 2 else value)
        terms.append((coeff, monomial(entries, fy_offset + total)))
    return tuple(terms)


def delta_formula(n: int) -> DeltaFormula:
    """The order-n derivative in compact block form, one term per family-A element."""
    check_order(n, 2)
    return DeltaFormula(n, _family_terms(n, DeltaMonomial, n, family_a=True))


def _block_terms(formula: DeltaFormula, caller: str) -> dict[Multiplicities, Fraction]:
    """The coefficients of a compact form by family-A element, each term checked."""
    if not isinstance(formula, DeltaFormula):
        raise FormulaError(f"{caller} expects the compact block form")
    n = formula.n
    table = {}
    for coeff, mono in formula.terms:
        alpha = Multiplicities(mono.factors)
        if not is_member_A(alpha, n) or mono.fy_power != n + alpha.total:
            raise FormulaError(f"term {mono} is not a valid order-{n} block term")
        table[alpha] = coeff
    return table


def derive_next(formula: DeltaFormula) -> DeltaFormula:
    """Differentiate the compact form once, producing the next order.

    Works term by term at the cleared-denominator level f_y^(2n-1),
    through the successor moves of :mod:`~implicit_derivatives.partitions`:
    differentiating a block advances it (:func:`successor_advance`), or
    makes a mixed (1, 1) block appear (:func:`successor_mixed`), or
    trades an x- for a y-differentiation and spawns a (2, 0) block
    (:func:`successor_trade`; at the key (2, 0) itself that trade is the
    mixed move).  The n - 1 - h implicit f_y blocks and the denominator
    correction of -(2n - 1) also land on the mixed neighbor.  Every
    contribution is added separately and like products are collected
    generically, so no cancellation is special-cased.
    """
    n = formula.n
    acc: dict[Multiplicities, Fraction] = {}

    def add(mults: Multiplicities, value: Fraction) -> None:
        acc[mults] = acc.get(mults, Fraction(0)) + value

    for alpha, coeff in _block_terms(formula, "derive_next").items():
        h = alpha.total
        mixed = successor_mixed(alpha)
        for key, count in alpha.items():
            base = coeff * count
            add(successor_advance(alpha, key), base)
            if key.l:
                add(mixed, base * key.l)
                traded = mixed if key == (2, 0) else successor_trade(alpha, key)
                add(traded, -base * key.l)
        add(mixed, coeff * (n - 1 - h))
        add(mixed, -coeff * (2 * n - 1))

    terms = [
        (coeff, DeltaMonomial(beta.entries, n + 1 + beta.total))
        for beta, coeff in acc.items()
        if coeff != 0
    ]
    return DeltaFormula.from_terms(n + 1, terms)


def recursion_step(formula: DeltaFormula, records: list | None = None) -> DeltaFormula:
    """One step of the coefficient recursion: the next order's compact form.

    Every order-(n+1) coefficient is assembled from the coefficients of
    its predecessor records in ``formula``, each weighted by
    :func:`~implicit_derivatives.coeffs.signed_recursion_weight`.  A
    predecessor with no term in ``formula`` has coefficient 0.
    ``records`` is
    :func:`~implicit_derivatives.partitions.predecessor_records` at
    order n + 1, made here when not handed in.
    """
    table = _block_terms(formula, "recursion_step")
    n = formula.n
    if records is None:
        records = predecessor_records(n + 1)
    terms = []
    for beta, preds in records:
        value = Fraction(0)
        for record in preds:
            weight = signed_recursion_weight(record, beta)
            value += weight * table.get(record.predecessor, 0)
        if value != 0:
            terms.append((value, DeltaMonomial(beta.entries, n + 1 + beta.total)))
    return DeltaFormula.from_terms(n + 1, terms)


def delta_formula_via_recursion(n: int) -> DeltaFormula:
    """Rebuild the compact form from the coefficient recursion alone.

    Starting from the single order-2 coefficient -1, every order is
    built from the one below by :func:`recursion_step`.  The
    box-counting coefficients are never consulted, so this is an
    independent route to the same formula.
    """
    check_order(n, 2)
    start = DeltaMonomial(((VectorKey(2, 0), 1),), 3)
    formula = DeltaFormula.from_terms(2, [(Fraction(-1), start)])
    for _ in range(3, n + 1):
        formula = recursion_step(formula)
    return formula


# --- block expansion into raw partials ---------------------------------------
#
# Sparse polynomials over the partial symbols, keyed by sorted exponent
# tuples, with integer coefficients; f_x and f_y appear as the keys
# (1, 0) and (0, 1).

_Poly = dict[tuple, int]


def _poly_mul(a: _Poly, b: _Poly) -> _Poly:
    out: _Poly = {}
    for mono_a, ca in a.items():
        for mono_b, cb in b.items():
            key = merge_entries(chain(mono_a, mono_b))
            value = out.get(key, 0) + ca * cb
            if value:
                out[key] = value
            elif key in out:
                del out[key]
    return out


def _poly_pow(p: _Poly, exponent: int) -> _Poly:
    out: _Poly = {(): 1}
    for _ in range(exponent):
        out = _poly_mul(out, p)
    return out


def expand_block(l: int, p0: int = 0, t0: int = 0) -> _Poly:
    """Expand one block applied to the partial f_{x^p0 y^t0} into raw partials.

    Returns sum_j (-1)^j binom(l, j) f_{x^(l-j+p0) y^(j+t0)} f_x^j f_y^(l-j)
    as a sparse polynomial with ``int`` coefficients.
    """
    for index in (l, p0, t0):
        if check_int(index, DomainError, "a block index") < 0:
            raise DomainError("block indices must be non-negative")
    out: _Poly = {}
    for j in range(l + 1):
        entries = [(VectorKey(l - j + p0, j + t0), 1)]
        if j:
            entries.append((VectorKey(1, 0), j))
        if l - j:
            entries.append((VectorKey(0, 1), l - j))
        key = merge_entries(entries)
        out[key] = out.get(key, 0) + (-1) ** j * binom(l, j)
    return {k: c for k, c in out.items() if c}


def expand_delta(formula: DeltaFormula) -> ElemFormula:
    """Multiply out every block of the compact form and collect raw monomials.

    Each distinct block power is expanded once per call.  The products
    and the collection run on integers over the common denominator of
    the coefficients; each term's coefficient is multiplied in once, at
    the end of its expansion, and each collected coefficient becomes one
    ``Fraction``.
    """
    if not isinstance(formula, DeltaFormula):
        raise FormulaError("expand_delta expects the compact block form")
    den = math.lcm(*[coeff.denominator for coeff, _ in formula.terms])
    powers: dict[tuple, _Poly] = {}  # (key, power) -> expanded block power
    acc: dict[tuple, int] = {}  # (fy_power, exponents) -> numerator over den
    for coeff, mono in formula.terms:
        poly: _Poly = {(): 1}
        for entry in mono.factors:
            factor = powers.get(entry)
            if factor is None:
                key, power = entry
                factor = _poly_pow(expand_block(key.l, 0, key.r), power)
                powers[entry] = factor
            poly = _poly_mul(poly, factor)
        scale = coeff.numerator * (den // coeff.denominator)
        for exps, value in poly.items():
            fy_numer = dict(exps).get(VectorKey(0, 1), 0)
            kept = tuple((k, e) for k, e in exps if k != (0, 1))
            target = (mono.fy_power - fy_numer, kept)
            acc[target] = acc.get(target, 0) + scale * value
    # exponents come canonical out of merge_entries, so sorting the
    # targets is the canonical term order
    terms = [
        (Fraction(value, den), ElemMonomial(kept, fy_power))
        for (fy_power, kept), value in sorted(acc.items())
        if value
    ]
    return ElemFormula(formula.n, tuple(terms))


def elementary_formula(n: int) -> ElemFormula:
    """The order-n derivative in expanded form, one term per family-B element."""
    check_order(n, 1)
    return ElemFormula(n, _family_terms(n, ElemMonomial, 0, family_a=False))


def specialize_fx_zero(formula: ElemFormula) -> ElemFormula:
    """Drop every term carrying a power of f_x; valid when f_x = 0 at the point."""
    if not isinstance(formula, ElemFormula) or formula.form != "elementary":
        raise FormulaError("specialize_fx_zero expects an expanded-form formula")
    kept = [
        (coeff, mono) for coeff, mono in formula.terms if not mono.has_key((1, 0))
    ]
    return ElemFormula.from_terms(formula.n, kept)


def fx_zero_formula(n: int) -> ElemFormula:
    """The expanded form at f_x = 0, built from its own index set, family A.

    The terms of the expanded form without f_x are the family-B elements
    with s[1,0] = 0, which are the family-A elements alpha; there
    D(alpha) = C(alpha) and k = h, so each term is (-1)^h C(alpha) times
    the monomial of alpha over f_y^h.  Equals
    ``specialize_fx_zero(elementary_formula(n))``; order 1 has no term.
    """
    check_order(n, 1)
    return ElemFormula(n, _family_terms(n, ElemMonomial, 0, family_a=True))


def inverse_function_formula(n: int) -> ElemFormula:
    """Derivative of an inverse function, by substituting f(x, y) = x - g(y).

    Under the substitution f_x = 1, all mixed and higher pure-x partials
    vanish, and f_{y^t} = -g^(t).  The surviving expanded-form terms are
    the family-B elements gamma with keys (1, 0) and (0, t) only; the sum
    constraints force s[1,0] = n and sum (t - 1) * s[0,t] = n - 1.  So
    the index set is the partitions of n - 1: a part j gives the symbol
    g^(j+1) (stored as the key (0, j+1)), u is the number of parts, and
    the term has coefficient (-1)^u D(gamma) over g'^(n+u).
    """
    check_order(n, 1)
    weights: dict = {}
    terms = []
    for parts in _integer_partitions(n - 1):
        g_factors = tuple((VectorKey(0, j + 1), count) for j, count in parts)
        u = sum(count for _, count in parts)
        entries = g_factors + ((VectorKey(1, 0), n),)
        coeff = _balls_in_boxes(entries, n, n - 1 + u, weights)
        coeff = -coeff if u % 2 else coeff
        terms.append((Fraction(coeff), ElemMonomial(g_factors, n + u)))
    return ElemFormula.from_terms(n, terms, form="inverse")
