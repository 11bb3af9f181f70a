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

from .coeffs import _balls_in_boxes, _slot_orders, binom
from .errors import DomainError, FormulaError, check_order
from .expressions import DeltaFormula, DeltaMonomial, ElemFormula, ElemMonomial, _elem_key
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
    f_y^(fy_offset + total).  The family comes grouped by ascending total,
    each group in entry order, which is the monomials' canonical order;
    the sign, the f_y power and the box count's numerator n! (total - 1)!
    are set once per group.  Terms with equal coefficients share one
    ``Fraction``, through a table this call drops.

    ``monomial`` is a ``_trusted`` constructor: ``_family`` hands each
    element's entries over as a canonical tuple of (``VectorKey``, positive
    ``int``) pairs, ascending, with keys of l + r >= 2 (family A) or other
    than f and f_y (family B), so no entry is scanned again; the formula's
    constructor still checks the term order.
    """
    weights: dict = {}  # (key, count) -> box weight, filled by this call
    shared: dict[int, Fraction] = {}  # signed value -> its one Fraction
    terms = []
    for total, group in _family(n, family_a):
        sign = -1 if total % 2 else 1
        fy_power = fy_offset + total
        slots = _slot_orders(n, total - 1)
        for entries in group:
            value = sign * _balls_in_boxes(entries, slots, weights)
            coeff = shared.get(value)
            if coeff is None:
                coeff = shared[value] = Fraction(value)
            terms.append((coeff, monomial(entries, fy_power)))
    return tuple(terms)


def delta_formula(n: int) -> DeltaFormula:
    """The order-n derivative in compact block form, one term per family-A element."""
    check_order(n, 2)
    return DeltaFormula(n, _family_terms(n, DeltaMonomial._trusted, n, family_a=True))


def _block_terms(formula: DeltaFormula, caller: str) -> dict[Multiplicities, Fraction]:
    """The coefficients of a compact form by family-A element, each term checked."""
    if not isinstance(formula, DeltaFormula):
        raise FormulaError(f"{caller} expects the compact block form")
    n = formula.n
    table = {}
    for coeff, mono in formula.terms:
        alpha = Multiplicities._trusted(mono.factors)  # a checked monomial's entries
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

    The coefficients are scaled to integers over their lcm denominator, as
    in :func:`expand_delta`, so the contributions add as plain ints and
    each next-order term makes one ``Fraction``.

    Every successor comes from the moves as a ``_trusted`` canonical
    ``Multiplicities`` whose keys keep l + r >= 2, since each move raises
    l + r or keeps it, so its entries make a ``_trusted`` monomial without
    a second scan; ``from_terms`` sorts the terms.
    """
    table = _block_terms(formula, "derive_next")
    n = formula.n
    den = math.lcm(*[coeff.denominator for coeff in table.values()])
    acc: dict[Multiplicities, int] = {}

    def add(mults: Multiplicities, value: int) -> None:
        acc[mults] = acc.get(mults, 0) + value

    for alpha, coeff in table.items():
        scaled = coeff.numerator * (den // coeff.denominator)
        h = alpha.total
        mixed = successor_mixed(alpha)
        for key, count in alpha.items():
            base = scaled * count
            add(successor_advance(alpha, key), base)
            if key.l:
                add(mixed, base * key.l)
                traded = mixed if key == (2, 0) else successor_trade(alpha, key)
                add(traded, -base * key.l)
        add(mixed, scaled * (n - 1 - h))
        add(mixed, -scaled * (2 * n - 1))

    terms = [
        (Fraction(value, den), DeltaMonomial._trusted(beta.entries, n + 1 + beta.total))
        for beta, value in acc.items()
        if value
    ]
    return DeltaFormula.from_terms(n + 1, terms)


def recursion_step(formula: DeltaFormula, records: list | None = None) -> DeltaFormula:
    """One step of the coefficient recursion: the next order's compact form.

    Every order-(n+1) coefficient is assembled from the coefficients of
    its predecessor records in ``formula``, each weighted by its
    ``signed_weight``.  A predecessor with no term in ``formula`` has
    coefficient 0.  ``records`` is
    :func:`~implicit_derivatives.partitions.predecessor_records` at
    order n + 1, made here when not handed in.

    The coefficients are scaled to integers over their lcm denominator,
    so each weighted sum adds plain ints and each next-order term makes
    one ``Fraction``.

    Each ``beta`` must be a ``Multiplicities`` in family A at order n + 1 (else
    :class:`DomainError`), so its canonical entries make a ``_trusted``
    monomial without a second scan.
    """
    table = _block_terms(formula, "recursion_step")
    n = formula.n
    if records is None:
        records = predecessor_records(n + 1)
    den = math.lcm(*[coeff.denominator for coeff in table.values()])
    scaled = {
        alpha: coeff.numerator * (den // coeff.denominator) for alpha, coeff in table.items()
    }
    terms = []
    for beta, preds in records:
        if not is_member_A(beta, n + 1):
            raise DomainError(f"{beta} is not a family-A element of order {n + 1}")
        value = 0
        for record in preds:
            value += record.signed_weight * scaled.get(record.predecessor, 0)
        if value:
            mono = DeltaMonomial._trusted(beta.entries, n + 1 + beta.total)
            terms.append((Fraction(value, den), mono))
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
# expand_delta packs the tuple-keyed monomials of expand_block (Monagan and
# Pearce, CASC 2007): each raw partial of the call gets a _BITS-bit slot in
# canonical order and f_y's denominator power the top slot, where any int
# fits, so a product of monomials is one integer addition.  Slot width: an
# order-n term D[l,r]^m has sum l*m = n and h = sum m <= n - 1, and D[l,r]
# sums f_x^j f_y^(l-j) times one partial, so f_x reaches n and a partial h:
# 30 at HARD_CAP = 30, which five bits hold and four do not.

_BITS = 5
_LIMIT = (1 << _BITS) - 1


def _pack(entries, slots: dict[VectorKey, int]) -> int:
    """One packed monomial by the keys' bit offsets; f_y^e puts -e on top."""
    return sum((-e if key == (0, 1) else e) << slots[key] for key, e in entries)


def _unpack(packed: int, keys: list[VectorKey]) -> tuple[int, tuple]:
    """The power of f_y below and the entries above, for ``keys`` in slot order."""
    top = _BITS * (len(keys) - 1)
    fy_power, packed = packed >> top, packed & ((1 << top) - 1)
    entries = []
    while packed:
        slot = ((packed & -packed).bit_length() - 1) // _BITS
        exponent = packed >> _BITS * slot & _LIMIT
        entries.append((keys[slot], exponent))
        packed ^= exponent << _BITS * slot
    return fy_power, tuple(entries)


def _product(a: dict[int, int], b: dict[int, int], out: dict[int, int]) -> dict[int, int]:
    """``out`` plus the product of the packed polynomials ``a`` and ``b``."""
    get = out.get
    for mono_a, ca in a.items():
        for mono_b, cb in b.items():
            key = mono_a + mono_b
            out[key] = get(key, 0) + ca * cb
    return out


def expand_block(l: int, p0: int = 0, t0: int = 0) -> dict[tuple, int]:
    """Expand one block applied to the partial f_{x^p0 y^t0} into raw partials.

    Returns sum_j (-1)^j binom(l, j) f_{x^(l-j+p0) y^(j+t0)} f_x^j f_y^(l-j)
    as a sparse polynomial with ``int`` coefficients.
    """
    for index in (l, p0, t0):
        if check_int(index, DomainError, "a block index") < 0:
            raise DomainError("block indices must be non-negative")
    out: dict[tuple, int] = {}
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

    Each distinct block power is packed and expanded once per call, on integers
    over the common denominator.  A term that could leave a slot (a hand-made
    block power beyond any order) raises :class:`FormulaError` at once.

    The unpacked entries come in slot order, which is canonical key order,
    with positive exponents and keys of p + t >= 2 or (1, 0), so the
    monomials are made without a second scan; only a negative power of
    f_y, which a hand-made term over too low a power can leave, is refused.
    """
    if not isinstance(formula, DeltaFormula):
        raise FormulaError("expand_delta expects the compact block form")
    entries = set()  # the distinct (key, power) factors
    for _, mono in formula.terms:
        fx_bound = sum(key.l * m for key, m in mono.factors)
        if max(fx_bound, sum(m for _, m in mono.factors)) > _LIMIT:
            raise FormulaError(f"the expansion of {mono} leaves the {_BITS}-bit slots")
        entries.update(mono.factors)
    blocks = {key: expand_block(key.l, 0, key.r) for key, _ in entries}
    keys = sorted({k for b in blocks.values() for mono in b for k, _ in mono} - {(0, 1)})
    keys.append(VectorKey(0, 1))  # f_y's slot on top
    slots = {key: _BITS * slot for slot, key in enumerate(keys)}
    powers = {}  # (key, power) -> packed block^power
    for key, power in entries:
        block, factor = {_pack(m, slots): c for m, c in blocks[key].items()}, {0: 1}
        for _ in range(power):
            factor = _product(factor, block, {})
        powers[key, power] = factor
    den = math.lcm(*[coeff.denominator for coeff, _ in formula.terms])
    acc: dict[int, int] = {}  # by packed monomial over f_y's power
    for coeff, mono in formula.terms:
        poly = {mono.fy_power << slots[0, 1]: coeff.numerator * (den // coeff.denominator)}
        factors = [powers[entry] for entry in mono.factors] or [{0: 1}]
        for factor in factors[:-1]:
            poly = _product(poly, factor, {})
        _product(poly, factors[-1], acc)  # the last product adds into acc
    # sorted by (fy_power, exponents), the canonical term order
    terms = sorted((*_unpack(packed, keys), v) for packed, v in acc.items() if v)
    if terms and terms[0][0] < 0:
        raise FormulaError(f"the expansion leaves f_y^{-terms[0][0]} in a numerator")
    return ElemFormula(
        formula.n,
        tuple((Fraction(v, den), ElemMonomial._trusted(kept, fy)) for fy, kept, v in terms),
    )


def elementary_formula(n: int) -> ElemFormula:
    """The order-n derivative in expanded form, one term per family-B element."""
    check_order(n, 1)
    return ElemFormula(n, _family_terms(n, ElemMonomial._trusted, 0, family_a=False))


def specialize_fx_zero(formula: ElemFormula) -> ElemFormula:
    """Drop every term carrying a power of f_x; valid when f_x = 0 at the point."""
    if not isinstance(formula, ElemFormula) or formula.form != "elementary":
        raise FormulaError("specialize_fx_zero expects an expanded-form formula")
    kept = [
        (coeff, mono) for coeff, mono in formula.terms if (1, 0) not in dict(mono.exponents)
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
    return ElemFormula(n, _family_terms(n, ElemMonomial._trusted, 0, family_a=True))


def inverse_function_formula(n: int) -> ElemFormula:
    """Derivative of an inverse function, by substituting f(x, y) = x - g(y).

    Under the substitution f_x = 1, all mixed and higher pure-x partials
    vanish, and f_{y^t} = -g^(t).  The surviving expanded-form terms are
    the family-B elements gamma with keys (1, 0) and (0, t) only; the sum
    constraints force s[1,0] = n and sum (t - 1) * s[0,t] = n - 1.  So
    the index set is the partitions of n - 1: a part j gives the symbol
    g^(j+1) (stored as the key (0, j+1)), u is the number of parts, and
    the term has coefficient (-1)^u D(gamma) over g'^(n+u).

    The parts ascend, so each monomial's entries are canonical as made,
    with keys (0, j + 1) of j >= 1, and distinct partitions give distinct
    monomials: a plain sort puts the terms in canonical order.
    """
    check_order(n, 1)
    weights: dict = {}
    terms = []
    for parts in _integer_partitions(n - 1):
        g_factors = tuple((VectorKey(0, j + 1), count) for j, count in parts)
        u = sum(count for _, count in parts)
        entries = g_factors + ((VectorKey(1, 0), n),)
        coeff = _balls_in_boxes(entries, _slot_orders(n, n - 1 + u), weights)
        coeff = -coeff if u % 2 else coeff
        terms.append((Fraction(coeff), ElemMonomial._trusted(g_factors, n + u)))
    terms.sort(key=lambda term: _elem_key(term[1]))
    return ElemFormula(n, tuple(terms), form="inverse")
