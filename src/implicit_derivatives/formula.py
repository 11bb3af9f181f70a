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

from fractions import Fraction

from .coeffs import binom, coeff_D, signed_coeff, signed_recursion_weight
from .errors import DomainError, FormulaError, check_order
from .expressions import (
    DeltaFormula,
    DeltaMonomial,
    ElemFormula,
    ElemMonomial,
    render,
)
from .keys import VectorKey, merge_entries
from .partitions import Multiplicities, enumerate_A, enumerate_B, predecessors

__all__ = [
    "delta_formula",
    "delta_formula_via_recursion",
    "derive_next",
    "expand_block",
    "expand_delta",
    "elementary_formula",
    "specialize_fx_zero",
    "inverse_function_formula",
    "render",
]


def delta_formula(n: int) -> DeltaFormula:
    """The order-n derivative in compact block form, one term per family-A element."""
    check_order(n, 2)
    terms = []
    for alpha in enumerate_A(n):
        coeff = Fraction(signed_coeff(alpha).value)
        mono = DeltaMonomial(alpha.entries, n + alpha.total)
        terms.append((coeff, mono))
    return DeltaFormula.from_terms(n, terms)


def _validated_lifted_terms(formula: DeltaFormula):
    """Check compact-form invariants and return terms with explicit f_y blocks.

    Internally the differentiation step works over the common denominator
    f_y^(2n-1); a term with h blocks then carries n - 1 - h explicit (0, 1)
    block factors.
    """
    n = formula.n
    lifted = []
    for coeff, mono in formula.terms:
        h = mono.block_count
        if (
            mono.fy_power != n + h
            or mono.x_weight != n
            or mono.y_weight != h - 1
        ):
            raise FormulaError(f"term {mono} is not a valid order-{n} block term")
        entries = mono.factors
        fy_blocks = n - 1 - h
        if fy_blocks:
            entries = entries + ((VectorKey(0, 1), fy_blocks),)
        lifted.append((Multiplicities(entries), coeff))
    return lifted


def derive_next(formula: DeltaFormula) -> DeltaFormula:
    """Differentiate the compact form once, producing the next order.

    Works term by term at the cleared-denominator level: each block of a
    product is differentiated in turn (its x-count advancing, a mixed
    (1, 1) block appearing, or an x-for-y trade spawning a (2, 0) block),
    the denominator correction subtracts 2n - 1 copies of the mixed
    term, and like products are collected generically.  No cancellation
    is special-cased.
    """
    if not isinstance(formula, DeltaFormula):
        raise FormulaError("derive_next expects the compact block form")
    n = formula.n
    acc: dict[Multiplicities, Fraction] = {}

    def add(mults: Multiplicities, value: Fraction) -> None:
        acc[mults] = acc.get(mults, Fraction(0)) + value

    for mults, coeff in _validated_lifted_terms(formula):
        for key, count in mults.items():
            base = coeff * count
            add(
                mults.bumped([(key, -1), ((key.l + 1, key.r), +1), ((0, 1), +1)]),
                base,
            )
            if key.l:
                add(mults.bumped([((1, 1), +1)]), base * key.l)
                add(
                    mults.bumped(
                        [(key, -1), ((key.l - 1, key.r + 1), +1), ((2, 0), +1)]
                    ),
                    -base * key.l,
                )
        add(mults.bumped([((1, 1), +1)]), -coeff * (2 * n - 1))

    terms = []
    for mults, coeff in acc.items():
        if coeff == 0:
            continue
        fy_blocks = mults.get((0, 1))
        factors = tuple((k, c) for k, c in mults.items() if k != (0, 1))
        h = sum(c for _, c in factors)
        if fy_blocks != n - h:  # lifted count at order n+1 is (n+1)-1-h
            raise FormulaError(f"differentiation produced an unbalanced term {mults}")
        terms.append((coeff, DeltaMonomial(factors, n + 1 + h)))
    return DeltaFormula.from_terms(n + 1, terms)


def delta_formula_via_recursion(n: int) -> DeltaFormula:
    """Rebuild the compact form from the coefficient recursion alone.

    Starting from the single order-2 coefficient -1, every order-(m+1)
    coefficient is assembled from its predecessor records, each weighted
    by :func:`~implicit_derivatives.coeffs.signed_recursion_weight`.  The
    box-counting coefficients are never consulted, so this is an
    independent route to the same formula.
    """
    check_order(n, 2)
    table = {Multiplicities.from_dict({(2, 0): 1}): Fraction(-1)}
    for m in range(3, n + 1):
        new_table = {}
        for beta in enumerate_A(m):
            value = Fraction(0)
            for record in predecessors(beta, m):
                weight = signed_recursion_weight(record, beta)
                value += weight * table[record.predecessor]
            new_table[beta] = value
        table = new_table
    terms = [
        (coeff, DeltaMonomial(alpha.entries, n + alpha.total))
        for alpha, coeff in table.items()
        if coeff != 0
    ]
    return DeltaFormula.from_terms(n, terms)


# --- block expansion into raw partials ---------------------------------------
#
# Sparse polynomials over the partial symbols, keyed by sorted exponent
# tuples; f_x and f_y appear as the keys (1, 0) and (0, 1).

_Poly = dict[tuple, Fraction]


def _poly_mul(a: _Poly, b: _Poly) -> _Poly:
    out: _Poly = {}
    for mono_a, ca in a.items():
        for mono_b, cb in b.items():
            key = merge_entries(mono_a + mono_b)
            value = out.get(key, Fraction(0)) + ca * cb
            if value:
                out[key] = value
            elif key in out:
                del out[key]
    return out


def _poly_pow(p: _Poly, exponent: int) -> _Poly:
    out: _Poly = {(): Fraction(1)}
    for _ in range(exponent):
        out = _poly_mul(out, p)
    return out


def expand_block(l: int, p0: int = 0, t0: int = 0) -> _Poly:
    """Expand one block applied to the partial f_{x^p0 y^t0} into raw partials.

    Returns sum_j (-1)^j binom(l, j) f_{x^(l-j+p0) y^(j+t0)} f_x^j f_y^(l-j)
    as a sparse polynomial.
    """
    if l < 0 or p0 < 0 or t0 < 0:
        raise DomainError("block indices must be non-negative")
    out: _Poly = {}
    for j in range(l + 1):
        entries = [(VectorKey(l - j + p0, j + t0), 1)]
        if j:
            entries.append((VectorKey(1, 0), j))
        if l - j:
            entries.append((VectorKey(0, 1), l - j))
        key = merge_entries(entries)
        coeff = Fraction((-1) ** j * binom(l, j))
        out[key] = out.get(key, Fraction(0)) + coeff
    return {k: c for k, c in out.items() if c}


def expand_delta(formula: DeltaFormula) -> ElemFormula:
    """Multiply out every block of the compact form and collect raw monomials."""
    if not isinstance(formula, DeltaFormula):
        raise FormulaError("expand_delta expects the compact block form")
    terms = []
    for coeff, mono in formula.terms:
        poly: _Poly = {(): coeff}
        for key, power in mono.factors:
            poly = _poly_mul(poly, _poly_pow(expand_block(key.l, 0, key.r), power))
        for exps, value in poly.items():
            fy_numer = dict(exps).get(VectorKey(0, 1), 0)
            kept = tuple((k, e) for k, e in exps if k != (0, 1))
            terms.append((value, ElemMonomial(kept, mono.fy_power - fy_numer)))
    return ElemFormula.from_terms(formula.n, terms)


def elementary_formula(n: int) -> ElemFormula:
    """The order-n derivative in expanded form, one term per family-B element."""
    check_order(n, 1)
    terms = []
    for gamma in enumerate_B(n):
        k = gamma.total
        coeff = Fraction((-1) ** k * coeff_D(gamma))
        terms.append((coeff, ElemMonomial(gamma.entries, k)))
    return ElemFormula.from_terms(n, terms)


def specialize_fx_zero(formula: ElemFormula) -> ElemFormula:
    """Drop every term carrying a power of f_x; valid when f_x = 0 at the point."""
    if not isinstance(formula, ElemFormula) or formula.form != "elementary":
        raise FormulaError("specialize_fx_zero expects an expanded-form formula")
    kept = [
        (coeff, mono) for coeff, mono in formula.terms if not mono.has_key((1, 0))
    ]
    return ElemFormula.from_terms(formula.n, kept)


def inverse_function_formula(n: int) -> ElemFormula:
    """Derivative of an inverse function, by substituting f(x, y) = x - g(y).

    Under the substitution f_x = 1, all mixed and higher pure-x partials
    vanish, and f_{y^t} = -g^(t).  Surviving terms are re-expressed over
    the symbols g^(j) (stored as keys (0, j)) with denominator powers of
    g'; the result has one term per partition of n + u - 1 into u parts
    of size at least 2, with u the number of g-factors.
    """
    base = elementary_formula(n)
    terms = []
    for coeff, mono in base.terms:
        if any(k.l >= 1 and k != (1, 0) for k, _ in mono.exponents):
            continue
        g_factors = tuple((k, p) for k, p in mono.exponents if k != (1, 0))
        u = sum(p for _, p in g_factors)
        sign = Fraction(-1) ** (u + mono.fy_power)
        terms.append((coeff * sign, ElemMonomial(g_factors, mono.fy_power)))
    return ElemFormula.from_terms(n, terms, form="inverse")
