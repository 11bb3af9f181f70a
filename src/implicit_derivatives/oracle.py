"""Ground-truth derivative generator by literal repeated differentiation.

Starting from y' = -f_x / f_y, the derivative of any expression in the
formal partials f_{x^p y^t} along the curve f(x, y(x)) = 0 is obtained
by the substitution rule

    d/dx f_{x^p y^t}  =  f_{x^(p+1) y^t}  -  f_{x^p y^(t+1)} * f_x / f_y,

applied symbol by symbol with the product rule.  Negative powers of f_y
make the quotient rule automatic, so the whole computation is sparse
polynomial bookkeeping on plain dicts {monomial: coefficient}, where a
monomial is one int, a packed exponent vector (Monagan and Pearce, CASC
2007); :func:`pack` and :func:`unpack` convert from and to the canonical
tuples of ((p, t), exponent) pairs.  There is one coefficient regime: the
rule multiplies by integers only, so the chain from y' runs on plain
integers, and its coefficients become exact rationals only when an order
is converted to a formula.  A polynomial handed in with ``Fraction``
coefficients stays ``Fraction``.

This module deliberately shares no code with the combinatorial
construction: it must not import the partition-family, coefficient, or
formula-building modules, and it packs monomials with its own slots.  Its
chain is the independent reference that the closed formulas are tested
against: :func:`pack_formula` brings a built expanded formula into the
chain's packed form, f_y at its negative exponent, where the two compare
as plain dicts; :func:`as_elementary` converts an order of the chain to
the common elementary container type, which :func:`formulas_equal`
compares and diffs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import isqrt

from .errors import FormulaError, check_order
from .expressions import ElemFormula, ElemMonomial
from .keys import VectorKey

Poly = dict  # {canonical ((p, t), exponent) pairs: non-zero coefficient}
Packed = dict  # {packed monomial: non-zero int or Fraction coefficient}

# The exponent of f_{x^p y^t} is a balanced digit in [-128, 128) in byte slot
# d(d+1)/2 + t, d = p + t, so low orders give short ints.  Slot width: y' is
# -f_y^-1 f_x, a step lowers f_y's exponent by at most 2 and raises any other
# by at most 1, so order n holds f_y^-(2n-1) at worst (-59 at HARD_CAP = 30)
# and no other exponent above n.  Seven bits would hold [-64, 64), six only
# [-32, 32); a byte lets ``int.to_bytes`` read all digits at once.


@cache
def _key(slot: int) -> VectorKey:
    d = (isqrt(8 * slot + 1) - 1) // 2
    t = slot - d * (d + 1) // 2
    return VectorKey(d - t, t)


@cache
def _step(slot: int) -> tuple[int, int]:
    """The packed steps f_{x^p y^t} -> f_{x^(p+1) y^t} and -> f_{x^p y^(t+1)} f_x/f_y."""
    d, own = sum(_key(slot)), 1 << 8 * slot  # slot(p+1, t) = slot + d + 1, and so on
    return (own << 8 * (d + 1)) - own, (own << 8 * (d + 2)) - own + (1 << 8) - (1 << 16)


def _digits(mono: int) -> bytes:
    """Each slot's exponent plus 128, lowest slot first."""
    if mono.__class__ is not int:
        raise FormulaError(f"a packed monomial is an int, got {mono!r}")
    size = abs(mono).bit_length() // 8 + 1  # covers the top non-zero digit
    return (mono + int.from_bytes(b"\x80" * size, "little")).to_bytes(size, "little")


def _packed(mono) -> int:
    try:
        if len(dict(mono)) == len(mono) and all(
            p >= 0 and t >= 0 and -128 <= e < 128 and e for (p, t), e in mono
        ):
            return sum(e << 8 * ((p + t) * (p + t + 1) // 2 + t) for (p, t), e in mono)
    except (TypeError, ValueError):  # not a tuple of ((p, t), exponent) pairs
        pass
    raise FormulaError(f"cannot pack the monomial {mono}")


def _items(expr, what: str):
    """The items of the ``dict`` ``expr``; anything else raises :class:`FormulaError`."""
    if not isinstance(expr, dict):
        raise FormulaError(f"expected a {what}, got {type(expr).__name__}")
    return expr.items()


def pack(expr: Poly) -> Packed:
    """The packed form of a tuple-form polynomial, exponents non-zero in [-128, 128)."""
    return {_packed(mono): coeff for mono, coeff in _items(expr, "tuple-form polynomial")}


def pack_formula(formula: ElemFormula) -> Packed:
    """The packed form of an elementary formula, f_y at its negative exponent.

    It equals the chain's order ``formula.n`` exactly when the formula
    equals that order's :func:`as_elementary`; an integral coefficient is
    packed as an ``int``, so the dicts compare like the chain's integers.
    """
    if not isinstance(formula, ElemFormula):
        raise FormulaError("pack_formula packs expanded formulas only")
    out: Packed = {}
    for coeff, mono in formula.terms:
        fy = mono.fy_power
        key = _packed(mono.exponents + (((0, 1), -fy),) if fy else mono.exponents)
        out[key] = coeff.numerator if coeff.denominator == 1 else coeff
    return out


def unpack(expr: Packed) -> Poly:
    """The tuple form of a packed polynomial."""
    return {
        tuple(sorted((_key(i), d - 128) for i, d in enumerate(_digits(m)) if d != 128)): c
        for m, c in _items(expr, "packed expression")
    }


def total_derivative(expr: Packed) -> Packed:
    """Differentiate the packed ``expr`` along x through the implicitly defined y.

    Integer coefficients stay integers and ``Fraction`` ones ``Fraction``;
    an exponent beyond +-126 raises :class:`FormulaError`, as anything
    but a ``dict`` of ``int`` packed monomials does.
    """
    out: Packed = {}
    get = out.get
    for mono, coeff in _items(expr, "packed expression"):
        digits = _digits(mono)
        if min(digits) < 2 or max(digits) > 254:
            raise FormulaError(f"an exponent of {unpack({mono: coeff})} is beyond +-126")
        for slot, digit in enumerate(digits):
            if digit != 128:
                base = coeff * (digit - 128)
                along_x, along_y = _step(slot)
                key = mono + along_x
                out[key] = get(key, 0) + base
                key = mono + along_y
                out[key] = get(key, 0) - base
    return {mono: coeff for mono, coeff in out.items() if coeff}


def first_derivative() -> Packed:
    """y' = -f_x / f_y, the start of the chain, with the integer coefficient -1."""
    return {(1 << 8) - (1 << 16): -1}  # f_x in slot 1, f_y in slot 2


def as_elementary(n: int, expr: Packed) -> ElemFormula:
    """The order-n derivative ``expr`` of the chain as an elementary formula.

    Its coefficients become ``Fraction`` in ``ElemFormula.from_terms``.
    """
    terms = []
    for mono, coeff in _items(expr, "packed expression"):
        digits = _digits(mono)
        fy_exponent = digits[2] - 128 if len(digits) > 2 else 0  # f_y is slot 2
        exps = [(_key(i), d - 128) for i, d in enumerate(digits) if d != 128 and i != 2]
        exps.sort()
        if fy_exponent >= 0 or any(e < 0 for _, e in exps):
            raise FormulaError(f"non-elementary oracle term {unpack({mono: coeff})}")
        terms.append((coeff, ElemMonomial(tuple(exps), -fy_exponent)))
    return ElemFormula.from_terms(n, terms)


def oracle_formula(n: int) -> ElemFormula:
    """The order-n derivative computed by n-1 literal differentiations of y'."""
    check_order(n, 1)
    expr = first_derivative()
    for _ in range(n - 1):
        expr = total_derivative(expr)
    return as_elementary(n, expr)


@dataclass(frozen=True)
class FormulaDiff:
    """Result of comparing two elementary formulas coefficient by coefficient."""

    equal: bool
    differences: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.equal


def formulas_equal(a: ElemFormula, b: ElemFormula) -> FormulaDiff:
    """Exact equality as maps monomial -> coefficient, with a difference report.

    Canonical term tuples are equal exactly when the maps are, so equal
    formulas are recognized from their terms alone; only unequal ones are
    diffed, monomial by monomial in canonical order.
    """
    if not (isinstance(a, ElemFormula) and isinstance(b, ElemFormula)):
        raise FormulaError("formulas_equal compares expanded formulas only")
    if a.n == b.n and a.terms == b.terms:
        return FormulaDiff(True, ())
    problems: list[str] = []
    if a.n != b.n:
        problems.append(f"orders differ: {a.n} vs {b.n}")
    left, right = a.as_dict(), b.as_dict()
    for mono in sorted(set(left) | set(right), key=lambda m: (m.fy_power, m.exponents)):
        ca, cb = left.get(mono), right.get(mono)
        if ca != cb:
            problems.append(f"monomial {mono}: {ca} vs {cb}")
    return FormulaDiff(not problems, tuple(problems))
