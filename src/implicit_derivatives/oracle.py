"""Ground-truth derivative generator by literal repeated differentiation.

Starting from y' = -f_x / f_y, the derivative of any expression in the
formal partials f_{x^p y^t} along the curve f(x, y(x)) = 0 is obtained
by the substitution rule

    d/dx f_{x^p y^t}  =  f_{x^(p+1) y^t}  -  f_{x^p y^(t+1)} * f_x / f_y,

applied symbol by symbol with the product rule.  Negative powers of f_y
make the quotient rule automatic, so the whole computation is sparse
polynomial bookkeeping over exact rationals.

This module deliberately shares no code with the combinatorial
construction: it must not import the partition-family, coefficient, or
formula-building modules.  Its output (converted to the common
elementary container type) is the independent reference that the closed
formulas are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .errors import FormulaError, check_order
from .expressions import ElemFormula, ElemMonomial
from .keys import VectorKey, merge_entries

Monomial = tuple  # sorted ((p, t), exponent) pairs; only (0, 1) may be negative

_FX = VectorKey(1, 0)
_FY = VectorKey(0, 1)


class PolyExpr:
    """Sparse polynomial in the partials f_{x^p y^t} with rational coefficients.

    Monomials may carry a negative exponent of f_y (the key (0, 1)):
    that is the denominator.  Zero coefficients are never stored.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None):
        cleaned: dict[Monomial, Fraction] = {}
        for mono, coeff in (terms or {}).items():
            key = merge_entries(mono)
            value = cleaned.get(key, Fraction(0)) + Fraction(coeff)
            if value:
                cleaned[key] = value
            elif key in cleaned:
                del cleaned[key]
        self.terms = cleaned

    @classmethod
    def constant(cls, value) -> "PolyExpr":
        return cls({(): Fraction(value)})

    @classmethod
    def symbol(cls, p: int, t: int, exponent: int = 1) -> "PolyExpr":
        return cls({(((p, t), exponent),): Fraction(1)})

    def __add__(self, other: "PolyExpr") -> "PolyExpr":
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            value = out.get(mono, Fraction(0)) + coeff
            if value:
                out[mono] = value
            elif mono in out:
                del out[mono]
        result = PolyExpr.__new__(PolyExpr)
        result.terms = out
        return result

    def __mul__(self, scalar) -> "PolyExpr":
        c = Fraction(scalar)
        result = PolyExpr.__new__(PolyExpr)
        result.terms = {} if c == 0 else {m: v * c for m, v in self.terms.items()}
        return result

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyExpr) and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "PolyExpr(0)"
        parts = []
        for mono, coeff in sorted(self.terms.items()):
            body = " ".join(f"f[{k.l},{k.r}]^{e}" for k, e in mono) or "1"
            parts.append(f"{coeff} * {body}")
        return "PolyExpr(" + " + ".join(parts) + ")"


def total_derivative(expr: PolyExpr) -> PolyExpr:
    """Differentiate along x through the implicitly defined y."""
    out: dict[Monomial, Fraction] = {}

    def add(mono: Monomial, value: Fraction) -> None:
        total = out.get(mono, Fraction(0)) + value
        if total:
            out[mono] = total
        elif mono in out:
            del out[mono]

    for mono, coeff in expr.terms.items():
        for key, exponent in mono:
            p, t = key
            base = coeff * exponent
            add(merge_entries(mono + ((key, -1), (VectorKey(p + 1, t), +1))), base)
            add(
                merge_entries(
                    mono + ((key, -1), (VectorKey(p, t + 1), +1), (_FX, +1), (_FY, -1))
                ),
                -base,
            )
    result = PolyExpr.__new__(PolyExpr)
    result.terms = out
    return result


def oracle_formula(n: int) -> ElemFormula:
    """The order-n derivative computed by n-1 literal differentiations of y'."""
    check_order(n, 1)
    expr = PolyExpr({(((1, 0), 1), ((0, 1), -1)): Fraction(-1)})
    for _ in range(n - 1):
        expr = total_derivative(expr)
    terms = []
    for mono, coeff in expr.terms.items():
        exps = dict(mono)
        fy_exponent = exps.pop(_FY, 0)
        if fy_exponent >= 0 or any(e <= 0 for e in exps.values()):
            raise FormulaError(f"oracle produced a non-elementary monomial {mono}")
        terms.append((coeff, ElemMonomial(tuple(exps.items()), -fy_exponent)))
    return ElemFormula.from_terms(n, terms)


@dataclass(frozen=True)
class FormulaDiff:
    """Result of comparing two elementary formulas coefficient by coefficient."""

    equal: bool
    differences: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.equal


def formulas_equal(a: ElemFormula, b: ElemFormula) -> FormulaDiff:
    """Exact equality as maps monomial -> coefficient, with a difference report."""
    problems: list[str] = []
    if a.n != b.n:
        problems.append(f"orders differ: {a.n} vs {b.n}")
    left, right = a.as_dict(), b.as_dict()
    for mono in sorted(set(left) | set(right), key=lambda m: (m.fy_power, m.exponents)):
        ca, cb = left.get(mono), right.get(mono)
        if ca != cb:
            problems.append(f"monomial {mono}: {ca} vs {cb}")
    return FormulaDiff(not problems, tuple(problems))
