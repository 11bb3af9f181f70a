"""Ground-truth derivative generator by literal repeated differentiation.

Starting from y' = -f_x / f_y, the derivative of any expression in the
formal partials f_{x^p y^t} along the curve f(x, y(x)) = 0 is obtained
by the substitution rule

    d/dx f_{x^p y^t}  =  f_{x^(p+1) y^t}  -  f_{x^p y^(t+1)} * f_x / f_y,

applied symbol by symbol with the product rule.  Negative powers of f_y
make the quotient rule automatic, so the whole computation is sparse
polynomial bookkeeping on plain dicts {monomial: coefficient}, where a
monomial is a canonical tuple of ((p, t), exponent) pairs.  There is one
coefficient regime: the rule multiplies by integers only, so the chain
from y' runs on plain integers, and its coefficients become exact
rationals once, when an order is converted to a formula.  A polynomial
handed in with ``Fraction`` coefficients stays ``Fraction``.

This module deliberately shares no code with the combinatorial
construction: it must not import the partition-family, coefficient, or
formula-building modules.  Its output (converted to the common
elementary container type) is the independent reference that the closed
formulas are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .errors import FormulaError, check_order
from .expressions import ElemFormula, ElemMonomial
from .keys import VectorKey, merge_entries

Monomial = tuple  # sorted ((p, t), exponent) pairs; only (0, 1) may be negative
Poly = dict  # {Monomial: non-zero int or Fraction coefficient}

_FX = VectorKey(1, 0)
_FY = VectorKey(0, 1)


def total_derivative(expr: Poly) -> Poly:
    """Differentiate ``expr`` along x through the implicitly defined y.

    Integer coefficients stay integers and ``Fraction`` ones ``Fraction``.
    """
    out: Poly = {}

    def add(mono: Monomial, value: int | Fraction) -> None:
        total = out.get(mono, 0) + value
        if total:
            out[mono] = total
        elif mono in out:
            del out[mono]

    for mono, coeff in expr.items():
        for key, exponent in mono:
            p, t = key
            base = coeff * exponent
            along_x = ((key, -1), (VectorKey(p + 1, t), +1))
            along_y = ((key, -1), (VectorKey(p, t + 1), +1), (_FX, +1), (_FY, -1))
            add(merge_entries(chain(mono, along_x)), base)
            add(merge_entries(chain(mono, along_y)), -base)
    return out


def first_derivative() -> Poly:
    """y' = -f_x / f_y, the start of the chain, with the integer coefficient -1."""
    return {((_FY, -1), (_FX, 1)): -1}


def as_elementary(n: int, expr: Poly) -> ElemFormula:
    """The order-n derivative ``expr`` of the chain as an elementary formula.

    Its coefficients become ``Fraction`` in ``ElemFormula.from_terms``.
    """
    terms = []
    for mono, coeff in expr.items():
        exps = dict(mono)
        fy_exponent = exps.pop(_FY, 0)
        if fy_exponent >= 0 or any(e <= 0 for e in exps.values()):
            raise FormulaError(f"oracle produced a non-elementary monomial {mono}")
        terms.append((coeff, ElemMonomial(tuple(exps.items()), -fy_exponent)))
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
    """Exact equality as maps monomial -> coefficient, with a difference report."""
    if not (isinstance(a, ElemFormula) and isinstance(b, ElemFormula)):
        raise FormulaError("formulas_equal compares expanded formulas only")
    problems: list[str] = []
    if a.n != b.n:
        problems.append(f"orders differ: {a.n} vs {b.n}")
    left, right = a.as_dict(), b.as_dict()
    for mono in sorted(set(left) | set(right), key=lambda m: (m.fy_power, m.exponents)):
        ca, cb = left.get(mono), right.get(mono)
        if ca != cb:
            problems.append(f"monomial {mono}: {ca} vs {cb}")
    return FormulaDiff(not problems, tuple(problems))
