"""Formula value types, canonical ordering, rendering, and JSON interchange.

Two term shapes occur.  A *block monomial* is a product of combination
blocks D[l,r] (each block bundles l x-differentiations and r
y-differentiations of f with binomial weights) over a power of f_y.  An
*elementary monomial* is a plain product of raw partials f_{x^p y^t}
over a power of f_y; with the form tag "inverse" the same container
holds products of derivatives g^(j) of a single-variable function over
a power of g'.

Formulas are exact linear combinations with rational coefficients, kept
canonical: like monomials merged, zero coefficients dropped, terms
sorted by denominator exponent and then by monomial.  The JSON schema

    { "n": int, "form": "delta"|"elementary"|"inverse",
      "terms": [ { "coeff": "<exact integer or p/q string>",
                   "factors":   [ {"l": int, "r": int, "power": int} ]   (delta)
                 | "exponents": [ {"p": int, "t": int, "power": int} ],  (others)
                   "fy_power": int } ] }

round-trips losslessly; coefficients are serialized as exact strings,
never floats.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import DomainError, FormulaError
from .keys import VectorKey, merge_entries

Coefficient = Fraction
FORMATS = ("plain", "latex", "json")


def _integer(value, name: str) -> int:
    # exact type: bool is a subclass of int but no index or power
    if type(value) is not int:
        raise FormulaError(f"{name} must be an integer, got {value!r}")
    return value


def _coefficient(value) -> Fraction:
    # exact strings only, as the schema says: a JSON number may be a rounded float
    if type(value) is not str:
        raise FormulaError(f"coefficients must be exact strings, got {value!r}")
    return Fraction(value)


def _check_entries(entries, allow_key) -> None:
    for key, power in entries:
        if type(key.l) is not int or type(key.r) is not int or type(power) is not int:
            raise FormulaError(f"non-integer index or power in {tuple(key)}: {power!r}")
        if key.l < 0 or key.r < 0:
            raise FormulaError(f"negative indices in key {tuple(key)}")
        if not allow_key(key):
            raise FormulaError(f"key {tuple(key)} not allowed in this monomial")
        if power < 0:
            raise FormulaError("negative power in monomial")


@dataclass(frozen=True)
class DeltaMonomial:
    """Product of blocks D[l,r]^power divided by f_y^fy_power."""

    factors: tuple[tuple[VectorKey, int], ...]
    fy_power: int

    def __post_init__(self) -> None:
        factors = merge_entries(self.factors)
        _check_entries(factors, lambda k: k.l + k.r >= 2)
        _integer(self.fy_power, "fy_power")
        object.__setattr__(self, "factors", factors)


@dataclass(frozen=True)
class ElemMonomial:
    """Product of raw partials f_{x^p y^t}^power divided by f_y^fy_power.

    The keys (0, 0) and (0, 1) are never stored; f_y lives only in the
    denominator exponent.  Under the "inverse" form tag, a key (0, j)
    stands for g^(j) and fy_power for the exponent of g'.
    """

    exponents: tuple[tuple[VectorKey, int], ...]
    fy_power: int

    def __post_init__(self) -> None:
        exponents = merge_entries(self.exponents)
        _check_entries(exponents, lambda k: k not in ((0, 0), (0, 1)))
        _integer(self.fy_power, "fy_power")
        object.__setattr__(self, "exponents", exponents)

    def has_key(self, key) -> bool:
        target = VectorKey(*key)
        return any(k == target for k, _ in self.exponents)


def _collect(terms, sort_key):
    bag: dict = {}
    for coeff, mono in terms:
        c = Fraction(coeff)
        if mono in bag:
            bag[mono] += c
        else:
            bag[mono] = c
    kept = [(c, m) for m, c in bag.items() if c != 0]
    kept.sort(key=lambda item: sort_key(item[1]))
    return tuple(kept)


def _check_canonical(terms, sort_key, kind) -> None:
    # strictly increasing keys are exactly "sorted and unique"
    previous = None
    for coeff, mono in terms:
        if not isinstance(coeff, Fraction) or coeff == 0:
            raise FormulaError(f"{kind} terms must carry non-zero Fraction coefficients")
        key = sort_key(mono)
        if previous is not None and not previous < key:
            raise FormulaError(f"{kind} terms are not in canonical order")
        previous = key


def _delta_key(mono: DeltaMonomial):
    return (mono.fy_power, mono.factors)


def _elem_key(mono: ElemMonomial):
    return (mono.fy_power, mono.exponents)


@dataclass(frozen=True)
class DeltaFormula:
    """Derivative of order n as a combination of block monomials."""

    n: int
    terms: tuple[tuple[Coefficient, DeltaMonomial], ...]

    form = "delta"

    def __post_init__(self) -> None:
        _check_canonical(self.terms, _delta_key, "delta")

    @classmethod
    def from_terms(cls, n: int, terms: Iterable) -> "DeltaFormula":
        return cls(n, _collect(terms, _delta_key))

    def as_dict(self) -> dict[DeltaMonomial, Coefficient]:
        return {mono: coeff for coeff, mono in self.terms}


@dataclass(frozen=True)
class ElemFormula:
    """Derivative of order n as a combination of elementary monomials."""

    n: int
    terms: tuple[tuple[Coefficient, ElemMonomial], ...]
    form: str = "elementary"

    def __post_init__(self) -> None:
        if self.form not in ("elementary", "inverse"):
            raise FormulaError(f"unknown elementary-form tag {self.form!r}")
        _check_canonical(self.terms, _elem_key, self.form)

    @classmethod
    def from_terms(cls, n: int, terms: Iterable, form: str = "elementary") -> "ElemFormula":
        return cls(n, _collect(terms, _elem_key), form)

    def as_dict(self) -> dict[ElemMonomial, Coefficient]:
        return {mono: coeff for coeff, mono in self.terms}


Formula = DeltaFormula | ElemFormula


# --- plain text -------------------------------------------------------------


def _plain_factor(formula_form: str, key: VectorKey, power: int) -> str:
    if formula_form == "inverse":
        body = f"G[{key.r}]"
    else:
        body = f"D[{key.l},{key.r}]"
    return body if power == 1 else f"{body}^{power}"


def _plain_denominator(formula_form: str, fy_power: int) -> str:
    base = "G[1]" if formula_form == "inverse" else "fy"
    return base if fy_power == 1 else f"{base}^{fy_power}"


def _render_plain(formula: Formula) -> str:
    if not formula.terms:
        return "0"
    chunks = []
    for index, (coeff, mono) in enumerate(formula.terms):
        entries = mono.factors if isinstance(mono, DeltaMonomial) else mono.exponents
        factors = [_plain_factor(formula.form, k, p) for k, p in entries]
        magnitude = abs(coeff)
        numerator = []
        if magnitude != 1 or not factors:
            numerator.append(str(magnitude))
        numerator.extend(factors)
        body = " ".join(numerator) + " / " + _plain_denominator(formula.form, mono.fy_power)
        if index == 0:
            chunks.append(("- " if coeff < 0 else "") + body)
        else:
            chunks.append(("- " if coeff < 0 else "+ ") + body)
    return " ".join(chunks)


# --- LaTeX ------------------------------------------------------------------


def _latex_partial(p: int, t: int) -> str:
    xpart = "" if p == 0 else ("x" if p == 1 else f"x^{{{p}}}")
    ypart = "" if t == 0 else ("y" if t == 1 else f"y^{{{t}}}")
    sub = xpart + ypart
    if sub == "":
        return "f"
    if sub in ("x", "y"):
        return f"f_{sub}"
    return f"f_{{{sub}}}"


def _latex_gderiv(j: int) -> str:
    return "g" + "'" * j if 1 <= j <= 3 else f"g^{{({j})}}"


def _latex_factor(formula_form: str, key: VectorKey, power: int) -> str:
    if formula_form == "inverse":
        body = _latex_gderiv(key.r)
        return body if power == 1 else f"({body})^{{{power}}}"
    if formula_form == "delta":
        if key.l == 0:
            body = _latex_partial(0, key.r)
        else:
            body = f"\\Delta_{{{key.l}}}" + _latex_partial(0, key.r)
        return body if power == 1 else f"({body})^{{{power}}}"
    body = _latex_partial(key.l, key.r)
    return body if power == 1 else f"{body}^{{{power}}}"


def _latex_coeff(magnitude: Fraction) -> str:
    if magnitude.denominator == 1:
        return str(magnitude.numerator)
    return f"\\tfrac{{{magnitude.numerator}}}{{{magnitude.denominator}}}"


def _render_latex(formula: Formula) -> str:
    if not formula.terms:
        return "0"
    if formula.form == "inverse":
        def denom(k):
            return "g'" if k == 1 else f"(g')^{{{k}}}"
    else:
        def denom(k):
            return "f_y" if k == 1 else f"f_y^{{{k}}}"
    chunks = []
    for index, (coeff, mono) in enumerate(formula.terms):
        entries = mono.factors if isinstance(mono, DeltaMonomial) else mono.exponents
        factors = "".join(_latex_factor(formula.form, k, p) for k, p in entries)
        magnitude = abs(coeff)
        numerator = ("" if magnitude == 1 and factors else _latex_coeff(magnitude)) + factors
        body = f"\\frac{{{numerator}}}{{{denom(mono.fy_power)}}}"
        sign = "-" if coeff < 0 else ("" if index == 0 else "+")
        chunks.append(sign + body)
    return "".join(chunks)


# --- JSON -------------------------------------------------------------------


def _formula_doc(formula: Formula) -> dict:
    terms = []
    for coeff, mono in formula.terms:
        if isinstance(mono, DeltaMonomial):
            parts = {
                "factors": [
                    {"l": k.l, "r": k.r, "power": p} for k, p in mono.factors
                ]
            }
        else:
            parts = {
                "exponents": [
                    {"p": k.l, "t": k.r, "power": p} for k, p in mono.exponents
                ]
            }
        terms.append({"coeff": str(coeff), **parts, "fy_power": mono.fy_power})
    return {"n": formula.n, "form": formula.form, "terms": terms}


def formula_to_json(formula: Formula) -> str:
    """Serialize to the documented schema; deterministic byte-for-byte."""
    return json.dumps(_formula_doc(formula))


def formula_from_json(text: str) -> Formula:
    """Parse a formula serialized by :func:`formula_to_json`."""
    try:
        doc = json.loads(text)
        n = _integer(doc["n"], "n")
        form = doc["form"]
        raw_terms = doc["terms"]
        if form == "delta":
            monomial, part, first, second = DeltaMonomial, "factors", "l", "r"
        elif form in ("elementary", "inverse"):
            monomial, part, first, second = ElemMonomial, "exponents", "p", "t"
        else:
            raise FormulaError(f"unknown form tag {form!r}")
        terms = [
            (
                _coefficient(item["coeff"]),
                monomial(
                    tuple(
                        (
                            VectorKey(_integer(e[first], first), _integer(e[second], second)),
                            _integer(e["power"], "power"),
                        )
                        for e in item[part]
                    ),
                    item["fy_power"],
                ),
            )
            for item in raw_terms
        ]
        if form == "delta":
            return DeltaFormula.from_terms(n, terms)
        return ElemFormula.from_terms(n, terms, form)
    except FormulaError:
        raise
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise FormulaError(f"malformed formula document: {exc}") from exc


def render(formula: Formula, format: str = "plain") -> str:
    """Render a formula as plain text, LaTeX, or the JSON interchange form."""
    if format == "plain":
        return _render_plain(formula)
    if format == "latex":
        return _render_latex(formula)
    if format == "json":
        return formula_to_json(formula)
    raise DomainError(f"unknown render format {format!r}; expected one of {FORMATS}")
