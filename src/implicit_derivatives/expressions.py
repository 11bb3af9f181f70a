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
sorted by denominator exponent and then by monomial.  A formula holds a
tuple of pairs whose monomials are of exactly its form's class, each
checked once when built, so code reading a formula trusts its entries.
The JSON schema

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
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter

from .errors import DomainError, FormulaError, check_order
from .keys import BELOW_ORDER_TWO, F_AND_FY, VectorKey, canonical_entries, check_int
from .keys import check_rational, unique_members

Coefficient = Fraction


@dataclass(frozen=True, slots=True)
class DeltaMonomial:
    """Product of blocks D[l,r]^power divided by f_y^fy_power."""

    factors: tuple[tuple[VectorKey, int], ...]
    fy_power: int

    def __post_init__(self) -> None:
        factors = canonical_entries(self.factors, BELOW_ORDER_TWO, FormulaError)
        if check_int(self.fy_power, FormulaError, "fy_power") < 0:
            raise FormulaError(f"fy_power must be 0 or more, got {self.fy_power}")
        object.__setattr__(self, "factors", factors)

    @classmethod
    def _trusted(cls, factors: tuple, fy_power: int) -> "DeltaMonomial":
        """A monomial of entries already canonical and valid, set without a scan.

        For the builders of :mod:`~implicit_derivatives.formula` alone, whose
        entries are canonical by construction; the tests check every built
        monomial against the entries rule.
        """
        mono = object.__new__(cls)
        object.__setattr__(mono, "factors", factors)
        object.__setattr__(mono, "fy_power", fy_power)
        return mono


@dataclass(frozen=True, slots=True)
class ElemMonomial:
    """Product of raw partials f_{x^p y^t}^power divided by f_y^fy_power.

    The keys (0, 0) and (0, 1) are never stored; f_y lives only in the
    denominator exponent.  Under the "inverse" form tag, a key (0, j)
    stands for g^(j) and fy_power for the exponent of g'.
    """

    exponents: tuple[tuple[VectorKey, int], ...]
    fy_power: int

    def __post_init__(self) -> None:
        exponents = canonical_entries(self.exponents, F_AND_FY, FormulaError)
        if check_int(self.fy_power, FormulaError, "fy_power") < 0:
            raise FormulaError(f"fy_power must be 0 or more, got {self.fy_power}")
        object.__setattr__(self, "exponents", exponents)

    @classmethod
    def _trusted(cls, exponents: tuple, fy_power: int) -> "ElemMonomial":
        """A monomial of entries already canonical and valid, set without a scan.

        The same contract as :meth:`DeltaMonomial._trusted`.
        """
        mono = object.__new__(cls)
        object.__setattr__(mono, "exponents", exponents)
        object.__setattr__(mono, "fy_power", fy_power)
        return mono


def _collect(terms, sort_key):
    if not isinstance(terms, Iterable):
        raise FormulaError(f"terms {terms!r} are not an iterable of pairs")
    bag: dict = {}
    for coeff, mono in terms:
        # the one coefficient rule: exact values only, so no float, bool or
        # text is read as a rational on the way in
        if coeff.__class__ is int:
            c = Fraction(coeff)
        elif isinstance(coeff, Fraction):
            c = coeff
        else:
            raise FormulaError(f"a coefficient must be an int or a Fraction, got {coeff!r}")
        if mono in bag:
            bag[mono] += c
        else:
            bag[mono] = c
    kept = [(c, m) for m, c in bag.items() if c != 0]
    kept.sort(key=lambda item: sort_key(item[1]))
    return tuple(kept)


def _check_canonical(terms, monomial, sort_key, kind) -> None:
    # a tuple of pairs of checked monomials of the form's own class; strictly
    # increasing keys are exactly "sorted and unique"
    if terms.__class__ is not tuple:
        raise FormulaError(f"{kind} terms must be a tuple, got {type(terms).__name__}")
    previous = None
    for term in terms:
        if term.__class__ is not tuple or len(term) != 2:
            raise FormulaError(f"{kind} term {term!r} is not a (coefficient, monomial) pair")
        coeff, mono = term
        if mono.__class__ is not monomial:
            raise FormulaError(f"{kind} terms must hold {monomial.__name__}s, got {mono!r}")
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
        check_order(self.n, 2, FormulaError)
        _check_canonical(self.terms, DeltaMonomial, _delta_key, "delta")

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
        check_order(self.n, 1, FormulaError)
        _check_canonical(self.terms, ElemMonomial, _elem_key, self.form)

    @classmethod
    def from_terms(cls, n: int, terms: Iterable, form: str = "elementary") -> "ElemFormula":
        return cls(n, _collect(terms, _elem_key), form)

    def as_dict(self) -> dict[ElemMonomial, Coefficient]:
        return {mono: coeff for coeff, mono in self.terms}


Formula = DeltaFormula | ElemFormula


# --- text tables ------------------------------------------------------------
#
# A formula repeats few distinct factors and denominators over many terms,
# so each renderer formats every distinct (key, power) entry and every
# distinct denominator exponent once per call, in a table it drops on
# return.


class _TextTable(dict):
    """Text of each term part, made by ``make`` the first time it is asked for."""

    def __init__(self, make) -> None:
        super().__init__()
        self.make = make

    def __missing__(self, part) -> str:
        text = self[part] = self.make(part)
        return text


def _entries_of(formula: Formula):
    """Each term's entries reader; anything but a formula raises :class:`FormulaError`."""
    if not isinstance(formula, (DeltaFormula, ElemFormula)):
        raise FormulaError(f"expected a formula, got {type(formula).__name__}")
    # the canonical check reads the same attribute, so every term has it
    return attrgetter("factors" if formula.form == "delta" else "exponents")


# --- plain text -------------------------------------------------------------


def _plain_factor(formula_form: str, entry) -> str:
    key, power = entry
    if formula_form == "inverse":
        body = f"G[{key.r}]"
    else:
        body = f"D[{key.l},{key.r}]"
    return body if power == 1 else f"{body}^{power}"


def _plain_denominator(formula_form: str, fy_power: int) -> str:
    base = "G[1]" if formula_form == "inverse" else "fy"
    return " / " + (base if fy_power == 1 else f"{base}^{fy_power}")


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


def _latex_factor(formula_form: str, entry) -> str:
    key, power = entry
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


def _latex_denominator(formula_form: str, fy_power: int) -> str:
    if formula_form == "inverse":
        base = "g'" if fy_power == 1 else f"(g')^{{{fy_power}}}"
    else:
        base = "f_y" if fy_power == 1 else f"f_y^{{{fy_power}}}"
    return "}{" + base + "}"


# --- one term writer for plain text and LaTeX ------------------------------
#
# Per format: the factor and denominator spellers, the gap (between factors,
# after the sign and between terms), the opening of a term body, and the
# spelling of a non-integer coefficient.

_TEXT = {
    "plain": (_plain_factor, _plain_denominator, " ", "", "{}/{}".format),
    "latex": (_latex_factor, _latex_denominator, "", "\\frac{", "\\tfrac{{{}}}{{{}}}".format),
}
FORMATS = (*_TEXT, "json")


def _render_text(formula: Formula, format: str) -> str:
    entries_of = _entries_of(formula)
    if not formula.terms:
        return "0"
    spell_factor, spell_denominator, gap, opening, fraction = _TEXT[format]
    form = formula.form
    factor_text = _TextTable(lambda entry: spell_factor(form, entry))
    denominator_text = _TextTable(lambda power: spell_denominator(form, power))
    plus, minus = "+" + gap + opening, "-" + gap + opening
    chunks = []
    for coeff, mono in formula.terms:
        factors = gap.join(map(factor_text.__getitem__, entries_of(mono)))
        numerator, denominator = abs(coeff.numerator), coeff.denominator
        if numerator == 1 and denominator == 1 and factors:
            body = factors
        else:
            body = str(numerator) if denominator == 1 else fraction(numerator, denominator)
            if factors:
                body += gap + factors
        sign = minus if coeff.numerator < 0 else plus
        chunks.append(sign + body + denominator_text[mono.fy_power])
    if chunks[0][0] == "+":
        chunks[0] = chunks[0][1 + len(gap) :]
    return gap.join(chunks)


# --- JSON -------------------------------------------------------------------


def formula_to_json(formula: Formula) -> str:
    """Serialize to the documented schema; deterministic byte-for-byte.

    The text is what ``json.dumps`` writes for the schema's document,
    written straight from per-call fragment tables: indices, powers and
    ``fy_power`` are checked ``int``s and a coefficient's ``str`` holds
    only digits, ``-`` and ``/``, so no fragment needs escaping.
    """
    entries_of = _entries_of(formula)
    if formula.form == "delta":
        part, first, second = "factors", "l", "r"
    else:
        part, first, second = "exponents", "p", "t"
    entry_text = _TextTable(
        lambda entry: f'{{"{first}": {entry[0].l}, "{second}": {entry[0].r}, '
        f'"power": {entry[1]}}}'
    )
    tail_text = _TextTable(lambda fy_power: f'], "fy_power": {fy_power}}}')
    head = '{"coeff": "'
    middle = f'", "{part}": ['
    terms = ", ".join(
        [
            head
            + str(coeff)
            + middle
            + ", ".join(map(entry_text.__getitem__, entries_of(mono)))
            + tail_text[mono.fy_power]
            for coeff, mono in formula.terms
        ]
    )
    n, form = json.dumps(formula.n), json.dumps(formula.form)
    return f'{{"n": {n}, "form": {form}, "terms": [{terms}]}}'


def formula_from_json(text: str) -> Formula:
    """Parse a formula serialized by :func:`formula_to_json`."""

    def array(doc, name):  # ``terms`` and each term's entries are JSON arrays
        if doc[name].__class__ is not list:
            raise FormulaError(f"{name!r} must be a JSON array, got {doc[name]!r}")
        return doc[name]

    try:
        doc = json.loads(text, object_pairs_hook=unique_members)
        form = doc["form"]
        if form == "delta":
            monomial, part, first, second = DeltaMonomial, "factors", "l", "r"
        elif form in ("elementary", "inverse"):
            monomial, part, first, second = ElemMonomial, "exponents", "p", "t"
        else:
            raise FormulaError(f"unknown form tag {form!r}")
        n = doc["n"]
        terms = [
            (
                check_rational(item["coeff"], FormulaError, "a coefficient"),
                # the monomial checks the indices, powers and fy_power
                monomial(
                    [((e[first], e[second]), e["power"]) for e in array(item, part)],
                    item["fy_power"],
                ),
            )
            for item in array(doc, "terms")
        ]
        if form == "delta":
            return DeltaFormula.from_terms(n, terms)
        return ElemFormula.from_terms(n, terms, form)
    except FormulaError:
        raise
    except (KeyError, RecursionError, TypeError, ValueError) as exc:
        raise FormulaError(f"malformed formula document: {exc}") from exc


def render(formula: Formula, format: str = "plain") -> str:
    """Render a formula as plain text, LaTeX, or the JSON interchange form."""
    if isinstance(format, str) and format in _TEXT:
        return _render_text(formula, format)
    if format == "json":
        # looked up when called, so a rebound ``formula_to_json`` is the one used
        return formula_to_json(formula)
    raise DomainError(f"unknown render format {format!r}; expected one of {FORMATS}")
