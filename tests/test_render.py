"""Rendering and JSON round-trip tests."""

import json
from fractions import Fraction

import pytest

from implicit_derivatives import (
    DeltaFormula,
    DeltaMonomial,
    DomainError,
    ElemFormula,
    ElemMonomial,
    FormulaError,
    delta_formula,
    elementary_formula,
    formula_from_json,
    formula_to_json,
    fx_zero_formula,
    inverse_function_formula,
    render,
    specialize_fx_zero,
)


def test_plain_rendering_golden():
    assert render(delta_formula(2), "plain") == "- D[2,0] / fy^3"
    assert render(delta_formula(3), "plain") == (
        "- D[3,0] / fy^4 + 3 D[1,1] D[2,0] / fy^5"
    )
    assert render(elementary_formula(1), "plain") == "- D[1,0] / fy"
    assert render(inverse_function_formula(1), "plain") == "1 / G[1]"
    assert render(inverse_function_formula(3), "plain") == (
        "- G[3] / G[1]^4 + 3 G[2]^2 / G[1]^5"
    )


def test_latex_rendering_golden():
    assert render(elementary_formula(1), "latex") == "-\\frac{f_x}{f_y}"
    assert render(elementary_formula(2), "latex") == (
        "-\\frac{f_{x^{2}}}{f_y}"
        "+\\frac{2f_xf_{xy}}{f_y^{2}}"
        "-\\frac{f_{y^{2}}f_x^{2}}{f_y^{3}}"
    )
    assert render(delta_formula(2), "latex") == "-\\frac{\\Delta_{2}f}{f_y^{3}}"
    assert render(inverse_function_formula(2), "latex") == "-\\frac{g''}{(g')^{3}}"


def test_json_document_shape():
    doc = json.loads(render(delta_formula(4), "json"))
    assert doc["n"] == 4
    assert doc["form"] == "delta"
    assert [term["coeff"] for term in doc["terms"]] == ["-1", "4", "6", "-3", "-12"]
    assert doc["terms"][0]["factors"] == [{"l": 4, "r": 0, "power": 1}]
    assert doc["terms"][0]["fy_power"] == 5

    doc = json.loads(render(elementary_formula(2), "json"))
    assert doc["form"] == "elementary"
    assert all("exponents" in term for term in doc["terms"])


@pytest.mark.parametrize("n", range(2, 6))
def test_json_round_trip_delta(n):
    formula = delta_formula(n)
    assert formula_from_json(formula_to_json(formula)) == formula


@pytest.mark.parametrize("n", range(1, 6))
def test_json_round_trip_elementary_and_inverse(n):
    for formula in (
        elementary_formula(n),
        inverse_function_formula(n),
        specialize_fx_zero(elementary_formula(n)),
    ):
        assert formula_from_json(formula_to_json(formula)) == formula


def test_render_is_deterministic():
    for fmt in ("plain", "latex", "json"):
        assert render(delta_formula(5), fmt) == render(delta_formula(5), fmt)


def test_render_rejects_unknown_format():
    with pytest.raises(DomainError):
        render(delta_formula(2), "html")


@pytest.mark.parametrize("value", [None, "D[2,0]", ((1, ()),)], ids=["none", "str", "tuple"])
def test_rendering_refuses_what_is_not_a_formula(value):
    for format in ("plain", "latex", "json"):
        with pytest.raises(FormulaError):
            render(value, format)
    with pytest.raises(FormulaError):
        formula_to_json(value)


def test_parse_rejects_malformed_documents():
    with pytest.raises(FormulaError):
        formula_from_json("not json")
    with pytest.raises(FormulaError):
        formula_from_json('{"n": 2, "form": "weird", "terms": []}')
    with pytest.raises(FormulaError):
        formula_from_json('{"n": 2, "form": "delta"}')
    with pytest.raises(FormulaError):
        formula_from_json(
            '{"n": 2, "form": "delta", "terms": [{"coeff": "x", "factors": [], "fy_power": 1}]}'
        )
    # coefficients are spelled as formula_to_json writes them
    for coeff in ("1e3", "1.5", " 2", "1_0"):
        with pytest.raises(FormulaError):
            formula_from_json(
                f'{{"n": 2, "form": "delta", "terms": [{{"coeff": "{coeff}",'
                ' "factors": [{"l": 2, "r": 0, "power": 1}], "fy_power": 3}]}'
            )
    # each member given once, n an order of its form, and a parseable depth
    for text in (
        '{"n": 2, "n": 3, "form": "delta", "terms": []}',
        '{"n": -3, "form": "elementary", "terms": []}',
        '{"n": 1, "form": "delta", "terms": []}',
        '{"n": 31, "form": "inverse", "terms": []}',
        "[" * 100_000 + "]" * 100_000,
    ):
        with pytest.raises(FormulaError):
            formula_from_json(text)
    # terms and each term's entries are arrays, never a string or an object
    for terms in (
        '""',
        "{}",
        '[{"coeff": "1", "exponents": "", "fy_power": 1}]',
        '[{"coeff": "1", "exponents": {}, "fy_power": 1}]',
    ):
        with pytest.raises(FormulaError):
            formula_from_json(f'{{"n": 2, "form": "elementary", "terms": {terms}}}')
    # monomial validation runs on the merged entries of outside input
    for form, part, entry in [
        ("delta", "factors", '{"l": -1, "r": 3, "power": 1}'),
        ("delta", "factors", '{"l": 2, "r": 0, "power": -1}'),
        ("delta", "factors", '{"l": 1, "r": 0, "power": 1}'),
        ("elementary", "exponents", '{"p": 0, "t": 1, "power": 2}'),
        ("elementary", "exponents", '{"p": 2, "t": -1, "power": 1}'),
    ]:
        with pytest.raises(FormulaError):
            formula_from_json(
                f'{{"n": 2, "form": "{form}", "terms": [{{"coeff": "1",'
                f' "{part}": [{entry}], "fy_power": 1}}]}}'
            )
    # integers only: no truncated fractions, no booleans
    delta_term = '{"coeff": "-1", "factors": [%s], "fy_power": %s}'
    elem_term = '{"coeff": "-1", "exponents": [%s], "fy_power": %s}'
    for n, form, term in [
        ("2.9", "delta", delta_term % ('{"l": 2, "r": 0, "power": 1}', "3")),
        ("true", "delta", delta_term % ('{"l": 2, "r": 0, "power": 1}', "3")),
        ("2", "delta", delta_term % ('{"l": 2, "r": 0, "power": 1.7}', "3")),
        ("2", "delta", delta_term % ('{"l": 2.0, "r": 0, "power": 1}', "3")),
        ("2", "delta", delta_term % ('{"l": 2, "r": false, "power": 1}', "3")),
        ("2", "delta", delta_term % ('{"l": 2, "r": 0, "power": true}', "3")),
        ("2", "delta", delta_term % ('{"l": 2, "r": 0, "power": 1}', "3.5")),
        ("2", "delta", delta_term % ('{"l": 2, "r": 0, "power": 1}', '"3"')),
        ("2", "elementary", elem_term % ('{"p": 2, "t": 0, "power": 1}', "1.0")),
        ("2", "elementary", elem_term % ('{"p": 2.5, "t": 0, "power": 1}', "1")),
        ("2", "elementary", elem_term % ('{"p": 2, "t": 0.0, "power": 1}', "1")),
        ("2", "inverse", elem_term % ('{"p": 0, "t": 2, "power": 1}', "true")),
        # f_y only ever divides: fy_power is 0 or more
        ("2", "delta", delta_term % ('{"l": 2, "r": 0, "power": 1}', "-1")),
        ("2", "elementary", elem_term % ('{"p": 2, "t": 0, "power": 1}', "-1")),
        ("2", "inverse", elem_term % ('{"p": 0, "t": 2, "power": 1}', "-3")),
    ]:
        with pytest.raises(FormulaError):
            formula_from_json(f'{{"n": {n}, "form": "{form}", "terms": [{term}]}}')
    # coefficients are exact strings: no JSON numbers, no booleans
    for coeff in ("0.1", "-1.0", "true", "3"):
        term = '{"coeff": %s, "factors": [{"l": 2, "r": 0, "power": 1}], "fy_power": 3}'
        with pytest.raises(FormulaError):
            formula_from_json(f'{{"n": 2, "form": "delta", "terms": [{term % coeff}]}}')
    with pytest.raises(FormulaError):
        DeltaMonomial((((2, 0), 1),), 3.5)
    with pytest.raises(FormulaError):
        DeltaMonomial((((2, 0), 1.0),), 3)
    with pytest.raises(FormulaError):
        ElemMonomial((((2.0, 0), 1),), 1)
    with pytest.raises(FormulaError):
        ElemMonomial((((2, 0), 1),), True)
    with pytest.raises(FormulaError):
        DeltaMonomial((((2, 0), 1),), -1)
    with pytest.raises(FormulaError):
        ElemMonomial((((2, 0), 1),), -1)
    # every pair's types are checked before the merge sorts the keys
    for entries in ((((2, "0"), 1), ((2, 0), 1)), (5,), (((2, 0, 1), 1),), 5):
        with pytest.raises(FormulaError):
            DeltaMonomial(entries, 3)
    # the well-formed documents these cases start from do parse
    good = delta_term % ('{"l": 2, "r": 0, "power": 1}', "3")
    assert formula_from_json(f'{{"n": 2, "form": "delta", "terms": [{good}]}}') == (
        delta_formula(2)
    )
    free = elem_term % ('{"p": 2, "t": 0, "power": 1}', "0")  # f_y^0 = 1
    parsed = formula_from_json(f'{{"n": 2, "form": "elementary", "terms": [{free}]}}')
    assert parsed.terms == ((Fraction(-1), ElemMonomial((((2, 0), 1),), 0)),)


# --- the renderers against the per-term reference -------------------------
#
# The renderers format each distinct factor and denominator once per call
# and write the JSON text directly.  These copies of the per-term
# renderers, and of the document dict that ``json.dumps`` serialized, are
# the reference their output must match byte for byte.


def reference_plain(formula):
    def factor(key, power):
        body = f"G[{key.r}]" if formula.form == "inverse" else f"D[{key.l},{key.r}]"
        return body if power == 1 else f"{body}^{power}"

    def denominator(fy_power):
        base = "G[1]" if formula.form == "inverse" else "fy"
        return base if fy_power == 1 else f"{base}^{fy_power}"

    if not formula.terms:
        return "0"
    chunks = []
    for index, (coeff, mono) in enumerate(formula.terms):
        entries = mono.factors if isinstance(mono, DeltaMonomial) else mono.exponents
        factors = [factor(k, p) for k, p in entries]
        magnitude = abs(coeff)
        numerator = []
        if magnitude != 1 or not factors:
            numerator.append(str(magnitude))
        numerator.extend(factors)
        body = " ".join(numerator) + " / " + denominator(mono.fy_power)
        if index == 0:
            chunks.append(("- " if coeff < 0 else "") + body)
        else:
            chunks.append(("- " if coeff < 0 else "+ ") + body)
    return " ".join(chunks)


def reference_latex(formula):
    def partial(p, t):
        xpart = "" if p == 0 else ("x" if p == 1 else f"x^{{{p}}}")
        ypart = "" if t == 0 else ("y" if t == 1 else f"y^{{{t}}}")
        sub = xpart + ypart
        if sub == "":
            return "f"
        if sub in ("x", "y"):
            return f"f_{sub}"
        return f"f_{{{sub}}}"

    def factor(key, power):
        if formula.form == "inverse":
            j = key.r
            body = "g" + "'" * j if 1 <= j <= 3 else f"g^{{({j})}}"
            return body if power == 1 else f"({body})^{{{power}}}"
        if formula.form == "delta":
            body = partial(0, key.r)
            if key.l:
                body = f"\\Delta_{{{key.l}}}" + body
            return body if power == 1 else f"({body})^{{{power}}}"
        body = partial(key.l, key.r)
        return body if power == 1 else f"{body}^{{{power}}}"

    def denominator(k):
        if formula.form == "inverse":
            return "g'" if k == 1 else f"(g')^{{{k}}}"
        return "f_y" if k == 1 else f"f_y^{{{k}}}"

    def coefficient(magnitude):
        if magnitude.denominator == 1:
            return str(magnitude.numerator)
        return f"\\tfrac{{{magnitude.numerator}}}{{{magnitude.denominator}}}"

    if not formula.terms:
        return "0"
    chunks = []
    for index, (coeff, mono) in enumerate(formula.terms):
        entries = mono.factors if isinstance(mono, DeltaMonomial) else mono.exponents
        factors = "".join(factor(k, p) for k, p in entries)
        magnitude = abs(coeff)
        numerator = ("" if magnitude == 1 and factors else coefficient(magnitude)) + factors
        body = f"\\frac{{{numerator}}}{{{denominator(mono.fy_power)}}}"
        sign = "-" if coeff < 0 else ("" if index == 0 else "+")
        chunks.append(sign + body)
    return "".join(chunks)


def reference_document(formula):
    terms = []
    for coeff, mono in formula.terms:
        if isinstance(mono, DeltaMonomial):
            parts = {"factors": [{"l": k.l, "r": k.r, "power": p} for k, p in mono.factors]}
        else:
            parts = {
                "exponents": [{"p": k.l, "t": k.r, "power": p} for k, p in mono.exponents]
            }
        terms.append({"coeff": str(coeff), **parts, "fy_power": mono.fy_power})
    return {"n": formula.n, "form": formula.form, "terms": terms}


def _delta(n, *terms):
    return DeltaFormula.from_terms(
        n, [(Fraction(c), DeltaMonomial(tuple(f.items()), k)) for c, f, k in terms]
    )


def _elem(n, *terms, form="elementary"):
    return ElemFormula.from_terms(
        n, [(Fraction(c), ElemMonomial(tuple(e.items()), k)) for c, e, k in terms], form
    )


HAND_BUILT = {
    "delta-signs-and-fractions": _delta(
        5,
        ("1", {(2, 0): 1}, 3),
        ("-1", {(3, 0): 1, (1, 1): 2}, 4),
        ("-7/3", {(0, 2): 1}, 1),
        ("5/2", {(2, 1): 3, (4, 0): 1}, 9),
        ("-12", {(0, 3): 1}, 2),
    ),
    "delta-factor-free": _delta(3, ("1", {}, 1), ("-1", {}, 2), ("-3/4", {}, 5)),
    "delta-first-negative": _delta(2, ("-1", {}, 1), ("1", {(2, 0): 2}, 3)),
    "elementary-signs-and-fractions": _elem(
        4,
        ("-1", {(1, 0): 1}, 1),
        ("1", {(2, 3): 1, (1, 0): 4}, 2),
        ("2/5", {(0, 2): 2, (12, 0): 1}, 3),
        ("-9/2", {}, 4),
        ("1", {}, 7),
        ("-1", {(0, 4): 1}, 1),
    ),
    "inverse": _elem(
        6,
        ("-1", {(0, 2): 1}, 3),
        ("1/3", {(0, 5): 2, (0, 3): 1}, 4),
        ("1", {}, 1),
        ("-4", {(0, 12): 3}, 10),
        form="inverse",
    ),
    "empty-delta": DeltaFormula(4, ()),
    "empty-elementary": ElemFormula(4, ()),
    "empty-inverse": ElemFormula(4, (), "inverse"),
    "delta-7": delta_formula(7),
    "elementary-6": elementary_formula(6),
    "fx0-7": fx_zero_formula(7),
    "inverse-8": inverse_function_formula(8),
}


@pytest.mark.parametrize("formula", HAND_BUILT.values(), ids=HAND_BUILT.keys())
def test_renderers_match_the_per_term_reference(formula):
    assert render(formula, "plain") == reference_plain(formula)
    assert render(formula, "latex") == reference_latex(formula)
    text = formula_to_json(formula)
    assert text == json.dumps(reference_document(formula))
    assert render(formula, "json") == text
    assert formula_from_json(text) == formula
