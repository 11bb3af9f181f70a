"""Rendering and JSON round-trip tests."""

import json

import pytest

from implicit_derivatives import (
    DeltaMonomial,
    DomainError,
    ElemMonomial,
    FormulaError,
    delta_formula,
    elementary_formula,
    formula_from_json,
    formula_to_json,
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
    # the well-formed documents these cases start from do parse
    good = delta_term % ('{"l": 2, "r": 0, "power": 1}', "3")
    assert formula_from_json(f'{{"n": 2, "form": "delta", "terms": [{good}]}}') == (
        delta_formula(2)
    )
