"""Tests for the brute-force differentiation oracle."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import implicit_derivatives.oracle
from implicit_derivatives import (
    CapError,
    DomainError,
    Multiplicities,
    elementary_formula,
    formulas_equal,
    oracle_formula,
    total_derivative,
)
from implicit_derivatives.oracle import PolyExpr, as_elementary, first_derivative


def sym(p, t, e=1):
    return PolyExpr.symbol(p, t, e)


def test_total_derivative_of_constant_is_zero():
    assert total_derivative(PolyExpr.constant(1)) == PolyExpr.constant(0)
    assert total_derivative(PolyExpr.constant(0)).terms == {}


def test_total_derivative_of_fy():
    # d/dx f_y = f_xy - f_yy f_x / f_y
    got = total_derivative(sym(0, 1))
    expected = sym(1, 1) + PolyExpr(
        {(((0, 2), 1), ((1, 0), 1), ((0, 1), -1)): Fraction(-1)}
    )
    assert got == expected


def test_total_derivative_of_first_derivative_gives_eq_one():
    start = PolyExpr({(((1, 0), 1), ((0, 1), -1)): Fraction(-1)})
    got = total_derivative(start)
    expected = PolyExpr(
        {
            (((2, 0), 1), ((0, 1), -1)): Fraction(-1),
            (((1, 1), 1), ((1, 0), 1), ((0, 1), -2)): Fraction(2),
            (((0, 2), 1), ((1, 0), 2), ((0, 1), -3)): Fraction(-1),
        }
    )
    assert got == expected


@given(
    scale=st.fractions(min_value=-5, max_value=5, max_denominator=6),
    exponents=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-2, 3)),
        min_size=1,
        max_size=3,
    ),
)
@settings(max_examples=50)
def test_total_derivative_is_linear(scale, exponents):
    e1 = PolyExpr({tuple(((p, t), e) for p, t, e in exponents): Fraction(3, 2)})
    e2 = sym(1, 1) + sym(0, 2, 2)
    lhs = total_derivative(scale * e1 + e2)
    rhs = scale * total_derivative(e1) + total_derivative(e2)
    assert lhs == rhs


def test_total_derivative_keeps_fractions():
    start = PolyExpr({(((2, 1), 1), ((0, 1), -2)): Fraction(3, 2)})
    for _ in range(2):
        start = total_derivative(start)
        assert start.terms
        assert all(type(c) is Fraction for c in start.terms.values())


def test_carried_chain_is_integer_and_matches_oracle():
    chain = first_derivative()
    for n in range(1, 11):
        assert all(type(c) is int for c in chain.terms.values())
        formula = as_elementary(n, chain)
        assert formula == oracle_formula(n) == elementary_formula(n)
        chain = total_derivative(chain)


@pytest.mark.parametrize("n", [1, 5])
def test_oracle_formula_keeps_fraction_coefficients(n):
    assert all(type(c) is Fraction for c, _ in oracle_formula(n).terms)


@pytest.mark.parametrize("n", range(1, 10))
def test_oracle_agrees_with_direct_expanded_form(n):
    diff = formulas_equal(elementary_formula(n), oracle_formula(n))
    assert diff.equal, diff.differences[:3]


@pytest.mark.parametrize("n", range(1, 7))
def test_oracle_output_structure(n):
    for coeff, mono in oracle_formula(n).terms:
        partials = Multiplicities(mono.exponents)
        assert partials.sum_l == n
        assert mono.fy_power == 1 + partials.sum_r
        assert coeff.denominator == 1


def test_formulas_equal_detects_differences():
    same = formulas_equal(elementary_formula(2), elementary_formula(2))
    assert same and same.differences == ()
    diff = formulas_equal(elementary_formula(3), elementary_formula(2))
    assert not diff
    assert any("orders differ" in line for line in diff.differences)


def test_oracle_rejects_bad_orders():
    with pytest.raises(DomainError) as info:
        oracle_formula(0)
    assert not isinstance(info.value, CapError)
    with pytest.raises(CapError):
        oracle_formula(31)


def test_oracle_module_is_independent():
    # the whole point of the oracle is independence from the
    # combinatorial construction; it may share only the container types
    source = Path(implicit_derivatives.oracle.__file__).read_text()
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    forbidden = {"partitions", "coeffs", "formula"}
    assert not {m.rsplit(".", 1)[-1] for m in imported} & forbidden
