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
    ElemFormula,
    ElemMonomial,
    FormulaError,
    Multiplicities,
    delta_formula,
    elementary_formula,
    expand_delta,
    formulas_equal,
    oracle_formula,
    total_derivative,
)
from implicit_derivatives.keys import merge_entries
from implicit_derivatives.oracle import (
    FormulaDiff,
    as_elementary,
    first_derivative,
    pack,
    pack_formula,
    unpack,
)

# polynomials are plain {monomial: coefficient} dicts; a monomial is a
# sorted tuple of ((p, t), exponent) pairs, f_y's exponent may be negative;
# the chain takes and returns them packed, so the tests convert


def step(expr):
    """``total_derivative`` in the tuple form."""
    return unpack(total_derivative(pack(expr)))


def add(a, b):
    """Sum of two polynomials, zero coefficients dropped."""
    out = dict(a)
    for mono, coeff in b.items():
        out[mono] = out.get(mono, 0) + coeff
    return {mono: coeff for mono, coeff in out.items() if coeff}


def scale(c, a):
    """The polynomial ``a`` times the scalar ``c``, zero coefficients dropped."""
    return {mono: c * coeff for mono, coeff in a.items() if c * coeff}


def test_total_derivative_of_constant_is_zero():
    assert step({(): 1}) == {}
    assert step({}) == {}


def test_total_derivative_of_fy():
    # d/dx f_y = f_xy - f_yy f_x / f_y
    got = step({(((0, 1), 1),): 1})
    expected = {
        (((1, 1), 1),): 1,
        (((0, 1), -1), ((0, 2), 1), ((1, 0), 1)): -1,
    }
    assert got == expected


def test_total_derivative_of_first_derivative_gives_eq_one():
    start = {(((0, 1), -1), ((1, 0), 1)): -1}
    assert unpack(first_derivative()) == start
    got = step(start)
    expected = {
        (((0, 1), -1), ((2, 0), 1)): -1,
        (((0, 1), -2), ((1, 0), 1), ((1, 1), 1)): 2,
        (((0, 1), -3), ((0, 2), 1), ((1, 0), 2)): -1,
    }
    assert got == expected


@given(
    c=st.fractions(min_value=-5, max_value=5, max_denominator=6),
    exponents=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-2, 3)),
        min_size=1,
        max_size=3,
    ),
)
@settings(max_examples=50)
def test_total_derivative_is_linear(c, exponents):
    e1 = {merge_entries(((p, t), e) for p, t, e in exponents): Fraction(3, 2)}
    e2 = {(((1, 1), 1),): 1, (((0, 2), 2),): 1}
    lhs = step(add(scale(c, e1), e2))
    rhs = add(scale(c, step(e1)), step(e2))
    assert lhs == rhs


def test_total_derivative_keeps_fractions():
    start = {(((0, 1), -2), ((2, 1), 1)): Fraction(3, 2)}
    for _ in range(2):
        start = step(start)
        assert start
        assert all(type(c) is Fraction for c in start.values())


def test_carried_chain_is_integer_and_matches_oracle():
    chain = first_derivative()
    for n in range(1, 11):
        assert all(type(c) is int for c in chain.values())
        built = elementary_formula(n)
        assert as_elementary(n, chain) == oracle_formula(n) == built
        # packed, the built formula is the chain, integer coefficients included
        packed = pack_formula(built)
        assert packed == chain and all(type(c) is int for c in packed.values())
        chain = total_derivative(chain)


@pytest.mark.parametrize(
    "mono",
    [
        (((0, 1), -59), ((0, 31), 1), ((1, 0), 30)),  # the order-30 extremes
        (((0, 0), -2), ((2, 29), 30), ((31, 0), -1)),
        (((0, 1), -128), ((7, 3), 127)),  # the slot range
    ],
)
def test_pack_round_trips_at_the_slot_bounds(mono):
    assert unpack(pack({mono: 3})) == {mono: 3}


@pytest.mark.parametrize("exponent", [128, -129])
def test_pack_refuses_an_exponent_past_the_slot_range(exponent):
    with pytest.raises(FormulaError):
        pack({(((0, 1), -1), ((4, 4), exponent)): 1})


@pytest.mark.parametrize("e", [-1, -59, -126])
def test_total_derivative_at_the_slot_bound(e):
    # d/dx f_y^e f_x = (e-1) f_y^(e-1) f_x f_xy - e f_y^(e-2) f_x^2 f_yy + f_y^e f_xx
    expected = {
        (((0, 1), e - 1), ((1, 0), 1), ((1, 1), 1)): e - 1,
        (((0, 1), e - 2), ((0, 2), 1), ((1, 0), 2)): -e,
        (((0, 1), e), ((2, 0), 1)): 1,
    }
    assert step({(((0, 1), e), ((1, 0), 1)): 1}) == expected


@pytest.mark.parametrize(
    "mono", [(((0, 1), -127), ((1, 0), 1)), (((0, 1), -1), ((1, 0), 127))]
)
def test_total_derivative_refuses_a_step_past_the_slot_range(mono):
    with pytest.raises(FormulaError):
        step({mono: 1})


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
    # equal terms under another order are not equal formulas
    fourth = elementary_formula(4)
    relabelled = formulas_equal(ElemFormula(5, fourth.terms), fourth)
    assert relabelled == FormulaDiff(False, ("orders differ: 5 vs 4",))
    with pytest.raises(FormulaError):
        formulas_equal(delta_formula(3), elementary_formula(3))


def sorted_diff(a, b):
    """``formulas_equal`` without its fast path: every monomial of either, sorted."""
    problems = [f"orders differ: {a.n} vs {b.n}"] if a.n != b.n else []
    left, right = a.as_dict(), b.as_dict()
    for mono in sorted(set(left) | set(right), key=lambda m: (m.fy_power, m.exponents)):
        if left.get(mono) != right.get(mono):
            problems.append(f"monomial {mono}: {left.get(mono)} vs {right.get(mono)}")
    return FormulaDiff(not problems, tuple(problems))


def test_formulas_equal_fast_path_builds_no_maps(monkeypatch):
    built, expanded = oracle_formula(6), expand_delta(delta_formula(6))

    def refuse(self):
        raise AssertionError("equal formulas compared as maps")

    monkeypatch.setattr(ElemFormula, "as_dict", refuse)
    assert formulas_equal(elementary_formula(6), built) == FormulaDiff(True, ())
    assert formulas_equal(expanded, built) == FormulaDiff(True, ())


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 6),
    other_n=st.integers(1, 6),
    data=st.data(),
)
def test_formulas_equal_reports_the_sorted_diff(n, other_n, data):
    a = elementary_formula(n)
    # an edited copy: terms dropped or rescaled, possibly under another order
    terms = []
    for coeff, mono in a.terms:
        edit = data.draw(st.sampled_from(["keep", "keep", "drop", "scale"]))
        if edit != "drop":
            terms.append((coeff * (-2 if edit == "scale" else 1), mono))
    b = ElemFormula.from_terms(data.draw(st.sampled_from([n, other_n])), terms)
    for left, right in ((a, b), (b, a)):
        assert formulas_equal(left, right) == sorted_diff(left, right)


def test_pack_formula_keeps_f_y_as_its_negative_exponent():
    mono = ElemMonomial((((2, 0), 1),), 3)
    no_fy = ElemMonomial((((1, 1), 2),), 0)
    formula = ElemFormula(2, ((Fraction(1, 2), no_fy), (Fraction(-4), mono)))
    assert unpack(pack_formula(formula)) == {
        (((1, 1), 2),): Fraction(1, 2),
        (((0, 1), -3), ((2, 0), 1)): -4,
    }
    too_deep = ElemFormula(2, ((Fraction(1), ElemMonomial((((2, 0), 1),), 129)),))
    with pytest.raises(FormulaError):
        pack_formula(too_deep)
    # only expanded formulas are packed, as formulas_equal compares only them
    for other in (delta_formula(3), None):
        with pytest.raises(FormulaError):
            pack_formula(other)


def test_oracle_rejects_bad_orders():
    with pytest.raises(DomainError) as info:
        oracle_formula(0)
    assert not isinstance(info.value, CapError)
    with pytest.raises(CapError):
        oracle_formula(31)
    with pytest.raises(DomainError):
        oracle_formula(3.0)


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
