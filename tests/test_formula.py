"""Tests for formula construction, differentiation, expansion, specialization."""

from fractions import Fraction
from math import factorial

import pytest

from implicit_derivatives import (
    CapError,
    DeltaFormula,
    DeltaMonomial,
    DomainError,
    ElemFormula,
    ElemMonomial,
    FormulaError,
    Multiplicities,
    delta_formula,
    delta_formula_via_recursion,
    derive_next,
    elementary_formula,
    enumerate_A,
    enumerate_B,
    expand_block,
    expand_delta,
    formulas_equal,
    inverse_function_formula,
    lift_to_tilde,
    signed_coeff,
    specialize_fx_zero,
)


def dterm(coeff, factors, fy_power):
    return (Fraction(coeff), DeltaMonomial(tuple(factors.items()), fy_power))


def eterm(coeff, exponents, fy_power):
    return (Fraction(coeff), ElemMonomial(tuple(exponents.items()), fy_power))


def delta_expected(n, terms):
    return DeltaFormula.from_terms(n, terms)


# --- golden constructions ------------------------------------------------------


def test_second_derivative_block_form():
    assert delta_formula(2) == delta_expected(2, [dterm(-1, {(2, 0): 1}, 3)])


def test_third_derivative_block_form():
    assert delta_formula(3) == delta_expected(
        3,
        [
            dterm(-1, {(3, 0): 1}, 4),
            dterm(3, {(1, 1): 1, (2, 0): 1}, 5),
        ],
    )


def test_fourth_derivative_block_form():
    expected = delta_expected(
        4,
        [
            dterm(-1, {(4, 0): 1}, 5),
            dterm(4, {(3, 0): 1, (1, 1): 1}, 6),
            dterm(6, {(2, 1): 1, (2, 0): 1}, 6),
            dterm(-3, {(2, 0): 2, (0, 2): 1}, 7),
            dterm(-12, {(2, 0): 1, (1, 1): 2}, 7),
        ],
    )
    assert delta_formula(4) == expected
    assert [int(c) for c, _ in delta_formula(4).terms] == [-1, 4, 6, -3, -12]
    assert max(mono.fy_power for _, mono in delta_formula(4).terms) == 7


def test_block_form_regression_no_spurious_key():
    # the order-4 list contains the product with keys (2,1) and (2,0);
    # no element carries a (2,2) block
    formula = delta_formula(4)
    keys = {k for _, mono in formula.terms for k, _ in mono.factors}
    assert (2, 1) in keys and (2, 2) not in keys


@pytest.mark.parametrize(
    "build, minimum",
    [
        pytest.param(delta_formula, 2, id="delta_formula"),
        pytest.param(delta_formula_via_recursion, 2, id="delta_formula_via_recursion"),
        pytest.param(elementary_formula, 1, id="elementary_formula"),
        pytest.param(enumerate_A, 2, id="enumerate_A"),
        pytest.param(enumerate_B, 1, id="enumerate_B"),
    ],
)
def test_block_form_rejects_bad_orders(build, minimum):
    with pytest.raises(DomainError) as info:
        build(minimum - 1)
    assert not isinstance(info.value, CapError)
    with pytest.raises(CapError):
        build(31)


def test_first_derivative_expanded_form():
    assert elementary_formula(1) == ElemFormula.from_terms(
        1, [eterm(-1, {(1, 0): 1}, 1)]
    )


def test_second_derivative_expanded_form():
    assert elementary_formula(2) == ElemFormula.from_terms(
        2,
        [
            eterm(-1, {(2, 0): 1}, 1),
            eterm(2, {(1, 1): 1, (1, 0): 1}, 2),
            eterm(-1, {(0, 2): 1, (1, 0): 2}, 3),
        ],
    )


def test_third_derivative_expanded_form():
    expected = ElemFormula.from_terms(
        3,
        [
            eterm(-1, {(3, 0): 1}, 1),
            eterm(3, {(2, 1): 1, (1, 0): 1}, 2),
            eterm(-3, {(1, 2): 1, (1, 0): 2}, 3),
            eterm(1, {(0, 3): 1, (1, 0): 3}, 4),
            eterm(3, {(2, 0): 1, (1, 1): 1}, 2),
            eterm(-3, {(2, 0): 1, (0, 2): 1, (1, 0): 1}, 3),
            eterm(-6, {(1, 1): 2, (1, 0): 1}, 3),
            eterm(9, {(1, 1): 1, (0, 2): 1, (1, 0): 2}, 4),
            eterm(-3, {(0, 2): 2, (1, 0): 3}, 5),
        ],
    )
    assert elementary_formula(3) == expected
    assert len(elementary_formula(3).terms) == 9


# --- structural invariants -------------------------------------------------------


@pytest.mark.parametrize("n", range(2, 9))
def test_block_form_structure(n):
    formula = delta_formula(n)
    for coeff, mono in formula.terms:
        h = mono.block_count
        assert mono.x_weight == n
        assert mono.y_weight == h - 1
        assert mono.fy_power == n + h
        assert (coeff > 0) == (h % 2 == 0)
        # with the implicit plain f_y factors made explicit, every term is a
        # product of exactly n-1 blocks with x-counts summing to n and
        # y-counts summing to n-2
        lifted = lift_to_tilde(Multiplicities(mono.factors), n)
        assert lifted.total == n - 1
        assert lifted.sum_l == n
        assert lifted.sum_r == n - 2


@pytest.mark.parametrize("n", range(1, 9))
def test_expanded_form_structure(n):
    for coeff, mono in elementary_formula(n).terms:
        assert mono.x_weight == n
        assert mono.fy_power == 1 + mono.y_weight
        assert (coeff > 0) == (mono.fy_power % 2 == 0)


# --- differentiation and recursion routes ----------------------------------------


def test_derive_next_reproduces_known_orders():
    assert derive_next(delta_formula(2)) == delta_formula(3)
    assert derive_next(delta_formula(3)) == delta_formula(4)


def test_derive_next_cancellation_emerges_from_collection():
    # differentiating the single order-2 block scatters +2 and -2 onto the
    # same mixed product; generic collection must leave exactly the +3 from
    # the denominator correction, with no residue term
    stepped = derive_next(delta_formula(2))
    assert len(stepped.terms) == 2
    assert stepped.as_dict()[DeltaMonomial((((1, 1), 1), ((2, 0), 1)), 5)] == 3


def test_single_x_block_expands_to_zero():
    assert expand_block(1, 0, 0) == {}
    with pytest.raises(FormulaError):
        DeltaMonomial((((1, 0), 1),), 3)


@pytest.mark.parametrize("n", range(2, 9))
def test_derive_next_chain_matches_direct(n):
    assert derive_next(delta_formula(n)) == delta_formula(n + 1)


@pytest.mark.parametrize("n", range(3, 10))
def test_recursion_built_formula_matches_direct(n):
    assert delta_formula_via_recursion(n) == delta_formula(n)


def test_derive_next_rejects_malformed_input():
    bad = DeltaFormula.from_terms(2, [dterm(-1, {(2, 0): 1}, 4)])
    with pytest.raises(FormulaError):
        derive_next(bad)
    with pytest.raises(FormulaError):
        derive_next(elementary_formula(2))


# --- block expansion ---------------------------------------------------------------


def _poly_scale_shift(poly, extra_key, coeff=Fraction(1)):
    """Multiply a sparse expansion by one symbol (helper for the identity test)."""
    out = {}
    for mono, c in poly.items():
        exps = dict(mono)
        exps[extra_key] = exps.get(extra_key, 0) + 1
        out[tuple(sorted(exps.items()))] = c * coeff
    return out


def _poly_sum(a, b):
    out = dict(a)
    for mono, c in b.items():
        value = out.get(mono, Fraction(0)) + c
        if value:
            out[mono] = value
        else:
            out.pop(mono, None)
    return out


@pytest.mark.parametrize("l", range(0, 7))
@pytest.mark.parametrize("r", range(0, 5))
def test_block_expansion_recursion(l, r):
    # expanding the (l+1)-block equals f_y * (l-block of the x-derivative)
    # minus f_x * (l-block of the y-derivative)
    lhs = expand_block(l + 1, 0, r)
    rhs = _poly_sum(
        _poly_scale_shift(expand_block(l, 1, r), (0, 1)),
        _poly_scale_shift(expand_block(l, 0, r + 1), (1, 0), Fraction(-1)),
    )
    assert lhs == rhs


def test_expand_delta_second_order():
    assert expand_delta(delta_formula(2)) == elementary_formula(2)


@pytest.mark.parametrize("n", range(2, 10))
def test_triple_route_equality(n):
    expanded = expand_delta(delta_formula(n))
    direct = elementary_formula(n)
    assert formulas_equal(expanded, direct).equal


# --- specialization -----------------------------------------------------------------


def test_specialize_drops_fx_terms():
    assert specialize_fx_zero(elementary_formula(2)) == ElemFormula.from_terms(
        2, [eterm(-1, {(2, 0): 1}, 1)]
    )
    assert specialize_fx_zero(elementary_formula(3)) == ElemFormula.from_terms(
        3,
        [
            eterm(-1, {(3, 0): 1}, 1),
            eterm(3, {(2, 0): 1, (1, 1): 1}, 2),
        ],
    )


@pytest.mark.parametrize("n", range(2, 8))
def test_specialized_form_is_the_family_A_sum(n):
    # with f_x = 0 each block collapses to a single partial, so the
    # expanded terms are indexed by family A with denominator exponent h
    expected = ElemFormula.from_terms(
        n,
        [
            (
                Fraction(signed_coeff(alpha).value),
                ElemMonomial(alpha.entries, alpha.total),
            )
            for alpha in enumerate_A(n)
        ],
    )
    assert specialize_fx_zero(elementary_formula(n)) == expected


# --- inverse functions ---------------------------------------------------------------


def inverse_reference(n):
    """Independent construction from partitions of n+u-1 into u parts >= 2."""
    terms = {}
    if n == 1:
        terms[()] = (Fraction(1), 1)
        return terms
    for u in range(1, n):
        weight = n + u - 1

        def parts(j, count_left, weight_left, acc):
            if count_left == 0:
                if weight_left == 0:
                    coeff = Fraction(factorial(n + u - 1))
                    for jj, mu in acc:
                        coeff /= factorial(mu) * factorial(jj) ** mu
                    terms[tuple(acc)] = (Fraction(-1) ** u * coeff, n + u)
                return
            if count_left * j > weight_left:
                return
            for mu in range(count_left + 1):
                if j * mu <= weight_left:
                    parts(
                        j + 1,
                        count_left - mu,
                        weight_left - j * mu,
                        acc + ([(j, mu)] if mu else []),
                    )

        parts(2, u, weight, [])
    return terms


@pytest.mark.parametrize("n", range(1, 7))
def test_inverse_formula_matches_reference(n):
    formula = inverse_function_formula(n)
    assert formula.form == "inverse"
    got = {
        tuple((k.r, p) for k, p in mono.exponents): (coeff, mono.fy_power)
        for coeff, mono in formula.terms
    }
    assert got == inverse_reference(n)


def test_inverse_small_orders():
    assert inverse_function_formula(1) == ElemFormula.from_terms(
        1, [eterm(1, {}, 1)], form="inverse"
    )
    assert inverse_function_formula(2) == ElemFormula.from_terms(
        2, [eterm(-1, {(0, 2): 1}, 3)], form="inverse"
    )
    assert inverse_function_formula(3) == ElemFormula.from_terms(
        3,
        [
            eterm(-1, {(0, 3): 1}, 4),
            eterm(3, {(0, 2): 2}, 5),
        ],
        form="inverse",
    )
