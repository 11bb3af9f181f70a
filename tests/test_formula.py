"""Tests for formula construction, differentiation, expansion, specialization."""

import dataclasses
import json
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
    coeff_C,
    coeff_D,
    delta_formula,
    delta_formula_via_recursion,
    derive_next,
    elementary_formula,
    enumerate_A,
    enumerate_B,
    expand_block,
    expand_delta,
    formula_from_json,
    formulas_equal,
    fx_zero_formula,
    inverse_function_formula,
    lift_to_tilde,
    recursion_step,
    render,
    signed_coeff,
    specialize_fx_zero,
)
from implicit_derivatives import formula as formula_module
from implicit_derivatives.errors import HARD_CAP
from implicit_derivatives.formula import _pack, _unpack
from implicit_derivatives.keys import VectorKey, merge_entries
from implicit_derivatives.partitions import (
    PredecessorRecord,
    predecessor_records,
    successor_advance,
    successor_mixed,
    successor_trade,
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
        pytest.param(fx_zero_formula, 1, id="fx_zero_formula"),
        pytest.param(inverse_function_formula, 1, id="inverse_function_formula"),
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
    for order in (minimum + 1.0, True):
        with pytest.raises(DomainError) as info:
            build(order)
        assert not isinstance(info.value, CapError)


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
        blocks = Multiplicities(mono.factors)
        h = blocks.total
        assert blocks.sum_l == n
        assert blocks.sum_r == h - 1
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
        partials = Multiplicities(mono.exponents)
        assert partials.sum_l == n
        assert mono.fy_power == 1 + partials.sum_r
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


@pytest.mark.parametrize(
    "indices",
    [(2.5,), (-1,), (2, 0, True), (2, -1, 0)],
    ids=["float-l", "negative-l", "bool-t0", "negative-p0"],
)
def test_block_expansion_rejects_bad_indices(indices):
    with pytest.raises(DomainError):
        expand_block(*indices)


@pytest.mark.parametrize("n", range(2, 9))
def test_derive_next_chain_matches_direct(n):
    assert derive_next(delta_formula(n)) == delta_formula(n + 1)


@pytest.mark.parametrize("n", range(3, 10))
def test_recursion_built_formula_matches_direct(n):
    assert delta_formula_via_recursion(n) == delta_formula(n)
    assert recursion_step(delta_formula(n - 1)) == delta_formula(n)


def test_derive_next_rejects_malformed_input():
    bad = DeltaFormula.from_terms(2, [dterm(-1, {(2, 0): 1}, 4)])
    with pytest.raises(FormulaError):
        derive_next(bad)
    # f_y power consistent with one block, but D[2,0] has x-weight 2, not 3
    not_in_family = DeltaFormula.from_terms(3, [dterm(-1, {(2, 0): 1}, 4)])
    with pytest.raises(FormulaError):
        derive_next(not_in_family)
    with pytest.raises(FormulaError):
        derive_next(elementary_formula(2))
    with pytest.raises(FormulaError):
        derive_next(None)


def test_recursion_step_rejects_malformed_input():
    for bad in (
        DeltaFormula.from_terms(2, [dterm(-1, {(2, 0): 1}, 4)]),
        DeltaFormula.from_terms(3, [dterm(-1, {(2, 0): 1}, 4)]),
        elementary_formula(2),
    ):
        with pytest.raises(FormulaError):
            recursion_step(bad)


def test_recursion_step_refuses_a_record_outside_family_a():
    # {(1,0):3} lies outside family A at order 3: as a term it would hold
    # the block D[1,0], which no compact monomial may
    records = [
        (
            Multiplicities((((1, 0), 3),)),
            [PredecessorRecord("d", None, Multiplicities((((2, 0), 1),)), 1)],
        )
    ]
    with pytest.raises(DomainError):
        recursion_step(delta_formula(2), records)


def test_recursion_step_refuses_a_beta_that_is_not_multiplicities():
    with pytest.raises(DomainError):
        recursion_step(delta_formula(2), [({(2, 0): 1}, [])])


def _times(formula, factor):
    return DeltaFormula(formula.n, tuple((coeff * factor, mono) for coeff, mono in formula.terms))


@pytest.mark.parametrize("step", [derive_next, recursion_step])
@pytest.mark.parametrize("n", range(2, 11))
def test_steps_carry_non_integer_coefficients(step, n):
    # both steps are linear, so scaling the input scales the next order
    factor = Fraction(-2, 3)
    assert step(_times(delta_formula(n), factor)) == _times(delta_formula(n + 1), factor)


def fraction_step_sums(step, formula):
    """Each next-order element's raw sum, accumulated in Fractions as the steps once did."""
    n = formula.n
    table = {Multiplicities(mono.factors): coeff for coeff, mono in formula.terms}
    acc = {}

    def add(mults, value):
        acc[mults] = acc.get(mults, Fraction(0)) + value

    if step is recursion_step:
        for beta, preds in predecessor_records(n + 1):
            value = Fraction(0)
            for record in preds:
                value += record.signed_weight * table.get(record.predecessor, 0)
            acc[beta] = value
        return acc
    for alpha, coeff in table.items():
        h = alpha.total
        mixed = successor_mixed(alpha)
        for key, count in alpha.items():
            base = coeff * count
            add(successor_advance(alpha, key), base)
            if key.l:
                add(mixed, base * key.l)
                traded = mixed if key == (2, 0) else successor_trade(alpha, key)
                add(traded, -base * key.l)
        add(mixed, coeff * (n - 1 - h))
        add(mixed, -coeff * (2 * n - 1))
    return acc


_HALF, _THIRD, _FIVE_SIXTHS = Fraction(1, 2), Fraction(1, 3), Fraction(5, 6)


@pytest.mark.parametrize("step", [derive_next, recursion_step])
@pytest.mark.parametrize(
    "coeffs, cancels",
    [
        ((_HALF, _THIRD, _FIVE_SIXTHS, -_THIRD, _HALF), False),
        ((_HALF, _HALF, _HALF, _THIRD, _FIVE_SIXTHS), True),
    ],
    ids=["mixed-denominators", "one-sum-cancels"],
)
def test_integer_steps_equal_the_fraction_accumulation(step, coeffs, cancels):
    # a hand-made order-4 block formula: delta_formula(4)'s monomials, other coefficients
    terms = delta_formula(4).terms
    formula = DeltaFormula(4, tuple((c, mono) for c, (_, mono) in zip(coeffs, terms)))
    sums = fraction_step_sums(step, formula)
    assert any(value == 0 for value in sums.values()) == cancels
    expected = DeltaFormula.from_terms(
        5,
        [
            (value, DeltaMonomial(beta.entries, 5 + beta.total))
            for beta, value in sums.items()
            if value != 0
        ],
    )
    assert step(formula) == expected


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


def test_block_expansion_has_integer_coefficients():
    for l in range(7):
        assert all(type(c) is int for c in expand_block(l, 1, 2).values())


def _fraction_poly_mul(a, b):
    out = {}
    for mono_a, ca in a.items():
        for mono_b, cb in b.items():
            key = merge_entries(mono_a + mono_b)
            value = out.get(key, Fraction(0)) + ca * cb
            if value:
                out[key] = value
            elif key in out:
                del out[key]
    return out


def expand_delta_reference(formula):
    """Every factor of every term re-expanded, in Fraction coefficients."""
    terms = []
    for coeff, mono in formula.terms:
        poly = {(): coeff}
        for key, power in mono.factors:
            block = {k: Fraction(c) for k, c in expand_block(key.l, 0, key.r).items()}
            block_power = {(): Fraction(1)}
            for _ in range(power):
                block_power = _fraction_poly_mul(block_power, block)
            poly = _fraction_poly_mul(poly, block_power)
        for exps, value in poly.items():
            fy_numer = dict(exps).get((0, 1), 0)
            kept = tuple((k, e) for k, e in exps if k != (0, 1))
            terms.append((value, ElemMonomial(kept, mono.fy_power - fy_numer)))
    return ElemFormula.from_terms(formula.n, terms)


@pytest.mark.parametrize("n", range(2, 11))
def test_expand_delta_matches_the_fraction_route(n):
    compact = delta_formula(n)
    expanded = expand_delta(compact)
    assert expanded == expand_delta_reference(compact)
    assert all(type(c) is Fraction for c, _ in expanded.terms)


def test_expand_delta_keeps_fractional_coefficients():
    halved = DeltaFormula(
        6, tuple((coeff / 2, mono) for coeff, mono in delta_formula(6).terms)
    )
    expanded = expand_delta(halved)
    assert expanded == expand_delta_reference(halved)
    assert expanded == ElemFormula(
        6, tuple((coeff / 2, mono) for coeff, mono in elementary_formula(6).terms)
    )


@pytest.mark.parametrize(
    "entries",
    [
        ((VectorKey(0, 31), 1), (VectorKey(1, 0), 30), (VectorKey(29, 2), 30)),
        ((VectorKey(0, 31), 31), (VectorKey(1, 0), 31)),  # the slot range
    ],
)
def test_expansion_packer_round_trips_at_the_slot_bounds(entries):
    keys = [key for key, _ in entries] + [VectorKey(0, 1)]
    slots = {key: 5 * slot for slot, key in enumerate(keys)}
    for fy_power in (59, 0, -59):  # f_y^-59 is the order-30 extreme
        packed = _pack(entries + ((VectorKey(0, 1), -fy_power),), slots)
        assert _unpack(packed, keys) == (fy_power, entries)


@pytest.mark.parametrize("power", [31, 32, 300])
def test_expand_delta_refuses_a_block_power_past_the_slots(power):
    # D[1,1]^power holds f_x^power and f_xy^power; 31 is the largest a slot holds
    mono = DeltaMonomial(((VectorKey(1, 1), power),), power + 3)
    hand_made = DeltaFormula(2, ((Fraction(-1), mono),))
    if power > 31:
        with pytest.raises(FormulaError):
            expand_delta(hand_made)
    else:
        assert expand_delta(hand_made) == expand_delta_reference(hand_made)


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
                Fraction(signed_coeff(alpha)),
                ElemMonomial(alpha.entries, alpha.total),
            )
            for alpha in enumerate_A(n)
        ],
    )
    assert specialize_fx_zero(elementary_formula(n)) == expected


@pytest.mark.parametrize("n", range(1, 13))
def test_direct_fx0_build_matches_specialization(n):
    formula = fx_zero_formula(n)
    assert formula == specialize_fx_zero(elementary_formula(n))
    assert (formula.terms == ()) == (n == 1)


# --- direct builders against the route through Multiplicities ------------------------
#
# The builders take their terms in order straight from the family grouped
# by stratum; the reference below is the earlier route: enumerate, score
# each element from its Multiplicities, then collect and sort with from_terms.


def _route_via_enumerate(n, elements, signed, monomial, fy_offset, formula_cls):
    terms = [
        (Fraction(signed(e)), monomial(e.entries, fy_offset + e.total))
        for e in elements
    ]
    return formula_cls.from_terms(n, terms)


def _signed_D(gamma):
    return (-1) ** gamma.total * coeff_D(gamma)


@pytest.mark.parametrize("n", range(2, 15))
def test_delta_formula_matches_route_via_enumerate(n):
    expected = _route_via_enumerate(
        n, enumerate_A(n), signed_coeff, DeltaMonomial, n, DeltaFormula
    )
    assert delta_formula(n) == expected


@pytest.mark.parametrize("n", range(1, 12))
def test_elementary_formula_matches_route_via_enumerate(n):
    expected = _route_via_enumerate(
        n, enumerate_B(n), _signed_D, ElemMonomial, 0, ElemFormula
    )
    assert elementary_formula(n) == expected


@pytest.mark.parametrize("n", range(1, 13))
def test_fx_zero_formula_matches_route_via_enumerate(n):
    alphas = enumerate_A(n) if n >= 2 else []
    expected = _route_via_enumerate(
        n, alphas, signed_coeff, ElemMonomial, 0, ElemFormula
    )
    assert fx_zero_formula(n) == expected


# builder, family, coefficient rule, monomial type, f_y offset (None: the order)
_DIRECT_BUILDERS = {
    "delta": (delta_formula, enumerate_A, coeff_C, DeltaMonomial, None),
    "elementary": (elementary_formula, enumerate_B, coeff_D, ElemMonomial, 0),
    "fx0": (fx_zero_formula, enumerate_A, coeff_C, ElemMonomial, 0),
}


@pytest.mark.parametrize("n", range(8, 13))
@pytest.mark.parametrize("build", sorted(_DIRECT_BUILDERS))
def test_direct_builders_share_one_fraction_per_coefficient(build, n):
    builder, family, coeff, monomial, fy_offset = _DIRECT_BUILDERS[build]
    fy_offset = n if fy_offset is None else fy_offset
    formula = builder(n)
    # one term per element, in enumeration order, which is the canonical order
    expected = []
    for element in family(n):
        sign = -1 if element.total % 2 else 1
        mono = monomial(element.entries, fy_offset + element.total)
        expected.append((Fraction(sign * coeff(element)), mono))
    assert formula.terms == tuple(expected)
    coeffs = [c for c, _ in formula.terms]
    assert len({id(c) for c in coeffs}) == len(set(coeffs)) < len(coeffs)


@pytest.mark.parametrize(
    "cls, n, terms",
    [
        pytest.param(
            DeltaFormula,
            3,
            [dterm(3, {(1, 1): 1, (2, 0): 1}, 5), dterm(-1, {(3, 0): 1}, 4)],
            id="delta-swapped",
        ),
        pytest.param(
            DeltaFormula,
            3,
            [dterm(-1, {(3, 0): 1}, 4), dterm(-1, {(3, 0): 1}, 4)],
            id="delta-duplicate",
        ),
        pytest.param(
            ElemFormula,
            3,
            [eterm(2, {(1, 1): 1, (1, 0): 1}, 2), eterm(-1, {(2, 0): 1}, 1)],
            id="elementary-swapped",
        ),
        pytest.param(
            ElemFormula,
            3,
            [eterm(-1, {(2, 0): 1}, 1), eterm(-1, {(2, 0): 1}, 1)],
            id="elementary-duplicate",
        ),
        # the value types hold n to the order policy
        *[
            pytest.param(DeltaFormula, n, [dterm(-1, {(3, 0): 1}, 4)], id=f"delta-order-{n}")
            for n in ("x", -3, 1)
        ],
        *[
            pytest.param(ElemFormula, n, [eterm(-1, {(2, 0): 1}, 1)], id=f"elementary-order-{n}")
            for n in (0, 31)
        ],
    ],
)
def test_formula_constructor_rejects_non_canonical_terms(cls, n, terms):
    # the direct builders rely on this guard for their term order
    with pytest.raises(FormulaError):
        cls(n, tuple(terms))
    assert cls.from_terms(3, terms[:1]).terms == tuple(terms[:1])


@pytest.mark.parametrize(
    "cls, mono",
    [
        pytest.param(DeltaFormula, DeltaMonomial(((VectorKey(2, 0), 1),), 3), id="delta"),
        pytest.param(ElemFormula, ElemMonomial(((VectorKey(2, 0), 1),), 1), id="elementary"),
    ],
)
@pytest.mark.parametrize(
    "coeff", [0.1, -1.0, float("nan"), float("inf"), True, False, "1/3", "2", None]
)
def test_from_terms_takes_only_exact_coefficients(cls, mono, coeff):
    with pytest.raises(FormulaError):
        cls.from_terms(2, [(coeff, mono)])
    # an int and a Fraction of the same value make the same formula
    assert cls.from_terms(2, [(-1, mono)]) == cls.from_terms(2, [(Fraction(-1), mono)])
    assert cls.from_terms(2, [(-1, mono)]).terms[0][0].__class__ is Fraction


# --- canonical by construction -------------------------------------------------------


def assert_canonical_by_construction(formula):
    """Every monomial equals its rebuild by the checked constructor, entries and all.

    The check hands a canonical, valid entries tuple back as it is, so the
    rebuild holds the very same tuple only when the builder made it canonical.
    """
    if isinstance(formula, DeltaFormula):
        monomial, part = DeltaMonomial, "factors"
    else:
        monomial, part = ElemMonomial, "exponents"
    for _, mono in formula.terms:
        entries = getattr(mono, part)
        rebuilt = monomial(entries, mono.fy_power)
        assert rebuilt == mono, mono
        assert getattr(rebuilt, part) is entries, mono


# builder of order n, lowest and highest order checked
_TRUSTED_BUILDERS = {
    "delta": (delta_formula, 2, 12),
    "elementary": (elementary_formula, 1, 10),
    "fx0": (fx_zero_formula, 1, 12),
    "inverse": (inverse_function_formula, 1, 12),
    "derive_next": (lambda n: derive_next(delta_formula(n - 1)), 3, 12),
    "recursion_step": (lambda n: recursion_step(delta_formula(n - 1)), 3, 12),
    "expand_delta": (lambda n: expand_delta(delta_formula(n)), 2, 10),
}


@pytest.mark.parametrize(
    "build, n",
    [
        pytest.param(build, n, id=f"{name}-{n}")
        for name, (build, low, high) in _TRUSTED_BUILDERS.items()
        for n in range(low, high + 1)
    ],
)
def test_builders_make_canonical_monomials(build, n):
    assert_canonical_by_construction(build(n))


@pytest.mark.parametrize("build", [delta_formula, elementary_formula, fx_zero_formula])
def test_a_family_walk_with_one_unsorted_element_fails_the_guarantee(monkeypatch, build):
    walk = formula_module._family

    def swapped(n, family_a):
        groups = walk(n, family_a)
        total, group = groups[-1]
        first, second, *rest = group[-1]
        return groups[:-1] + [(total, group[:-1] + [(second, first, *rest)])]

    monkeypatch.setattr(formula_module, "_family", swapped)
    # the swap makes the last term larger still, so the term order holds and
    # the formula renders; only the rebuild sees the unsorted entries
    formula = build(6)
    render(formula)
    with pytest.raises(AssertionError):
        assert_canonical_by_construction(formula)


def _delta_document(entries):
    factors = [{"l": l, "r": r, "power": count} for (l, r), count in entries]
    term = {"coeff": "1", "factors": factors, "fy_power": 5}
    return json.dumps({"n": 3, "form": "delta", "terms": [term]})


# the public ways to make a monomial from (key, count) entries
_ENTRY_POINTS = {
    "DeltaMonomial": lambda entries: DeltaMonomial(entries, 5),
    "ElemMonomial": lambda entries: ElemMonomial(entries, 5),
    "from_terms": lambda entries: DeltaFormula.from_terms(
        3, [(1, DeltaMonomial(entries, 5))]
    ).terms[0][1],
    "formula_from_json": lambda entries: formula_from_json(_delta_document(entries)).terms[0][1],
    "replace": lambda entries: dataclasses.replace(DeltaMonomial((), 3), factors=entries),
}


@pytest.mark.parametrize("make", _ENTRY_POINTS.values(), ids=list(_ENTRY_POINTS))
def test_public_entry_points_check_every_entry(make):
    for bad in (
        [((0, 1), 1)],  # f_y: forbidden in both monomial types
        [((2, 0), 2), ((1, 1), -1)],
        [((True, 1), 1)],
    ):
        with pytest.raises(FormulaError):
            make(bad)
    mono = make([((2, 0), 1), ((1, 1), 2)])
    made = mono.factors if isinstance(mono, DeltaMonomial) else mono.exponents
    assert made == ((VectorKey(1, 1), 2), (VectorKey(2, 0), 1))
    assert all(key.__class__ is VectorKey for key, _ in made)


def test_expand_delta_refuses_a_negative_power_of_fy():
    # D[2,0] over f_y^0 expands to f_xx f_y^2 - ..., f_y left in a numerator
    hand_made = DeltaFormula(2, ((Fraction(-1), DeltaMonomial(((VectorKey(2, 0), 1),), 0)),))
    with pytest.raises(FormulaError):
        expand_delta(hand_made)


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


@pytest.mark.parametrize("n", range(1, HARD_CAP + 1))
def test_inverse_formula_matches_reference(n):
    formula = inverse_function_formula(n)
    assert formula.form == "inverse"
    got = {
        tuple((k.r, p) for k, p in mono.exponents): (coeff, mono.fy_power)
        for coeff, mono in formula.terms
    }
    assert got == inverse_reference(n)


def inverse_by_filtering(n):
    """The inverse form as a filter of the expanded form: keys (1, 0), (0, t) only."""
    terms = []
    for coeff, mono in elementary_formula(n).terms:
        if any(k.l >= 1 and k != (1, 0) for k, _ in mono.exponents):
            continue
        g_factors = tuple((k, p) for k, p in mono.exponents if k != (1, 0))
        u = sum(p for _, p in g_factors)
        sign = Fraction(-1) ** (u + mono.fy_power)
        terms.append((coeff * sign, ElemMonomial(g_factors, mono.fy_power)))
    return ElemFormula.from_terms(n, terms, form="inverse")


@pytest.mark.parametrize("n", range(1, 13))
def test_inverse_formula_matches_filtered_expanded_form(n):
    assert inverse_function_formula(n) == inverse_by_filtering(n)


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
