"""Tests for the exact combinatorial coefficients and their identities."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from implicit_derivatives import (
    DomainError,
    Multiplicities,
    binom,
    coeff_C,
    coeff_D,
    enumerate_A,
    enumerate_B,
    signed_coeff,
    verify_C_recursion,
    zgamma_sum,
)


def m(pairs):
    return Multiplicities.from_dict(dict(pairs))


def test_coeff_C_known_values():
    assert coeff_C(m({(2, 0): 1})) == 1
    assert coeff_C(m({(2, 0): 1, (1, 1): 1})) == 3
    assert [coeff_C(a) for a in enumerate_A(4)] == [1, 4, 6, 3, 12]


def test_coeff_C_rejects_fx_key():
    with pytest.raises(DomainError):
        coeff_C(m({(1, 0): 1, (2, 0): 1}))


def test_signed_coeff_signs():
    assert signed_coeff(m({(2, 0): 1})) == -1
    assert signed_coeff(m({(2, 0): 1, (1, 1): 1})) == 3
    assert signed_coeff(m({(2, 0): 1, (1, 1): 2})) == -12
    assert [signed_coeff(a) for a in enumerate_A(4)] == [-1, 4, 6, -3, -12]


def test_coeff_D_known_values():
    assert coeff_D(m({(2, 0): 1})) == 1
    assert coeff_D(m({(1, 1): 1, (1, 0): 1})) == 2
    assert coeff_D(m({(1, 0): 2, (0, 2): 1})) == 1
    assert coeff_D(m({(1, 1): 1, (2, 0): 1})) == 3
    assert coeff_D(m({(1, 1): 1, (0, 2): 1, (1, 0): 2})) == 9


@pytest.mark.parametrize("n", range(2, 8))
def test_coeff_D_extends_coeff_C(n):
    # family A sits inside family B with no f_x factors; the two
    # coefficient formulas must then agree term by term
    for alpha in enumerate_A(n):
        assert coeff_D(alpha) == coeff_C(alpha)


def test_binom_out_of_range_is_zero():
    assert binom(3, -1) == 0
    assert binom(3, 5) == 0
    assert binom(-2, 0) == 0
    assert binom(5, 2) == 10


@pytest.mark.parametrize("n", range(2, 9))
def test_C_recursion_passes(n):
    report = verify_C_recursion(n)
    assert report.passed, report.failures[:3]
    assert report.checked == 2 * len(enumerate_A(n + 1))


def test_C_recursion_rejects_low_order():
    with pytest.raises(DomainError):
        verify_C_recursion(1)


def test_refinement_sum_forced_cases():
    assert zgamma_sum(m({(2, 0): 1, (3, 1): 2}), 0) == 1
    assert zgamma_sum(m({(1, 1): 1}), 1) == 1
    assert zgamma_sum(m({(2, 2): 1, (1, 1): 1}), 2) == 3


@pytest.mark.parametrize("n", range(1, 7))
def test_refinement_sum_is_binomial_over_family_B(n):
    for gamma in enumerate_B(n):
        core = Multiplicities(tuple((k, c) for k, c in gamma.items() if k != (1, 0)))
        top = core.sum_r
        for s10 in range(top + 2):
            assert zgamma_sum(core, s10) == binom(top, s10)


@given(
    counts=st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(
            lambda k: k[0] + k[1] >= 2
        ),
        st.integers(1, 3),
        max_size=3,
    ),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_refinement_sum_is_binomial_generally(counts, data):
    # the identity holds for arbitrary non-negative profiles, not just
    # the ones occurring inside family B
    gamma = Multiplicities.from_dict(counts)
    s10 = data.draw(st.integers(0, gamma.sum_r))
    assert zgamma_sum(gamma, s10) == binom(gamma.sum_r, s10)
