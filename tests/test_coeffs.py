"""Tests for the exact combinatorial coefficients and their identities."""

from collections import Counter
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from implicit_derivatives import (
    DomainError,
    Multiplicities,
    binom,
    coeff_C,
    coeff_D,
    coeffs,
    enumerate_A,
    enumerate_B,
    enumerate_Z,
    signed_coeff,
    verification,
    verify_C_recursion,
    zgamma_sum,
)


def m(pairs):
    return Multiplicities(tuple(dict(pairs).items()))


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
    with pytest.raises(DomainError):
        verify_C_recursion(3.0)


def binomial_row(top):
    return tuple(binom(top, s10) for s10 in range(top + 1))


def core_of(gamma):
    return Multiplicities(tuple((k, c) for k, c in gamma.items() if k != (1, 0)))


def system_by_system_sum(gamma, s10):
    # the refinement sum one split at a time, over every system in turn
    total = Fraction(0)
    base = Fraction(1)
    for _, count in gamma.items():
        base *= factorial(count)
    for system in enumerate_Z(gamma, s10):
        term = base
        for (_, t, j), q in system.items():
            term *= Fraction(binom(t, j) ** q, factorial(q))
        total += term
    return total


def test_refinement_sum_forced_cases():
    assert zgamma_sum(m({(2, 0): 1, (3, 1): 2})) == binomial_row(2)
    assert zgamma_sum(m({(1, 1): 1})) == binomial_row(1)
    assert zgamma_sum(m({(2, 2): 1, (1, 1): 1})) == binomial_row(3)


def test_refinement_sum_of_empty_core():
    assert zgamma_sum(m({})) == (1,)


@pytest.mark.parametrize("key", [(1, 0), (0, 1), (0, 0)], ids=["fx", "fy", "constant"])
def test_refinement_sum_rejects_small_keys(key):
    with pytest.raises(DomainError):
        zgamma_sum(m({(2, 1): 1, key: 1}))


def test_refinement_row_matches_system_by_system_sum():
    cores = {core_of(gamma) for n in range(1, 9) for gamma in enumerate_B(n)}
    for core in cores:
        row = zgamma_sum(core)
        assert all(type(value) is int for value in row)
        splits = range(core.sum_r + 1)
        assert list(row) == [system_by_system_sum(core, s) for s in splits]


@pytest.mark.parametrize("n", range(1, 11))
def test_refinement_sum_is_binomial_over_family_B(n):
    for gamma in enumerate_B(n):
        core = core_of(gamma)
        assert zgamma_sum(core) == binomial_row(core.sum_r)


@given(
    counts=st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(
            lambda k: k[0] + k[1] >= 2
        ),
        st.integers(1, 3),
        max_size=3,
    )
)
@settings(max_examples=60, deadline=None)
def test_refinement_sum_is_binomial_generally(counts):
    # the identity holds for arbitrary non-negative profiles, not just
    # the ones occurring inside family B
    gamma = Multiplicities(tuple(counts.items()))
    assert zgamma_sum(gamma) == binomial_row(gamma.sum_r)


def test_johnson_suite_builds_each_key_polynomial_once_per_call(monkeypatch):
    honest = coeffs._key_polynomial
    seen = Counter()

    def counting(t, count):
        seen[t, count] += 1
        return honest(t, count)

    monkeypatch.setattr(coeffs, "_key_polynomial", counting)
    for calls in (1, 2):
        assert all(verification.johnson_suite(9))
        assert seen and set(seen.values()) == {calls}


def test_shared_key_table_gives_the_same_rows():
    shared = {}
    cores = {core_of(gamma) for n in range(1, 10) for gamma in enumerate_B(n)}
    for core in sorted(cores, key=lambda c: c.entries):
        assert zgamma_sum(core, shared) == zgamma_sum(core)
    assert shared
