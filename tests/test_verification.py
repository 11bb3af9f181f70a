"""Verify suites: failure text is made only for failing checks, and keeps its wording."""

import pytest

from implicit_derivatives import (
    ElemFormula,
    Multiplicities,
    binom,
    coeff_C,
    coeffs,
    delta_formula,
    elementary_formula,
    enumerate_A,
    enumerate_B,
    eval_formula,
    expand_delta,
    formulas_equal,
    oracle_formula,
    partitions,
    random_rational_jet,
    signed_coeff,
    total_derivative,
    verification,
    verify_C_recursion,
)
from implicit_derivatives.oracle import as_elementary, first_derivative


def test_passing_checks_format_no_text(monkeypatch):
    def refuse(self):
        raise AssertionError("failure text formatted for a passing check")

    monkeypatch.setattr(Multiplicities, "__str__", refuse)
    assert all(verification.johnson_suite(7))
    assert verify_C_recursion(6)


def test_johnson_failure_text(monkeypatch):
    honest = verification.zgamma_sum

    def off_by_one(core, *rest):
        row = list(honest(core, *rest))
        row[-1] += 1
        return tuple(row)

    monkeypatch.setattr(verification, "zgamma_sum", off_by_one)
    expected = []
    for gamma in enumerate_B(4):
        top = sum(k.r * c for k, c in gamma.items() if k != (1, 0))
        value, want = binom(top, top) + 1, binom(top, top)
        expected.append(f"gamma {gamma}, split {top}: got {value}, want {want}")
    assert verification.johnson_suite(4)[-1].failures == expected


def test_C_recursion_failure_text(monkeypatch):
    target = enumerate_A(4)[1]
    unsigned, signed = coeff_C(target), signed_coeff(target)
    honest = coeffs.coeff_C

    def skewed(alpha):
        return honest(alpha) + (alpha == target)

    monkeypatch.setattr(coeffs, "coeff_C", skewed)
    want = unsigned + 1
    signed_want = -want if target.total % 2 else want
    assert verify_C_recursion(3).failures == [
        f"unsigned recursion at {target}: got {unsigned}, want {want}",
        f"signed recursion at {target}: got {signed}, want {signed_want}",
    ]


def test_recursion_suite_failure_text(monkeypatch):
    monkeypatch.setattr(verification, "derive_next", lambda formula: formula)
    monkeypatch.setattr(
        verification, "recursion_step", lambda formula, records=None: formula
    )
    reports = verification.recursion_suite(3)
    assert reports[1].failures == [
        "differentiation step disagrees with direct construction at 3",
        "coefficient recursion disagrees with direct construction at 3",
    ]


def test_shift_failure_text(monkeypatch):
    honest = verification.specialize_fx_zero

    def doubled(formula):
        special = honest(formula)
        return ElemFormula(special.n, tuple((2 * c, m) for c, m in special.terms))

    monkeypatch.setattr(verification, "specialize_fx_zero", doubled)
    monkeypatch.setattr(verification, "JETS_PER_ORDER", 3)
    expected = []
    for i in range(3):
        seed = verification.SHIFT_SEED_BASE + 200 + i
        value = eval_formula(delta_formula(2), random_rational_jet(2, seed=seed)).value
        if value:
            expected.append(f"jet seed {seed}: {2 * value} vs {value}")
    assert expected
    assert verification.shift_suite(2)[0].failures == expected


@pytest.mark.parametrize("n", [2, 4])
def test_oracle_suite_failure_text(monkeypatch, n):
    honest = verification.elementary_formula

    def first_doubled(order):
        formula = honest(order)
        (c, m), *rest = formula.terms
        return ElemFormula(order, ((2 * c, m), *rest))

    monkeypatch.setattr(verification, "elementary_formula", first_doubled)
    bad = first_doubled(n)
    diff = formulas_equal(bad, oracle_formula(n))
    expansion = formulas_equal(expand_delta(delta_formula(n)), bad)
    assert verification.oracle_suite(n)[-1].failures == [
        f"expanded form vs oracle at {n}: " + "; ".join(diff.differences[:3]),
        f"block expansion vs expanded form at {n}: "
        + "; ".join(expansion.differences[:3]),
    ]


def test_oracle_suite_matches_the_elementary_reference():
    # the reference converts every order of the chain and diffs it as maps
    expected = []
    chain = first_derivative()
    for n in range(1, 11):
        elementary = elementary_formula(n)
        verdict = formulas_equal(elementary, as_elementary(n, chain)).equal
        if n >= 2:
            expansion = formulas_equal(expand_delta(delta_formula(n)), elementary)
            verdict = verdict and expansion.equal
        expected.append((f"forms agree at order {n}", 1 if n == 1 else 2, verdict))
        chain = total_derivative(chain)
    reports = verification.oracle_suite(10)
    assert [(r.name, r.checked, r.passed) for r in reports] == expected


def corrupted(expr):
    """The chain's next order with its first monomial dropped and its last doubled."""
    out = total_derivative(expr)
    first, *_, last = out
    del out[first]
    out[last] *= 2
    return out


@pytest.mark.parametrize("max_n", [2, 6])
def test_oracle_suite_failure_text_on_a_corrupted_chain(monkeypatch, max_n):
    monkeypatch.setattr(verification, "total_derivative", corrupted)
    reports = verification.oracle_suite(max_n)
    assert reports[0].passed
    chain = first_derivative()
    for n, report in enumerate(reports[1:], start=2):
        chain = corrupted(chain)
        diff = formulas_equal(elementary_formula(n), as_elementary(n, chain))
        assert any(line.endswith(" vs None") for line in diff.differences)
        assert not all(line.endswith(" vs None") for line in diff.differences)
        assert report.checked == 2
        assert report.failures == [
            f"expanded form vs oracle at {n}: " + "; ".join(diff.differences[:3])
        ]


def test_recursion_suite_walks_each_order_once(monkeypatch):
    calls = []
    honest = partitions.predecessors

    def counted(beta, n_plus_1):
        calls.append(n_plus_1)
        return honest(beta, n_plus_1)

    monkeypatch.setattr(partitions, "predecessors", counted)
    assert all(verification.recursion_suite(7))
    assert len(calls) == sum(len(enumerate_A(n)) for n in range(3, 9))


def test_run_suites_builds_each_formula_once(monkeypatch):
    built = []
    for name in ("delta_formula", "elementary_formula"):
        honest = getattr(verification, name)

        def counted(n, name=name, honest=honest):
            built.append((name, n))
            return honest(n)

        monkeypatch.setattr(verification, name, counted)
    assert all(verification.run_suites(["all"], 6))
    assert sorted(built) == sorted(set(built))
    assert ("delta_formula", 7) in built and ("elementary_formula", 6) in built
