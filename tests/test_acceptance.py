"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.  Every tolerance is pinned here; nothing is deferred
to later calibration.
"""

import time
from fractions import Fraction
from math import factorial

from implicit_derivatives import (
    DeltaFormula,
    DeltaMonomial,
    Multiplicities,
    binom,
    coeff_C,
    delta_formula,
    delta_formula_via_recursion,
    derive_next,
    elementary_formula,
    enumerate_A,
    enumerate_B,
    eval_formula,
    expand_delta,
    formulas_equal,
    inverse_function_formula,
    oracle_formula,
    random_rational_jet,
    shift_jet,
    specialize_fx_zero,
    verify_C_recursion,
    zgamma_sum,
)
from implicit_derivatives.numeric import (
    builtin_problem,
    evaluate_problem,
    finite_difference_derivatives,
)


def report(number, ok, description):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def dterm(coeff, factors, fy_power):
    return (Fraction(coeff), DeltaMonomial(tuple(factors.items()), fy_power))


def test_criterion_1_golden_formulas():
    start = time.perf_counter()
    expected = {
        2: DeltaFormula.from_terms(2, [dterm(-1, {(2, 0): 1}, 3)]),
        3: DeltaFormula.from_terms(
            3,
            [dterm(-1, {(3, 0): 1}, 4), dterm(3, {(1, 1): 1, (2, 0): 1}, 5)],
        ),
        4: DeltaFormula.from_terms(
            4,
            [
                dterm(-1, {(4, 0): 1}, 5),
                dterm(4, {(3, 0): 1, (1, 1): 1}, 6),
                dterm(6, {(2, 1): 1, (2, 0): 1}, 6),
                dterm(-3, {(2, 0): 2, (0, 2): 1}, 7),
                dterm(-12, {(2, 0): 1, (1, 1): 2}, 7),
            ],
        ),
    }
    ok = all(
        set(delta_formula(n).terms) == set(expected[n].terms) for n in (2, 3, 4)
    )
    coeffs4 = sorted(int(c) for c, _ in delta_formula(4).terms)
    ok = ok and coeffs4 == [-12, -3, -1, 4, 6]
    ok = ok and max(m.fy_power for _, m in delta_formula(4).terms) == 7
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    report(1, ok, f"block form matches the known orders 2..4 ({elapsed:.3f}s)")


def test_criterion_2_triple_equivalence():
    start = time.perf_counter()
    ok = True
    for n in range(2, 10):
        expanded = expand_delta(delta_formula(n))
        direct = elementary_formula(n)
        brute = oracle_formula(n)
        ok = ok and formulas_equal(expanded, direct).equal
        ok = ok and formulas_equal(direct, brute).equal
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    report(2, ok, f"expansion = direct = oracle for n = 2..9, exact ({elapsed:.1f}s)")


def test_criterion_3_recursion_reconstruction():
    ok = True
    for n in range(2, 9):
        direct = delta_formula(n + 1)
        ok = ok and derive_next(delta_formula(n)) == direct
        ok = ok and delta_formula_via_recursion(n + 1) == direct
    report(3, ok, "differentiation step and coefficient recursion rebuild n = 3..9")


def test_criterion_4_coefficient_identities():
    ok = all(verify_C_recursion(n).passed for n in range(2, 9))
    for n in range(1, 9):
        for gamma in enumerate_B(n):
            core = Multiplicities(
                tuple((k, c) for k, c in gamma.items() if k != (1, 0))
            )
            top = core.sum_r
            ok = ok and zgamma_sum(core) == tuple(binom(top, s) for s in range(top + 1))
    report(4, ok, "C-recursion for n = 2..8 and refinement binomials over n <= 8")


def test_criterion_5_coefficient_table():
    ok = [coeff_C(a) for a in enumerate_A(4)] == [1, 4, 6, 3, 12]
    ok = ok and [len(enumerate_A(n)) for n in (2, 3, 4, 5)] == [1, 2, 5, 10]
    report(5, ok, "C over order 4 is {1,4,6,3,12}; family sizes 1, 2, 5, 10")


def test_criterion_6_numeric_correctness():
    ok = True
    for name in ("circle", "exp"):
        problem = builtin_problem(name)
        first = eval_formula(elementary_formula(1), problem.jet(1, "rational"))
        ok = ok and first.value == problem.analytic(1)
        for n in range(2, 7):
            exact = evaluate_problem(problem, n, kind="rational")
            ok = ok and exact.value == problem.analytic(n)
            floaty = evaluate_problem(problem, n, kind="float")
            ok = ok and floaty.rel_error_analytic <= 1e-9
    lambert = builtin_problem("lambert")
    fd_errors = []
    for n in (2, 3):
        rep = evaluate_problem(lambert, n, check_fd=True)
        fd_errors.append(rep.rel_error_fd)
        ok = ok and rep.rel_error_fd <= 1e-4
    # first derivative, via the expanded form at order 1
    jet = lambert.jet(1, "float")
    first = eval_formula(elementary_formula(1), jet).value
    fd_first = finite_difference_derivatives(lambert, 1)[0]
    ok = ok and abs(first - fd_first) / max(1.0, abs(fd_first)) <= 1e-4
    report(
        6,
        ok,
        "circle/exp exact and <= 1e-9 float for n <= 6; "
        f"lambert vs finite differences <= 1e-4 (errors {fd_errors})",
    )


def test_criterion_7_shift_identity():
    ok = True
    for n in range(2, 7):
        compact = delta_formula(n)
        specialized = specialize_fx_zero(elementary_formula(n))
        for i in range(50):
            jet = random_rational_jet(n, seed=31_000 + 100 * n + i)
            lhs = eval_formula(specialized, shift_jet(jet, n)).value
            rhs = eval_formula(compact, jet).value
            ok = ok and lhs == rhs
    report(7, ok, "sheared-jet evaluation equals compact evaluation, 50 jets per n <= 6")


def inverse_reference_terms(n):
    terms = {}
    if n == 1:
        return {(): (Fraction(1), 1)}
    for u in range(1, n):

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

        parts(2, u, n + u - 1, [])
    return terms


def test_criterion_8_inverse_function_agreement():
    ok = True
    for n in range(1, 7):
        formula = inverse_function_formula(n)
        got = {
            tuple((k.r, p) for k, p in mono.exponents): (coeff, mono.fy_power)
            for coeff, mono in formula.terms
        }
        ok = ok and got == inverse_reference_terms(n)
    report(8, ok, "inverse-function formula matches the classical coefficients, n <= 6")
