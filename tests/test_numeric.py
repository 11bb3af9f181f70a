"""Tests for jets, evaluation, the shear, built-in problems, finite differences."""

import math
import random
from dataclasses import replace
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from implicit_derivatives import (
    DeltaFormula,
    DomainError,
    Jet,
    JetError,
    SingularJetError,
    builtin_problem,
    delta_formula,
    elementary_formula,
    eval_delta_block,
    eval_formula,
    finite_difference_derivatives,
    fx_zero_formula,
    jet_from_json,
    jet_to_json,
    random_rational_jet,
    shift_jet,
)
from implicit_derivatives.numeric import (
    FD_MAX_ORDER,
    SUM_RUN,
    _central_stencil,
    _coerce_scalar,
    _exact_total,
    evaluate_problem,
    newton_solve,
    relative_error,
)


def circle_jet(order=4, kind="rational"):
    return builtin_problem("circle").jet(order, kind)


def exp_jet(order=6, kind="rational"):
    return builtin_problem("exp").jet(order, kind)


# --- jet construction and serialization --------------------------------------


def test_jet_fills_missing_partials_with_zero():
    jet = Jet(x0=0, y0=1, order=3, partials={(0, 1): 2, (2, 0): 2, (0, 2): 2})
    assert jet.partials[(3, 0)] == 0
    assert jet.partials[(1, 2)] == 0
    assert jet.kind == "rational"


def test_jet_validation():
    with pytest.raises(SingularJetError):
        Jet(x0=0, y0=0, order=2, partials={(0, 1): 0, (1, 0): 1})
    with pytest.raises(JetError):
        Jet(x0=0, y0=0, order=2, partials={(0, 0): 1, (0, 1): 1})
    with pytest.raises(JetError):
        Jet(x0=0, y0=0, order=2, partials={(0, 1): 1, (4, 0): 1})
    with pytest.raises(JetError):
        Jet(x0=0, y0=0, order=2, partials={(0, 1): 0.5}, kind="rational")
    with pytest.raises(JetError):
        Jet(x0=0.0, y0=0.0, order=2, partials={(0, 1): Fraction(1, 2)}, kind="float")
    Two = IntEnum("Two", {"TWO": 2})
    for order in (1.5, 2.0, True, "2", Two.TWO, 31):  # 31: above the hard cap
        with pytest.raises(JetError):
            Jet(x0=0, y0=0, order=order, partials={(0, 1): 1})
    # keys are (p, t) pairs whose indices follow the same rule: no
    # truncation, no booleans
    keys = ((1.7, 0), (1.0, 0), (True, 0), (0, False), ("1", 0), (Two.TWO, 0))
    for key in (*keys, (1, 0, 0), (1,), 5):
        with pytest.raises(JetError):
            Jet(x0=0, y0=0, order=2, partials={key: 3, (0, 1): 1})
    # partials are a mapping, not a list of (key, value) pairs
    with pytest.raises(JetError):
        Jet(x0=0, y0=0, order=2, partials=[((0, 1), 1)])


def test_rational_jet_keeps_exact_fractions():
    partials = {(0, 1): Fraction(3, 7), (2, 0): Fraction(-5, 2), (1, 1): Fraction(0)}
    jet = Jet(x0=Fraction(1, 3), y0=Fraction(2), order=2, partials=dict(partials))
    assert (jet.x0, jet.y0) == (Fraction(1, 3), Fraction(2))
    for key, value in partials.items():
        assert jet.partials[key] is value  # no second conversion

    class Exact(Fraction):
        pass

    # subclasses, ints and strings still become plain Fractions
    jet = Jet(x0=Exact(1, 2), y0=0, order=1, partials={(0, 1): "3/4", (1, 0): 2})
    assert (jet.x0, jet.y0, jet.fy, jet.fx) == (Fraction(1, 2), 0, Fraction(3, 4), 2)
    for value in (jet.x0, jet.y0, jet.fy, jet.fx):
        assert type(value) is Fraction


@pytest.mark.parametrize(
    "value, kind",
    [
        ("1/0", "rational"),
        ("one half", "rational"),
        (object(), "rational"),
        (10**400, "float"),  # an integer beyond binary64
        (object(), "float"),
        ([1.0], "float"),
        (True, "rational"),  # booleans are not numbers here, as for check_int
        (True, "float"),
    ],
    ids=[
        "zero-denominator",
        "bad-literal",
        "rational-object",
        "overflow",
        "float-object",
        "list",
        "rational-bool",
        "float-bool",
    ],
)
def test_scalar_conversion_errors_are_jet_errors(value, kind):
    with pytest.raises(JetError):
        _coerce_scalar(value, kind, "x0")
    zero = 0 if kind == "rational" else 0.0
    with pytest.raises(JetError):
        Jet(x0=zero, y0=zero, order=1, partials={(0, 1): value}, kind=kind)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_float_jets_reject_non_finite_values(bad):
    with pytest.raises(JetError):
        Jet(x0=bad, y0=0.0, order=2, partials={(0, 1): 1.0}, kind="float")
    with pytest.raises(JetError):
        Jet(x0=0.0, y0=0.0, order=2, partials={(0, 1): 1.0, (2, 0): bad}, kind="float")


@pytest.mark.parametrize("kind", ["rational", "float"])
def test_jet_json_round_trip(kind):
    if kind == "rational":
        jet = random_rational_jet(4, seed=7)
    else:
        jet = builtin_problem("lambert").jet(4, "float")
    again = jet_from_json(jet_to_json(jet))
    assert again.kind == jet.kind
    assert again.order == jet.order
    assert again.partials == jet.partials
    assert (again.x0, again.y0) == (jet.x0, jet.y0)


def test_jet_json_rejects_garbage():
    rational = '{"x0": 0, "y0": 0, "order": 1, "kind": "rational", "partials": %s}'
    second = rational.replace('"order": 1', '"order": 2')
    floaty = '{"x0": 0.0, "y0": 0.0, "order": 1, "kind": "float", "partials": %s}'
    for text in (
        "[not a jet]",
        '{"x0": "1/2", "y0": 0, "order": 1, "kind": "rational"}',
        rational % "[]",
        rational % '{"0,1": 0.5}',  # a float in a rational jet
        rational % '{"0,1": true}',  # a boolean is not a number
        rational % '{"0,1": "1/0"}',
        floaty % '{"0,1": "1.5"}',  # a string in a float jet
        floaty % '{"0,1": [1.0]}',  # a list in a float jet
        floaty % ('{"0,1": 1%s}' % ("0" * 400)),  # an integer beyond binary64
        rational.replace('"order": 1', '"order": 2.9') % '{"0,1": 1}',
        # partial keys are two JSON integers: no sign, digit separator or fraction
        rational % '{"+0,1": 1}',
        rational % '{"0,0_1": 1}',
        rational % '{"0,1.0": 1}',
        rational % '{"0,1,0": 1}',
        rational % '{"0,1],[2": 1}',
        # spelled exactly "p,t": no space, no minus sign
        rational % '{" 0,1": 1}',
        rational % '{"-0,1": 1}',
        second % '{"0,1": 1, "2 ,0": 1}',
        # and each key given once: a repeat is refused, not overwritten
        rational % '{"0,1": 1, "0,1": 2}',
        second % '{"0,1": "2/1", " 0,1": "3/1", "-0,1": "5/1", "2,0": 1}',
        # rational scalars are spelled as jet_to_json writes them
        rational % '{"0,1": "1e3"}',
        rational % '{"0,1": "1.5"}',
        rational % '{"0,1": " 3/4"}',
        rational % '{"0,1": "1_0"}',
        rational % '{"0,1": "+1"}',
        # nested too deep to parse
        "[" * 100_000 + "]" * 100_000,
    ):
        with pytest.raises(JetError):
            jet_from_json(text)


# --- block evaluation ----------------------------------------------------------


def test_single_x_block_vanishes():
    for jet in (circle_jet(), random_rational_jet(3, seed=1)):
        assert eval_delta_block(jet, 1, 0) == 0


def test_block_values_on_known_jets():
    assert eval_delta_block(circle_jet(), 2, 0) == 8
    assert eval_delta_block(exp_jet(), 2, 0) == -1


def test_block_requires_enough_order():
    with pytest.raises(JetError):
        eval_delta_block(circle_jet(order=2), 2, 1)
    # and int indices, checked before the order
    for l, r in ((2.5, 0), (2, True), (-1, 0)):
        with pytest.raises(DomainError):
            eval_delta_block(circle_jet(order=2), l, r)


# --- the integer kernels against the plain Fraction loops -----------------------


def wide_rational_jet(order, seed):
    """Seeded jet with 32-bit numerators and denominators, f_y != 0."""
    rng = random.Random(seed)

    def scalar():
        return Fraction(rng.randint(-(2**31), 2**31), rng.randint(1, 2**31))

    partials = {(p, t): scalar() for p in range(order + 1) for t in range(order + 1 - p)}
    partials[(0, 0)] = Fraction(0)
    while partials[(0, 1)] == 0:
        partials[(0, 1)] = scalar()
    return Jet(x0=scalar(), y0=scalar(), order=order, partials=partials)


def negated(jet):
    """The jet of -f: the same solution, f_y of the other sign."""
    return Jet(jet.x0, jet.y0, jet.order, {key: -v for key, v in jet.partials.items()})


KERNEL_JETS = [
    jet
    for base in (random_rational_jet(10, seed=1200), wide_rational_jet(10, seed=1201))
    for jet in (base, negated(base))
]
KERNEL_JET_IDS = ["small", "small-negated", "wide", "wide-negated"]


def block_reference(jet, l, r):
    """D[l,r] summed term by term in Fractions."""
    total = Fraction(0)
    for j in range(l + 1):
        term = math.comb(l, j) * jet.partials[(l - j, r + j)] * jet.fx**j * jet.fy ** (l - j)
        total += -term if j % 2 else term
    return total


def shift_reference(jet, n):
    """The sheared partials summed term by term in Fractions."""
    lam = -jet.fx / jet.fy
    partials = {}
    for l in range(n + 1):
        for r in range(n + 1 - l):
            value = Fraction(0)
            for k in range(l + 1):
                value += math.comb(l, k) * lam**k * jet.partials[(l - k, r + k)]
            partials[(l, r)] = value
    partials[(1, 0)] = Fraction(0)
    return jet.y0 - lam * jet.x0, partials


@pytest.mark.parametrize("jet", KERNEL_JETS, ids=KERNEL_JET_IDS)
@pytest.mark.parametrize("n", range(1, 11))
def test_shear_matches_the_fraction_loop(jet, n):
    shifted = shift_jet(jet, n)
    y0, partials = shift_reference(jet, n)
    assert shifted.y0 == y0
    assert shifted.partials == partials
    assert all(type(v) is Fraction for v in shifted.partials.values())


@pytest.mark.parametrize("jet", KERNEL_JETS, ids=KERNEL_JET_IDS)
def test_block_values_match_the_fraction_loop(jet):
    for l in range(11):
        for r in range(11 - l):
            value = eval_delta_block(jet, l, r)
            assert type(value) is Fraction
            assert value == block_reference(jet, l, r), (l, r)


@pytest.mark.parametrize(
    "build, n",
    [(delta_formula, n) for n in (2, 5, 8, 10)] + [(elementary_formula, n) for n in (2, 5, 7)],
)
@pytest.mark.parametrize("jet", KERNEL_JETS, ids=KERNEL_JET_IDS)
def test_exact_total_is_the_fraction_sum_of_the_terms(build, n, jet):
    report = eval_formula(build(n), jet)
    assert type(report.value) is Fraction
    assert report.value == sum(report.term_values, Fraction(0))


def test_exact_total_is_the_fraction_sum_at_order_14():
    # the order where the merge tree is deepest among the eval orders
    test_exact_total_is_the_fraction_sum_of_the_terms(
        delta_formula, 14, wide_rational_jet(14, seed=1402)
    )


# every length 0..3 runs can take, the run boundaries drawn more often
_boundaries = [k * SUM_RUN + d for k in range(4) for d in (-1, 0, 1)]
_lengths = st.sampled_from(
    [m for m in _boundaries if 0 <= m <= 3 * SUM_RUN]
) | st.integers(0, 3 * SUM_RUN)
_nonzero = (st.integers(-(2**40), 2**40) | st.integers(-12, 12)).filter(bool)
# unreduced pairs as eval_formula leaves them: a common factor k >= 2 in
# both parts, numerators and denominators of either sign
_pairs = st.builds(
    lambda p, q, k: (p * k, q * k),
    st.integers(-(2**40), 2**40) | st.integers(-12, 12),
    _nonzero,
    st.integers(2, 2**20) | st.integers(2, 6),
)


@given(data=st.data(), length=_lengths, cancel=st.booleans())
@settings(max_examples=150, deadline=None)
def test_merged_total_is_the_fraction_sum(data, length, cancel):
    pairs = data.draw(st.lists(_pairs, min_size=length, max_size=length))
    if cancel and pairs:
        rest = sum((Fraction(p, q) for p, q in pairs[:-1]), Fraction(0))
        k = data.draw(st.integers(2, 2**20))
        pairs[-1] = (-rest.numerator * k, rest.denominator * k)  # the sum cancels to 0
    total = _exact_total(pairs)
    assert type(total) is Fraction
    assert total == sum((Fraction(p, q) for p, q in pairs), Fraction(0))
    if cancel:
        assert total == 0


# --- formula evaluation ----------------------------------------------------------


def test_empty_formula_evaluates_to_zero_of_the_jet_kind():
    formula = fx_zero_formula(1)
    assert formula.terms == ()
    exact = eval_formula(formula, exp_jet()).value
    assert type(exact) is Fraction and exact == 0
    binary = eval_formula(formula, exp_jet(kind="float")).value
    assert repr(binary) == "0.0"


def test_circle_second_derivative():
    report = eval_formula(delta_formula(2), circle_jet())
    assert report.value == -1
    assert report.term_values == (Fraction(-1),)


@pytest.mark.parametrize("n", range(2, 7))
def test_exp_all_orders_give_one(n):
    assert eval_formula(delta_formula(n), exp_jet()).value == 1


@pytest.mark.parametrize("n", range(2, 7))
def test_block_and_expanded_paths_agree_exactly(n):
    formula_b = delta_formula(n)
    formula_e = elementary_formula(n)
    for seed in range(10):
        jet = random_rational_jet(n, seed=500 + 10 * n + seed)
        left = eval_formula(formula_b, jet).value
        right = eval_formula(formula_e, jet).value
        assert left == right


def float_copy(jet):
    partials = {key: float(v) for key, v in jet.partials.items()}
    return Jet(float(jet.x0), float(jet.y0), jet.order, partials, kind="float")


def per_factor_reference(formula, jet):
    """The plain term loop: every factor evaluated and multiplied in afresh."""
    contributions = []
    for coeff, mono in formula.terms:
        product = Fraction(1) if jet.kind == "rational" else 1.0
        if isinstance(formula, DeltaFormula):
            for key, power in mono.factors:
                product *= eval_delta_block(jet, key.l, key.r) ** power
        else:
            for key, power in mono.exponents:
                product *= jet.partials[(key.l, key.r)] ** power
        value = coeff * product / jet.fy**mono.fy_power
        contributions.append(float(value) if jet.kind == "float" else value)
    total = sum(contributions, Fraction(0) if jet.kind == "rational" else 0.0)
    return total, tuple(contributions)


@pytest.mark.parametrize(
    "build, n",
    [(delta_formula, n) for n in range(2, 11)]
    + [(elementary_formula, n) for n in range(2, 8)],
)
def test_eval_matches_the_per_factor_product_bit_for_bit(build, n):
    formula = build(n)
    jets = [random_rational_jet(n, seed=700 + n)]
    if build is delta_formula:
        # 32-bit entries: the unreduced term pairs carry wide common factors
        jets.append(wide_rational_jet(n, seed=720 + n))
    for jet in jets:
        # -f has the same solution; one of the two jets has a negative f_y
        for case in (jet, float_copy(jet), negated(jet), float_copy(negated(jet))):
            report = eval_formula(formula, case)
            value, terms = per_factor_reference(formula, case)
            assert type(report.value) is type(value)
            assert [type(t) for t in report.term_values] == [type(t) for t in terms]
            # repr tells floats apart bit for bit (0.0 from -0.0 too)
            assert repr(report.value) == repr(value)
            assert repr(report.term_values) == repr(terms)


@pytest.mark.parametrize("n", [8, 12])
def test_each_block_is_computed_once_per_call(monkeypatch, n):
    import implicit_derivatives.numeric as numeric

    formula = delta_formula(n)
    calls = []

    def counted(jet, l, r):
        calls.append((l, r))
        return eval_delta_block(jet, l, r)

    monkeypatch.setattr(numeric, "eval_delta_block", counted)
    eval_formula(formula, random_rational_jet(n, seed=n))
    distinct = {(key.l, key.r) for _, mono in formula.terms for key, _ in mono.factors}
    assert sorted(calls) == sorted(distinct)


def test_exact_eval_normalizes_only_the_blocks_and_the_total(monkeypatch):
    import implicit_derivatives.numeric as numeric

    formula = delta_formula(12)
    jet = random_rational_jet(12, seed=1212)
    built = []

    def counted(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(numeric, "Fraction", counted)
    report = eval_formula(formula, jet)
    monkeypatch.undo()
    distinct = {key for _, mono in formula.terms for key, _ in mono.factors}
    assert len(formula.terms) == 949
    assert len(built) <= len(distinct) + 1
    # the terms read afterwards are the normalized ones
    assert report.term_values == per_factor_reference(formula, jet)[1]


def test_term_values_are_read_once_and_survive_replace():
    jet = wide_rational_jet(8, seed=808)
    report = eval_formula(delta_formula(8), jet)
    text = repr(report)
    assert "_terms" not in text
    assert not any(str(p) in text for p, _ in report._terms)  # no raw pairs
    first = report.term_values
    assert report.term_values is first
    assert all(type(t) is Fraction for t in first)
    assert repr(report) == text
    targeted = replace(report, analytic=Fraction(1, 3))
    assert targeted.term_values == first
    assert targeted != report
    assert eval_formula(delta_formula(8), jet) == report


def test_reports_with_different_terms_compare_unequal():
    jet = random_rational_jet(5, seed=505)
    delta = eval_formula(delta_formula(5), jet)
    expanded = eval_formula(elementary_formula(5), jet)
    assert delta.value == expanded.value
    assert delta.term_values != expanded.term_values
    assert delta != expanded


def test_eval_rejects_inverse_form_and_short_jets():
    from implicit_derivatives import inverse_function_formula

    with pytest.raises(DomainError):
        eval_formula(inverse_function_formula(2), circle_jet())
    with pytest.raises(JetError):
        eval_formula(delta_formula(4), circle_jet(order=3))


@pytest.mark.parametrize("fy", [1e120, 1e-120])
def test_float_eval_overflow_raises_jet_error(fy):
    # a power of f_y = 1e120 overflows; one of f_y = 1e-120 underflows to 0
    partials = {(0, 1): fy, (2, 0): 1e100}
    jet = Jet(x0=0.0, y0=0.0, order=3, partials=partials, kind="float")
    with pytest.raises(JetError):
        eval_formula(delta_formula(3), jet)


# --- the shear -------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_shear_zeroes_fx_and_keeps_pure_y(seed):
    jet = random_rational_jet(4, seed=900 + seed)
    shifted = shift_jet(jet, 4)
    assert shifted.partials[(1, 0)] == 0
    for r in range(5):
        assert shifted.partials[(0, r)] == jet.partials[(0, r)]
    assert shifted.y0 == jet.y0 + jet.fx / jet.fy * jet.x0


def test_shear_refuses_float_jets():
    # the shear is exact only; a float jet is refused, not sheared in binary64
    jet = builtin_problem("lambert").jet(4, "float")
    with pytest.raises(JetError):
        shift_jet(jet, 4)


@pytest.mark.parametrize("seed", range(6))
def test_shear_partials_are_scaled_blocks(seed):
    jet = random_rational_jet(5, seed=950 + seed)
    shifted = shift_jet(jet, 5)
    for l in range(6):
        for r in range(6 - l):
            expected = eval_delta_block(jet, l, r) / jet.fy**l
            assert shifted.partials[(l, r)] == expected


@given(seed=st.integers(0, 10_000), n=st.integers(2, 5))
@settings(max_examples=40, deadline=None)
def test_shear_identity_on_random_jets(seed, n):
    from implicit_derivatives import specialize_fx_zero

    jet = random_rational_jet(n, seed=seed)
    specialized = specialize_fx_zero(elementary_formula(n))
    lhs = eval_formula(specialized, shift_jet(jet, n)).value
    rhs = eval_formula(delta_formula(n), jet).value
    assert lhs == rhs


# --- built-in problems -------------------------------------------------------------


def test_problem_registry():
    with pytest.raises(DomainError):
        builtin_problem("sphere")
    with pytest.raises(JetError):
        builtin_problem("lambert").jet(3, "rational")
    for name in ("circle", "exp", "lambert", "cubic"):
        problem = builtin_problem(name)
        assert abs(problem.f(float(problem.x0), float(problem.y0))) < 1e-12


def test_circle_analytic_values():
    problem = builtin_problem("circle")
    assert [problem.analytic(n) for n in range(1, 7)] == [
        0,
        -1,
        0,
        -3,
        0,
        -45,
    ]
    for n in range(2, 13):
        assert eval_formula(delta_formula(n), problem.jet(n)).value == problem.analytic(n)


def test_cubic_analytic_values():
    problem = builtin_problem("cubic")
    assert problem.analytic(1) == -1
    assert problem.analytic(2) == -4
    for n in range(2, 13):
        assert eval_formula(delta_formula(n), problem.jet(n)).value == problem.analytic(n)


def test_lambert_closed_forms():
    problem = builtin_problem("lambert")
    report = evaluate_problem(problem, 2)
    assert report.rel_error_analytic < 1e-12
    assert math.isclose(report.analytic, -3.0 / (8.0 * math.e**2))
    # the expanded form gives the same second derivative on the float jet
    expanded = eval_formula(elementary_formula(2), problem.jet(2, "float"))
    assert math.isclose(expanded.value, report.analytic, rel_tol=1e-12)


# --- Newton and finite differences ---------------------------------------------------


def test_newton_polishes_the_base_point():
    problem = builtin_problem("lambert")
    y = newton_solve(problem, math.e, 0.8)
    assert abs(problem.f(math.e, y)) <= 1e-14


def test_finite_differences_on_known_problems():
    circle = finite_difference_derivatives(builtin_problem("circle"), 2)
    assert abs(circle[0] - 0.0) < 1e-6
    assert abs(circle[1] - (-1.0)) < 1e-6
    exp = finite_difference_derivatives(builtin_problem("exp"), 3)
    assert all(abs(v - 1.0) < 1e-6 for v in exp)


def test_finite_differences_stop_at_order_four():
    circle = builtin_problem("circle")
    assert len(finite_difference_derivatives(circle, FD_MAX_ORDER)) == FD_MAX_ORDER
    for n in (0, FD_MAX_ORDER + 1):
        with pytest.raises(DomainError):
            finite_difference_derivatives(circle, n)
    with pytest.raises(DomainError):
        evaluate_problem(circle, FD_MAX_ORDER + 1, check_fd=True)


@pytest.mark.parametrize("k", range(1, 5))
def test_central_stencil_moments(k):
    # sum_j c_j j^i = k! [i = k] for every i the stencil's 2m + 1 points fix
    offsets, coeffs = _central_stencil(k)
    m = (k + 1) // 2
    assert offsets == tuple(range(-m, m + 1))
    for i in range(2 * m + 1):
        moment = sum(c * Fraction(j) ** i for j, c in zip(offsets, coeffs))
        assert moment == (math.factorial(k) if i == k else 0)


def test_finite_differences_match_formula_on_lambert():
    report = evaluate_problem(builtin_problem("lambert"), 2, check_fd=True)
    assert report.rel_error_fd < 1e-4


def test_relative_error_uses_absolute_floor():
    assert relative_error(1e-12, 0) == 1e-12
    assert relative_error(2.0, 4.0) == 0.5
