"""Tests for jets, evaluation, the shear, built-in problems, finite differences."""

import copy
import gc
import hashlib
import math
import pickle
import random
import tracemalloc
from collections.abc import Mapping
from dataclasses import FrozenInstanceError, replace
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from implicit_derivatives import (
    DeltaFormula,
    DeltaMonomial,
    DomainError,
    ElemFormula,
    ElemMonomial,
    FormulaError,
    Jet,
    JetError,
    SingularJetError,
    builtin_problem,
    delta_formula,
    elementary_formula,
    eval_delta_block,
    eval_formula,
    finite_difference_derivatives,
    formula_to_json,
    fx_zero_formula,
    jet_from_json,
    jet_to_json,
    random_rational_jet,
    shift_jet,
)
import implicit_derivatives.numeric as numeric
from implicit_derivatives.numeric import (
    FD_MAX_ORDER,
    _central_stencil,
    _coerce_scalar,
    _diagonal,
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

    class Pairs(Mapping):
        """A mapping over the given keys, hashable or not, each valued 1."""

        def __init__(self, *keys):
            self.keys_ = keys

        def __getitem__(self, key):
            return 1

        def __iter__(self):
            return iter(self.keys_)

        def __len__(self):
            return len(self.keys_)

    assert Jet(x0=0, y0=0, order=2, partials=Pairs((0, 1))).fy == 1
    for key in ([1, 0], ([1], 0)):  # keys that cannot be hashed
        with pytest.raises(JetError):
            Jet(x0=0, y0=0, order=2, partials=Pairs((0, 1), key))


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


@pytest.mark.parametrize("order", [2.5, "3", None, True, 0, 31])
def test_random_rational_jet_refuses_a_bad_order(order):
    with pytest.raises(JetError):
        random_rational_jet(order, seed=1)


def assert_checked(jet):
    """A jet made without the check equals its rebuild through the checked constructor."""
    checked = Jet(jet.x0, jet.y0, jet.order, dict(jet.partials), jet.kind)
    assert checked == jet
    assert list(checked.partials) == list(jet.partials)
    assert all(type(v) is Fraction for v in (jet.x0, jet.y0, *jet.partials.values()))


@pytest.mark.parametrize("order", range(1, 13))
def test_seeded_and_sheared_jets_equal_checked_ones(order):
    for seed in (0, 1, 7, 2029, 31_337):
        jet = random_rational_jet(order, seed=seed)
        assert_checked(jet)
        assert_checked(shift_jet(jet, order))
        assert_checked(shift_jet(jet, max(order - 1, 1)))


#: One jet from each source: the checked constructor, a jet document, a
#: problem's rational and float jets, the seeded generator and the shear.
JET_SOURCES = {
    "constructor": lambda: Jet(x0=0, y0=1, order=3, partials={(0, 1): 2, (2, 0): 2}),
    "json": lambda: jet_from_json(jet_to_json(random_rational_jet(3, seed=5))),
    "problem-rational": lambda: circle_jet(3),
    "problem-float": lambda: circle_jet(3, "float"),
    "seeded": lambda: random_rational_jet(3, seed=5),
    "sheared": lambda: shift_jet(random_rational_jet(4, seed=5), 3),
}


@pytest.mark.parametrize("source", JET_SOURCES)
def test_no_jet_can_change(source):
    # every jet is checked once, when it is made, and nothing downstream
    # checks it again: no field and no partial can change after that
    jet = JET_SOURCES[source]()
    for name in ("x0", "y0", "order", "partials", "kind"):
        with pytest.raises(FrozenInstanceError):
            setattr(jet, name, getattr(jet, name))
    for key in ((0, 0), (0, 1), (2, 0), (9, 9)):
        with pytest.raises(TypeError):
            jet.partials[key] = jet.fy
    with pytest.raises(TypeError):
        del jet.partials[(0, 1)]
    with pytest.raises(TypeError):
        hash(jet)
    assert jet == JET_SOURCES[source]()


def test_evaluation_reads_the_jet_as_checked():
    jet = random_rational_jet(4, seed=1)
    before = eval_formula(delta_formula(4), jet).value
    with pytest.raises(TypeError):
        jet.partials[(2, 0)] = 0.5
    assert eval_formula(delta_formula(4), jet).value == before


@pytest.mark.parametrize("source", JET_SOURCES)
def test_copies_and_rebuilds_of_a_jet_go_through_the_check(source):
    jet = JET_SOURCES[source]()
    for again in (pickle.loads(pickle.dumps(jet)), copy.copy(jet), copy.deepcopy(jet)):
        assert again == jet
        assert list(again.partials) == list(jet.partials)
        with pytest.raises(TypeError):
            again.partials[(0, 1)] = jet.fy
    with pytest.raises(SingularJetError):
        replace(jet, partials={**jet.partials, (0, 1): 0})
    with pytest.raises(JetError):
        replace(jet, partials={**jet.partials, (0, 0): 1})


# sha256 of jet_to_json(random_rational_jet(order, seed)), pinned so the random
# stream behind every seeded suite cannot drift
_SEEDED_JET_DIGESTS = {
    (4, 0): "d9dd2a4284248d8bb81962f45f92340460370b08419bedefb741a2124ecdfa46",
    (12, 0): "f7edd1463aee2fdb9c20db4f17b18d0717f34d796b4ba6cafec9b01d2b8b4363",
    (4, 7): "ae0f1efdb0da91e271428d1bd10ebdc4adc16ae6104a5e9108f342307b3c4666",
    (12, 7): "3673ede03b184a06b9833a03df7dc7bc2cc47c701abca11855fe7d95e2ea478e",
    (4, 2029): "d49937945807acca152abd75ec15a732fd0b910f6244b6bf2aea01452bc667b0",
    (12, 2029): "a426842d7e4d3b16daf93e64138fb857f6f12813cf1fc279e07a8a4a440194e7",
}


@pytest.mark.parametrize("order, seed", list(_SEEDED_JET_DIGESTS))
def test_seeded_jets_are_pinned(order, seed):
    text = jet_to_json(random_rational_jet(order, seed=seed))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == _SEEDED_JET_DIGESTS[order, seed]


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


# lengths up to 33, those next to a power of two (where a merge level
# carries an odd sum up) drawn more often
_boundaries = [2**k + d for k in range(6) for d in (-1, 0, 1)]
_lengths = st.sampled_from(sorted(set(_boundaries))) | st.integers(0, 33)
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


def read_partial(jet, p, t):
    return jet.partials[(p, t)]


def per_factor_reference(formula, jet, block=eval_delta_block, partial=read_partial):
    """The plain term loop: every factor evaluated and multiplied in afresh.

    ``block(jet, l, r)`` and ``partial(jet, p, t)`` give the factor bases.
    """
    contributions = []
    for coeff, mono in formula.terms:
        product = Fraction(1) if jet.kind == "rational" else 1.0
        if isinstance(formula, DeltaFormula):
            for key, power in mono.factors:
                product *= block(jet, key.l, key.r) ** power
        else:
            for key, power in mono.exponents:
                product *= partial(jet, key.l, key.r) ** power
        value = coeff * product / jet.fy**mono.fy_power
        contributions.append(float(value) if jet.kind == "float" else value)
    if jet.kind == "rational":
        return sum(contributions, Fraction(0)), tuple(contributions)
    return left_to_right(contributions), tuple(contributions)


def left_to_right(values):
    """The plain float sum in order; the builtin compensates since Python 3.12."""
    total = 0.0
    for value in values:
        total += value
    return total


@pytest.mark.parametrize("n", [4, 8, 12, 16, 20])
def test_float_total_is_the_left_to_right_sum_of_the_terms(n):
    formula = delta_formula(n)
    jets = [builtin_problem("lambert").jet(n, "float")]
    jets += [float_copy(random_rational_jet(n, seed=900 + 10 * n + i)) for i in range(3)]
    for jet in jets:
        report = eval_formula(formula, jet)
        assert repr(report.value) == repr(left_to_right(report.term_values))


def test_float_total_is_not_the_correctly_rounded_sum():
    # lambert at order 10 tells the plain sum from a compensated one
    report = eval_formula(delta_formula(10), builtin_problem("lambert").jet(10, "float"))
    assert report.value == left_to_right(report.term_values) == -1.373817777594587
    assert math.fsum(report.term_values) == -1.3738177775945652


@pytest.mark.parametrize(
    "build, n",
    [(delta_formula, n) for n in range(2, 11)]
    + [(elementary_formula, n) for n in range(2, 8)]
    + [(fx_zero_formula, n) for n in range(2, 8)],
)
def test_eval_matches_the_per_factor_product_bit_for_bit(build, n):
    # one formula object throughout: its first evaluation is the single
    # pass, every later one reads the plan recorded on the second
    formula = build(n)
    # 32-bit entries: the unreduced term pairs carry wide common factors,
    # and each block or raw partial is put over its diagonal's wide lcm
    jets = [random_rational_jet(n, seed=700 + n), wide_rational_jet(n, seed=720 + n)]
    for jet in jets:
        # -f has the same solution; one of the two jets has a negative f_y
        for case in (jet, float_copy(jet), negated(jet), float_copy(negated(jet))):
            value, terms = per_factor_reference(formula, case)
            first = eval_formula(build(n), case)  # a fresh object's single pass
            for _ in range(3):
                report = eval_formula(formula, case)
                assert type(report.value) is type(value)
                assert [type(t) for t in report.term_values] == [type(t) for t in terms]
                # repr tells floats apart bit for bit (0.0 from -0.0 too)
                assert repr(report.value) == repr(value) == repr(first.value)
                assert repr(report.term_values) == repr(terms) == repr(first.term_values)
                assert report == first  # the unreduced term pairs too
    assert isinstance(vars(formula)["_eval_plan"], numeric._EvalPlan)


@pytest.mark.parametrize("n", [8, 12])
def test_each_block_is_computed_once_per_call(monkeypatch, n):
    jet = random_rational_jet(n, seed=n)
    exact_bases, float_bases, weight_rows, diagonals, floats = [], [], [], [], []

    def counted_exact_base(jet, diagonals, rows, l, r, blocks):
        exact_bases.append((l, r))
        return exact_base(jet, diagonals, rows, l, r, blocks)

    def counted_float_base(jet, l, r, blocks):
        float_bases.append((l, r))
        return float_base(jet, l, r, blocks)

    def counted_weights(jet, l):
        weight_rows.append(l)
        return weights(jet, l)

    def counted_diagonal(jet, k):
        diagonals.append(k)
        return diagonal(jet, k)

    def counted_float(jet, l, r):
        floats.append((l, r))
        return eval_delta_block(jet, l, r)

    def clear():
        for calls in (exact_bases, float_bases, weight_rows, diagonals, floats):
            calls.clear()

    exact_base, float_base = numeric._exact_base, numeric._float_base
    weights, diagonal = numeric._block_weights, numeric._diagonal
    monkeypatch.setattr(numeric, "_exact_base", counted_exact_base)
    monkeypatch.setattr(numeric, "_float_base", counted_float_base)
    monkeypatch.setattr(numeric, "_block_weights", counted_weights)
    monkeypatch.setattr(numeric, "_diagonal", counted_diagonal)
    monkeypatch.setattr(numeric, "eval_delta_block", counted_float)
    # the first call is the single pass, the second records the plan,
    # the third reads it: each computes the same bases once, blocks for
    # the compact form and raw partials for the expanded one
    for build in (delta_formula, elementary_formula):
        compact = build is delta_formula
        for kind in ("rational", "float"):
            formula = build(n)
            distinct = {
                (key.l, key.r)
                for _, mono in formula.terms
                for key, _ in (mono.factors if compact else mono.exponents)
            }
            case = jet if kind == "rational" else float_copy(jet)
            for _ in range(3):
                clear()
                eval_formula(formula, case)
                if kind == "rational":
                    # one kernel call per distinct base, one read per diagonal
                    # used, and one weight row per distinct block order l
                    assert sorted(exact_bases) == sorted(distinct)
                    assert sorted(diagonals) == sorted({l + r for l, r in distinct})
                    assert sorted(weight_rows) == (
                        sorted({l for l, _ in distinct}) if compact else []
                    )
                    assert float_bases == floats == []
                else:
                    # one kernel call per distinct base, which computes a
                    # block through eval_delta_block
                    assert sorted(float_bases) == sorted(distinct)
                    assert sorted(floats) == (sorted(distinct) if compact else [])
                    assert exact_bases == weight_rows == diagonals == []
    # the shear reads every block up to order n through the same kernel:
    # each diagonal k <= n once and each weight row l <= n once
    clear()
    shift_jet(jet, n)
    assert sorted(exact_bases) == sorted((l, r) for l in range(n + 1) for r in range(n + 1 - l))
    assert sorted(diagonals) == sorted(weight_rows) == list(range(n + 1))
    assert float_bases == floats == []


def test_exact_eval_normalizes_only_the_blocks_and_the_total(monkeypatch):
    # the blocks stay integers over their diagonals' denominators: the
    # total is the one Fraction built
    formula = delta_formula(12)
    jet = random_rational_jet(12, seed=1212)
    built = []

    def counted(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(numeric, "Fraction", counted)
    reports = []
    for _ in range(3):  # the single pass, then the plan recorded and read
        built.clear()
        reports.append(eval_formula(formula, jet))
        assert len(built) == 1
        assert Fraction(*built[0]) == reports[-1].value
    monkeypatch.undo()
    assert len(formula.terms) == 949
    # the terms read afterwards are the normalized ones
    terms = per_factor_reference(formula, jet)[1]
    assert all(report.term_values == terms for report in reports)


def partition_count(m):
    """p(m), the number of partitions of m, by the recurrence over the largest part."""
    ways = [1] + [0] * m
    for part in range(1, m + 1):
        for total in range(part, m + 1):
            ways[total] += ways[total - part]
    return ways[m]


def test_partition_count():
    assert [partition_count(m) for m in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]
    assert partition_count(13) == 101


def lifted_partial(jet, p, t):
    """f_{x^p y^t} read back from its integer over its diagonal's denominator."""
    e, scaled = _diagonal(jet, p + t)
    return Fraction(scaled[p], e)


@pytest.fixture(params=["lifted", "unlifted"])
def bases(request):
    """Where the reference reads its bases: the package's lift, or plain Fractions.

    "lifted" takes each block from eval_delta_block and each raw partial
    from its integer over e_k, the values eval_formula's terms are built
    from, so the products, classes and merge are checked on their own;
    "unlifted" sums each block term by term in Fractions and reads each
    partial from the jet, independent of the package's kernel.
    """
    if request.param == "lifted":
        return {"block": eval_delta_block, "partial": lifted_partial}
    return {"block": block_reference, "partial": read_partial}


@pytest.mark.parametrize("n", range(2, 15))
def test_exact_terms_share_at_most_one_denominator_per_partition(n):
    # a compact term's diagonals l + r, each counted with multiplicity m,
    # give sum (l + r - 1) * m = n - 1: a partition of n - 1, which fixes
    # the term's denominator
    formula = delta_formula(n)
    bound = partition_count(n - 1)
    for jet in (wide_rational_jet(n, seed=1500 + n), random_rational_jet(n, seed=1520 + n)):
        report = eval_formula(formula, jet)
        assert len({q for _, q in report._terms}) <= bound
        assert report.value == per_factor_reference(formula, jet)[0]
    assert len({q for _, q in eval_formula(formula, exp_jet(n))._terms}) == 1


def assert_matches_the_reference(formula, jet, bases):
    report = eval_formula(formula, jet)
    value, terms = per_factor_reference(formula, jet, **bases)
    assert type(report.value) is Fraction
    assert report.value == value
    assert report.term_values == terms


def test_hand_made_terms_off_the_order_stay_exact(bases):
    # sum l * m is 4, 2, 4, 1, 7 and 0 here, never n = 3; f_y powers and
    # coefficient denominators are mixed, and four terms share D[2,0]
    terms = [
        (Fraction(3, 7), DeltaMonomial((((2, 0), 2),), 5)),
        (Fraction(-1, 2), DeltaMonomial((((2, 0), 1),), 2)),
        (Fraction(5), DeltaMonomial((((0, 2), 1), ((2, 0), 2)), 5)),
        (Fraction(2, 9), DeltaMonomial((((0, 3), 3), ((1, 1), 1)), 0)),
        (Fraction(-4), DeltaMonomial((((3, 1), 1), ((2, 2), 1), ((2, 0), 1)), 7)),
        (Fraction(1, 3), DeltaMonomial((), 1)),
    ]
    formula = DeltaFormula.from_terms(3, terms)
    elem_terms = [(c, ElemMonomial(m.factors, m.fy_power)) for c, m in terms]
    for jet in (wide_rational_jet(4, seed=1601), random_rational_jet(4, seed=1602)):
        for case in (jet, negated(jet)):
            assert_matches_the_reference(formula, case, bases)
            assert_matches_the_reference(ElemFormula.from_terms(3, elem_terms), case, bases)


@pytest.mark.parametrize("build", [delta_formula, elementary_formula])
def test_exact_eval_on_a_jet_of_higher_order(bases, build):
    assert_matches_the_reference(build(6), wide_rational_jet(11, seed=1611), bases)


@pytest.mark.parametrize("build", [delta_formula, elementary_formula])
def test_exact_eval_with_zero_partials_on_used_diagonals(bases, build):
    jet = wide_rational_jet(7, seed=1621)
    partials = dict(jet.partials)
    partials[(2, 1)] = Fraction(0)  # one zero partial on diagonal 3
    partials.update({(p, 4 - p): Fraction(0) for p in range(5)})  # all of diagonal 4
    zeroed = Jet(jet.x0, jet.y0, jet.order, partials)
    assert eval_delta_block(zeroed, 2, 2) == 0
    assert_matches_the_reference(build(7), zeroed, bases)


@pytest.mark.parametrize("build", [delta_formula, elementary_formula])
def test_exact_eval_with_fx_zero_and_negative_fy(bases, build):
    jet = wide_rational_jet(8, seed=1631)
    partials = dict(jet.partials)
    partials[(1, 0)] = Fraction(0)
    partials[(0, 1)] = -abs(partials[(0, 1)])
    flat = Jet(jet.x0, jet.y0, jet.order, partials)
    assert flat.fx == 0 and flat.fy.numerator < 0
    assert_matches_the_reference(build(8), flat, bases)


@pytest.mark.parametrize("build", [elementary_formula, fx_zero_formula])
@pytest.mark.parametrize("n", range(2, 11))
def test_expanded_forms_match_the_reference_on_wide_jets(bases, build, n):
    formula = build(n)
    jet = wide_rational_jet(n, seed=1640 + n)
    for case in (jet, negated(jet)):
        assert_matches_the_reference(formula, case, bases)


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


def planned(build, n, jet):
    """A report read through the plan: the object's third evaluation, its terms unread."""
    formula = build(n)
    for _ in range(2):
        eval_formula(formula, jet)
    assert isinstance(vars(formula)["_eval_plan"], numeric._EvalPlan)
    return eval_formula(formula, jet)


@pytest.mark.parametrize(
    "build, n", [(build, n) for build in (delta_formula, elementary_formula) for n in range(2, 13)]
)
def test_planned_values_and_pairs_equal_the_single_pass(build, n):
    # the value is summed per denominator class with d^q taken once; the
    # pairs, each with its own head coeff * d^q, are formed when read
    for jet in (wide_rational_jet(n, seed=3700 + n), random_rational_jet(n, seed=3720 + n)):
        single = eval_formula(build(n), jet)
        report = planned(build, n, jet)
        assert report.value == single.value
        assert type(report.value) is Fraction
        assert tuple(report._terms) == single._terms  # integer for integer, unreduced
        assert report == single


def test_reading_only_the_value_forms_no_pair(monkeypatch):
    formed = []
    pairs = numeric._planned_pairs

    def counted(*args):
        formed.append(args)
        return pairs(*args)

    monkeypatch.setattr(numeric, "_planned_pairs", counted)
    formula, jet = delta_formula(8), wide_rational_jet(8, seed=3790)
    reports = [eval_formula(formula, jet) for _ in range(4)]  # the single pass, then the plan
    assert len({report.value for report in reports}) == 1
    assert formed == []
    assert reports[2].term_values == reports[0].term_values
    assert len(formed) == 1
    assert reports[2] == reports[0] and tuple(reports[2]._terms) == reports[0]._terms
    assert hash(reports[2]) == hash(reports[0])
    assert len(formed) == 1  # formed once, then kept
    assert reports[3] == reports[2]
    assert len(formed) == 2


def test_planned_term_values_survive_replace():
    jet = wide_rational_jet(8, seed=3808)
    report = planned(delta_formula, 8, jet)
    targeted = replace(report, analytic=Fraction(1, 3))
    assert targeted.term_values == report.term_values
    assert targeted.term_values == eval_formula(delta_formula(8), jet).term_values
    assert "_terms" not in repr(targeted)


def test_planned_reports_on_different_formulas_compare_unequal():
    jet = random_rational_jet(5, seed=3805)
    delta = planned(delta_formula, 5, jet)
    expanded = planned(elementary_formula, 5, jet)
    assert delta.value == expanded.value
    assert delta != expanded and expanded != delta


@pytest.mark.parametrize("kind", ["rational", "float"])
def test_eval_rejects_inverse_form_and_short_jets(kind):
    from implicit_derivatives import inverse_function_formula

    with pytest.raises(DomainError):
        eval_formula(inverse_function_formula(2), circle_jet(kind=kind))
    with pytest.raises(JetError):
        eval_formula(delta_formula(4), circle_jet(order=3, kind=kind))
    # a hand-made formula may name a partial or a block beyond its own
    # order; both are refused the same way
    far = ElemMonomial((((4, 0), 1),), 1)
    with pytest.raises(JetError):
        eval_formula(ElemFormula.from_terms(2, [(1, far)]), circle_jet(order=3, kind=kind))
    far = DeltaMonomial((((4, 0), 1),), 1)
    with pytest.raises(JetError):
        eval_formula(DeltaFormula.from_terms(2, [(1, far)]), circle_jet(order=3, kind=kind))


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: eval_formula(None, circle_jet()), FormulaError),
        (lambda: eval_formula("- D[2,0] / fy^3", circle_jet()), FormulaError),
        (lambda: eval_formula(delta_formula(3), None), JetError),
        (lambda: eval_formula(delta_formula(3), {(0, 1): 1}), JetError),
        (lambda: shift_jet(None, 3), JetError),
        (lambda: eval_delta_block(None, 1, 1), JetError),
        (lambda: jet_to_json(None), JetError),
    ],
    ids=["formula-none", "formula-text", "jet-none", "jet-dict", "shift", "block", "to-json"],
)
def test_numeric_refuses_what_is_not_a_formula_or_a_jet(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("fy", [1e120, 1e-120])
def test_float_eval_overflow_raises_jet_error(fy):
    # a power of f_y = 1e120 overflows; one of f_y = 1e-120 underflows to 0
    partials = {(0, 1): fy, (2, 0): 1e100}
    jet = Jet(x0=0.0, y0=0.0, order=3, partials=partials, kind="float")
    with pytest.raises(JetError):
        eval_formula(delta_formula(3), jet)
    # the same on the plan path, after two evaluations on a tame jet
    formula = delta_formula(3)
    for _ in range(2):
        eval_formula(formula, float_copy(random_rational_jet(3, seed=33)))
    assert isinstance(vars(formula)["_eval_plan"], numeric._EvalPlan)
    with pytest.raises(JetError):
        eval_formula(formula, jet)


# --- the evaluation plan -----------------------------------------------------------


def test_a_plan_is_recorded_on_the_second_evaluation_only(monkeypatch):
    built = []
    plan = numeric._EvalPlan

    def counted(*args):
        built.append(args)
        return plan(*args)

    monkeypatch.setattr(numeric, "_EvalPlan", counted)
    formula = delta_formula(6)
    jet = random_rational_jet(6, seed=606)
    eval_formula(formula, jet)
    assert built == []
    # one plan serves both jet kinds
    for case in (float_copy(jet), jet, float_copy(jet), jet):
        eval_formula(formula, case)
    assert len(built) == 1


@pytest.mark.parametrize("build", [delta_formula, elementary_formula, fx_zero_formula])
@pytest.mark.parametrize("kind", ["rational", "float"])
def test_the_plan_holds_no_jet_value(build, kind):
    a, b = wide_rational_jet(7, seed=1701), random_rational_jet(7, seed=1702)
    if kind == "float":
        a, b = float_copy(a), float_copy(b)
    formula = build(7)
    first = eval_formula(formula, a)  # the single pass
    eval_formula(formula, b)  # records the plan and reads it
    again = eval_formula(formula, a)
    assert again == first
    assert repr(again.term_values) == repr(first.term_values)


@pytest.mark.parametrize("kind", ["rational", "float"])
@pytest.mark.parametrize("shape", ["delta", "elementary"])
def test_the_plan_path_refuses_a_base_beyond_the_jets_order(shape, kind):
    if shape == "delta":
        formula = DeltaFormula.from_terms(2, [(1, DeltaMonomial((((4, 0), 1),), 1))])
    else:
        formula = ElemFormula.from_terms(2, [(1, ElemMonomial((((4, 0), 1),), 1))])
    for _ in range(2):
        eval_formula(formula, circle_jet(order=4, kind=kind))
    assert isinstance(vars(formula)["_eval_plan"], numeric._EvalPlan)
    with pytest.raises(JetError):
        eval_formula(formula, circle_jet(order=3, kind=kind))


@pytest.mark.parametrize("build, n", [(delta_formula, 6), (elementary_formula, 5)])
def test_the_plan_stays_outside_the_formula_value(build, n):
    formula, twin = build(n), build(n)
    seen = (hash(formula), repr(formula), formula_to_json(formula))
    for _ in range(3):
        eval_formula(formula, random_rational_jet(n, seed=n))
    assert isinstance(vars(formula)["_eval_plan"], numeric._EvalPlan)
    assert formula == twin and twin == formula
    assert (hash(formula), repr(formula), formula_to_json(formula)) == seen
    copy = replace(formula)
    assert copy == formula
    assert "_eval_plan" not in vars(copy)


def test_plans_hold_at_most_100_bytes_per_term():
    # every shape the plan records: blocks, and raw partials with and without f_x
    for build, orders, terms in (
        (delta_formula, range(8, 15), 6554),
        (elementary_formula, range(6, 12), 12605),
        (fx_zero_formula, range(6, 13), 2073),
    ):
        formulas = [build(n) for n in orders]
        assert sum(len(formula.terms) for formula in formulas) == terms
        gc.collect()  # the highest generation also empties the free lists
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            plans = [numeric._EvalPlan(formula, build is delta_formula) for formula in formulas]
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(plans) == len(formulas)
        assert held <= 100 * terms, build.__name__


# In canonical order, stratum (the f_y power) first: D[1,1] D[2,0] is a
# proper prefix of the next term, whose successor differs from it in
# the last power only; the f_y^6 stratum restarts at D[1,1] D[2,0]
# after a term without D[1,1], and the last term has no factors.
PREFIX_TERMS = [
    (Fraction(2), (((1, 1), 1), ((2, 0), 1)), 5),
    (Fraction(-3, 4), (((1, 1), 1), ((2, 0), 1), ((3, 0), 1)), 5),
    (Fraction(5), (((1, 1), 1), ((2, 0), 2)), 5),
    (Fraction(1, 3), (((2, 0), 3),), 5),
    (Fraction(-7), (((0, 2), 1), ((2, 0), 1)), 6),
    (Fraction(4, 5), (((1, 1), 1), ((2, 0), 1), ((3, 0), 2)), 6),
    (Fraction(-1, 6), (), 7),
]


def prefix_delta(n):
    return DeltaFormula.from_terms(n, [(c, DeltaMonomial(f, q)) for c, f, q in PREFIX_TERMS])


def prefix_elementary(n):
    return ElemFormula.from_terms(n, [(c, ElemMonomial(f, q)) for c, f, q in PREFIX_TERMS])


@pytest.mark.parametrize(
    "build, n",
    [(delta_formula, n) for n in range(2, 11)]
    + [(elementary_formula, n) for n in range(2, 11)]
    + [(fx_zero_formula, n) for n in range(2, 11)]
    + [(prefix_delta, 3), (prefix_elementary, 3)],
)
def test_the_prefix_table_gives_the_single_pass_bit_for_bit(build, n):
    formula = build(n)
    compact = isinstance(formula, DeltaFormula)
    entries = [mono.factors if compact else mono.exponents for _, mono in formula.terms]
    if build in (prefix_delta, prefix_elementary):
        assert [len(e) for e in entries] == [2, 3, 2, 1, 2, 3, 0]  # still in the order above
    order = max(n, 4)
    jets = [random_rational_jet(order, seed=1800 + n), wide_rational_jet(order, seed=1820 + n)]
    jets += [float_copy(jet) for jet in jets]
    for jet in jets:
        first = eval_formula(build(n), jet)  # a fresh object's single pass
        for _ in range(3):  # the plan is recorded on the object's second evaluation
            report = eval_formula(formula, jet)
            assert report == first  # the unreduced term pairs too
            assert repr(report.term_values) == repr(first.term_values)
    # each distinct proper factor prefix is one node; the empty one is node 0
    plan = vars(formula)["_eval_plan"]
    prefixes = {factors[:i] for factors in entries for i in range(1, len(factors))}
    assert len(plan.node_parents) == len(plan.node_entries) == len(prefixes)


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
    for name in ("sphere", ["circle"], None):  # a non-string name is unknown too
        with pytest.raises(DomainError):
            builtin_problem(name)
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
    # orders follow the one order policy before the FD limit: no bool, no float
    for n in (0, FD_MAX_ORDER + 1, True, 2.0, 31):
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
