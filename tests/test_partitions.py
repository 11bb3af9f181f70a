"""Tests for the vector-partition families and neighbor constructions."""

from collections import Counter
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from implicit_derivatives import (
    DomainError,
    Multiplicities,
    enumerate_A,
    enumerate_B,
    enumerate_Z,
    lift_to_tilde,
    predecessors,
)
from implicit_derivatives import coeffs, numeric, oracle, partitions
from implicit_derivatives.errors import HARD_CAP, FormulaError
from implicit_derivatives.partitions import (
    _family,
    drop_tilde,
    family_counts,
    family_sizes,
    is_member_A,
    members,
    predecessor_records,
    successor_advance,
    successor_mixed,
    successor_trade,
)


def m(pairs):
    return Multiplicities(tuple(dict(pairs).items()))


# --- independent brute-force oracle ------------------------------------------
#
# Enumerates multisets of vectors directly (one vector at a time, in
# non-decreasing order) instead of choosing multiplicities over the key
# space, so it shares no logic with the production enumeration.


def brute_vector_multisets(n):
    vectors = sorted((l, r) for s in range(2, n + 1) for l in range(s + 1) for r in (s - l,))
    found = set()

    def extend(start, chosen, sum_l, budget):
        if budget == 0:
            if sum_l == n:
                found.add(frozenset(Counter(chosen).items()))
            return
        for i in range(start, len(vectors)):
            l, r = vectors[i]
            weight = l + r - 1
            if weight <= budget and sum_l + l <= n:
                extend(i, chosen + [(l, r)], sum_l + l, budget - weight)

    extend(0, [], 0, n - 1)
    return found


def brute_A(n):
    return brute_vector_multisets(n)


def brute_B(n):
    cores = set()

    def collect(start, chosen, sum_l, budget, vectors):
        if budget == 0:
            cores.add(tuple(sorted(chosen)))
            return
        for i in range(start, len(vectors)):
            l, r = vectors[i]
            weight = l + r - 1
            if weight <= budget and sum_l + l <= n:
                collect(i, chosen + [(l, r)], sum_l + l, budget - weight, vectors)

    vectors = sorted((l, r) for s in range(2, n + 1) for l in range(s + 1) for r in (s - l,))
    collect(0, [], 0, n - 1, vectors)
    found = set()
    for core in cores:
        for s10 in range(n + 1):
            candidate = list(core) + [(1, 0)] * s10
            counts = Counter(candidate)
            if sum(p * c for (p, _), c in counts.items()) != n:
                continue
            if sum((t - 1) * c for (_, t), c in counts.items()) != -1:
                continue
            found.add(frozenset(counts.items()))
    return found


def grouped_family(found):
    """A brute-force family as ``_family`` lists it: (total, sorted entries) groups."""
    groups = {}
    for element in found:
        groups.setdefault(sum(c for _, c in element), []).append(tuple(sorted(element)))
    return [(total, sorted(groups[total])) for total in sorted(groups)]


def in_family_B(gamma, n):
    """Family-B membership straight from the definition."""
    keys_allowed = all(k.l + k.r >= 2 or k == (1, 0) for k, _ in gamma.items())
    return keys_allowed and gamma.sum_l == n and gamma.sum_r - gamma.total == -1


def as_key_set(elements):
    return {frozenset((tuple(k), c) for k, c in e.items()) for e in elements}


# --- family A -----------------------------------------------------------------


def test_family_A_small_orders_match_known_lists():
    assert enumerate_A(2) == [m({(2, 0): 1})]
    assert enumerate_A(3) == [m({(3, 0): 1}), m({(2, 0): 1, (1, 1): 1})]
    assert enumerate_A(4) == [
        m({(4, 0): 1}),
        m({(3, 0): 1, (1, 1): 1}),
        m({(2, 1): 1, (2, 0): 1}),
        m({(2, 0): 2, (0, 2): 1}),
        m({(2, 0): 1, (1, 1): 2}),
    ]


def test_family_A_order_five_has_ten_elements():
    assert len(enumerate_A(5)) == 10


@pytest.mark.parametrize("n", range(2, 17))
def test_family_A_matches_brute_force(n):
    found = brute_A(n)
    assert _family(n, True) == grouped_family(found)
    assert as_key_set(enumerate_A(n)) == found


@pytest.mark.parametrize("n", range(2, 9))
def test_family_A_invariants(n):
    elements = enumerate_A(n)
    assert len(set(elements)) == len(elements)
    for alpha in elements:
        h = alpha.total
        assert alpha.sum_l == n
        assert alpha.sum_r == h - 1
        assert 1 <= h <= n - 1
        assert is_member_A(alpha, n)
        # a (1,1) or (2,0) block, or a forced plain f_y factor, is always present
        lifted = lift_to_tilde(alpha, n)
        assert (
            alpha.get((1, 1)) > 0
            or alpha.get((2, 0)) > 0
            or lifted.get((0, 1)) > 0
        )


def test_family_A_rejects_bad_orders():
    with pytest.raises(DomainError):
        enumerate_A(1)
    with pytest.raises(DomainError):
        enumerate_A(31)


def test_family_A_stratum_filter():
    assert members("A", 4, 2) == [
        m({(3, 0): 1, (1, 1): 1}),
        m({(2, 1): 1, (2, 0): 1}),
    ]
    with pytest.raises(DomainError):
        members("A", 4, 4)


# --- family B -----------------------------------------------------------------


def test_family_B_small_orders():
    assert enumerate_B(1) == [m({(1, 0): 1})]
    assert enumerate_B(2) == [
        m({(2, 0): 1}),
        m({(1, 1): 1, (1, 0): 1}),
        m({(1, 0): 2, (0, 2): 1}),
    ]
    assert members("B", 3, 1) == [m({(3, 0): 1})]


@pytest.mark.parametrize("n", range(1, 14))
def test_family_B_matches_brute_force(n):
    found = brute_B(n)
    assert _family(n, False) == grouped_family(found)
    assert as_key_set(enumerate_B(n)) == found


@pytest.mark.parametrize("n", range(1, 9))
def test_family_B_invariants(n):
    for gamma in enumerate_B(n):
        k = gamma.total
        assert gamma.sum_l == n
        assert gamma.sum_r == k - 1
        assert 1 <= k <= 2 * n - 1
        assert in_family_B(gamma, n)


@pytest.mark.parametrize("n", range(2, 9))
def test_family_A_embeds_in_family_B(n):
    b_set = set(enumerate_B(n))
    for alpha in enumerate_A(n):
        assert in_family_B(alpha, n)
        assert alpha in b_set


@pytest.mark.parametrize("n", range(2, 14))
def test_pruned_family_A_walk_is_the_family_B_filter(n):
    # the two walks enter only live states, but of different tables:
    # family A has no (1, 0) key to absorb spare x-differentiations.
    # The family-B walk filtered to s[1,0] = 0 is the reference: same
    # list, same order
    assert enumerate_A(n) == [b for b in enumerate_B(n) if b.get((1, 0)) == 0]


# --- the counting table -----------------------------------------------------------


@pytest.mark.parametrize("family_a, max_n", [(True, 14), (False, 12)])
def test_counting_table_matches_the_enumeration(family_a, max_n):
    counts = family_counts(max_n, family_a)
    assert list(counts) == list(range(2 if family_a else 1, max_n + 1))
    for n, strata in counts.items():
        walked = [(total, len(group)) for total, group in _family(n, family_a)]
        assert strata == walked
        assert family_sizes([(n, family_a)]) == [sum(size for _, size in walked)]
    # one table at the largest order asked for serves every smaller order
    requests = [(n, family_a) for n in counts][::-1]
    assert family_sizes(requests) == [sum(c for _, c in counts[n]) for n, _ in requests]


@pytest.mark.parametrize("family_a, top", [(True, 14), (False, 12)])
def test_family_groups_ascend_by_total_then_entries(family_a, top):
    for n in range(2 if family_a else 1, top + 1):
        groups = _family(n, family_a)
        totals = [total for total, _ in groups]
        assert all(a < b for a, b in zip(totals, totals[1:]))
        for total, group in groups:
            assert group
            assert all(a < b for a, b in zip(group, group[1:]))
            assert all(sum(c for _, c in entries) == total for entries in group)


def test_counting_table_at_the_hard_cap():
    assert family_sizes([(HARD_CAP, True), (HARD_CAP, False)]) == [5_192_640, 323_685_343]
    assert sum(c for _, c in family_counts(HARD_CAP, False)[HARD_CAP]) == 323_685_343


def test_counting_slots_hold_every_count_up_to_the_hard_cap():
    # a slot never exceeds the number of all cores of its weight, which
    # is the z^w coefficient of prod_j (1 - z^j)^-(j + 2) (j + 2 keys of
    # weight j)
    cores = [1] + [0] * (HARD_CAP - 1)
    for j in range(1, HARD_CAP):
        for _ in range(j + 2):
            for w in range(j, HARD_CAP):
                cores[w] += cores[w - j]
    assert max(cores) < 2 ** (8 * partitions._SLOT_BYTES)


def test_counting_rejects_bad_orders():
    with pytest.raises(DomainError):
        family_counts(1, True)
    with pytest.raises(DomainError):
        family_sizes([(0, False)])
    with pytest.raises(DomainError):
        family_counts(HARD_CAP + 1, False)
    with pytest.raises(DomainError):
        family_sizes([(3.0, True)])
    with pytest.raises(DomainError):
        family_sizes([(5, True), (1, True)])
    assert family_sizes([]) == []


@pytest.mark.parametrize("flag", ["B", "A", 0, 1, None, 1.0, [True]])
def test_counting_rejects_a_family_flag_that_is_not_a_bool(flag):
    # a truthy flag is not family A, nor a falsy one family B
    with pytest.raises(DomainError):
        family_counts(4, flag)
    with pytest.raises(DomainError):
        family_sizes([(4, flag)])
    with pytest.raises(DomainError):
        family_sizes([(4, True), (4, flag)])


# --- the lifted presentation ----------------------------------------------------


def test_lift_examples():
    assert lift_to_tilde(m({(2, 0): 1}), 2) == m({(2, 0): 1})
    assert lift_to_tilde(m({(3, 0): 1}), 3) == m({(3, 0): 1, (0, 1): 1})
    assert lift_to_tilde(m({(2, 0): 2, (0, 2): 1}), 4) == m({(2, 0): 2, (0, 2): 1})


@pytest.mark.parametrize("n", range(2, 8))
def test_lift_round_trips(n):
    for alpha in enumerate_A(n):
        lifted = lift_to_tilde(alpha, n)
        assert lifted.total == n - 1
        assert lifted.sum_l == n
        assert lifted.sum_r == n - 2
        assert drop_tilde(lifted) == alpha
        assert lift_to_tilde(drop_tilde(lifted), n) == lifted


def test_lift_rejects_non_members():
    with pytest.raises(DomainError):
        lift_to_tilde(m({(2, 0): 1}), 3)


# --- refinement systems ---------------------------------------------------------


def test_refinements_forced_cases():
    assert enumerate_Z(m({(1, 1): 1}), 1) == [{(1, 1, 1): 1}]
    assert enumerate_Z(m({(2, 0): 1}), 1) == []
    gamma = m({(2, 1): 2, (0, 3): 1})
    assert enumerate_Z(gamma, 0) == [{(0, 3, 0): 1, (2, 1, 0): 2}]


def test_refinements_respect_counts():
    gamma = m({(2, 2): 1, (1, 1): 1})
    systems = enumerate_Z(gamma, 2)
    assert len(systems) == 2
    for system in systems:
        by_key = Counter()
        for (p, t, j), q in system.items():
            by_key[(p, t)] += q
        assert by_key == Counter({(2, 2): 1, (1, 1): 1})
        assert sum(j * q for (_, _, j), q in system.items()) == 2


def test_refinements_reject_fx_key():
    with pytest.raises(DomainError):
        enumerate_Z(m({(1, 0): 1}), 0)
    with pytest.raises(DomainError):
        enumerate_Z(m({(2, 1): 2, (0, 3): 1}), 1.5)


# --- predecessors and successors -------------------------------------------------


def test_predecessor_examples():
    records = predecessors(m({(3, 0): 1}), 3)
    assert len(records) == 1
    assert records[0].kind == "minus"
    assert records[0].pivot == (3, 0)
    assert records[0].predecessor == m({(2, 0): 1})

    records = predecessors(m({(2, 0): 1, (1, 1): 1}), 3)
    assert [(rec.kind, rec.pivot) for rec in records] == [("d", None)]
    assert records[0].predecessor == m({(2, 0): 1})

    records = predecessors(m({(4, 0): 1}), 4)
    assert [(rec.kind, rec.pivot) for rec in records] == [("minus", (4, 0))]
    assert records[0].predecessor == m({(3, 0): 1})


def test_predecessors_reject_non_members():
    with pytest.raises(DomainError):
        predecessors(m({(2, 0): 1}), 3)


def test_predecessor_records_pair_each_element_with_its_records():
    records = predecessor_records(6)
    assert [beta for beta, _ in records] == enumerate_A(6)
    for beta, preds in records:
        assert preds == predecessors(beta, 6)


@pytest.mark.parametrize("n_plus_1", range(3, 11))
def test_predecessors_round_trip_through_successors(n_plus_1):
    lower = set(enumerate_A(n_plus_1 - 1))
    for beta in enumerate_A(n_plus_1):
        for record in predecessors(beta, n_plus_1):
            assert record.predecessor in lower
            if record.kind == "minus":
                key = (record.pivot.l - 1, record.pivot.r)
                assert successor_advance(record.predecessor, key) == beta
            elif record.kind == "b":
                key = (record.pivot.l + 1, record.pivot.r - 1)
                assert successor_trade(record.predecessor, key) == beta
            else:
                assert successor_mixed(record.predecessor) == beta


def test_predecessors_refuse_a_beta_that_is_not_multiplicities():
    with pytest.raises(DomainError):
        predecessors({(2, 0): 1}, 3)


_NOT_MULTIPLICITIES = {(2, 0): 1}


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: coeffs.coeff_C(_NOT_MULTIPLICITIES), DomainError),
        (lambda: coeffs.coeff_D(_NOT_MULTIPLICITIES), DomainError),
        (lambda: coeffs.signed_coeff(_NOT_MULTIPLICITIES), DomainError),
        (lambda: coeffs.zgamma_sum(_NOT_MULTIPLICITIES), DomainError),
        (lambda: enumerate_Z(_NOT_MULTIPLICITIES, 0), DomainError),
        (lambda: successor_advance(_NOT_MULTIPLICITIES, (2, 0)), DomainError),
        (lambda: successor_trade(_NOT_MULTIPLICITIES, (3, 0)), DomainError),
        (lambda: successor_mixed(_NOT_MULTIPLICITIES), DomainError),
        (lambda: oracle.total_derivative(None), FormulaError),
        (lambda: numeric.evaluate_problem(None, 3), DomainError),
        (lambda: numeric.finite_difference_derivatives(None, 3), DomainError),
    ],
    ids=[
        "coeff_C",
        "coeff_D",
        "signed_coeff",
        "zgamma_sum",
        "enumerate_Z",
        "successor_advance",
        "successor_trade",
        "successor_mixed",
        "total_derivative",
        "evaluate_problem",
        "finite_differences",
    ],
)
def test_public_calls_refuse_an_argument_of_the_wrong_type(call, error):
    # the type of the refusal only, not its message
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("n", range(2, 8))
def test_every_successor_is_reachable_backwards(n):
    upper = {beta: predecessors(beta, n + 1) for beta in enumerate_A(n + 1)}
    for alpha in enumerate_A(n):
        beta = successor_mixed(alpha)
        assert is_member_A(beta, n + 1)
        assert any(
            rec.kind == "d" and rec.predecessor == alpha for rec in upper[beta]
        )
        for key, _ in alpha.items():
            beta = successor_advance(alpha, key)
            assert is_member_A(beta, n + 1)
            assert any(
                rec.kind == "minus" and rec.predecessor == alpha
                for rec in upper[beta]
            )
            if key.l >= 1 and key != (2, 0):
                beta = successor_trade(alpha, key)
                assert is_member_A(beta, n + 1)
                assert any(
                    rec.kind == "b" and rec.predecessor == alpha
                    for rec in upper[beta]
                )


# --- canonical by construction -------------------------------------------------------


def assert_canonical_by_construction(mults):
    """An element equals its rebuild by the checked constructor, entries and all.

    The check hands a canonical, valid entries tuple back as it is, so the
    rebuild holds the very same tuple only when the move made it canonical.
    """
    rebuilt = Multiplicities(mults.entries)
    assert rebuilt == mults, mults
    assert rebuilt.entries is mults.entries, mults


def successors_of(n):
    """Every successor of every family-A element of order n, by every admissible move."""
    for alpha in enumerate_A(n):
        yield successor_mixed(alpha)
        for key, _ in alpha.items():
            yield successor_advance(alpha, key)
            if key.l >= 1 and key != (2, 0):
                yield successor_trade(alpha, key)


def predecessors_of(n_plus_1):
    """Every predecessor in the records of order ``n_plus_1``."""
    for _, records in predecessor_records(n_plus_1):
        for record in records:
            yield record.predecessor


@pytest.mark.parametrize("n", range(2, 12))
def test_successors_are_canonical_by_construction(n):
    for beta in successors_of(n):
        assert_canonical_by_construction(beta)


@pytest.mark.parametrize("n_plus_1", range(3, 13))
def test_predecessors_are_canonical_by_construction(n_plus_1):
    for alpha in predecessors_of(n_plus_1):
        assert_canonical_by_construction(alpha)


@pytest.mark.parametrize("n", range(1, 10))
def test_family_elements_are_canonical_by_construction(n):
    for element in (enumerate_A(n) if n >= 2 else []) + enumerate_B(n):
        assert_canonical_by_construction(element)


@pytest.mark.parametrize("neighbours", [successors_of, predecessors_of])
def test_a_normalizer_that_swaps_two_keys_fails_the_guarantee(monkeypatch, neighbours):
    merge = partitions.merge_entries

    def swapped(pairs):
        entries = merge(pairs)
        return entries[1::-1] + entries[2:]  # the first two entries swapped

    monkeypatch.setattr(partitions, "merge_entries", swapped)
    with pytest.raises(AssertionError):
        for mults in neighbours(6):
            assert_canonical_by_construction(mults)


# --- container behavior -----------------------------------------------------------


def test_multiplicities_normalization():
    raw = Multiplicities((((2, 0), 1), ((1, 1), 0), ((2, 0), 2)))
    assert raw == m({(2, 0): 3})
    assert str(raw) == "{(2,0):3}"
    with pytest.raises(DomainError):
        Multiplicities((((2, 0), -1),))
    with pytest.raises(DomainError):
        Multiplicities((((-1, 3), 1),))
    with pytest.raises(DomainError):
        Multiplicities(m({(2, 0): 1}).entries + (((2, 0), -2),))
    # indices and counts are exact ints: nothing is truncated or coerced
    Two = IntEnum("Two", {"TWO": 2})
    for value in (2.5, 2.0, True, "2", Two.TWO):
        for entries in ((((value, 0), 1),), (((2, value), 1),), (((2, 0), value),)):
            with pytest.raises(DomainError):
                Multiplicities(entries)
    with pytest.raises(DomainError):
        Multiplicities((((2, "0"), 1), ((2, 0), 1)))
    alpha = m({(2, 0): 1, (1, 1): 1})
    with pytest.raises(DomainError):
        alpha.get((2.7, 0))
    with pytest.raises(DomainError):
        successor_advance(alpha, (2.7, 0))
    with pytest.raises(DomainError):
        successor_trade(alpha, (1.7, 1))


def test_family_tag_validation():
    assert members("A", 4, 1) == [m({(4, 0): 1})]
    assert members("A_tilde", 3) == [
        m({(3, 0): 1, (0, 1): 1}),
        m({(2, 0): 1, (1, 1): 1}),
    ]
    assert members("B", 1) == enumerate_B(1)
    with pytest.raises(DomainError):
        members("C", 4)
    with pytest.raises(DomainError):
        members("B", 2, 4)
    with pytest.raises(DomainError):
        members("A", 1)
    with pytest.raises(DomainError):
        members("A_tilde", 4, 0)
    with pytest.raises(DomainError):
        members("A", 4, 1.5)


@given(
    counts=st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(
            lambda k: k[0] + k[1] >= 2
        ),
        st.integers(1, 4),
        max_size=4,
    )
)
@settings(max_examples=60)
def test_multiplicities_order_is_canonical(counts):
    mults = Multiplicities(tuple(counts.items()))
    entries = list(mults.items())
    assert entries == sorted(entries)
    assert all(c >= 1 for _, c in entries)
    assert mults == Multiplicities(tuple(reversed(entries)))
