"""Tests for the vector-partition families and neighbor constructions."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from implicit_derivatives import (
    DomainError,
    Multiplicities,
    PartitionFamilyTag,
    enumerate_A,
    enumerate_B,
    enumerate_Z,
    lift_to_tilde,
    predecessors,
)
from implicit_derivatives.partitions import (
    drop_tilde,
    is_member_A,
    is_member_B,
    members,
    successor_advance,
    successor_mixed,
    successor_trade,
)


def m(pairs):
    return Multiplicities.from_dict(dict(pairs))


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


@pytest.mark.parametrize("n", range(2, 8))
def test_family_A_matches_brute_force(n):
    assert as_key_set(enumerate_A(n)) == brute_A(n)


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
    assert enumerate_A(4, stratum=2) == [
        m({(3, 0): 1, (1, 1): 1}),
        m({(2, 1): 1, (2, 0): 1}),
    ]
    with pytest.raises(DomainError):
        enumerate_A(4, stratum=4)


# --- family B -----------------------------------------------------------------


def test_family_B_small_orders():
    assert enumerate_B(1) == [m({(1, 0): 1})]
    assert enumerate_B(2) == [
        m({(2, 0): 1}),
        m({(1, 1): 1, (1, 0): 1}),
        m({(1, 0): 2, (0, 2): 1}),
    ]
    assert enumerate_B(3, stratum=1) == [m({(3, 0): 1})]


@pytest.mark.parametrize("n", range(1, 7))
def test_family_B_matches_brute_force(n):
    assert as_key_set(enumerate_B(n)) == brute_B(n)


@pytest.mark.parametrize("n", range(1, 9))
def test_family_B_invariants(n):
    for gamma in enumerate_B(n):
        k = gamma.total
        assert gamma.sum_l == n
        assert gamma.sum_r == k - 1
        assert 1 <= k <= 2 * n - 1
        assert is_member_B(gamma, n)


@pytest.mark.parametrize("n", range(2, 9))
def test_family_A_embeds_in_family_B(n):
    b_set = set(enumerate_B(n))
    for alpha in enumerate_A(n):
        assert is_member_B(alpha, n)
        assert alpha in b_set


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


@pytest.mark.parametrize("n_plus_1", range(3, 9))
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


@pytest.mark.parametrize("n", range(2, 8))
def test_every_successor_is_reachable_backwards(n):
    upper = {beta: predecessors(beta, n + 1) for beta in enumerate_A(n + 1)}
    for alpha in enumerate_A(n):
        beta = successor_mixed(alpha)
        assert any(
            rec.kind == "d" and rec.predecessor == alpha for rec in upper[beta]
        )
        for key, _ in alpha.items():
            beta = successor_advance(alpha, key)
            assert any(
                rec.kind == "minus" and rec.predecessor == alpha
                for rec in upper[beta]
            )


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
        m({(2, 0): 1}).bumped([((2, 0), -2)])


def test_family_tag_validation():
    assert members(PartitionFamilyTag("A", 4, 1)) == [m({(4, 0): 1})]
    assert members(PartitionFamilyTag("A_tilde", 3)) == [
        m({(3, 0): 1, (0, 1): 1}),
        m({(2, 0): 1, (1, 1): 1}),
    ]
    with pytest.raises(DomainError):
        PartitionFamilyTag("C", 4)
    with pytest.raises(DomainError):
        PartitionFamilyTag("B", 2, 4)


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
    mults = Multiplicities.from_dict(counts)
    entries = list(mults.items())
    assert entries == sorted(entries)
    assert all(c >= 1 for _, c in entries)
    assert mults == Multiplicities(tuple(reversed(entries)))
