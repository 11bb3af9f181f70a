"""Tests for the one entries normalizer, the one entries check and the monomials."""

from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from implicit_derivatives import DeltaMonomial, ElemMonomial, FormulaError
from implicit_derivatives.keys import VectorKey, canonical_entries, merge_entries


def merge_reference(pairs):
    """Sum the counts per (l, r), drop zeros, sort."""
    totals = {}
    for key, count in pairs:
        key = (key[0], key[1])
        totals[key] = totals.get(key, 0) + count
    return sorted((key, count) for key, count in totals.items() if count)


_index = st.integers(0, 3)
_key = st.one_of(
    st.tuples(_index, _index),
    st.builds(VectorKey, _index, _index),
)
_pairs = st.lists(st.tuples(_key, st.integers(-3, 3)), max_size=8)


@given(pairs=_pairs, as_tuple=st.booleans())
@settings(max_examples=300)
def test_merge_matches_the_dict_sum_reference(pairs, as_tuple):
    merged = merge_entries(tuple(pairs) if as_tuple else pairs)
    assert type(merged) is tuple
    assert [(tuple(key), count) for key, count in merged] == merge_reference(pairs)
    for key, count in merged:
        assert type(key) is VectorKey and type(count) is int


class Refused(Exception):
    """The error class handed to :func:`canonical_entries` by these tests."""


class Two(IntEnum):
    TWO = 2


def entries_are_valid(pairs, forbidden):
    """The entries rule from its definition: exact ints, then checks on the merge."""
    for item in pairs:
        if not isinstance(item, (tuple, list)) or len(item) != 2:
            return False
        key, count = item
        if not isinstance(key, (tuple, list)) or len(key) != 2:
            return False
        if any(type(value) is not int for value in (*key, count)):
            return False
    return all(
        min(key) >= 0 and tuple(key) not in forbidden and count >= 0
        for key, count in merge_reference(pairs)
    )


# every value the integer rule is asked about: ints, and what it refuses
_loose_value = st.one_of(
    st.integers(-1, 3),
    st.booleans(),
    st.sampled_from([2.0, 1.5, "1", Two.TWO, None]),
)
_loose_key = st.one_of(
    _key,
    st.tuples(_loose_value, _loose_value),
    st.builds(VectorKey, _loose_value, _loose_value),
)
_loose_pair = st.one_of(
    st.tuples(_key, st.integers(-3, 3)),
    st.tuples(_loose_key, _loose_value),
    st.sampled_from(
        [5, (VectorKey(2, 0),), (VectorKey(2, 0), 1, 1), ((2, 0, 1), 1), [VectorKey(2, 0), 1]]
    ),
)
# well-typed pairs that reach the one-scan path, in any order, with
# repeated keys, zero and negative counts and negative indices
_vector_pair = st.tuples(
    st.builds(VectorKey, st.integers(-1, 3), st.integers(-1, 3)), st.integers(-1, 3)
)
_forbidden = st.sampled_from(
    [frozenset(), frozenset({(0, 0), (0, 1)}), frozenset({(0, 0), (0, 1), (1, 0)})]
)


@given(
    pairs=st.lists(_loose_pair, max_size=6),
    vector_pairs=st.lists(_vector_pair, max_size=4),
    canonical=st.lists(st.tuples(_key, st.integers(1, 3)), max_size=6),
    forbidden=_forbidden,
)
@settings(max_examples=300)
def test_canonical_entries_is_merge_entries_or_the_error(
    pairs, vector_pairs, canonical, forbidden
):
    singles = [[pair] for pair in vector_pairs]
    for drawn in (pairs, vector_pairs, *singles, list(merge_entries(canonical))):
        valid = entries_are_valid(drawn, forbidden)
        for given_pairs in (drawn, tuple(drawn)):  # a tuple may take the one scan
            if not valid:
                with pytest.raises(Refused):
                    canonical_entries(given_pairs, forbidden, Refused)
                continue
            result = canonical_entries(given_pairs, forbidden, Refused)
            assert result == merge_entries(drawn)
            for item in result:
                assert type(item) is tuple and type(item[0]) is VectorKey
            assert canonical_entries(result, forbidden, Refused) is result


@pytest.mark.parametrize(
    "pairs",
    [
        ((VectorKey(2, 0), 1), (VectorKey(2, 0), 1)),  # repeated key
        ((VectorKey(3, 0), 1), (VectorKey(2, 0), 1)),  # out of order
        ((VectorKey(2, 0), 0),),  # zero count
        (((2, 0), 1),),  # plain-tuple key
        ([VectorKey(2, 0), 1],),  # list pair
        ((VectorKey(2, 0), True),),  # bool count
    ],
    ids=["repeat", "order", "zero", "plain-key", "list-pair", "bool-count"],
)
def test_non_canonical_tuples_are_merged(pairs):
    merged = merge_entries(pairs)
    assert merged is not pairs
    assert [(tuple(key), count) for key, count in merged] == merge_reference(pairs)
    for item in merged:
        assert type(item) is tuple and type(item[0]) is VectorKey


@pytest.mark.parametrize(
    "monomial, entries",
    [
        (DeltaMonomial, ((VectorKey(2, 0), 1.0),)),
        (DeltaMonomial, ((VectorKey(2, 0), True),)),
        (DeltaMonomial, ((VectorKey(-1, 3), 1),)),
        (DeltaMonomial, ((VectorKey(1, 0), 1), (VectorKey(2, 0), 1))),
        (DeltaMonomial, ((VectorKey(0, 1), 1),)),
        (DeltaMonomial, ((VectorKey(2, 0), -1),)),
        (DeltaMonomial, ((VectorKey(2.0, 0), 1),)),
        (ElemMonomial, ((VectorKey(2, 0), 1.5),)),
        (ElemMonomial, ((VectorKey(2, -1), 1),)),
        (ElemMonomial, ((VectorKey(0, 0), 1),)),
        (ElemMonomial, ((VectorKey(0, 1), 2),)),
        (ElemMonomial, ((VectorKey(1, 0), 1), (VectorKey(1, 1), -2))),
        (ElemMonomial, ((VectorKey(1, False), 1),)),
        (DeltaMonomial, ((VectorKey(Two.TWO, 0), 1),)),
        (ElemMonomial, ((VectorKey(0, 2), Two.TWO),)),
    ],
    ids=[
        "delta-float-power",
        "delta-bool-power",
        "delta-negative-index",
        "delta-key-1-0",
        "delta-key-0-1",
        "delta-negative-power",
        "delta-float-index",
        "elem-float-power",
        "elem-negative-index",
        "elem-key-0-0",
        "elem-key-0-1",
        "elem-negative-power",
        "elem-bool-index",
        "delta-intenum-index",
        "elem-intenum-power",
    ],
)
def test_monomials_check_entries_given_in_canonical_order(monomial, entries):
    with pytest.raises(FormulaError):
        monomial(entries, 3)


def test_monomials_keep_a_canonical_entries_tuple():
    factors = ((VectorKey(1, 1), 1), (VectorKey(2, 0), 2))
    assert DeltaMonomial(factors, 7).factors is factors
    exponents = ((VectorKey(1, 0), 2), (VectorKey(0, 2), 1))  # out of order
    assert ElemMonomial(exponents, 3).exponents == (
        (VectorKey(0, 2), 1),
        (VectorKey(1, 0), 2),
    )
