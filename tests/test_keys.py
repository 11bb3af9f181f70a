"""Tests for the one entries normalizer and the monomial checks that follow it."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from implicit_derivatives import DeltaMonomial, ElemMonomial, FormulaError
from implicit_derivatives.keys import VectorKey, merge_entries


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


@given(pairs=_pairs)
@settings(max_examples=200)
def test_merging_a_canonical_tuple_returns_it(pairs):
    canonical = merge_entries(pairs)
    assert merge_entries(canonical) is canonical
    assert merge_entries(list(canonical)) == canonical


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
