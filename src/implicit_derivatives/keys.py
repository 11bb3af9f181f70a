"""The index type shared by every formula representation, and its entries form."""

from typing import Iterable, NamedTuple


class VectorKey(NamedTuple):
    """A pair of differentiation counts: ``l`` in x and ``r`` in y.

    The expanded-form modules read the same pair as (p, t).
    """

    l: int
    r: int


def merge_entries(pairs: Iterable[tuple]) -> tuple[tuple[VectorKey, int], ...]:
    """Canonical form of (key, count) pairs: the one normalizer of the package.

    Counts of equal keys are summed, keys become :class:`VectorKey`, zero
    counts are dropped and the result is sorted by (l, r).  Negative
    counts are kept (the oracle stores denominators as negative f_y
    exponents); callers validate the merged result themselves.

    A tuple that is canonical already, ``(VectorKey, int)`` pairs with
    non-zero counts and strictly increasing keys, is returned as it is.
    Any other iterable is merged without that scan, so a caller joining
    two entry tuples passes ``itertools.chain`` of them, not their sum.
    """
    if pairs.__class__ is tuple:
        previous = ()  # below every key
        for item in pairs:
            if item.__class__ is not tuple:
                break
            key, count = item
            if (
                key.__class__ is not VectorKey
                or count.__class__ is not int
                or not count
                or not previous < key
            ):
                break
            previous = key
        else:
            return pairs
    merged: dict[VectorKey, int] = {}
    for key, count in pairs:
        if key.__class__ is not VectorKey:
            key = VectorKey(*key)
        if key in merged:
            merged[key] += count
        else:
            merged[key] = count
    return tuple(sorted([item for item in merged.items() if item[1]]))
