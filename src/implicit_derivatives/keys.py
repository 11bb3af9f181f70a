"""The index type of every formula representation, and the rules for its entries.

Every object of the package is a multiset of vectors (l, r), held as a
tuple of (key, count) entries.  This module alone decides what a valid
integer (:func:`check_int`), rational text (:func:`check_rational`), entries
tuple (:func:`canonical_entries`) and JSON object (:func:`unique_members`)
are, and how entries are normalized (:func:`merge_entries`).
"""

import re
from fractions import Fraction
from typing import Iterable, NamedTuple


class VectorKey(NamedTuple):
    """A pair of differentiation counts: ``l`` in x and ``r`` in y.

    The expanded-form modules read the same pair as (p, t).
    """

    l: int
    r: int


Entries = tuple[tuple[VectorKey, int], ...]

# forbidden keys of canonical_entries (indices are non-negative): blocks and
# family-A keys need l + r >= 2; elementary monomials and family-B keys
# hold neither f nor f_y
BELOW_ORDER_TWO = frozenset({(0, 0), (0, 1), (1, 0)})
F_AND_FY = frozenset({(0, 0), (0, 1)})
#: Rational text as ``str(Fraction)`` writes it: no exponent, point, space, + or _.
_RATIONAL = re.compile(r"-?(0|[1-9][0-9]*)(/[1-9][0-9]*)?")


def check_int(value, error: type[Exception], what: str) -> int:
    """The one integer rule: ``value`` if it is exactly an ``int``, else ``error``.

    ``bool`` and other ``int`` subclasses are refused; nothing is truncated.
    """
    if value.__class__ is not int:
        raise error(f"{what} must be an integer, got {value!r}")
    return value


def check_rational(value, error: type[Exception], what: str) -> Fraction:
    """The one rational-text rule: the ``Fraction`` a ``str`` in :data:`_RATIONAL` spells."""
    if not isinstance(value, str) or _RATIONAL.fullmatch(value) is None:
        raise error(f'{what} must be rational text such as "-3/4", got {value!r}')
    try:
        return Fraction(value)
    except ValueError as exc:  # more digits than int() converts
        raise error(f"cannot read {what}: {exc}") from None


def unique_members(pairs: list) -> dict:
    """The one JSON object hook: the members, or ``ValueError`` for a name given twice."""
    members = dict(pairs)
    if len(members) < len(pairs):
        raise ValueError("a key is given twice")
    return members


def merge_entries(pairs: Iterable[tuple]) -> Entries:
    """Canonical form of (key, count) pairs: the one normalizer of the package.

    Equal keys' counts are summed, keys become :class:`VectorKey`, zero counts
    are dropped and the rest sorted by (l, r); nothing is validated here.
    """
    merged: dict[VectorKey, int] = {}
    for key, count in pairs:
        if key.__class__ is not VectorKey:
            key = VectorKey(*key)
        if key in merged:
            merged[key] += count
        else:
            merged[key] = count
    return tuple(sorted([item for item in merged.items() if item[1]]))


def canonical_entries(
    pairs: Iterable[tuple], forbidden: frozenset, error: type[Exception]
) -> Entries:
    """The one entries check: canonical entries with ``int`` indices and counts.

    Raises ``error`` unless ``pairs`` holds ((l, r), count) pairs of exact ints,
    and then, on the merged entries (zero counts dropped), for a negative
    index, a key in ``forbidden`` or a negative count.  A tuple that is
    canonical and valid already is returned as it is after one scan.
    """
    if pairs.__class__ is tuple:
        previous = ()  # below every key
        try:
            for item in pairs:
                key, count = item
                l, r = key
                if (
                    item.__class__ is not tuple
                    or key.__class__ is not VectorKey
                    or not l.__class__ is r.__class__ is count.__class__ is int
                    or count <= 0
                    or l < 0
                    or r < 0
                    or not previous < key
                    or key in forbidden
                ):
                    break
                previous = key
            else:
                return pairs
        except (TypeError, ValueError):  # not pairs of pairs: the check below says so
            pass
    try:
        pairs = list(pairs)
    except TypeError:
        raise error(f"entries {pairs!r} are not a sequence of pairs") from None
    for item in pairs:
        try:
            (l, r), count = item
        except (TypeError, ValueError):
            raise error(f"entry {item!r} is not a ((l, r), count) pair") from None
        if not l.__class__ is r.__class__ is count.__class__ is int:
            raise error(f"indices and count must be integers, got {item!r}")
    merged = merge_entries(pairs)
    for key, count in merged:
        if key.l < 0 or key.r < 0:
            raise error(f"negative index in key {tuple(key)}")
        if key in forbidden:
            raise error(f"key {tuple(key)} not allowed here")
        if count < 0:
            raise error(f"negative count for key {tuple(key)}")
    return merged
