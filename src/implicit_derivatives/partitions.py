"""Vector-partition families indexing the implicit-derivative formulas.

Writing y for the function defined near a base point by f(x, y) = 0, the
n-th derivative of y is a signed sum of products of differential blocks,
and each product is recorded as a multiset of integer vectors.  A vector
(l, r) counts l differentiations in x and r in y.  Two families of
multisets appear:

* family A (order n >= 2): keys restricted to l + r >= 2, with
      sum l * m[l,r] = n   and   sum (r - 1) * m[l,r] = -1.
  The number of vectors h = sum m[l,r] satisfies 1 <= h <= n - 1 and
  stratifies the family.  Appending the key (0, 1) with multiplicity
  n - 1 - h yields the "lifted" presentation in which every element is a
  partition of the vector (n, n-2) into exactly n - 1 vectors, none of
  which is (0, 0) or (1, 0).

* family B (order n >= 1): same two sum constraints over keys (p, t),
  but the key (1, 0) is also allowed (and (0, 0), (0, 1) are not).  The
  stratum k = sum s[p,t] satisfies 1 <= k <= 2n - 1.  Family B indexes
  the monomials of the fully expanded derivative; family A embeds into
  it by taking s[1,0] = 0.

The module also provides the neighbor constructions that connect
consecutive orders: three "successor" moves sending an order-n element
to an order-(n+1) element, and the dual "predecessor" decompositions
used by the coefficient recursion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .errors import DomainError, check_order
from .keys import VectorKey, merge_entries

KeyLike = VectorKey | tuple


def _as_key(key: KeyLike) -> VectorKey:
    k = VectorKey(int(key[0]), int(key[1]))
    if k.l < 0 or k.r < 0:
        raise DomainError(f"vector keys need non-negative entries, got {tuple(k)}")
    return k


@dataclass(frozen=True)
class Multiplicities:
    """Finitely supported map from vector keys to positive counts.

    Zero counts are never stored; entries are kept sorted ascending by
    (l, r), which fixes a canonical iteration order for every consumer.
    Instances are immutable and hashable, so they can key dictionaries
    during term collection.
    """

    entries: tuple[tuple[VectorKey, int], ...] = ()

    def __post_init__(self) -> None:
        entries = merge_entries(self.entries)
        for key, count in entries:
            if key.l < 0 or key.r < 0:
                raise DomainError(
                    f"vector keys need non-negative entries, got {tuple(key)}"
                )
            if count < 0:
                raise DomainError(f"negative multiplicity for key {tuple(key)}")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_dict(cls, mapping: Mapping[KeyLike, int]) -> "Multiplicities":
        return cls(tuple(mapping.items()))

    def as_dict(self) -> dict[VectorKey, int]:
        return dict(self.entries)

    def items(self) -> Iterator[tuple[VectorKey, int]]:
        return iter(self.entries)

    def get(self, key: KeyLike) -> int:
        target = _as_key(key)
        for k, c in self.entries:
            if k == target:
                return c
        return 0

    def bumped(self, deltas: Iterable[tuple[KeyLike, int]]) -> "Multiplicities":
        """A copy with the given (key, delta) adjustments applied.

        Deltas for the same key accumulate.  Raises if any resulting
        count would be negative.
        """
        return Multiplicities(self.entries + tuple(deltas))

    @property
    def total(self) -> int:
        """Number of vectors counting multiplicity (the stratum h or k)."""
        return sum(c for _, c in self.entries)

    @property
    def sum_l(self) -> int:
        return sum(k.l * c for k, c in self.entries)

    @property
    def sum_r(self) -> int:
        return sum(k.r * c for k, c in self.entries)

    def __str__(self) -> str:
        inner = ", ".join(f"({k.l},{k.r}):{c}" for k, c in self.entries)
        return "{" + inner + "}"


@dataclass(frozen=True)
class PartitionFamilyTag:
    """Names one family ("A", "A_tilde", or "B") at order n, optionally a stratum."""

    family: str
    n: int
    stratum: int | None = None

    def __post_init__(self) -> None:
        if self.family not in ("A", "A_tilde", "B"):
            raise DomainError(f"unknown family {self.family!r}")
        minimum = 1 if self.family == "B" else 2
        if self.n < minimum:
            raise DomainError(f"family {self.family} starts at order {minimum}")
        if self.stratum is not None:
            upper = 2 * self.n - 1 if self.family == "B" else self.n - 1
            if not 1 <= self.stratum <= upper:
                raise DomainError(
                    f"stratum {self.stratum} outside [1, {upper}] for {self.family}_{self.n}"
                )


@dataclass(frozen=True)
class PredecessorRecord:
    """One way an order-(n+1) element arises from an order-n element.

    ``kind`` is "minus" (a block loses one x-differentiation at the pivot
    key), "b" (the pivot trades an x- for a y-differentiation and a (2,0)
    block disappears), or "d" (a (1,1) block disappears; no pivot).
    """

    kind: str
    pivot: VectorKey | None
    predecessor: Multiplicities


def is_member_A(alpha: Multiplicities, n: int) -> bool:
    """Whether ``alpha`` lies in family A at order ``n``."""
    if any(k.l + k.r < 2 for k, _ in alpha.items()):
        return False
    return alpha.sum_l == n and alpha.sum_r - alpha.total == -1


def is_member_B(gamma: Multiplicities, n: int) -> bool:
    """Whether ``gamma`` lies in family B at order ``n``."""
    if any(k.l + k.r < 2 and k != (1, 0) for k, _ in gamma.items()):
        return False
    return gamma.sum_l == n and gamma.sum_r - gamma.total == -1


def _core_multisets(n: int) -> Iterator[tuple[tuple[tuple[VectorKey, int], ...], int]]:
    """All multisets over keys with l + r >= 2 whose weight sum matches order n.

    Adding the two sum constraints shows every admissible multiset has
    sum (l + r - 1) * m = n - 1 with sum l * m <= n, and conversely each
    such multiset extends uniquely to family B (and lies in family A
    exactly when sum l * m = n).  Yields (entries, n - sum l * m).
    """
    # ordered by total l + r, so the consumed weight l + r - 1 is
    # non-decreasing along the list and exhausted tails prune early
    keys = [VectorKey(a, s - a) for s in range(2, n + 1) for a in range(s + 1)]

    def descend(i, weight_left, x_left, acc):
        if weight_left == 0:
            yield tuple(acc), x_left
            return
        if i == len(keys):
            return
        key = keys[i]
        weight = key.l + key.r - 1
        if weight > weight_left:
            return
        top = weight_left // weight
        if key.l:
            top = min(top, x_left // key.l)
        for count in range(top + 1):
            if count:
                acc.append((key, count))
            yield from descend(
                i + 1, weight_left - count * weight, x_left - count * key.l, acc
            )
            if count:
                acc.pop()

    yield from descend(0, n - 1, n, [])


def enumerate_A(n: int, stratum: int | None = None) -> list[Multiplicities]:
    """All family-A elements of order n, stratified by h then lexicographic.

    With ``stratum`` given, only the elements with h = stratum are kept.
    """
    check_order(n, 2)
    out = [
        Multiplicities(entries)
        for entries, x_left in _core_multisets(n)
        if x_left == 0
    ]
    out.sort(key=lambda m: (m.total, m.entries))
    if stratum is not None:
        PartitionFamilyTag("A", n, stratum)
        out = [m for m in out if m.total == stratum]
    return out


def enumerate_B(n: int, stratum: int | None = None) -> list[Multiplicities]:
    """All family-B elements of order n, stratified by k then lexicographic."""
    check_order(n, 1)
    out = []
    for entries, s10 in _core_multisets(n):
        if s10:
            entries = entries + ((VectorKey(1, 0), s10),)
        out.append(Multiplicities(entries))
    out.sort(key=lambda m: (m.total, m.entries))
    if stratum is not None:
        PartitionFamilyTag("B", n, stratum)
        out = [m for m in out if m.total == stratum]
    return out


def lift_to_tilde(alpha: Multiplicities, n: int) -> Multiplicities:
    """Append the forced (0, 1) multiplicity, giving the lifted presentation.

    The count of (0, 1) is n - 1 - h, which the sum constraints force to
    be non-negative; the lift makes the element a partition of (n, n-2)
    into exactly n - 1 vectors.
    """
    if not is_member_A(alpha, n):
        raise DomainError(f"{alpha} is not a family-A element of order {n}")
    fy_count = n - 1 - alpha.total
    if fy_count < 0:  # impossible for family-A members
        raise DomainError(f"{alpha} has more than {n - 1} blocks")
    if fy_count == 0:
        return alpha
    return alpha.bumped([((0, 1), fy_count)])


def drop_tilde(alpha_tilde: Multiplicities) -> Multiplicities:
    """Inverse of :func:`lift_to_tilde`: forget the (0, 1) multiplicity."""
    return Multiplicities(
        tuple((k, c) for k, c in alpha_tilde.items() if k != (0, 1))
    )


def members(tag: PartitionFamilyTag) -> list[Multiplicities]:
    """Enumerate the family named by ``tag``."""
    if tag.family == "A":
        return enumerate_A(tag.n, tag.stratum)
    if tag.family == "A_tilde":
        return [lift_to_tilde(a, tag.n) for a in enumerate_A(tag.n, tag.stratum)]
    return enumerate_B(tag.n, tag.stratum)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Weak compositions of ``total`` into ``parts`` parts, lexicographic."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def enumerate_Z(
    gamma: Multiplicities, s10: int
) -> list[dict[tuple[int, int, int], int]]:
    """Refinement systems splitting each count of ``gamma`` by drawn x-slots.

    ``gamma`` must have keys with p + t >= 2 only.  A system assigns to
    every key (p, t) counts q[p,t,j] for 0 <= j <= t with
    sum_j q[p,t,j] = s[p,t], subject to the global constraint
    sum j * q[p,t,j] = s10.  Returns the (possibly empty) list of all
    systems as sparse maps (p, t, j) -> positive count, in a fixed order.
    """
    if s10 < 0:
        raise DomainError("s10 must be non-negative")
    for key, _ in gamma.items():
        if key.l + key.r < 2:
            raise DomainError(f"key {tuple(key)} has p + t < 2")
    keys = list(gamma.items())
    # largest j-weighted total each suffix of the key list can still add
    slack_after = [0] * (len(keys) + 1)
    for i in range(len(keys) - 1, -1, -1):
        key, count = keys[i]
        slack_after[i] = slack_after[i + 1] + key.r * count

    systems: list[dict[tuple[int, int, int], int]] = []

    def descend(i, spent, acc):
        if i == len(keys):
            if spent == s10:
                systems.append(dict(acc))
            return
        if spent + slack_after[i] < s10:
            return
        (p, t), count = keys[i]
        for comp in _compositions(count, t + 1):
            cost = sum(j * q for j, q in enumerate(comp))
            if spent + cost > s10:
                continue
            added = [((p, t, j), q) for j, q in enumerate(comp) if q]
            descend(i + 1, spent + cost, acc + added)

    descend(0, 0, [])
    return systems


# --- neighbor constructions -------------------------------------------------
#
# Differentiating one product of blocks scatters it onto three kinds of
# neighbors at the next order; the predecessor records below are the
# inverse decompositions and are what the coefficient recursion consumes.


def successor_advance(alpha: Multiplicities, key: KeyLike) -> Multiplicities:
    """One block at ``key`` gains an x-differentiation: (l, r) -> (l+1, r)."""
    k = _as_key(key)
    if k.l + k.r < 2 or alpha.get(k) < 1:
        raise DomainError(f"cannot advance at key {tuple(k)} in {alpha}")
    return alpha.bumped([(k, -1), ((k.l + 1, k.r), +1)])


def successor_trade(alpha: Multiplicities, key: KeyLike) -> Multiplicities:
    """One block trades an x- for a y-differentiation and spawns a (2, 0).

    (l, r) -> (l-1, r+1) together with a new (2, 0) block; requires l >= 1
    and key != (2, 0).
    """
    k = _as_key(key)
    if k.l < 1 or k == (2, 0) or alpha.get(k) < 1:
        raise DomainError(f"cannot trade at key {tuple(k)} in {alpha}")
    return alpha.bumped([(k, -1), ((k.l - 1, k.r + 1), +1), ((2, 0), +1)])


def successor_mixed(alpha: Multiplicities) -> Multiplicities:
    """A new (1, 1) block appears; always admissible."""
    return alpha.bumped([((1, 1), +1)])


def predecessors(beta: Multiplicities, n_plus_1: int) -> list[PredecessorRecord]:
    """All order-n decompositions of the order-(n+1) element ``beta``.

    Emits a "minus" record for every key with l >= 1 and l + r >= 3, a
    "b" record (provided a (2, 0) block is present) for every key with
    r >= 1 other than (1, 1), and a "d" record when a (1, 1) block is
    present.  Every returned predecessor is checked to lie in family A
    at order n.
    """
    if n_plus_1 < 3:
        raise DomainError("predecessors need order at least 3")
    if not is_member_A(beta, n_plus_1):
        raise DomainError(f"{beta} is not a family-A element of order {n_plus_1}")
    n = n_plus_1 - 1
    records = []
    for key, _ in beta.items():
        if key.l >= 1 and key.l + key.r >= 3:
            pred = beta.bumped([(key, -1), ((key.l - 1, key.r), +1)])
            records.append(PredecessorRecord("minus", key, pred))
    if beta.get((2, 0)) >= 1:
        for key, _ in beta.items():
            if key.r >= 1 and key != (1, 1):
                pred = beta.bumped(
                    [(key, -1), ((2, 0), -1), ((key.l + 1, key.r - 1), +1)]
                )
                records.append(PredecessorRecord("b", key, pred))
    if beta.get((1, 1)) >= 1:
        records.append(PredecessorRecord("d", None, beta.bumped([((1, 1), -1)])))
    for record in records:
        if not is_member_A(record.predecessor, n):
            raise DomainError(
                f"predecessor {record.predecessor} of {beta} fell outside order {n}"
            )
    return records
