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

Adding the two sum constraints gives sum (l + r - 1) * m = n - 1, so an
element is a choice of counts that uses up exactly the weight n - 1 and
the n x-differentiations, each key (l, r) taking l + r - 1 of the one
and l of the other; in family B, (1, 0) is a key of weight 0.  Both
families are enumerated by one walk over the keys in canonical (l, r)
order.  A liveness table, built backwards over the keys like an
unbounded knapsack, holds for every key index and weight the set of
x-sums the later keys can still complete, so the walk only enters states
with at least one completion, and it builds the completions of each
state once per call.  The walk hands the family over grouped by stratum,
totals ascending and each group in lexicographic entry order, so a
consumer sets up whatever depends on the stratum alone (the sign, the
f_y power) once per group.  Counting needs no walk: the family sizes by
stratum are coefficients of prod 1/(1 - x^l z^(l+r-1) u) over the keys
with l + r >= 2, read from one packed table per call
(:func:`family_counts`).

The module also provides the neighbor constructions that connect
consecutive orders: three "successor" moves sending an order-n element
to an order-(n+1) element, through which the differentiation step
:func:`~implicit_derivatives.formula.derive_next` scatters every term,
and the dual "predecessor" decompositions used by the coefficient
recursion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import DomainError, check_order
from .keys import BELOW_ORDER_TWO, VectorKey, canonical_entries, check_int, merge_entries
from .keys import check_keys


@dataclass(frozen=True)
class Multiplicities:
    """Finitely supported map from vector keys to positive counts.

    Zero counts are never stored; entries are kept sorted ascending by
    (l, r), which fixes a canonical iteration order for every consumer.
    Instances are immutable and hashable, so they can key dictionaries
    during term collection.

    The constructor checks every entry, once.  :meth:`_trusted` skips that
    check for entries canonical by construction: the family walk's
    elements, the neighbours of the successor and predecessor moves, the
    lifted presentation and its inverse, the factors of a checked block
    monomial and a family-B element's core.
    """

    entries: tuple[tuple[VectorKey, int], ...] = ()

    def __post_init__(self) -> None:
        entries = canonical_entries(self.entries, frozenset(), DomainError)
        object.__setattr__(self, "entries", entries)

    @classmethod
    def _trusted(cls, entries: tuple) -> "Multiplicities":
        """A multiset of entries already canonical and valid, set without a scan.

        For the entries named in the class docstring alone; the tests check
        every neighbour and family element against the entries rule.
        """
        mults = object.__new__(cls)
        object.__setattr__(mults, "entries", entries)
        return mults

    def items(self) -> Iterator[tuple[VectorKey, int]]:
        return iter(self.entries)

    def get(self, key: tuple[int, int]) -> int:
        # checked as an entry: int, non-negative indices
        ((target, _),) = canonical_entries(((key, 1),), frozenset(), DomainError)
        for k, c in self.entries:
            if k == target:
                return c
        return 0

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
class PredecessorRecord:
    """One way an order-(n+1) element arises from an order-n element.

    ``kind`` is "minus" (a block loses one x-differentiation at the pivot
    key), "b" (the pivot trades an x- for a y-differentiation and a (2,0)
    block disappears), or "d" (a (1,1) block disappears; no pivot).
    ``weight`` is read off the order-(n+1) element (see :func:`predecessors`).
    """

    kind: str
    pivot: VectorKey | None
    predecessor: Multiplicities
    weight: int  # multiplier of the predecessor's coefficient in the C-recursion

    @property
    def signed_weight(self) -> int:
        """Multiplier in the signed C-recursion: + for "minus", - for "b" and "d"."""
        return self.weight if self.kind == "minus" else -self.weight


def _check_multiplicities(alpha) -> None:
    """Refuse anything but a :class:`Multiplicities` with :class:`DomainError`."""
    if not isinstance(alpha, Multiplicities):
        raise DomainError(f"expected a Multiplicities, got {type(alpha).__name__}")


def is_member_A(alpha: Multiplicities, n: int) -> bool:
    """Whether ``alpha`` is a :class:`Multiplicities` in family A at order ``n``."""
    if not isinstance(alpha, Multiplicities):
        return False
    if any(k.l + k.r < 2 for k, _ in alpha.items()):
        return False
    return alpha.sum_l == n and alpha.sum_r - alpha.total == -1


def _family_keys(n: int, family_a: bool) -> list[tuple[VectorKey, int, int]]:
    """The admissible (key, l, weight) triples at order n, in canonical (l, r) order.

    The weight of (l, r) is l + r - 1; family B adds (1, 0) with weight 0.
    """
    keys = []
    for l in range(n + 1):
        for r in range(n - l + 1):
            if l + r >= 2 or (not family_a and l == 1):
                keys.append((VectorKey(l, r), l, max(l + r - 1, 0)))
    return keys


def _family(
    n: int, family_a: bool
) -> list[tuple[int, list[tuple[tuple[VectorKey, int], ...]]]]:
    """Family A (``family_a``) or family B at order n, grouped by stratum.

    The walk picks keys in canonical (l, r) order, each with a positive
    count, from the state (n - 1, n) of weight and x-differentiations
    still to place.  ``live[i][w]`` has bit x set when the keys from i
    on can complete weight w with exactly x x-differentiations, so a
    key is tried only when its remainder is live, and the first dead
    start ends the scan over later keys.  The completions of each
    state (start, weight, x) are built once per call and shared by every
    prefix reaching that state, as two parallel lists: their count sums
    and their entries.  Each element's entries are in canonical (l, r)
    order.  Returns (total, [entries, ...]) groups, ``total`` being the
    count sum (the stratum h or k): totals ascend, and each group lists
    its elements in lexicographic entry order.
    """
    keys = _family_keys(n, family_a)
    # index of the next l-group: within a group the weight grows with r,
    # so a key heavier than the weight left ends its group
    next_group = [0] * len(keys)
    end = len(keys)
    for i in range(len(keys) - 1, -1, -1):
        next_group[i] = end
        if i == 0 or keys[i - 1][1] != keys[i][1]:
            end = i
    full = (1 << (n + 1)) - 1
    live = [[1] + [0] * (n - 1)]
    for _, l, weight in reversed(keys):
        row = live[-1][:]
        if weight:
            for w in range(weight, n):
                row[w] |= (row[w - weight] << l) & full
        else:  # (1, 0) tops up any x-sum the later keys reach
            row = [full & -(m & -m) for m in row]
        live.append(row)
    live.reverse()

    done = ([0], [()])
    memo: dict = {}

    def complete(start, w, x):
        found = memo.get((start, w, x))
        if found is not None:
            return found
        totals, entries = found = ([], [])
        i = start
        while i < len(keys) and live[i][w] >> x & 1:
            key, l, weight = keys[i]
            if weight > w:
                i = next_group[i]
                continue
            rows = live[i + 1]
            count, w_left, x_left = 1, w - weight, x - l
            while w_left >= 0 and x_left >= 0:
                if rows[w_left] >> x_left & 1:
                    item = ((key, count),)
                    rest_totals, rest = (
                        complete(i + 1, w_left, x_left) if w_left or x_left else done
                    )
                    totals += [t + count for t in rest_totals]
                    entries += [item + e for e in rest]
                count += 1
                w_left -= weight
                x_left -= l
            i += 1
        memo[start, w, x] = found
        return found

    totals, entries = complete(0, n - 1, n)
    del complete  # it holds itself through its cell; freed now, with the tables
    # the completions come in lexicographic entry order, so appending each
    # to the bucket of its total keeps that order within every stratum
    groups: list[list] = [[] for _ in range(2 * n)]
    for total, element in zip(totals, entries):
        groups[total].append(element)
    return [(total, group) for total, group in enumerate(groups) if group]


#: Bytes per count in the packed counting table.  A slot counts the cores of
#: one weight, x-sum and block count, so it is at most the number of all
#: cores of that weight: 335 744 305 < 2**29 at weight HARD_CAP - 1.
_SLOT_BYTES = 4


def _core_counts(max_n: int) -> list[bytes]:
    """Counts of the cores of every weight below ``max_n``, packed by (x-sum, blocks).

    The cores (keys with l + r >= 2) are counted as the coefficients of
    prod 1/(1 - x^l z^(l+r-1) u) by an unbounded knapsack over the keys:
    row w holds, for every x-sum x <= max_n and block count h < max_n,
    the number of cores of weight w in little-endian slot x * max_n + h.
    """
    slot = 8 * _SLOT_BYTES
    width = max_n * slot  # one x-sum
    size = (max_n + 1) * width
    mask = (1 << size) - 1
    rows = [1] + [0] * (max_n - 1)
    for _, l, weight in _family_keys(max_n, family_a=True):
        shift = l * width + slot
        for w in range(weight, max_n):
            rows[w] = (rows[w] + (rows[w - weight] << shift)) & mask
    return [row.to_bytes(size // 8, "little") for row in rows]


def _strata(rows: list[bytes], n: int, family_a: bool) -> list[tuple[int, int]]:
    """Non-zero (stratum, count) pairs of a family at order n <= max_n, ascending.

    Family A at order n is the state (n - 1, n).  Family B sums the states
    (n - 1, x) for x <= n, each shifted n - x strata by its (1, 0) count.
    """
    data = rows[n - 1]
    max_n = len(rows)
    strata = [0] * (2 * n)
    for x in (n,) if family_a else range(n + 1):
        at = x * max_n * _SLOT_BYTES
        for h in range(n):
            end = at + _SLOT_BYTES
            strata[h + n - x] += int.from_bytes(data[at:end], "little")
            at = end
    return [(k, c) for k, c in enumerate(strata) if c]


def family_counts(max_n: int, family_a: bool) -> dict[int, list[tuple[int, int]]]:
    """Stratum sizes of family A (``family_a``) or B at every order up to ``max_n``.

    Nothing is enumerated: one counting table per call
    (:func:`_core_counts`) gives every order.  Maps each order (from 2
    for A, 1 for B) to its non-zero (stratum, count) pairs in ascending
    stratum order.  A non-bool ``family_a`` raises :class:`DomainError`.
    """
    if type(family_a) is not bool:
        raise DomainError(f"family flag {family_a!r} is not a bool")
    start = 2 if family_a else 1
    check_order(max_n, start)
    rows = _core_counts(max_n)
    return {n: _strata(rows, n, family_a) for n in range(start, max_n + 1)}


def enumerate_A(n: int) -> list[Multiplicities]:
    """All family-A elements of order n, stratified by h then lexicographic."""
    check_order(n, 2)
    groups = _family(n, family_a=True)
    return [Multiplicities._trusted(e) for _, group in groups for e in group]


def enumerate_B(n: int) -> list[Multiplicities]:
    """All family-B elements of order n, stratified by k then lexicographic."""
    check_order(n, 1)
    groups = _family(n, family_a=False)
    return [Multiplicities._trusted(e) for _, group in groups for e in group]


def lift_to_tilde(alpha: Multiplicities, n: int) -> Multiplicities:
    """Append the forced (0, 1) multiplicity, giving the lifted presentation.

    The count of (0, 1) is n - 1 - h, which the sum constraints force to
    be non-negative; the lift makes the element a partition of (n, n-2)
    into exactly n - 1 vectors.
    """
    if not is_member_A(alpha, n):
        raise DomainError(f"{alpha} is not a family-A element of order {n}")
    # membership gives sum (l + r - 1) m = n - 1 with each l + r - 1 >= 1, so h <= n - 1
    fy_count = n - 1 - alpha.total
    if fy_count == 0:
        return alpha
    # (0, 1) sorts before every key of l + r >= 2
    return Multiplicities._trusted(((VectorKey(0, 1), fy_count),) + alpha.entries)


def drop_tilde(alpha_tilde: Multiplicities) -> Multiplicities:
    """Inverse of :func:`lift_to_tilde`: forget the (0, 1) multiplicity."""
    _check_multiplicities(alpha_tilde)
    return Multiplicities._trusted(tuple(e for e in alpha_tilde.entries if e[0] != (0, 1)))


def members(family: str, n: int, stratum: int | None = None) -> list[Multiplicities]:
    """Family "A", "A_tilde" (lifted) or "B" at order n, in ``stratum`` if set."""
    if family not in ("A", "A_tilde", "B"):
        raise DomainError(f"unknown family {family!r}")
    check_order(n, 1 if family == "B" else 2)
    if stratum is not None:
        upper = 2 * n - 1 if family == "B" else n - 1
        if not 1 <= check_int(stratum, DomainError, "stratum") <= upper:
            raise DomainError(f"stratum {stratum} outside [1, {upper}] for {family}_{n}")
    out = enumerate_B(n) if family == "B" else enumerate_A(n)
    if stratum is not None:
        out = [m for m in out if m.total == stratum]
    if family == "A_tilde":
        out = [lift_to_tilde(a, n) for a in out]
    return out


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Weak compositions of ``total`` into ``parts`` parts, lexicographic."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _integer_partitions(
    total: int, smallest: int = 1
) -> Iterator[tuple[tuple[int, int], ...]]:
    """Partitions of ``total`` into parts >= ``smallest``, as (part, count) pairs.

    The pairs of each partition ascend by part; the empty partition is
    the one partition of 0.
    """
    if total == 0:
        yield ()
        return
    for part in range(smallest, total + 1):
        for count in range(1, total // part + 1):
            for rest in _integer_partitions(total - count * part, part + 1):
                yield ((part, count),) + rest


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
    _check_multiplicities(gamma)
    if check_int(s10, DomainError, "s10") < 0:
        raise DomainError("s10 must be non-negative")
    keys = check_keys(gamma.entries, BELOW_ORDER_TWO, DomainError)
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


def _moved(alpha: Multiplicities, deltas: tuple) -> Multiplicities:
    """``alpha`` with one move's (key, delta) adjustments, through the one normalizer.

    Every move takes its -1s from keys ``alpha`` holds and adds keys with
    non-negative indices, so no count or index can go negative and the
    merged entries are canonical and valid as made: the neighbour is
    ``_trusted``, not checked again.
    """
    return Multiplicities._trusted(merge_entries(alpha.entries + deltas))


def successor_advance(alpha: Multiplicities, key: tuple[int, int]) -> Multiplicities:
    """One block at ``key`` gains an x-differentiation: (l, r) -> (l+1, r)."""
    _check_multiplicities(alpha)
    count = alpha.get(key)  # checks the key
    l, r = key
    if l + r < 2 or count < 1:
        raise DomainError(f"cannot advance at key {(l, r)} in {alpha}")
    return _moved(alpha, ((key, -1), ((l + 1, r), +1)))


def successor_trade(alpha: Multiplicities, key: tuple[int, int]) -> Multiplicities:
    """One block trades an x- for a y-differentiation and spawns a (2, 0).

    (l, r) -> (l-1, r+1) together with a new (2, 0) block; requires l >= 1
    and key != (2, 0).
    """
    _check_multiplicities(alpha)
    count = alpha.get(key)  # checks the key
    l, r = key
    if l < 1 or (l, r) == (2, 0) or count < 1:
        raise DomainError(f"cannot trade at key {(l, r)} in {alpha}")
    return _moved(alpha, ((key, -1), ((l - 1, r + 1), +1), ((2, 0), +1)))


def successor_mixed(alpha: Multiplicities) -> Multiplicities:
    """A new (1, 1) block appears; always admissible."""
    _check_multiplicities(alpha)
    return _moved(alpha, (((1, 1), +1),))


def predecessors(beta: Multiplicities, n_plus_1: int) -> list[PredecessorRecord]:
    """All order-n decompositions of the order-(n+1) element ``beta``.

    Emits a "minus" record for every key with l >= 1 and l + r >= 3, a
    "b" record (provided a (2, 0) block is present) for every key with
    r >= 1 other than (1, 1), and a "d" record when a (1, 1) block is
    present.  With m the counts of ``beta``, the weights are
    m[l-1, r] + 1 for "minus" at (l, r), (l + 1) * (m[l+1, r-1] + 1) for
    "b" at (l, r), and sum_r + 2 * m[2, 0] for "d".  Each move takes one
    from sum_l, keeps sum_r - total and makes no block with l + r < 2, so
    every predecessor lies in family A at order n as made, unchecked.
    """
    check_order(n_plus_1, 3)
    if not is_member_A(beta, n_plus_1):
        raise DomainError(f"{beta} is not a family-A element of order {n_plus_1}")
    count = dict(beta.entries)
    records = []
    for key, _ in beta.items():
        if key.l >= 1 and key.l + key.r >= 3:
            pred = _moved(beta, ((key, -1), ((key.l - 1, key.r), +1)))
            weight = count.get((key.l - 1, key.r), 0) + 1
            records.append(PredecessorRecord("minus", key, pred, weight))
    if (2, 0) in count:
        for key, _ in beta.items():
            if key.r >= 1 and key != (1, 1):
                deltas = ((key, -1), ((2, 0), -1), ((key.l + 1, key.r - 1), +1))
                pred = _moved(beta, deltas)
                weight = (key.l + 1) * (count.get((key.l + 1, key.r - 1), 0) + 1)
                records.append(PredecessorRecord("b", key, pred, weight))
    if (1, 1) in count:
        pred = _moved(beta, (((1, 1), -1),))
        weight = beta.sum_r + 2 * count.get((2, 0), 0)
        records.append(PredecessorRecord("d", None, pred, weight))
    return records


def predecessor_records(
    n_plus_1: int,
) -> list[tuple[Multiplicities, list[PredecessorRecord]]]:
    """Every family-A element of order ``n_plus_1`` with its :func:`predecessors`.

    One pass serves every consumer of the coefficient recursion at that
    order: a caller running several hands the same list to each.
    """
    return [(beta, predecessors(beta, n_plus_1)) for beta in enumerate_A(n_plus_1)]
