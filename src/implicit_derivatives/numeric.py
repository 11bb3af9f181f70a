"""Numeric evaluation of the derivative formulas on derivative jets.

A jet records the values of all partials f_{x^p y^t} of f at a base
point up to a total order, in one of two scalar kinds: exact rationals
or binary64 floats; every table of partials here has the one layout
of :func:`_partial_keys`.  Formulas evaluate to a scalar of the jet's
kind, so rational jets give exact results.  Exact evaluation builds
each block or partial it uses as one integer over its diagonal's common
denominator, so a term's denominator depends only on the diagonals it
uses; one weight row per block order l serves every exact block D[l, .].
The terms are summed as plain integers per denominator, and only the
total is normalized.  Each term stays an unreduced integer pair until
its value is first read from the report.  A formula object evaluated a
second time records its structure, never a jet value, in an evaluation
plan kept on the object (about 52 bytes per term), which that
evaluation and every later one read in place of the terms: each
distinct factor prefix shared by neighbouring terms is multiplied once,
an exact total is summed per denominator class with the class's power
of f_y's denominator taken once, and the exact term pairs are formed
only when first read.

The module also ships a few built-in implicit-function problems with
known solutions, a Newton solver plus central finite differences for
cross-checking, the base-point shear that zeroes f_x (its partials are
the blocks divided by f_y^l, read through the same block kernel; exact
only, on rational jets), and a deterministic random-jet generator used
by the property suites.
"""

from __future__ import annotations

import json
import math
import random
import re
from array import array
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul
from types import MappingProxyType
from typing import Callable

from .errors import (
    DomainError,
    FormulaError,
    JetError,
    NewtonError,
    SingularJetError,
    check_order,
)
from .expressions import DeltaFormula, ElemFormula
from .formula import delta_formula
from .keys import check_int, check_rational, unique_members

RATIONAL = "rational"
FLOAT = "float"

#: Central-difference step ladder: each step halves the previous one.
FD_STEPS = (1e-2, 5e-3, 2.5e-3)
#: Highest order the finite differences resolve: from order 5 on, the
#: Newton noise in the grid values, divided by h^k, leaves relative errors
#: up to 1e-2 on the built-in problems.
FD_MAX_ORDER = 4
NEWTON_TOL = 1e-14
NEWTON_MAX_ITER = 50


def _coerce_scalar(value, kind, what):
    """The one check on jet scalars: one kind per jet, finite floats, no booleans."""
    if kind == RATIONAL:
        if type(value) is Fraction:
            return value  # exact already; a subclass is still converted
        if isinstance(value, str):
            return check_rational(value, JetError, what)
        if isinstance(value, (float, bool)):
            raise JetError(f"non-rational value {value!r} in a rational jet ({what})")
        convert = Fraction
    elif isinstance(value, (Fraction, str, bool)):
        raise JetError(f"non-float value {value!r} in a float jet ({what})")
    else:
        convert = float
    try:
        value = convert(value)
    except (ArithmeticError, TypeError, ValueError) as exc:
        raise JetError(f"cannot convert {what} to a {kind} scalar: {exc}") from exc
    if kind == FLOAT and not math.isfinite(value):
        raise JetError(f"non-finite value {value!r} in a float jet ({what})")
    return value


def _partial_keys(order: int) -> list[tuple[int, int]]:
    """The keys (p, t) with p + t <= order: the one jet layout, p ascending, then t."""
    return [(p, t) for p in range(order + 1) for t in range(order + 1 - p)]


@dataclass(frozen=True)
class Jet:
    """Partial-derivative values of f at a base point, up to ``order``.

    ``partials`` holds every key of :func:`_partial_keys` after construction,
    absent ones zero; a given key must be one of them, with ``int`` indices.
    The order follows :func:`errors.check_order`, refused with :class:`JetError`.
    f must be 0 at the base point (it solves f = 0) and f_y non-zero there.
    One scalar kind per jet; mixing rationals and floats is rejected.

    The constructor checks all of this, once: a jet is frozen with a
    read-only ``partials``, and ``pickle``, :mod:`copy` and ``replace``
    rebuild it through the check.  :meth:`_trusted` skips the check for the
    two rational jets made whole here (:func:`random_rational_jet`, :func:`shift_jet`).
    """

    x0: object
    y0: object
    order: int
    partials: Mapping
    kind: str = RATIONAL

    def __post_init__(self) -> None:
        if self.kind not in (RATIONAL, FLOAT):
            raise JetError(f"unknown jet kind {self.kind!r}")
        check_order(self.order, 1, JetError)
        object.__setattr__(self, "x0", _coerce_scalar(self.x0, self.kind, "x0"))
        object.__setattr__(self, "y0", _coerce_scalar(self.y0, self.kind, "y0"))
        zero = Fraction(0) if self.kind == RATIONAL else 0.0
        if not isinstance(self.partials, Mapping):
            raise JetError(f"jet partials must be a mapping, got {self.partials!r}")
        table = dict.fromkeys(_partial_keys(self.order), zero)
        for key, value in self.partials.items():
            try:  # an equal key such as (1.0, 0) or (True, 0) is in the table too
                known = key in table and key[0].__class__ is key[1].__class__ is int
            except TypeError:  # unhashable or not indexable
                known = False
            if not known:
                raise JetError(f"bad partial key {key!r} for jet order {self.order}")
            table[key] = _coerce_scalar(value, self.kind, f"partial {tuple(key)}")
        if table[(0, 0)] != 0:
            raise JetError("f(x0, y0) must be 0 at the base point")
        if table[(0, 1)] == 0:
            raise SingularJetError("jet has f_y = 0 at the base point")
        object.__setattr__(self, "partials", MappingProxyType(table))

    @classmethod
    def _trusted(cls, x0: Fraction, y0: Fraction, order: int, partials: dict) -> "Jet":
        """A rational jet already valid, set without a check.

        ``order`` has passed :func:`errors.check_order`, and ``partials``
        maps every key of :func:`_partial_keys` in that order to a
        normalized ``Fraction``, f to 0 and f_y to a non-zero value; the
        tests rebuild every such jet through the checked constructor.
        """
        jet = object.__new__(cls)
        table = MappingProxyType(partials)
        vars(jet).update(x0=x0, y0=y0, order=order, partials=table, kind=RATIONAL)
        return jet

    def __reduce__(self):
        return Jet, (self.x0, self.y0, self.order, dict(self.partials), self.kind)

    @property
    def fx(self):
        return self.partials[(1, 0)]

    @property
    def fy(self):
        return self.partials[(0, 1)]


def _check_jet(jet) -> None:
    """Refuse anything but a :class:`Jet` with :class:`JetError`."""
    if not isinstance(jet, Jet):
        raise JetError(f"expected a Jet, got {type(jet).__name__}")


def jet_to_json(jet: Jet) -> str:
    """Serialize a jet; rational scalars become "num/den" strings."""
    _check_jet(jet)

    def scalar(v):
        if jet.kind == RATIONAL:
            return f"{v.numerator}/{v.denominator}"
        return v

    doc = {
        "x0": scalar(jet.x0),
        "y0": scalar(jet.y0),
        "order": jet.order,
        "kind": jet.kind,
        "partials": {
            f"{p},{t}": scalar(v) for (p, t), v in sorted(jet.partials.items())
        },
    }
    return json.dumps(doc)


#: A partial key as ``jet_to_json`` writes it: two JSON integers, no sign.
_PARTIAL_KEY = re.compile(r"(0|[1-9][0-9]*),(0|[1-9][0-9]*)")


def jet_from_json(text: str) -> Jet:
    """Parse a jet document; raises JetError for malformed content.

    Only the document's structure is read here; :class:`Jet` checks the
    scalars, and a scalar it cannot convert is malformed content too.
    """
    try:
        doc = json.loads(text, object_pairs_hook=unique_members)
        partials = {}
        for key, value in doc["partials"].items():
            match = _PARTIAL_KEY.fullmatch(key)
            if match is None:
                raise JetError(f"partial key {key!r} is not spelled \"p,t\"")
            partials[int(match[1]), int(match[2])] = value
        return Jet(
            x0=doc["x0"],
            y0=doc["y0"],
            order=doc["order"],
            partials=partials,
            kind=doc["kind"],
        )
    except JetError:
        raise
    except (AttributeError, KeyError, RecursionError, TypeError, ValueError) as exc:
        raise JetError(f"malformed jet document: {exc}") from exc


def eval_delta_block(jet: Jet, l: int, r: int):
    """Value of the block D[l,r] = sum_j (-1)^j C(l,j) f_{x^(l-j) y^(r+j)} f_x^j f_y^(l-j)."""
    for index in (l, r):
        if check_int(index, DomainError, "a block index") < 0:
            raise DomainError("block indices must be non-negative")
    _check_jet(jet)
    if l + r > jet.order:
        raise JetError(f"block ({l},{r}) needs jet order {l + r}, have {jet.order}")
    fx, fy = jet.fx, jet.fy
    if jet.kind == RATIONAL:
        numerator, e, s = _exact_base(jet, {}, {}, l, r, True)
        return Fraction(numerator, e * (fx.denominator * fy.denominator) ** s)
    total = 0.0
    for j in range(l + 1):
        term = math.comb(l, j) * jet.partials[(l - j, r + j)] * fx**j * fy ** (l - j)
        total += -term if j % 2 else term
    return total


def _diagonal(jet: Jet, k: int) -> tuple[int, list[int]]:
    """e_k and the jet's partials of total order k as integers over it.

    e_k is the lcm of the denominators of the k + 1 partials
    f_{x^p y^(k-p)}; item p of the list is the numerator of that partial
    over e_k.  A k above the jet's order raises :class:`JetError`.
    """
    if k > jet.order:
        raise JetError(f"partials of order {k} beyond the jet's order {jet.order}")
    pairs = [jet.partials[(p, k - p)].as_integer_ratio() for p in range(k + 1)]
    e = math.lcm(*[q for _, q in pairs])
    return e, [p * (e // q) for p, q in pairs]


def _block_weights(jet: Jet, l: int) -> list[int]:
    """The weights C(l,p) x^(l-p) y^p, p = 0..l, of every block D[l,r].

    With f_x = a/b, f_y = c/d, x = -a*d, y = b*c and P_p the partial
    f_{x^p y^(k-p)} over e_k (:func:`_diagonal`, k = l + r), the numerator
    of D[l,r] over e_k * (b*d)^l is the row's dot product with P_0, ..., P_l.
    """
    fx, fy = jet.fx, jet.fy
    x, y = -fx.numerator * fy.denominator, fx.denominator * fy.numerator
    row, power = [], 1
    for p in range(l + 1):  # C(l,p) y^p
        row.append(math.comb(l, p) * power)
        power *= y
    power = 1
    for p in range(l, -1, -1):  # times x^(l-p)
        row[p] *= power
        power *= x
    return row


def _exact_base(
    jet: Jet, diagonals: dict, rows: dict, l: int, r: int, blocks: bool
) -> tuple[int, int, int]:
    """D[l,r] (``blocks``) or f_{x^l y^r} as a numerator over e_k * (b*d)^s, with e_k and s.

    Here k = l + r, f_x = a/b, f_y = c/d and s is l for a block, 0 for a
    partial.  ``diagonals`` keeps each :func:`_diagonal` by k and ``rows``
    each :func:`_block_weights` by l, so one evaluation builds each once;
    this is the one exact rule for a block.
    """
    k = l + r
    diagonal = diagonals.get(k)
    if diagonal is None:
        diagonal = diagonals[k] = _diagonal(jet, k)
    e, scaled = diagonal
    if not blocks:
        return scaled[l], e, 0
    row = rows.get(l)
    if row is None:
        row = rows[l] = _block_weights(jet, l)
    return sum(map(mul, row, scaled)), e, l  # the row stops at P_l


def _float_base(jet: Jet, l: int, r: int, blocks: bool) -> float:
    """D[l,r] by :func:`eval_delta_block` (``blocks``), or f_{x^l y^r}.

    The one place where a raw partial beyond the jet's order is refused.
    """
    if blocks:
        return eval_delta_block(jet, l, r)
    if l + r > jet.order:
        raise JetError(f"partial {(l, r)} beyond the jet's order")
    return jet.partials[(l, r)]


class _TermPairs:
    """A planned evaluation's exact term pairs, formed on first read and kept.

    Until then it holds the lists :func:`_planned_exact` computed anyway;
    it iterates, compares and hashes as the tuple of pairs.
    """

    __slots__ = ("_source", "_pairs")

    def __init__(self, *source) -> None:
        self._source, self._pairs = source, None

    def _tuple(self) -> tuple:
        if self._pairs is None:
            self._pairs, self._source = _planned_pairs(*self._source), None
        return self._pairs

    def __iter__(self):
        return iter(self._tuple())

    def __eq__(self, other) -> bool:
        return self._tuple() == (other._tuple() if isinstance(other, _TermPairs) else other)

    def __hash__(self) -> int:
        return hash(self._tuple())


@dataclass(frozen=True)
class EvalReport:
    """Evaluation outcome: the value, per-term contributions, optional targets.

    ``_terms`` holds each term as :func:`eval_formula` left it: the float
    itself on a float jet, an unreduced ``(numerator, denominator)``
    integer pair on a rational jet (the denominator of either sign, the
    same for terms on the same diagonals with the same f_y power and
    coefficient denominator).  It is kept out of ``repr`` but compared, so
    two reports whose term values differ compare unequal.  A planned
    rational evaluation leaves a :class:`_TermPairs`, which forms the
    pairs when first iterated, compared or hashed (:attr:`term_values`,
    ``==``); :func:`dataclasses.replace` hands it on unformed.
    :attr:`term_values` normalizes the pairs on its first read only, as
    most callers read just ``value``.
    """

    n: int
    value: object
    _terms: tuple = field(repr=False)
    analytic: object = None
    fd: float | None = None
    rel_error_analytic: float | None = None
    rel_error_fd: float | None = None

    @cached_property
    def term_values(self) -> tuple:
        """Each term's value in term order: a normalized Fraction or the float."""
        return tuple(t if type(t) is float else Fraction(*t) for t in self._terms)


def relative_error(value, target) -> float:
    """|value - target| / max(1, |target|), as a float."""
    v, t = float(value), float(target)
    return abs(v - t) / max(1.0, abs(t))


def _exact_total(pairs: list) -> Fraction:
    """Sum of unreduced ``(numerator, denominator)`` pairs as one normalized Fraction.

    Neighbouring sums p1/q1 and p2/q2 are merged level by level, as in a
    product tree, into one sum over q1/g * q2 with g = gcd(q1, q2), so
    each denominator is the lcm of its own subtree's (up to sign); only
    the last sum is normalized.  :func:`eval_formula` hands in one pair
    per distinct term denominator: at most p(n - 1) of them for a compact
    formula of order n.
    """
    while len(pairs) > 1:
        merged = []
        for (p1, q1), (p2, q2) in zip(pairs[::2], pairs[1::2]):
            g = math.gcd(q1, q2)
            merged.append((p1 * (q2 // g) + p2 * (q1 // g), q1 // g * q2))
        if len(pairs) % 2:
            merged.append(pairs[-1])
        pairs = merged
    if not pairs:
        return Fraction(0)
    return Fraction(*pairs[0])


def _exact_terms(formula, jet: Jet, blocks: bool) -> tuple[tuple, Fraction]:
    """The term pairs and total of :func:`eval_formula` on a rational jet, in one pass.

    Each distinct base is read once, through :func:`_exact_base`.
    """
    fy = jet.fy
    shear = jet.fx.denominator * fy.denominator  # b*d
    diagonals = {}  # k -> e_k and the diagonal's partials as integers over it
    rows = {}  # l -> the weights of the blocks D[l, .]
    bases = {}  # key -> (numerator, denominator) of its block or partial
    powers = {}  # (key, power) -> (numerator, denominator) of the base**power
    fy_powers = {}  # q -> (numerator, denominator) of 1 / f_y**q
    classes = {}  # term denominator -> sum of the numerators over it
    contributions = []
    for coeff, mono in formula.terms:
        num, den = coeff.as_integer_ratio()
        for entry in mono.factors if blocks else mono.exponents:
            factor = powers.get(entry)
            if factor is None:
                key, power = entry
                base = bases.get(key)
                if base is None:
                    numerator, e, s = _exact_base(jet, diagonals, rows, key.l, key.r, blocks)
                    base = bases[key] = (numerator, e * shear**s)
                factor = powers[entry] = (base[0] ** power, base[1] ** power)
            num *= factor[0]
            den *= factor[1]
        q = mono.fy_power
        fy_power = fy_powers.get(q)
        if fy_power is None:
            fy_power = fy_powers[q] = (fy.denominator**q, fy.numerator**q)
        num *= fy_power[0]
        den *= fy_power[1]
        held = classes.get(den)
        classes[den] = num if held is None else held + num
        contributions.append((num, den))
    return tuple(contributions), _exact_total([(p, q) for q, p in classes.items()])


class _EvalPlan:
    """The structure :func:`eval_formula` reads from a formula, recorded once.

    It holds no jet value, only indices into what each evaluation
    computes from its jet, in flat integer arrays.  An entry is a
    distinct ``(key, power)``, whose value is its base to the power.
    The terms come stratum first, then entries in order, so neighbours
    share their leading factors: a *prefix table* keeps each distinct
    proper factor prefix once.  ``node_parents`` and ``node_entries``
    hold one pair per prefix, its parent prefix and the entry that
    extends it; node 0, the empty product, has no pair, and parents come
    before their children.  A term has four indices:

    * its prefix node, the product of all its factors but the last, and
      its last entry; a term with no factors reads node 0 and entry -1,
      a sentinel of value 1 that each evaluation appends to the entries;
    * its *head*, a distinct pair of coefficient and f_y power q: on a
      rational jet the coefficient's numerator times d^q (f_y = c/d)
      starts the term's product, on a float jet the product is scaled
      by the coefficient and divided by f_y^q, as in the single pass;
    * its denominator class, fixed by structure alone: the coefficient
      denominator, q, each diagonal k = l + r with the summed power m_k
      of the term's bases on it, and s = sum l * power over its blocks
      (0 for raw partials).  With f_x = a/b the class's denominator is
      cden * prod e_k^m_k * (b*d)^s * c^q.
    """

    __slots__ = (
        "blocks",
        "bases",
        "entry_bases",
        "entry_powers",
        "head_coeffs",
        "head_numerators",
        "head_powers",
        "fy_powers",
        "classes",
        "node_parents",
        "node_entries",
        "term_nodes",
        "term_lasts",
        "term_heads",
        "term_classes",
    )

    def __init__(self, formula, blocks: bool) -> None:
        bases, entries, heads, classes = {}, {}, {}, {}
        nodes = {}  # (parent node, entry index) -> node, from 1 on
        term_nodes, term_heads, term_classes = array("I"), array("I"), array("I")
        term_lasts = array("i")  # -1: the sentinel
        for coeff, mono in formula.terms:
            diagonals = {}  # k -> summed power of the term's bases on diagonal k
            shear = 0
            node, last = 0, -1
            for entry in mono.factors if blocks else mono.exponents:
                key, power = entry
                k = key.l + key.r
                diagonals[k] = diagonals.get(k, 0) + power
                shear += key.l * power
                index = entries.get(entry)
                if index is None:
                    index = entries[entry] = len(entries)
                    bases.setdefault(key, len(bases))
                if last >= 0:  # the previous entry extends the prefix
                    child = nodes.get((node, last))
                    if child is None:
                        child = nodes[node, last] = len(nodes) + 1
                    node = child
                last = index
            term_nodes.append(node)
            term_lasts.append(last)
            term_heads.append(heads.setdefault((coeff, mono.fy_power), len(heads)))
            used = tuple(sorted(diagonals.items()))
            cls = (coeff.denominator, mono.fy_power, used, shear if blocks else 0)
            term_classes.append(classes.setdefault(cls, len(classes)))
        self.blocks = blocks
        self.bases = tuple((key.l, key.r) for key in bases)
        self.entry_bases = tuple(bases[key] for key, _ in entries)
        self.entry_powers = tuple(power for _, power in entries)
        self.head_coeffs = tuple(coeff for coeff, _ in heads)
        self.head_numerators = tuple(coeff.numerator for coeff in self.head_coeffs)
        self.head_powers = tuple(q for _, q in heads)
        self.fy_powers = tuple(set(self.head_powers))
        self.classes = tuple(classes)
        self.node_parents = array("I", [parent for parent, _ in nodes])
        self.node_entries = array("I", [entry for _, entry in nodes])
        self.term_nodes = term_nodes
        self.term_lasts = term_lasts
        self.term_heads = term_heads
        self.term_classes = term_classes


def _float_terms(formula, jet: Jet, blocks: bool) -> list[float]:
    """The float terms of :func:`eval_formula` in one pass over the terms."""
    fy = jet.fy
    bases = {}  # key -> block or partial value
    powers = {}  # (key, power) -> value**power
    contributions = []
    for coeff, mono in formula.terms:
        num = 1.0
        for entry in mono.factors if blocks else mono.exponents:
            factor = powers.get(entry)
            if factor is None:
                key, power = entry
                base = bases.get(key)
                if base is None:
                    base = bases[key] = _float_base(jet, key.l, key.r, blocks)
                factor = powers[entry] = base**power
            num *= factor
        contributions.append(float(coeff * num / fy**mono.fy_power))
    return contributions


def _plan_of(formula, blocks: bool):
    """The formula's evaluation plan, or None on its first evaluation.

    The first evaluation only marks the object; the second records the
    plan, which every later one reads.  The mark and the plan live
    outside the dataclass fields, so ``==``, ``hash``, ``repr`` and JSON
    never see them and :func:`dataclasses.replace` starts afresh.
    """
    plan = vars(formula).get("_eval_plan")
    if plan is None:
        object.__setattr__(formula, "_eval_plan", False)
        return None
    if plan is False:
        plan = _EvalPlan(formula, blocks)
        object.__setattr__(formula, "_eval_plan", plan)
    return plan


def _prefix_products(plan: _EvalPlan, values: list, one) -> list:
    """The product of every prefix node of the plan, node 0 being ``one``.

    Each node is its parent's product times its entry's value, so each
    shared prefix is multiplied once.
    """
    products = [one]
    append = products.append
    for parent, entry in zip(plan.node_parents, plan.node_entries):
        append(products[parent] * values[entry])
    return products


def _planned_exact(plan: _EvalPlan, jet: Jet) -> tuple[_TermPairs, Fraction]:
    """The term pairs and total of :func:`eval_formula` on a rational jet, by the plan.

    With f_y = c/d, the f_y power q is fixed within a denominator class,
    so each class sums its terms' coefficient numerators times their
    prefix products times their last factors, and the sum is multiplied
    by d^q once: the same integer as the sum of the single pass's term
    numerators.  The pairs, those of :func:`_exact_terms`, are formed by
    :func:`_planned_pairs` from this evaluation's lists when first read.
    """
    fy = jet.fy
    c, d = fy.numerator, fy.denominator
    shear = jet.fx.denominator * d  # b*d
    diagonals, rows = {}, {}  # as in _exact_terms
    numerators = [_exact_base(jet, diagonals, rows, l, r, plan.blocks)[0] for l, r in plan.bases]
    d_powers = {q: d**q for q in plan.fy_powers}
    values = list(map(pow, map(numerators.__getitem__, plan.entry_bases), plan.entry_powers))
    values.append(1)  # entry -1, the sentinel of the terms with no factors
    products = _prefix_products(plan, values, 1)
    dens = []
    for cden, q, used, s in plan.classes:
        den = cden * shear**s * c**q
        for k, m in used:
            den *= diagonals[k][0] ** m
        dens.append(den)
    cnums = plan.head_numerators
    sums = [0] * len(dens)
    for node, last, head, cls in zip(
        plan.term_nodes, plan.term_lasts, plan.term_heads, plan.term_classes
    ):
        sums[cls] += cnums[head] * (products[node] * values[last])
    scales = [d_powers[q] for _, q, _, _ in plan.classes]
    total = _exact_total(list(zip(map(mul, sums, scales), dens)))
    return _TermPairs(plan, products, values, d_powers, dens), total


def _planned_pairs(plan: _EvalPlan, products: list, values: list, d_powers: dict, dens: list):
    """The term pairs of :func:`_exact_terms` from a planned evaluation's lists.

    Each numerator is the term's head, its coefficient numerator times
    d^q, times its prefix product times its last factor; each
    denominator is its class's.
    """
    heads = list(map(mul, plan.head_numerators, map(d_powers.__getitem__, plan.head_powers)))
    return tuple(
        (heads[head] * (products[node] * values[last]), dens[cls])
        for node, last, head, cls in zip(
            plan.term_nodes, plan.term_lasts, plan.term_heads, plan.term_classes
        )
    )


def _planned_float(plan: _EvalPlan, jet: Jet) -> list[float]:
    """The float terms of :func:`eval_formula` by the plan, bit for bit those of the single pass.

    A term is float(coeff) * (1.0 * its factors in term order) / f_y**q,
    which is what ``coeff * num / fy**q`` computes for a Fraction ``coeff``;
    the bracket is the term's prefix product, left to right from 1.0,
    times its last factor.
    """
    fy = jet.fy
    bases = [_float_base(jet, l, r, plan.blocks) for l, r in plan.bases]
    fy_powers = {q: fy**q for q in plan.fy_powers}
    coeffs = list(map(float, plan.head_coeffs))
    divisors = list(map(fy_powers.__getitem__, plan.head_powers))
    values = list(map(pow, map(bases.__getitem__, plan.entry_bases), plan.entry_powers))
    values.append(1.0)  # entry -1, the sentinel of the terms with no factors
    products = _prefix_products(plan, values, 1.0)
    return [
        coeffs[head] * (products[node] * values[last]) / divisors[head]
        for node, last, head in zip(plan.term_nodes, plan.term_lasts, plan.term_heads)
    ]


def eval_formula(formula: DeltaFormula | ElemFormula, jet: Jet) -> EvalReport:
    """Evaluate either formula shape on a jet; exact on rational jets.

    Each distinct block D[l,r] and each factor power, f_y power included,
    is computed once per call; the expanded shape reads its partials
    from the jet, and a partial beyond the jet's order raises
    :class:`JetError`, as a block beyond it does.  On rational jets, with
    f_x = a/b and f_y = c/d, each distinct base is one integer over its
    diagonal's denominator, summed once with no division: a block D[l,r]
    on diagonal k = l + r over e_k * (b*d)^l, a raw partial of order k
    over e_k, where e_k is the lcm of the denominators of the jet's
    k + 1 partials of total order k.  A term is then an unreduced pair
    of integer products whose denominator depends only on the diagonals
    it uses, its f_y power and its coefficient's denominator: for a
    compact formula those diagonals form a partition of n - 1, so at
    most p(n - 1) denominators occur.  The terms' numerators are added
    as plain integers per exact denominator, the class sums are merged
    (:func:`_exact_total`) and normalized once, and no term is normalized
    unless :attr:`EvalReport.term_values` is read.  On float jets the
    operations and their order are those of the plain per-factor
    product, so every float is bit-identical to it, and the float total
    is their plain left-to-right sum on every Python version.  Every jet
    has f_y != 0; a float f_y power out of range raises :class:`JetError`.
    Anything but a formula raises :class:`FormulaError`, anything but a
    :class:`Jet` :class:`JetError`.

    A formula object's first evaluation walks its terms in one pass and
    marks the object.  Its second records a plan of the formula's
    structure on the object (:class:`_EvalPlan`: the distinct bases,
    entries and coefficients, a prefix table of the distinct proper
    factor prefixes, and each term's prefix, last entry and denominator
    class, all as indices; about 52 bytes per term, no jet value), and
    that evaluation and every later one compute each base, entry power,
    class denominator and shared prefix product once, and then each
    term's product as its prefix times its last factor.  An exact class
    sum takes its d^q once, and the term pairs are formed when the
    report's terms are first read (:func:`_planned_exact`).  The results
    are the same on either path, term pairs and float bits included.
    """
    if not isinstance(formula, (DeltaFormula, ElemFormula)):
        raise FormulaError(f"expected a formula, got {type(formula).__name__}")
    _check_jet(jet)
    if isinstance(formula, ElemFormula) and formula.form == "inverse":
        raise DomainError("inverse-function formulas are not evaluated on jets")
    if jet.order < formula.n:
        raise JetError(f"formula of order {formula.n} needs jet order >= {formula.n}")
    blocks = isinstance(formula, DeltaFormula)
    plan = _plan_of(formula, blocks)
    if jet.kind == RATIONAL:
        if plan is None:
            terms, total = _exact_terms(formula, jet, blocks)
        else:
            terms, total = _planned_exact(plan, jet)
        return EvalReport(n=formula.n, value=total, _terms=terms)
    try:
        if plan is None:
            contributions = _float_terms(formula, jet, blocks)
        else:
            contributions = _planned_float(plan, jet)
    except (OverflowError, ZeroDivisionError) as exc:  # f_y powers out of range
        raise JetError(f"float evaluation out of range: {exc}") from exc
    # left to right: the builtin sum compensates floats since Python 3.12
    total = 0.0
    for term in contributions:
        total += term
    if not math.isfinite(total):
        raise JetError(f"float evaluation is not finite: {total!r}")
    return EvalReport(n=formula.n, value=total, _terms=tuple(contributions))


def shift_jet(jet: Jet, n: int) -> Jet:
    """Jet of the sheared function g(x, z) = f(x, z + lambda*x), lambda = -f_x/f_y.

    The shear zeroes the first x-derivative at the base point while
    leaving pure y-partials untouched; its mixed partials are
    g_{x^l z^r} = sum_k C(l,k) lambda^k f_{x^(l-k) y^(r+k)}, the block
    D[l,r] divided by f_y^l.  So each one is the block kernel's numerator
    (:func:`_exact_base`) over e_k * (b*c)^l, with f_x = a/b and f_y = c/d,
    normalized once; g_x = D[1,0] is 0 exactly.  The shear is exact only:
    a float jet raises :class:`JetError`.
    """
    check_order(n, 1)
    _check_jet(jet)
    if jet.kind != RATIONAL:
        raise JetError("the shear needs a rational jet")
    if jet.order < n:
        raise JetError(f"shift to order {n} needs jet order >= {n}")
    bc = jet.fx.denominator * jet.fy.numerator
    diagonals, rows, partials = {}, {}, {}
    for l, r in _partial_keys(n):
        numerator, e, _ = _exact_base(jet, diagonals, rows, l, r, True)
        partials[(l, r)] = Fraction(numerator, e * bc**l)
    # every key of _partial_keys(n) in order, g = D[0,0] = 0 and g_z = D[0,1] = f_y
    # at the base point, each value a normalized Fraction: a valid jet as made
    lam = -jet.fx / jet.fy
    return Jet._trusted(jet.x0, jet.y0 - lam * jet.x0, n, partials)


#: Every value ``random_rational_jet`` draws, numerator -9..9 over 1..4, normalized once.
_SMALL_RATIONALS = {
    (num, den): Fraction(num, den) for num in range(-9, 10) for den in range(1, 5)
}


def random_rational_jet(order: int, seed: int) -> Jet:
    """Deterministic random jet with small rational entries and f_y != 0.

    The order is checked first, with :class:`JetError`.  Each entry is
    the normalized ``Fraction`` of :data:`_SMALL_RATIONALS` at the drawn
    numerator and denominator, and the partials hold every key of
    :func:`_partial_keys` in order, f = 0 and a non-zero f_y, so the jet
    is valid as made and ``_trusted``.
    """
    check_order(order, 1, JetError)
    rng = random.Random(seed)

    def small(nonzero=False):
        num = rng.randint(-9, 9)
        while nonzero and num == 0:
            num = rng.randint(-9, 9)
        return _SMALL_RATIONALS[num, rng.randint(1, 4)]

    partials = {key: small() for key in _partial_keys(order)}
    partials[(0, 0)] = Fraction(0)
    partials[(0, 1)] = small(nonzero=True)
    x0, y0 = small(), small()
    return Jet._trusted(x0, y0, order, partials)


# --- built-in problems -------------------------------------------------------


@dataclass(frozen=True)
class ProblemSpec:
    """An implicit-function test problem with evaluable closed forms.

    ``partial`` returns the exact (or float) value of f_{x^p y^t} at the
    base point; ``analytic`` returns the known value of the n-th
    derivative of the solution, or None when no independent closed form
    is available.
    """

    name: str
    description: str
    x0: object
    y0: object
    f: Callable[[float, float], float]
    fy: Callable[[float, float], float]
    partial: Callable[[int, int], object]
    analytic: Callable[[int], object]

    @property
    def exact(self) -> bool:
        """Whether the partials are exact rationals (so a rational jet exists)."""
        return isinstance(self.partial(0, 1), Fraction)

    def jet(self, order: int, kind: str | None = None) -> Jet:
        check_order(order, 1, JetError)  # before the partials are read
        if kind is None:
            kind = RATIONAL if self.exact else FLOAT
        if kind == RATIONAL and not self.exact:
            raise JetError(f"problem {self.name!r} has no exact jet; use kind='float'")
        convert = Fraction if kind == RATIONAL else float
        values = {key: convert(self.partial(*key)) for key in _partial_keys(order)}
        x0, y0 = convert(self.x0), convert(self.y0)
        return Jet(x0=x0, y0=y0, order=order, partials=values, kind=kind)


def _table_partial(table: dict) -> Callable[[int, int], Fraction]:
    def partial(p: int, t: int) -> Fraction:
        return Fraction(table.get((p, t), 0))

    return partial


def _series_mul(a: list, b: list, order: int) -> list:
    out = [Fraction(0)] * (order + 1)
    for i, ca in enumerate(a):
        if ca == 0 or i > order:
            continue
        for j, cb in enumerate(b):
            if i + j > order:
                break
            out[i + j] += ca * cb
    return out


@lru_cache(maxsize=None)
def _binomial_derivative(exponent: Fraction, v: tuple, n: int) -> Fraction:
    """n-th derivative at s = 0 of (1 + v(s))^exponent, for v(0) = 0.

    ``v`` lists the coefficients of the polynomial v; the s^n coefficient
    of the binomial series sum_k C(exponent, k) v^k is summed term by term.
    """
    total = Fraction(0)
    v_power = [Fraction(1)] + [Fraction(0)] * n  # v^k up to s^n
    binom = Fraction(1)  # C(exponent, k)
    for k in range(n + 1):
        total += binom * v_power[n]
        binom *= (exponent - k) / (k + 1)
        v_power = _series_mul(v_power, v, n)
    return total * math.factorial(n)


def _exp_partial(p: int, t: int) -> Fraction:
    if p == 0 and t == 1:
        return Fraction(1)
    if t == 0 and p >= 1:
        return Fraction(-1)
    return Fraction(0)


def _lambert_partial(p: int, t: int) -> float:
    if (p, t) == (1, 0):
        return -1.0
    if p == 0 and t >= 1:
        return (1.0 + t) * math.e
    return 0.0


def _lambert_analytic(n: int):
    # closed forms from w' = w / (x (1 + w)) at x = e, w = 1
    if n == 1:
        return 1.0 / (2.0 * math.e)
    if n == 2:
        return -3.0 / (8.0 * math.e**2)
    return None


_PROBLEMS = {
    spec.name: spec
    for spec in (
        ProblemSpec(
            name="circle",
            description="x^2 + y^2 - 1 = 0 at (0, 1); y = sqrt(1 - x^2)",
            x0=Fraction(0),
            y0=Fraction(1),
            f=lambda x, y: x * x + y * y - 1.0,
            fy=lambda x, y: 2.0 * y,
            partial=_table_partial({(0, 1): 2, (1, 0): 0, (2, 0): 2, (0, 2): 2}),
            # (1 + v)^(1/2) with v = -x^2
            analytic=lambda n: _binomial_derivative(Fraction(1, 2), (0, 0, -1), n),
        ),
        ProblemSpec(
            name="exp",
            description="y - e^x = 0 at (0, 1); y = e^x",
            x0=Fraction(0),
            y0=Fraction(1),
            f=lambda x, y: y - math.exp(x),
            fy=lambda x, y: 1.0,
            partial=_exp_partial,
            analytic=lambda n: Fraction(1),
        ),
        ProblemSpec(
            name="lambert",
            description="y*e^y - x = 0 at (e, 1); y = W(x)",
            x0=math.e,
            y0=1.0,
            f=lambda x, y: y * math.exp(y) - x,
            fy=lambda x, y: (1.0 + y) * math.exp(y),
            partial=_lambert_partial,
            analytic=_lambert_analytic,
        ),
        ProblemSpec(
            name="cubic",
            description="x^3 + y^3 - 2 = 0 at (1, 1); y = (2 - x^3)^(1/3)",
            x0=Fraction(1),
            y0=Fraction(1),
            f=lambda x, y: x**3 + y**3 - 2.0,
            fy=lambda x, y: 3.0 * y * y,
            partial=_table_partial(
                {(1, 0): 3, (0, 1): 3, (2, 0): 6, (0, 2): 6, (3, 0): 6, (0, 3): 6}
            ),
            # (1 + v)^(1/3) with v = -3s - 3s^2 - s^3, s = x - 1
            analytic=lambda n: _binomial_derivative(Fraction(1, 3), (0, -3, -3, -1), n),
        ),
    )
}

PROBLEM_NAMES = tuple(sorted(_PROBLEMS))


def _check_problem(problem) -> None:
    """Refuse anything but a :class:`ProblemSpec` with :class:`DomainError`."""
    if not isinstance(problem, ProblemSpec):
        raise DomainError(f"expected a problem, got {type(problem).__name__}")


def builtin_problem(name: str) -> ProblemSpec:
    """Return a registered test problem by name; anything else is a DomainError."""
    if not isinstance(name, str) or name not in _PROBLEMS:
        raise DomainError(
            f"unknown problem {name!r}; choose from {', '.join(PROBLEM_NAMES)}"
        )
    return _PROBLEMS[name]


# --- Newton solving and finite differences -----------------------------------


def newton_solve(problem: ProblemSpec, x: float, y_start: float) -> float:
    """Solve f(x, y) = 0 for y near ``y_start`` by Newton iteration."""
    y = y_start
    for _ in range(NEWTON_MAX_ITER):
        residual = problem.f(x, y)
        if abs(residual) <= NEWTON_TOL:
            return y
        y -= residual / problem.fy(x, y)
    if abs(problem.f(x, y)) <= NEWTON_TOL:
        return y
    raise NewtonError(f"Newton failed for {problem.name} at x = {x}")


@lru_cache(maxsize=None)
def _central_stencil(k: int) -> tuple[tuple[int, ...], tuple[Fraction, ...]]:
    """Symmetric stencil with sum_j c_j y(x + j*h) ~ y^(k)(x) * h^k, O(h^2).

    The binomial central difference: delta^k for even k, and for odd k
    delta^(k-1) applied to (y(x+h) - y(x-h))/2 (Fornberg 1988).
    """
    m = k // 2
    weights = [(-1) ** (m - j) * math.comb(2 * m, m - j) for j in range(-m, m + 1)]
    if k % 2:
        padded = [0, 0, *weights, 0, 0]
        weights = [
            Fraction(padded[i] - padded[i + 2], 2) for i in range(len(weights) + 2)
        ]
    half = (k + 1) // 2
    return tuple(range(-half, half + 1)), tuple(Fraction(c) for c in weights)


def _solution_grid(problem: ProblemSpec, h: float, half_width: int) -> dict[int, float]:
    """Newton-solved y values on x0 + j*h, warm-started outward from the center."""
    x0, y0 = float(problem.x0), float(problem.y0)
    ys = {0: newton_solve(problem, x0, y0)}
    for j in range(1, half_width + 1):
        for sign in (1, -1):
            ys[sign * j] = newton_solve(
                problem, x0 + sign * j * h, ys[sign * (j - 1)]
            )
    return ys


def finite_difference_derivatives(problem: ProblemSpec, n: int) -> list[float]:
    """Central-difference estimates of the first n derivatives of the solution.

    One Richardson level is applied across the halving ladder
    :data:`FD_STEPS` and the finest extrapolation is returned, one value
    per derivative order 1..n, for n up to :data:`FD_MAX_ORDER`.
    """
    _check_problem(problem)
    check_order(n, 1)
    if n > FD_MAX_ORDER:
        raise DomainError(
            f"finite differences need an order in 1..{FD_MAX_ORDER}, got {n}"
        )
    half_width = (n + 1) // 2
    grids = [_solution_grid(problem, h, half_width) for h in FD_STEPS]
    results = []
    for k in range(1, n + 1):
        offsets, coeffs = _central_stencil(k)
        raw = [
            sum(float(c) * grid[j] for j, c in zip(offsets, coeffs)) / h**k
            for h, grid in zip(FD_STEPS, grids)
        ]
        refined = [
            (4.0 * finer - coarser) / 3.0 for coarser, finer in zip(raw, raw[1:])
        ]
        results.append(refined[-1])
    return results


def evaluate_problem(
    problem: ProblemSpec,
    n: int,
    kind: str | None = None,
    check_fd: bool = False,
) -> EvalReport:
    """Evaluate the compact formula on a problem jet, attaching targets."""
    _check_problem(problem)
    fd_value = finite_difference_derivatives(problem, n)[n - 1] if check_fd else None
    jet = problem.jet(order=n, kind=kind)
    report = eval_formula(delta_formula(n), jet)
    target = problem.analytic(n)
    if target is not None:
        report = replace(
            report,
            analytic=target,
            rel_error_analytic=relative_error(report.value, target),
        )
    if check_fd:
        report = replace(
            report, fd=fd_value, rel_error_fd=relative_error(report.value, fd_value)
        )
    return report
