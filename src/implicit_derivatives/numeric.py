"""Numeric evaluation of the derivative formulas on derivative jets.

A jet records the values of all partials f_{x^p y^t} of f at a base
point up to a total order, in one of two scalar kinds: exact rationals
or binary64 floats.  Formulas evaluate to a scalar of the jet's kind,
so rational jets give exact results.  Exact evaluation normalizes only
the block values and the total; each term stays an unreduced integer
pair until its value is first read from the report.

The module also ships a few built-in implicit-function problems with
known solutions, a Newton solver plus central finite differences for
cross-checking, the base-point shear that zeroes f_x (turning the
compact blocks into plain partials; exact only, on rational jets), and
a deterministic random-jet generator used by the property suites.
"""

from __future__ import annotations

import json
import math
import random
import re
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable

from .errors import (
    HARD_CAP,
    DomainError,
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
#: Neighbouring terms summed over one lcm before the pairwise merges of
#: the exact total (:func:`_exact_total`).  The sum alone in ms over the
#: unreduced term pairs, per pass of block formulas 8..14 (best of 9,
#: lowest of three sweeps, Python 3.11.7, 2-CPU shared host):
#:
#:   run length       1     4     8    16    32   one running lcm
#:   32-bit entries  90    77    98   113   152   473
#:   small entries   16   8.7   6.8   5.5   4.8   4.4
#:   verify shift   140    49    44    38    31    23   (2 100 small sums)
#:
#: Short runs pay Python overhead on small sums and long runs widen the
#: wide ones.  4 sums the wide pairs fastest, but over whole evaluations
#: the eval benchmark's op_p50_ms and op_p90_ms read 6-7% higher with it
#: than with 8 (6 alternating pairs, wall_s unchanged), so 8 stays.
SUM_RUN = 8


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


@dataclass
class Jet:
    """Partial-derivative values of f at a base point, up to ``order``.

    All keys (p, t) with p + t <= order are present after construction
    (absent ones fill with zero), so the order is held to ``HARD_CAP``
    like every other order.  The value at (0, 0) must be 0 (the base
    point solves f = 0) and the value at (0, 1) must be non-zero.
    One scalar kind per jet; mixing rationals and floats is rejected.
    """

    x0: object
    y0: object
    order: int
    partials: dict
    kind: str = RATIONAL

    def __post_init__(self) -> None:
        if self.kind not in (RATIONAL, FLOAT):
            raise JetError(f"unknown jet kind {self.kind!r}")
        if check_int(self.order, JetError, "jet order") < 1:
            raise JetError("jet order must be at least 1")
        if self.order > HARD_CAP:
            raise JetError(f"jet order {self.order} exceeds the hard cap {HARD_CAP}")
        self.x0 = _coerce_scalar(self.x0, self.kind, "x0")
        self.y0 = _coerce_scalar(self.y0, self.kind, "y0")
        zero = Fraction(0) if self.kind == RATIONAL else 0.0
        if not isinstance(self.partials, Mapping):
            raise JetError(f"jet partials must be a mapping, got {self.partials!r}")
        table = {}
        for key, value in self.partials.items():
            try:
                p, t = key
            except (TypeError, ValueError):
                raise JetError(f"partial key {key!r} is not a (p, t) pair") from None
            check_int(p, JetError, "partial key index")
            check_int(t, JetError, "partial key index")
            if p < 0 or t < 0 or p + t > self.order:
                raise JetError(f"partial key {(p, t)} outside jet of order {self.order}")
            table[(p, t)] = _coerce_scalar(value, self.kind, f"partial ({p},{t})")
        for p in range(self.order + 1):
            for t in range(self.order + 1 - p):
                table.setdefault((p, t), zero)
        if table[(0, 0)] != 0:
            raise JetError("f(x0, y0) must be 0 at the base point")
        if table[(0, 1)] == 0:
            raise SingularJetError("jet has f_y = 0 at the base point")
        self.partials = table

    @property
    def fx(self):
        return self.partials[(1, 0)]

    @property
    def fy(self):
        return self.partials[(0, 1)]


def jet_to_json(jet: Jet) -> str:
    """Serialize a jet; rational scalars become "num/den" strings."""

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
    if l + r > jet.order:
        raise JetError(f"block ({l},{r}) needs jet order {l + r}, have {jet.order}")
    fx, fy = jet.fx, jet.fy
    if jet.kind == RATIONAL:
        # With f_x = a/b, f_y = c/d and the l + 1 partials over their
        # common denominator e, the block is one integer sum over
        # e * (b*d)^l:  sum_j C(l,j) P_j (-a*d)^j (b*c)^(l-j).
        values = [jet.partials[(l - j, r + j)] for j in range(l + 1)]
        e = math.lcm(*[v.denominator for v in values])
        x = -fx.numerator * fy.denominator
        y = fx.denominator * fy.numerator
        total = 0
        for j, v in enumerate(values):
            scaled = v.numerator * (e // v.denominator)
            total += math.comb(l, j) * scaled * x**j * y ** (l - j)
        return Fraction(total, e * (fx.denominator * fy.denominator) ** l)
    total = 0.0
    for j in range(l + 1):
        term = math.comb(l, j) * jet.partials[(l - j, r + j)] * fx**j * fy ** (l - j)
        total += -term if j % 2 else term
    return total


@dataclass(frozen=True)
class EvalReport:
    """Evaluation outcome: the value, per-term contributions, optional targets.

    ``_terms`` holds each term as :func:`eval_formula` left it: the float
    itself on a float jet, an unreduced ``(numerator, denominator)``
    integer pair on a rational jet (the denominator of either sign).  It
    is kept out of ``repr`` but compared, so two reports whose term values
    differ compare unequal.  :attr:`term_values` normalizes the pairs on
    its first read only, as most callers read just ``value``.
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

    Each run of :data:`SUM_RUN` neighbouring pairs is one integer sum over
    the run's lcm (positive, whatever the denominators' signs).
    Neighbouring partial sums p1/q1 and p2/q2 are then merged level by
    level, as in a product tree, into one sum over q1/g * q2 with
    g = gcd(q1, q2), so each denominator is the lcm of its own subtree's;
    only the last sum is normalized.  Neighbours in canonical term order
    share most of their factors, so the denominators stay narrow until the
    top levels, where one running lcm over all the pairs would be wide
    from its first few terms on.
    """
    parts = []
    for start in range(0, len(pairs), SUM_RUN):
        run = pairs[start : start + SUM_RUN]
        den = math.lcm(*[q for _, q in run])
        parts.append((sum(p * (den // q) for p, q in run), den))
    while len(parts) > 1:
        merged = []
        for (p1, q1), (p2, q2) in zip(parts[::2], parts[1::2]):
            g = math.gcd(q1, q2)
            merged.append((p1 * (q2 // g) + p2 * (q1 // g), q1 // g * q2))
        if len(parts) % 2:
            merged.append(parts[-1])
        parts = merged
    if not parts:
        return Fraction(0)
    return Fraction(*parts[0])


def eval_formula(formula: DeltaFormula | ElemFormula, jet: Jet) -> EvalReport:
    """Evaluate either formula shape on a jet; exact on rational jets.

    Each distinct block D[l,r] (or partial, for the expanded shape) and
    each factor power, f_y power included, is computed once per call.  On
    rational jets a term is an unreduced pair of integer products, the
    total is summed from the pairs by pairwise merges in term order
    (:func:`_exact_total`) and normalized once, and no term is normalized
    unless :attr:`EvalReport.term_values` is read.  On float jets
    the operations and their order are those of the plain per-factor
    product, so every float is bit-identical to it.
    """
    if isinstance(formula, ElemFormula) and formula.form == "inverse":
        raise DomainError("inverse-function formulas are not evaluated on jets")
    if jet.order < formula.n:
        raise JetError(f"formula of order {formula.n} needs jet order >= {formula.n}")
    if jet.fy == 0:
        raise SingularJetError("jet has f_y = 0 at the base point")
    exact = jet.kind == RATIONAL
    blocks = isinstance(formula, DeltaFormula)
    fy = jet.fy
    bases = {}  # key -> block or partial value
    # (key, power) -> (numerator, denominator) of value**power; a float
    # power is kept whole over 1, so the float product is the plain one
    powers = {}
    fy_powers = {}  # q -> (numerator, denominator) of 1 / f_y**q, exact only
    contributions = []
    try:
        for coeff, mono in formula.terms:
            num, den = (coeff.numerator, coeff.denominator) if exact else (1.0, 1)
            for entry in mono.factors if blocks else mono.exponents:
                factor = powers.get(entry)
                if factor is None:
                    key, power = entry
                    base = bases.get(key)
                    if base is None:
                        if blocks:
                            base = eval_delta_block(jet, key.l, key.r)
                        else:
                            base = jet.partials[(key.l, key.r)]
                        bases[key] = base
                    if exact:
                        factor = (base.numerator**power, base.denominator**power)
                    else:
                        factor = (base**power, 1)
                    powers[entry] = factor
                num *= factor[0]
                den *= factor[1]
            q = mono.fy_power
            if exact:
                fy_power = fy_powers.get(q)
                if fy_power is None:
                    fy_power = fy_powers[q] = (fy.denominator**q, fy.numerator**q)
                value = (num * fy_power[0], den * fy_power[1])
            else:
                value = float(coeff * num / fy**q)
            contributions.append(value)
    except (OverflowError, ZeroDivisionError) as exc:  # f_y powers out of range
        raise JetError(f"float evaluation out of range: {exc}") from exc
    total = _exact_total(contributions) if exact else sum(contributions, 0.0)
    if not exact and not math.isfinite(total):
        raise JetError(f"float evaluation is not finite: {total!r}")
    return EvalReport(n=formula.n, value=total, _terms=tuple(contributions))


def shift_jet(jet: Jet, n: int) -> Jet:
    """Jet of the sheared function g(x, z) = f(x, z + lambda*x), lambda = -f_x/f_y.

    The shear zeroes the first x-derivative at the base point while
    leaving pure y-partials untouched; its mixed partials are
    g_{x^l z^r} = sum_k C(l,k) lambda^k f_{x^(l-k) y^(r+k)}, which equals
    the block value D[l,r] divided by f_y^l.  The shear is exact only:
    each sheared partial is one integer sum over a common denominator,
    normalized once, and a float jet raises :class:`JetError`.
    """
    check_order(n, 1)
    if jet.kind != RATIONAL:
        raise JetError("the shear needs a rational jet")
    if jet.order < n:
        raise JetError(f"shift to order {n} needs jet order >= {n}")
    if jet.fy == 0:
        raise SingularJetError("jet has f_y = 0 at the base point")
    lam = -jet.fx / jet.fy
    # With lambda = a/b and the partials as integers P over their
    # common denominator e, g_{x^l z^r} is one integer sum over
    # b^l * e:  sum_k C(l,k) a^k b^(l-k) P_{l-k, r+k}.
    a, b = lam.numerator, lam.denominator
    keys = [(p, t) for p in range(n + 1) for t in range(n + 1 - p)]
    e = math.lcm(*[jet.partials[key].denominator for key in keys])
    scaled = {}
    for key in keys:
        v = jet.partials[key]
        scaled[key] = v.numerator * (e // v.denominator)
    a_pow = [a**k for k in range(n + 1)]
    b_pow = [b**k for k in range(n + 1)]
    partials = {}
    for l in range(n + 1):
        weights = [math.comb(l, k) * a_pow[k] * b_pow[l - k] for k in range(l + 1)]
        den = b_pow[l] * e
        for r in range(n + 1 - l):
            total = 0
            for k, w in enumerate(weights):
                total += w * scaled[(l - k, r + k)]
            partials[(l, r)] = Fraction(total, den)
    partials[(1, 0)] = Fraction(0)  # exact by the choice of lambda
    return Jet(
        x0=jet.x0,
        y0=jet.y0 - lam * jet.x0,
        order=n,
        partials=partials,
        kind=RATIONAL,
    )


def random_rational_jet(order: int, seed: int) -> Jet:
    """Deterministic random jet with small rational entries and f_y != 0."""
    rng = random.Random(seed)

    def small(nonzero=False):
        num = rng.randint(-9, 9)
        while nonzero and num == 0:
            num = rng.randint(-9, 9)
        return Fraction(num, rng.randint(1, 4))

    partials = {}
    for p in range(order + 1):
        for t in range(order + 1 - p):
            partials[(p, t)] = small()
    partials[(0, 0)] = Fraction(0)
    partials[(0, 1)] = small(nonzero=True)
    return Jet(x0=small(), y0=small(), order=order, partials=partials, kind=RATIONAL)


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
        if kind is None:
            kind = RATIONAL if self.exact else FLOAT
        if kind == RATIONAL and not self.exact:
            raise JetError(f"problem {self.name!r} has no exact jet; use kind='float'")
        values = {}
        for p in range(order + 1):
            for t in range(order + 1 - p):
                v = self.partial(p, t)
                values[(p, t)] = Fraction(v) if kind == RATIONAL else float(v)
        x0 = Fraction(self.x0) if kind == RATIONAL else float(self.x0)
        y0 = Fraction(self.y0) if kind == RATIONAL else float(self.y0)
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


def builtin_problem(name: str) -> ProblemSpec:
    """Return a registered test problem by name."""
    try:
        return _PROBLEMS[name]
    except KeyError:
        raise DomainError(
            f"unknown problem {name!r}; choose from {', '.join(PROBLEM_NAMES)}"
        ) from None


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
    if not 1 <= n <= FD_MAX_ORDER:
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
