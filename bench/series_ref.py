"""Exact reference for implicit derivatives by truncated power-series Newton.

Given the partials f_{x^p y^t} of f at a base point (x0, y0) with
f(x0, y0) = 0 and f_y != 0, the solution of f(x0 + s, y0 + w(s)) = 0 is
a power series w(s) = sum_k c_k s^k, and y^(k)(x0) = k! c_k.  Newton's
iteration on power series,

    w <- w - F(s, w) / F_w(s, w)   (mod s^(2m)),

doubles the number of correct coefficients per step (Brent & Kung 1978,
"Fast algorithms for manipulating formal power series").  Everything is
exact ``Fraction`` arithmetic over plain lists, and nothing here comes
from the package under test: the benchmark checks the package against
this module.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _mul(a: list, b: list, size: int) -> list:
    """Product of two series truncated to ``size`` coefficients."""
    out = [Fraction(0)] * size
    for i, ai in enumerate(a[:size]):
        if ai:
            for j, bj in enumerate(b[: size - i]):
                if bj:
                    out[i + j] += ai * bj
    return out


def _reciprocal(a: list, size: int) -> list:
    """1 / a truncated to ``size`` coefficients; a[0] must be non-zero."""
    inv0 = 1 / a[0]
    out = [inv0]
    for k in range(1, size):
        acc = sum((a[i] * out[k - i] for i in range(1, min(k, len(a) - 1) + 1)), Fraction(0))
        out.append(-acc * inv0)
    return out


def _compose(rows: list, w: list, size: int) -> list:
    """sum_t rows[t](s) * w(s)^t truncated to ``size``, by Horner in w."""
    acc = list(rows[-1][:size])
    for row in reversed(rows[:-1]):
        acc = _mul(acc, w, size)
        for i, v in enumerate(row[:size]):
            acc[i] += v
    return acc


def taylor_coefficients(partials: dict, order: int) -> list:
    """Coefficients c_0 .. c_order of w(s), with c_0 = 0.

    ``partials`` maps (p, t) to the exact value of f_{x^p y^t}; absent
    keys are zero.
    """
    if partials.get((0, 0), 0) != 0:
        raise ValueError("the base point must solve f = 0")
    if partials.get((0, 1), 0) == 0:
        raise ZeroDivisionError("f_y vanishes at the base point")
    size = order + 1
    # rows[t][p] = f_{p,t} / (p! t!): F(s, w) = sum_t rows[t](s) w^t
    rows = [
        [Fraction(partials.get((p, t), 0)) / (math.factorial(p) * math.factorial(t))
         for p in range(size)]
        for t in range(size)
    ]
    # F_w(s, w) = sum_t (t+1) rows[t+1](s) w^t
    d_rows = [[(t + 1) * v for v in rows[t + 1]] for t in range(order)] or [[Fraction(0)]]
    w = [Fraction(0)] * size
    known = 1  # w is exact in its first `known` coefficients
    while known < size:
        known = min(2 * known, size)
        residual = _compose(rows, w, known)
        slope = _compose(d_rows, w, known)
        step = _mul(residual, _reciprocal(slope, known), known)
        for i in range(known):
            w[i] -= step[i]
    return w


def derivatives(partials: dict, order: int) -> list:
    """Exact y^(k)(x0) for k = 0 .. order (entry 0 is 0, the offset from y0)."""
    return [math.factorial(k) * c for k, c in enumerate(taylor_coefficients(partials, order))]
