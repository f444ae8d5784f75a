"""Polynomial helpers on constant-first coefficient tuples.

A polynomial is a tuple ``(c0, c1, ..., cd)`` meaning ``c0 + c1*t + ... +
cd*t**d``.  Stored densities cap the degree at :data:`MAX_DEGREE`; the
helpers themselves work for any degree.
"""
from __future__ import annotations

import math

MAX_DEGREE = 8
# Root isolation runs bisection down to this absolute width (or one ulp,
# whichever is wider).
ROOT_TOL = 1e-14
_BISECT_CAP = 120

Coeffs = tuple[float, ...]


def trim(coeffs) -> Coeffs:
    """Drop trailing zero coefficients; the zero polynomial becomes ()."""
    c = list(coeffs)
    while c and c[-1] == 0.0:
        c.pop()
    return tuple(float(x) for x in c)


def is_zero(coeffs) -> bool:
    return all(x == 0.0 for x in coeffs)


def evaluate(coeffs, t: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def add(a, b) -> Coeffs:
    n = max(len(a), len(b))
    out = [0.0] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return trim(out)


def scale(a, k: float) -> Coeffs:
    return trim(c * k for c in a)


def negate(a) -> Coeffs:
    return tuple(-c for c in a)


def multiply(a, b) -> Coeffs:
    if is_zero(a) or is_zero(b):
        return ()
    out = [0.0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0.0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return trim(out)


def derivative(a) -> Coeffs:
    return tuple(i * c for i, c in enumerate(a) if i > 0)


def antiderivative(a) -> Coeffs:
    return (0.0,) + tuple(c / (i + 1) for i, c in enumerate(a))


def definite_integral(a, lo: float, hi: float) -> float:
    anti = antiderivative(a)
    return evaluate(anti, hi) - evaluate(anti, lo)


def taylor_shift(a, m: float) -> Coeffs:
    """Coefficients of ``u -> p(u + m)`` (repeated synthetic division)."""
    c = list(a)
    n = len(c)
    if n == 0 or m == 0.0:
        return tuple(c)
    for k in range(n - 1):
        for i in range(n - 2, k - 1, -1):
            c[i] += m * c[i + 1]
    return tuple(c)


def chebyshev_nodes(n: int) -> Coeffs:
    """The ``n`` Chebyshev points ``cos(pi * (2k + 1) / (2n))`` on [-1, 1]."""
    return tuple(math.cos(math.pi * (2 * k + 1) / (2 * n)) for k in range(n))


def interpolate_chebyshev(values, half: float) -> Coeffs:
    """Interpolant through ``values`` at ``u = half * chebyshev_nodes(n)``.

    ``n = len(values)``; the result is in the local coordinate u (an
    interval's midpoint is u = 0).  Newton divided differences expanded to
    monomials; degree = n - 1.  Local coordinates keep the coefficients
    well-scaled on off-origin intervals.
    """
    nodes = len(values)
    us = [half * x for x in chebyshev_nodes(nodes)]
    coef = [float(v) for v in values]
    for j in range(1, nodes):
        for i in range(nodes - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (us[i] - us[i - j])
    out: Coeffs = (coef[nodes - 1],)
    for i in range(nodes - 2, -1, -1):
        out = add(multiply(out, (-us[i], 1.0)), (coef[i],))
    return out


def _bisect_root(coeffs, lo: float, hi: float, flo: float) -> float:
    # invariant: sign(p(lo)) == sign(flo) != sign(p(hi)), both nonzero
    for _ in range(_BISECT_CAP):
        if hi - lo <= ROOT_TOL:
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fm = evaluate(coeffs, mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _interval_sign(coeffs, lo: float, hi: float) -> int:
    # Sign of p on (lo, hi) assuming p does not change sign there.  Nine
    # interior samples: a nonzero polynomial of degree <= 8 cannot vanish
    # at all of them, so the answer is rigorous for stored densities.
    for k in range(1, 10):
        v = evaluate(coeffs, lo + 0.1 * k * (hi - lo))
        if v > 0.0:
            return 1
        if v < 0.0:
            return -1
    return 0


def sign_changes(coeffs, lo: float, hi: float) -> Coeffs:
    """Points in (lo, hi) where the polynomial changes sign, sorted.

    Roots of even multiplicity (the graph touches zero without crossing)
    are not reported.  Between consecutive sign changes the polynomial is
    a.e. sign-definite.  Works by recursing on the derivative: between
    sign changes of p' the polynomial is monotone, so every crossing is
    caught by an endpoint sign test and pinned down by bisection.
    """
    c = trim(coeffs)
    if len(c) <= 1 or not (lo < hi):
        return ()
    breaks = (lo,) + sign_changes(derivative(c), lo, hi) + (hi,)
    zeros: list[float] = []
    for x0, x1 in zip(breaks, breaks[1:]):
        f0, f1 = evaluate(c, x0), evaluate(c, x1)
        if f0 == 0.0 and lo < x0:
            zeros.append(x0)
        if f0 != 0.0 and f1 != 0.0 and (f0 > 0) != (f1 > 0):
            zeros.append(_bisect_root(c, x0, x1, f0))
    if not zeros:
        return ()
    zeros = sorted(set(zeros))
    # keep only genuine crossings: the a.e. sign must differ across the zero
    cuts = [lo] + zeros + [hi]
    signs = [_interval_sign(c, a, b) for a, b in zip(cuts, cuts[1:])]
    out = []
    for k, z in enumerate(zeros):
        left = next((s for s in reversed(signs[: k + 1]) if s != 0), 0)
        right = next((s for s in signs[k + 1 :] if s != 0), 0)
        if left * right < 0:
            out.append(z)
    return tuple(out)
