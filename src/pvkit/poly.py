"""Polynomial helpers on constant-first coefficient tuples.

A polynomial is a tuple ``(c0, c1, ..., cd)`` meaning ``c0 + c1*t + ... +
cd*t**d``.  Stored densities cap the degree at :data:`MAX_DEGREE`; the
helpers themselves work for any degree.  They use plain floats, integers
and fractions, no numpy, so the measure algebra and the arbitrage checker
built on them load none.  :func:`sign_units` is the package's one sign
split: one recursive pass per piece over its stored, trimmed coefficients.
"""
from __future__ import annotations

import math
from fractions import Fraction

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
    """``integral_lo^hi p``, the antiderivative's value at hi minus at lo.

    When that difference is within its rounding error bound
    ``4 (n+1) u sum_k |a_k| (|hi|^k + |lo|^k)`` (n the degree of p,
    u = 2^-53, a_k the antiderivative's coefficients), the two values
    cancel, as on a narrow or late piece; the integral of the stored
    coefficients is then taken in exact arithmetic and rounded once.
    """
    anti = antiderivative(a)
    v = evaluate(anti, hi) - evaluate(anti, lo)
    mags = tuple(map(abs, anti))
    bound = 4.0 * len(a) * 2.0 ** -53 * (evaluate(mags, abs(hi)) + evaluate(mags, abs(lo)))
    if abs(v) > bound:
        return v
    h, l = Fraction(hi), Fraction(lo)
    return float(sum(Fraction(c) * (h ** (k + 1) - l ** (k + 1)) / (k + 1)
                     for k, c in enumerate(a)))


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


def _signer(coeffs):
    """``t -> sign(p(t))``, exact for the stored coefficients.

    Horner's value decides when it exceeds its rounding error bound
    ``4 n u sum |c_k| |t|^k`` (u = 2^-53; Higham, Accuracy and Stability of
    Numerical Algorithms, 5.1).  Below it, near a root, p is evaluated in
    integers: with c_k = a_k / D (D a power of two) and t = n / d,
    ``D d^deg p(t) = sum_k a_k n^k d^(deg-k)`` has the sign of p(t).
    """
    mags = tuple(map(abs, coeffs))
    slack = 4.0 * len(coeffs) * 2.0 ** -53
    ints = None  # the a_k, highest degree first, built on first use

    def sign(t: float) -> int:
        nonlocal ints
        v = evaluate(coeffs, t)
        if abs(v) > slack * evaluate(mags, abs(t)):
            return 1 if v > 0.0 else -1
        if ints is None:
            ratios = [x.as_integer_ratio() for x in reversed(coeffs)]
            den = max((b for _, b in ratios), default=1)
            ints = [a * (den // b) for a, b in ratios]
        n, d = t.as_integer_ratio()
        acc, dpow = 0, 1
        for a in ints:
            acc = acc * n + a * dpow
            dpow *= d
        return (acc > 0) - (acc < 0)

    return sign


def _bisect_root(sign, lo: float, hi: float, slo: int) -> float:
    # invariant: sign(lo) == slo != sign(hi), both nonzero
    for _ in range(_BISECT_CAP):
        if hi - lo <= ROOT_TOL:
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        s = sign(mid)
        if s == 0:
            return mid
        if s == slo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _interval_signs(sign, cuts) -> list[list]:
    # ``[a, b, sign]`` for each span between the sign changes of p, given
    # every zero of p inside [cuts[0], cuts[-1]] as the interior cuts.  Each
    # span between consecutive cuts takes the first nonzero sign at nine
    # interior samples; a nonzero polynomial of degree <= 8 cannot vanish at
    # all of them, so with exact signs a span gets 0 only where p is
    # identically 0.  A zero is a sign change where the nearest nonzero
    # signs on its two sides differ; the spans across any other zero merge,
    # taking the first nonzero sign among them.
    signs = [next((s for s in (sign(lo + 0.1 * k * (hi - lo)) for k in range(1, 10)) if s), 0)
             for lo, hi in zip(cuts, cuts[1:])]
    spans, left = [], 0  # left: the last nonzero sign so far
    for k, s in enumerate(signs):
        if spans and left * next((x for x in signs[k:] if x), 0) >= 0:
            spans[-1][1:] = cuts[k + 1], spans[-1][2] or s
        else:
            spans.append([cuts[k], cuts[k + 1], s])
        left = s or left
    return spans


def _definite(c, lo: float, hi: float) -> int:
    # The sign of p on [lo, hi] when it has no root there, else 0: around
    # the midpoint m, p(m + u) = sum_k q_k u^k, and |q_0| > sum_{k>=1} |q_k|
    # r^k bounds p away from 0 for |u| <= r.  The shift and the sums round
    # by at most 4 n u sum_k |c_k| (|m| + r)^k together (each q_k takes 2n
    # roundings); the margin is twice that.
    m = 0.5 * (lo + hi)
    r = math.nextafter(max(hi - m, m - lo), math.inf)
    q = taylor_shift(c, m)
    spread = r * evaluate(tuple(map(abs, q[1:])), r)
    margin = 8.0 * len(c) * 2.0 ** -53 * evaluate(tuple(map(abs, c)), abs(m) + r)
    return ((q[0] > 0.0) - (q[0] < 0.0)) if abs(q[0]) > spread + margin else 0


def _sign_spans(c, lo: float, hi: float) -> list:
    """``[a, b, sign]`` for each span of [lo, hi] between the sign changes of
    the polynomial with trimmed coefficients ``c``; the spans tile [lo, hi].

    ``sign`` is +1 or -1, or 0 on a span where the polynomial vanishes.
    Roots of even multiplicity (the graph touches zero without crossing)
    do not cut.  A span where the polynomial is certainly bounded away from
    zero is not searched.  Otherwise the crossings come from recursing on
    the derivative: between sign changes of p' the polynomial is monotone,
    so every crossing is caught by an endpoint sign test and pinned down by
    bisection.  Every sign is exact for the stored coefficients (see
    :func:`_signer`), and each sign change is located to :data:`ROOT_TOL`.
    The derivatives' coefficients ``k c_k`` are rounded, which can hide
    only a pair of crossings where p and p' are both within rounding error
    of zero.
    """
    s = _definite(c, lo, hi) if c else 0
    if s:
        return [[lo, hi, s]]
    sign = _signer(c)
    zeros: list[float] = []
    if len(c) > 1 and lo < hi:
        breaks = [lo] + [b for _, b, _ in _sign_spans(derivative(c), lo, hi)[:-1]] + [hi]
        at = [sign(x) for x in breaks]
        for x0, x1, s0, s1 in zip(breaks, breaks[1:], at, at[1:]):
            if s0 == 0 and lo < x0:
                zeros.append(x0)
            if s0 * s1 < 0:
                zeros.append(_bisect_root(sign, x0, x1, s0))
    return _interval_signs(sign, [lo] + sorted(set(zeros)) + [hi])


def sign_units(pieces) -> list:
    """``(a, b, coeffs, sign, origin)`` for each span of each piece
    ``(start, end, coeffs, origin)``, coefficients trimmed, between its
    density's sign changes (:func:`_sign_spans`), with the piece's
    coefficients, the sign there, +1 or -1, and the piece's origin; spans
    where the density vanishes are left out.  The density is split in its
    own coordinates, on ``[start - origin, end - origin)``; the spans' ends
    are times, with ``start`` and ``end`` kept exactly.  This is the
    package's one sign split: quadrature integrates the units and the
    Jordan decomposition reads them."""
    units = []
    for start, end, c, origin in pieces:
        lo, hi = start - origin, end - origin
        for a, b, s in _sign_spans(c, lo, hi):
            a = start if a == lo else a + origin
            b = end if b == hi else b + origin
            if s and a < b:  # a span narrower than the times' spacing there is dropped
                units.append((a, b, c, s, origin))
    return units
