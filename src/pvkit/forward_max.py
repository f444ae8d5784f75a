"""The largest forward rate from a time ``s`` into a window ``[a, b]``.

Each curve family's ``forward_max(s, a, b)`` method calls this module,
which is imported on that first call: a CLI process that never asks for
a forward maximum does not compile it.

The maximum is found from the family's own form, not from samples.
``f(s, t) = expm1(g(t))`` for the average forward
``g(t) = (ln P(s) - ln P(t)) / (t - s)``, whose slope is
``h / (t - s)**2`` with ``h(t) = (t - s) (phi(t) - g(t))`` and
``h' = (t - s) phi'`` for the instantaneous forward ``phi``.  So ``h`` is
monotone wherever ``phi`` is, and ``g`` peaks at an end of the window or
where ``h`` falls through 0, at most once on each span where ``phi`` is
monotone.  A flat curve's forward is its rate, and a ``ScaledCurve``'s is
its base's, since the factor cancels in ``P(s)/P(t)``.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

# a cap on the safeguarded Newton steps of one root; each bisects at worst
_ROOT_STEPS = 100


def window(s: float, a: float, b: float) -> float | None:
    """Where the times of ``[a, b]`` after ``s`` start, ``max(a, s)``;
    None when there are none (``b <= s``)."""
    if not (math.isfinite(s) and s >= 0.0):
        raise DomainError(f"forward maximum needs a start s >= 0, got {s!r}")
    if not (math.isfinite(a) and math.isfinite(b) and a <= b):
        raise DomainError(f"forward maximum needs a finite window a <= b, got [{a!r}, {b!r}]")
    return max(a, s) if b > s else None


def spot_grid(curve, s: float, a: float, b: float) -> float:
    """``forward_max`` of a :class:`~pvkit.curves.SpotGridCurve`.

    ``phi`` is constant on each knot span, so ``g`` is monotone there and
    peaks at a knot inside the window or at an end, all evaluated by one
    ``discount_many`` call.  When the window starts at ``s``, ``g`` is
    constant from ``s`` to the next candidate, which therefore stands for
    the limit at ``s``.
    """
    lo = window(s, a, b)
    if lo is None:
        return 0.0
    ts = np.array([s] + ([lo] if lo > s else [])
                  + [t for t, _ in curve.knots if lo < t < b] + [b])
    log_p = np.log(curve.discount_many(ts))
    return float(np.expm1(np.max((log_p[0] - log_p[1:]) / (ts[1:] - s))))


def svensson(curve, s: float, a: float, b: float) -> float:
    """``forward_max`` of a :class:`~pvkit.curves.SvenssonCurve`; at
    ``t = s`` it is the limit ``expm1(phi(s))``.

    ``phi(t) = b0 + e1 (b1 + b2 t/tau1) + e2 b3 t/tau2`` with
    ``e_i = exp(-t/tau_i)``, so ``phi' = e1 (a1 + c1 t) + e2 (a2 + c2 t)``.
    With the two terms ordered by decay, ``tau_f <= tau_s``,
    ``q = exp(t/tau_s) phi' = exp(c t) (fa + fb t) + sa + sb t`` with
    ``c = 1/tau_s - 1/tau_f <= 0`` (so no exponential overflows), and
    ``q'' = c exp(c t) (c fa + 2 fb + c fb t)`` has at most one zero,
    in closed form.  It cuts the window where ``q'`` is monotone, the
    zeros of ``q'`` cut it where ``q`` is, and the zeros of ``q`` (of
    ``phi'``) where ``phi`` and ``h`` are.  ``h`` falls through 0 at
    most once on each of those spans, and that root, solved by
    safeguarded Newton, is the one interior candidate there.  ``g`` is
    stationary at it, so the step tolerance costs ``g`` only its square.
    Everything is scalar ``math``.
    """
    lo = window(s, a, b)
    if lo is None:
        return 0.0
    b0, b1, b2, b3 = curve.beta0, curve.beta1, curve.beta2, curve.beta3
    t1, t2 = curve.tau1, curve.tau2
    e1s, e2s = math.exp(-s / t1), math.exp(-s / t2)
    # the integral of phi over [s, s + d] is d times b0 + e1s w1 k1
    # - b2 e1 + b3 (e2s w2 k2 - e2), with w = (1 - exp(-d/tau)) tau/d
    k1 = b1 + b2 + b2 * s / t1
    k2 = 1.0 + s / t2

    def phi(t):
        return b0 + math.exp(-t / t1) * (b1 + b2 * t / t1) + math.exp(-t / t2) * b3 * t / t2

    def g(t):
        x1, x2 = (t - s) / t1, (t - s) / t2
        w1 = -math.expm1(-x1) / x1 if x1 else 1.0
        w2 = -math.expm1(-x2) / x2 if x2 else 1.0
        return (b0 + e1s * w1 * k1 - b2 * math.exp(-t / t1)
                + b3 * (e2s * w2 * k2 - math.exp(-t / t2)))

    # phi' = e1 (a1 + c1 t) + e2 (a2 + c2 t)
    a1, c1, a2, c2 = (b2 - b1) / t1, -b2 / t1 ** 2, b3 / t2, -b3 / t2 ** 2

    def h(t):
        return (t - s) * (phi(t) - g(t))

    def dh(t):
        return (t - s) * (math.exp(-t / t1) * (a1 + c1 * t)
                          + math.exp(-t / t2) * (a2 + c2 * t))

    # the same terms, faster decay first
    fa, fb, sa, sb, tau_f, tau_s = ((a1, c1, a2, c2, t1, t2) if t1 <= t2
                                    else (a2, c2, a1, c1, t2, t1))
    c = 1.0 / tau_s - 1.0 / tau_f

    def q(t):
        return math.exp(c * t) * (fa + fb * t) + sa + sb * t

    def dq(t):
        return math.exp(c * t) * (c * fa + fb + c * fb * t) + sb

    def ddq(t):
        return c * math.exp(c * t) * (c * fa + 2.0 * fb + c * fb * t)

    cuts = [-(c * fa + 2.0 * fb) / (c * fb)] if c and fb else []
    cuts = _split(dq, ddq, cuts, lo, b)
    cuts = _split(q, dq, cuts, lo, b)
    pts = [lo] + cuts + [b]
    vals = [h(t) for t in pts]
    best = max(g(t) for t in pts)
    for k in range(len(pts) - 1):
        if vals[k] > 0.0 > vals[k + 1]:
            best = max(best, g(_root(h, dh, pts[k], pts[k + 1], vals[k])))
    return math.expm1(best)


def _root(fn, dfn, lo: float, hi: float, f_lo: float) -> float:
    """The zero of ``fn`` in ``[lo, hi]``, where ``fn`` is monotone and
    ``fn(lo) = f_lo`` and ``fn(hi)`` have opposite signs.

    Newton steps on ``dfn``, each kept inside the bracket that the signs
    prove or replaced by its midpoint; stops on a step below
    ``1e-8 (1 + t)``.
    """
    t = 0.5 * (lo + hi)
    for _ in range(_ROOT_STEPS):
        ft = fn(t)
        if ft == 0.0:
            return t
        if (ft > 0.0) == (f_lo > 0.0):
            lo = t
        else:
            hi = t
        d = dfn(t)
        nxt = t - ft / d if d else math.nan
        if not lo < nxt < hi:  # NaN included
            nxt = 0.5 * (lo + hi)
        if abs(nxt - t) <= 1e-8 * (1.0 + abs(t)):
            return nxt
        t = nxt
    return t


def _split(fn, dfn, cuts: list, lo: float, hi: float) -> list:
    """The cuts inside ``(lo, hi)``, sorted, with the zeros of ``fn``
    inserted between them, where ``fn`` is monotone between consecutive
    cuts and so changes sign at most once there (found by :func:`_root`).
    A zero at a cut stays as that cut."""
    pts = [lo] + sorted(z for z in cuts if lo < z < hi) + [hi]
    vals = [fn(t) for t in pts]
    out = []
    for k in range(len(pts) - 1):
        if k:
            out.append(pts[k])
        if vals[k] < 0.0 < vals[k + 1] or vals[k] > 0.0 > vals[k + 1]:
            out.append(_root(fn, dfn, pts[k], pts[k + 1], vals[k]))
    return out
