"""``forward_max``: the largest forward rate from ``s`` into a window.

The oracle maximizes ``f(s, t)`` in 50-digit mpmath from each family's
parameters: a 160-point scan of the window, then golden-section search
about the four highest local maxima of the scan.  It knows nothing of where the
method looks for the maximum.  The old sampled check, the forward rate on
a 1e-3 grid, is kept here as a floor the method must reach.
"""
import functools
import math

import numpy as np
import pytest

from pvkit import (DomainError, FlatCurve, ScaledCurve, SpotGridCurve, SvenssonCurve,
                   density, dirac, yield_bound_check)
from pvkit import forward_max
from pvkit.sampling import CURVE_FAMILIES, random_curve

mp = pytest.importorskip("mpmath")

EPS = np.finfo(float).eps
SCAN = 160
GOLDEN_STEPS = 110
REFINED = 4


def _oracle_log_discount(curve):
    """mpmath ln P(t) from the curve's parameters."""
    if isinstance(curve, ScaledCurve):
        base = _oracle_log_discount(curve.base)
        return lambda t: mp.log(curve.factor) + base(t)
    if isinstance(curve, FlatCurve):
        return lambda t: -t * mp.log1p(mp.mpf(curve.rate))
    if isinstance(curve, SpotGridCurve):
        ks = [(mp.mpf(t), mp.log(mp.mpf(p))) for t, p in curve.knots]
        tail = (ks[-2][1] - ks[-1][1]) / (ks[-1][0] - ks[-2][0]) if len(ks) > 1 else 0

        def grid(t):
            for (t0, l0), (t1, l1) in zip(ks, ks[1:]):
                if t < t1:
                    return l0 + (t - t0) / (t1 - t0) * (l1 - l0)
            return ks[-1][1] - tail * (t - ks[-1][0])
        return grid
    b0, b1, b2, b3, tau1, tau2 = (mp.mpf(x) for x in (
        curve.beta0, curve.beta1, curve.beta2, curve.beta3, curve.tau1, curve.tau2))

    def svensson(t):
        if t == 0:
            return mp.mpf(0)
        x1, x2 = t / tau1, t / tau2
        h1, g1 = (1 - mp.exp(-x1)) / x1, (1 - mp.exp(-x2)) / x2
        return -t * (b0 + b1 * h1 + b2 * (h1 - mp.exp(-x1)) + b3 * (g1 - mp.exp(-x2)))
    return svensson


@functools.cache
def _oracle(curve, s, a, b):
    """(max f(s, t) over t in [a, b], t > s; the maximizing t) in mpmath."""
    with mp.workdps(50):
        log_p = _oracle_log_discount(curve)
        s = mp.mpf(s)
        ls = log_p(s)
        lo, hi = max(mp.mpf(a), s), mp.mpf(b)
        # the limit at t = s, where the window starts there
        first = lo + mp.mpf(10) ** -30 if lo == s else lo

        def f(t):
            return mp.expm1((ls - log_p(t)) / (t - s))

        ts = [first + (hi - first) * k / SCAN for k in range(SCAN + 1)]
        fs = [f(t) for t in ts]
        best = max(zip(fs, ts))
        inv_phi = (mp.sqrt(5) - 1) / 2
        peaks = [k for k in range(SCAN + 1)
                 if fs[k] >= max(fs[max(k - 1, 0)], fs[min(k + 1, SCAN)])]
        # g has at most two humps; a flat curve's scan is a plateau of noise
        for k in sorted(peaks, key=lambda k: fs[k])[-REFINED:]:
            u, v = ts[max(k - 1, 0)], ts[min(k + 1, SCAN)]
            x, y = v - inv_phi * (v - u), u + inv_phi * (v - u)
            fx, fy = f(x), f(y)
            for _ in range(GOLDEN_STEPS):
                if fx < fy:
                    u, x, fx = x, y, fy
                    y = u + inv_phi * (v - u)
                    fy = f(y)
                else:
                    v, y, fy = y, x, fx
                    x = v - inv_phi * (v - u)
                    fx = f(x)
            best = max(best, (fx, x), (fy, y))
        return best


def _old_grid(curve, s, a, b):
    """The 1e-3 grid scan the yield bound used before, and its roundoff:
    ``(P(s)/P(t))**(1/(t - s))`` loses a few ulp of ``1 + f`` per unit of
    ``1/(t - s)``."""
    n = int(math.floor((b - a) / 1e-3))
    grid = np.concatenate([a + 1e-3 * np.arange(n + 1), [b]])
    grid = grid[grid > s]
    p = curve.discount_many(np.concatenate([[s], grid]))
    f = (p[0] / p[1:]) ** (1.0 / (grid - s)) - 1.0
    return f, 16.0 * EPS * (1.0 + np.abs(f)) * (1.0 + 1.0 / (grid - s))


def _cases():
    """Seeded curves of each family and a scaled one, with the window
    [a, b] seen from s = 0, from inside (0, a) and from s = a."""
    rng = np.random.default_rng(18)
    out = []
    for family in CURVE_FAMILIES + ("scaled",):
        for _ in range(5):
            if family == "scaled":
                curve = ScaledCurve(random_curve(rng), float(rng.uniform(0.2, 5.0)))
            else:
                curve = random_curve(rng, family)
            a = float(rng.uniform(0.05, 12.0))
            b = a + float(rng.uniform(0.5, 20.0))
            for s in (0.0, float(rng.uniform(0.0, a)), a):
                out.append((curve, s, a, b))
    # both orders of the two Svensson decay times, and a narrow hump
    out += [(SvenssonCurve(0.03, -0.02, 0.05, -0.04, 6.0, 1.5), s, 0.5, 25.0)
            for s in (0.0, 0.2, 0.5)]
    out += [(SvenssonCurve(0.04, 0.01, -0.05, 0.06, 0.4, 3.0), s, 0.3, 12.0)
            for s in (0.0, 0.1, 0.3)]
    # tau2 far below tau1: exp(t (1/tau2 - 1/tau1)) would overflow at t = 60
    out += [(SvenssonCurve(0.03, 0.01, 0.02, 0.04, 5.0, 0.05), s, 0.1, 60.0)
            for s in (0.0, 0.05, 0.1)]
    return out


CASES = _cases()


@pytest.mark.parametrize("k", range(len(CASES)))
def test_forward_max_matches_the_mpmath_maximum(k):
    curve, s, a, b = CASES[k]
    got = curve.forward_max(s, a, b)
    want, _ = _oracle(curve, s, a, b)
    assert type(got) is float
    assert abs(got - float(want)) <= 1e-12, (got, float(want))


@pytest.mark.parametrize("k", range(len(CASES)))
def test_forward_max_reaches_the_old_grid(k):
    curve, s, a, b = CASES[k]
    f, roundoff = _old_grid(curve, s, a, b)
    assert curve.forward_max(s, a, b) >= float(np.max(f - roundoff))


def test_the_cases_reach_interior_maxima():
    # a set whose maxima all sit at the window's ends would not test the
    # Svensson root search
    inside = 0
    for curve, s, a, b in CASES:
        if isinstance(curve, SvenssonCurve):
            _, t = _oracle(curve, s, a, b)
            inside += max(a, s) + 1e-6 < t < b - 1e-6
    assert inside >= 3


def test_flat_returns_its_rate():
    curve = FlatCurve(0.0437)
    for s, a, b in ((0.0, 0.0, 5.0), (1.0, 2.5, 3.0), (3.0, 3.0, 30.0), (0.0, 7.0, 7.0)):
        assert curve.forward_max(s, a, b) == 0.0437


def test_scaled_curve_returns_its_base_value_bit_for_bit():
    bases = (FlatCurve(0.02), SpotGridCurve(((0.0, 1.0), (2.0, 0.95), (7.0, 0.8))),
             SvenssonCurve(0.03, -0.01, 0.02, 0.015, tau1=1.5, tau2=6.0))
    for base in bases:
        for s, a, b in ((0.0, 0.3, 9.0), (1.1, 2.0, 14.0), (2.0, 2.0, 4.0)):
            assert ScaledCurve(base, 3.7).forward_max(s, a, b) == base.forward_max(s, a, b)


def test_a_window_from_s_gives_the_instantaneous_limit():
    # at a = s the supremum is the limit t -> s+, expm1(phi(s+)), which no
    # grid of times after s reaches
    curve = SvenssonCurve(0.03, -0.02, 0.06, 0.01, tau1=1.2, tau2=7.0)
    for s in (0.0, 0.8, 2.5, 4.0):
        phi = (curve.beta0 + math.exp(-s / curve.tau1) * (curve.beta1 + curve.beta2 * s / curve.tau1)
               + curve.beta3 * s / curve.tau2 * math.exp(-s / curve.tau2))
        # this curve's instantaneous forward rises until t = 1.6 and falls
        # from there on, so the limit at s is the maximum only past 1.6
        got = curve.forward_max(s, s, 20.0)
        if s < 1.6:
            assert got > math.expm1(phi)
        else:
            assert got == pytest.approx(math.expm1(phi), rel=1e-14)
            f, _ = _old_grid(curve, s, s, 20.0)
            assert got > float(np.max(f))
    # a spot grid's phi is constant on a knot span, so the limit is that
    # span's forward
    grid = SpotGridCurve(((0.0, 1.0), (2.0, 0.9), (5.0, 0.7)))
    span = (math.log(0.9) - math.log(0.7)) / 3.0
    assert grid.forward_max(3.0, 3.0, 4.0) == pytest.approx(math.expm1(span), rel=1e-14)
    assert grid.forward_max(0.0, 0.0, 2.0) == pytest.approx(math.expm1(-math.log(0.9) / 2),
                                                            rel=1e-14)


def test_a_window_before_s_has_no_forward():
    curve = SpotGridCurve(((0.0, 1.0), (1.0, 0.97), (5.0, 0.8)))
    assert curve.forward_max(10.0, 2.0, 5.0) == 0.0


def test_root_returns_its_last_step_at_the_step_cap():
    # a derivative 100 times too large keeps every Newton step short, so
    # the steps run out before one falls below the stop
    t = forward_max._root(lambda t: t - 0.3, lambda t: 100.0, 0.0, 1.0, -0.3)
    assert 0.0 <= t <= 1.0 and abs(t - 0.3) > 0.01


def test_yield_bound_reads_forward_max():
    curve = SvenssonCurve(0.03, -0.02, 0.06, 0.01, tau1=1.2, tau2=7.0)
    flow = dirac(2.5, 1.0) + density(2.5, 9.0, (1.0, 0.1))
    for at in (0.0, 1.0, 2.5):
        bound = yield_bound_check(curve, flow, purchase_time=at)
        assert bound.holds
        assert bound.forward_max == curve.forward_max(at, 2.5, 9.0)
    # all mass at the purchase time: no time of the support is after it
    assert yield_bound_check(curve, dirac(2.0), purchase_time=2.0).forward_max == 0.0


def test_forward_max_is_refused_outside_its_domain():
    curve = FlatCurve(0.03)
    assert curve.forward_max(5.0, 1.0, 5.0) == 0.0
    with pytest.raises(DomainError, match="s >= 0"):
        curve.forward_max(-1.0, 0.0, 1.0)
    with pytest.raises(DomainError, match="a <= b"):
        curve.forward_max(0.0, 2.0, 1.0)
    with pytest.raises(DomainError, match="a <= b"):
        curve.forward_max(0.0, 0.0, math.nan)


class _NoForwardMax:
    """A valid discount function that does not know its forward maximum."""

    horizon = 100.0

    def discount_many(self, ts):
        return np.power(1.03, -ts)

    def discount(self, t):
        return 1.03 ** -t

    def knot_times(self):
        return ()


def test_a_curve_without_forward_max_is_refused():
    with pytest.raises(DomainError, match="forward_max"):
        yield_bound_check(_NoForwardMax(), density(1.0, 5.0))
