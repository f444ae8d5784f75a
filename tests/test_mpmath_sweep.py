"""Price brackets against 30-digit mpmath values on a seeded sweep.

The oracle re-implements each curve family from its parameters in mpmath
and integrates every density piece with mpmath's quadrature, split at the
spot-grid knots; atoms are summed in mpmath too.  Nothing in the oracle
calls pvkit's evaluation code.
"""
import math

import numpy as np
import pytest

from pvkit import (CashFlow, DensityPiece, DomainError, FlatCurve, SpotGridCurve,
                   SvenssonCurve, default_tolerance, price, quadrature)
from pvkit.sampling import random_cashflow, random_curve

mp = pytest.importorskip("mpmath")

CASES = 150
HORIZON = 30.0


def _sweep():
    rng = np.random.default_rng(7)
    return [(random_curve(rng, horizon=HORIZON), random_cashflow(rng, horizon=HORIZON))
            for _ in range(CASES)]


def _oracle_discount(curve):
    """mpmath P(t) for a curve, and the times where it has kinks."""
    if isinstance(curve, FlatCurve):
        base = 1 + mp.mpf(curve.rate)
        return (lambda t: base ** (-t)), ()
    if isinstance(curve, SpotGridCurve):
        knots = [(mp.mpf(t), mp.mpf(p)) for t, p in curve.knots]
        (ta, pa), (tb, pb) = knots[-2], knots[-1]
        tail = (mp.log(pa) - mp.log(pb)) / (tb - ta)

        def grid(t):
            if t >= tb:
                return pb * mp.exp(-tail * (t - tb))
            k = max(i for i, (tk, _) in enumerate(knots) if tk <= t)
            (t0, p0), (t1, p1) = knots[k], knots[k + 1]
            return p0 * (p1 / p0) ** ((t - t0) / (t1 - t0))
        return grid, tuple(t for t, _ in curve.knots[1:])
    assert isinstance(curve, SvenssonCurve)
    b0, b1, b2, b3, tau1, tau2 = (mp.mpf(v) for v in (
        curve.beta0, curve.beta1, curve.beta2, curve.beta3, curve.tau1, curve.tau2))

    def h1(x):
        return -mp.expm1(-x) / x

    def svensson(t):
        x1, x2 = t / tau1, t / tau2
        y = b0 + b1 * h1(x1) + b2 * (h1(x1) - mp.exp(-x1)) + b3 * (h1(x2) - mp.exp(-x2))
        return mp.exp(-t * y)
    return svensson, ()


def _oracle_price(curve, flow):
    """The flow's price, and a bound on the roundoff of computing it in floats.

    Atoms and density values are summed and evaluated in floating point
    (Horner on each piece's coefficients, in powers of ``t - origin``), so
    a price is exact only to about ``16 eps`` times the integral of
    ``sum_k |c_k| |t - origin|^k P(t)`` plus
    the sum of ``|amount P(t)|``; the brackets do not yet cover that
    roundoff.
    """
    disc, kinks = _oracle_discount(curve)
    terms = [mp.mpf(a.amount) * disc(mp.mpf(a.time)) for a in flow.atoms]
    total = mp.fsum(terms)
    size = mp.fsum(abs(x) for x in terms)
    for p in flow.pieces:
        cuts = [mp.mpf(c) for c in
                [p.start] + [k for k in kinks if p.start < k < p.end] + [p.end]]
        coeffs = [mp.mpf(c) for c in reversed(p.coeffs)]
        sizes = [abs(c) for c in coeffs]
        o = mp.mpf(p.origin)
        total += mp.quad(lambda t: mp.polyval(coeffs, t - o) * disc(t), cuts)
        size += mp.quad(lambda t: mp.polyval(sizes, abs(t - o)) * disc(t), cuts)
    return total, 16 * 2.0 ** -52 * float(size)


def test_sweep_brackets_contain_high_precision_values():
    cases = _sweep()
    for curve, flow in cases:
        res = price(curve, flow)  # default tolerance: no case is refused
        assert res.upper - res.lower <= default_tolerance(flow)
    with mp.workdps(30):
        for i, (curve, flow) in enumerate(cases):
            exact, slack = _oracle_price(curve, flow)
            for tol in (1e-6, 1e-10):
                try:
                    res = price(curve, flow, tol)
                except DomainError:
                    continue  # below this flow's noise floor
                assert res.upper - res.lower <= tol
                assert res.lower - slack <= exact <= res.upper + slack, (i, tol)


def test_item_too_narrow_to_halve_stays_in_the_partition():
    # [1, 1 + ulp) has no float midpoint: once it is among the widest items
    # it is set aside with its enclosure, and the rest still refine to tol
    curve = FlatCurve(0.03)
    one_ulp = math.nextafter(1.0, 2.0)
    flow = CashFlow(pieces=(DensityPiece(1.0, one_ulp, (1e18,)),
                            DensityPiece(2.0, 30.0, (1.0, 0.3, -0.01))))
    br, (a, b, _, lower, upper) = quadrature.enclose(
        curve.discount_many, quadrature.prepare(flow._units, curve.knot_times()), 1e-12)
    assert br.upper - br.lower <= 1e-12
    assert ((a == 1.0) & (b == one_ulp)).sum() == 1
    # the partition hands back every item's enclosure, the narrow one's too,
    # and they sum to the bracket
    assert (br.lower, br.upper) == (math.fsum(lower.tolist()), math.fsum(upper.tolist()))
    with mp.workdps(30):
        exact, slack = _oracle_price(curve, flow)
    assert br.lower - slack <= exact <= br.upper + slack
