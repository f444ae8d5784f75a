"""``irr`` against roots computed without pvkit.

A zero-coupon payment of A at T bought at time s for ``target`` has the
closed-form rate ``(A / target)^(1/(T-s)) - 1``.  A unit density on
[a, b) is worth ``((1+i)^-(a-s) - (1+i)^-(b-s)) / ln(1+i)`` at time s at
flat rate i; its root is found by mpmath's ``findroot`` at 30 digits.  ``irr`` stops once certified price
brackets at two rates at most ``tol`` apart straddle the target, so the
returned rate lies within ``tol`` of the root.
"""
import numpy as np
import pytest

from pvkit import DomainError, density, dirac, irr

mp = pytest.importorskip("mpmath")

TOL = 1e-10
ANNUITY_10 = sum((dirac(float(k)) for k in range(2, 11)), dirac(1.0))


# purchase time of the shifted cases: the flow's payments move later by
# PURCHASE and irr values them at that time
PURCHASE = 2.75


def _zero_coupon_root(amount, t, target, s=0.0):
    with mp.workdps(30):
        return float((mp.mpf(amount) / mp.mpf(target)) ** (1 / (mp.mpf(t) - mp.mpf(s))) - 1)


def _density_value(i, a, b):
    lam = mp.log1p(i)
    return (mp.exp(-lam * a) - mp.exp(-lam * b)) / lam


def _density_root(a, b, target, start, s=0.0):
    with mp.workdps(30):
        a, b, target = mp.mpf(a) - mp.mpf(s), mp.mpf(b) - mp.mpf(s), mp.mpf(target)
        return float(mp.findroot(lambda i: _density_value(i, a, b) - target, mp.mpf(start)))


def _density_target(rate, a, b):
    with mp.workdps(30):
        return float(_density_value(mp.mpf(rate), mp.mpf(a), mp.mpf(b)))


def _assert_contract(res, root, target):
    assert abs(res.rate - root) <= TOL, (res, root)
    assert abs(res.residual) <= TOL * (1.0 + target)


@pytest.mark.parametrize("amount, t, target", [
    (1.0, 1.0, 0.95), (1.0, 10.0, 0.6), (100.0, 30.0, 12.5), (2.5, 0.5, 2.6),
    (1.0, 7.0, 3.0), (1e6, 20.0, 1.0), (1e-6, 3.0, 9e-7),
])
def test_zero_coupon_closed_form(amount, t, target):
    res = irr(dirac(t, amount), target, tol=TOL)
    _assert_contract(res, _zero_coupon_root(amount, t, target), target)
    late = PURCHASE + t
    res = irr(dirac(late, amount), target, purchase_time=PURCHASE, tol=TOL)
    _assert_contract(res, _zero_coupon_root(amount, late, target, PURCHASE), target)


@pytest.mark.parametrize("a, b, target", [
    (0.0, 10.0, 7.5), (0.0, 10.0, 11.0), (2.0, 2.5, 0.4), (5.0, 30.0, 2.0),
    (0.0, 0.25, 0.2499), (10.0, 11.0, 0.1),
])
def test_constant_density_matches_findroot(a, b, target):
    res = irr(density(a, b), target, tol=TOL)
    _assert_contract(res, _density_root(a, b, target, res.rate), target)
    a, b = a + PURCHASE, b + PURCHASE
    res = irr(density(a, b), target, purchase_time=PURCHASE, tol=TOL)
    _assert_contract(res, _density_root(a, b, target, res.rate, PURCHASE), target)


def test_seeded_rates_across_the_window():
    rng = np.random.default_rng(17)
    for _ in range(40):
        rate = float(rng.uniform(-0.9, 9.0))
        if rng.random() < 0.5:
            t, amount = float(rng.uniform(0.5, 20.0)), float(rng.uniform(0.1, 50.0))
            target = amount * (1.0 + rate) ** -t
            res = irr(dirac(t, amount), target, tol=TOL)
            root = _zero_coupon_root(amount, t, target)
        else:
            a = float(rng.uniform(0.0, 15.0))
            b = a + float(rng.uniform(0.1, 5.0))
            target = _density_target(rate, a, b)
            res = irr(density(a, b), target, tol=TOL)
            root = _density_root(a, b, target, rate)
        _assert_contract(res, root, target)
        assert res.rate == pytest.approx(rate, rel=1e-6, abs=1e-8)


def test_no_rate_in_the_window_raises():
    # a unit density on [1, 2) is worth between 1/11-ish and about 3e4
    # over (-0.999, 10]; targets beyond either end have no root
    flow = density(1.0, 2.0)
    low = _density_target(10.0, 1.0, 2.0)
    with pytest.raises(DomainError, match="no internal rate"):
        irr(flow, 0.5 * low)
    with pytest.raises(DomainError, match="no internal rate"):
        irr(flow, 1e9)
    assert irr(flow, 2.0 * low).rate < 10.0


def test_constant_value_returns_rate_zero_or_raises():
    res = irr(dirac(0.0, 3.0) + dirac(0.0, 1.5), 4.5)
    assert (res.rate, res.residual) == (0.0, 0.0)
    res = irr(dirac(0.0, 3.0), 3.0 + 1e-12)
    assert res.rate == 0.0 and res.residual == pytest.approx(-1e-12, abs=1e-15)
    with pytest.raises(DomainError, match="does not depend on the rate"):
        irr(dirac(0.0, 3.0), 3.5)


def test_annuity_takes_few_rate_steps():
    # the annual annuity at 5% takes 4 Newton steps, where a secant and
    # bisection search took 16
    target = float(sum(mp.mpf(1.05) ** -k for k in range(1, 11)))
    res = irr(ANNUITY_10, target, tol=TOL)
    assert res.iterations <= 5
    _assert_contract(res, 0.05, target)
