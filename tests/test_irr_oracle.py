"""``irr`` against roots computed without pvkit.

A zero-coupon payment of A at T bought at time s for ``target`` has the
closed-form rate ``(A / target)^(1/(T-s)) - 1``.  A unit density on
[a, b) is worth ``((1+i)^-(a-s) - (1+i)^-(b-s)) / ln(1+i)`` at time s at
flat rate i; its root is found by mpmath's ``findroot`` at 30 digits.
Polynomial densities with coupons are valued by mpmath's ``quad`` at 30
digits.
``irr`` stops once the present value is certified on both sides of the
target at two rates at most ``tol`` apart, so the returned rate lies
within ``tol`` of the root.
"""
import numpy as np
import pytest

from pvkit import DomainError, density, dirac, irr, pricing

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


def _flow_value(flow, i, s):
    """The flow's value at time s at flat rate i, atoms and densities."""
    value = mp.mpf(0)
    for atom in flow.atoms:
        value += mp.mpf(atom.amount) * (1 + i) ** (s - mp.mpf(atom.time))
    for piece in flow.pieces:
        coeffs = [mp.mpf(c) for c in reversed(piece.coeffs)]
        value += mp.quad(lambda t: mp.polyval(coeffs, t - piece.origin) * (1 + i) ** (s - t),
                         [piece.start, piece.end])
    return value


def _assert_contract(res, root, target, tol=TOL):
    assert abs(res.rate - root) <= tol, (res, root)
    assert abs(res.residual) <= tol * (1.0 + target)


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


def _coupons(times, amount):
    return sum((dirac(float(t), amount) for t in times[1:]), dirac(float(times[0]), amount))


# (name, flow, purchase time, rate): nonnegative polynomial densities with
# coupons; four densities start at the purchase time, where the item that
# starts there bounds nothing past its own bracket
POLYNOMIAL_FLOWS = [
    ("coupons on [0, 10)", density(0.0, 10.0, (1.0, 0.2, -0.01)) + _coupons(range(1, 11), 0.05)
     + dirac(10.0), 0.0, 0.05),
    ("from purchase 1.5", density(1.5, 6.5, (0.5, 0.0, 0.03)) + dirac(2.5, 0.1) + dirac(6.5),
     1.5, 0.07),
    ("quadratic on [3, 8)", density(3.0, 8.0, (2.0, -0.5, 0.05)) + dirac(8.0), 0.0, 0.12),
    ("late, purchase 4", density(10.0, 25.0, (0.1, 0.01)) + _coupons(range(5, 30, 5), 0.2),
     4.0, 0.03),
    ("negative rate", density(0.0, 5.0, (1.0, -0.3, 0.05)) + dirac(5.0, 2.0), 0.0, -0.2),
    ("high rate", density(0.5, 4.0, (0.3, 0.3, 0.0, 0.01)) + dirac(4.0, 3.0), 0.25, 1.5),
    ("cubic, purchase 2", density(2.0, 12.0, (1.0, 0.0, 0.0, 0.001)) + dirac(12.0, 0.5),
     2.0, 0.06),
    ("two pieces", density(1.0, 3.0, (0.4,)) + density(5.0, 9.0, (0.1, 0.05)) + dirac(9.0),
     0.5, 0.09),
]


def _polynomial_target(flow, s, rate):
    with mp.workdps(30):
        return float(_flow_value(flow, mp.mpf(rate), mp.mpf(s)))


@pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12])
@pytest.mark.parametrize("name, flow, s, rate", POLYNOMIAL_FLOWS,
                         ids=[case[0] for case in POLYNOMIAL_FLOWS])
def test_polynomial_densities_with_coupons_match_quad(name, flow, s, rate, tol):
    target = _polynomial_target(flow, s, rate)
    res = irr(flow, target, purchase_time=s, tol=tol)
    with mp.workdps(30):
        root = float(mp.findroot(lambda i: _flow_value(flow, i, mp.mpf(s)) - target,
                                 mp.mpf(res.rate)))
    _assert_contract(res, root, target, tol)


def test_first_certified_steps_land_on_both_sides(monkeypatch):
    # the item bound certifies the side opposite the first certified step,
    # below the root or above it: the cases above exercise both
    brackets = []
    enclose = pricing.enclose

    def recorded(*args):
        bracket, part = enclose(*args)
        brackets.append(bracket)
        return bracket, part

    monkeypatch.setattr(pricing, "enclose", recorded)
    sides = set()
    for name, flow, s, rate in POLYNOMIAL_FLOWS:
        target = _polynomial_target(flow, s, rate)
        for tol in (1e-8, 1e-10, 1e-12):
            brackets.clear()
            irr(flow, target, purchase_time=s, tol=tol)
            sides.add("below" if brackets[0].lower >= target else
                      "above" if brackets[0].upper <= target else "undecided")
    assert {"below", "above"} <= sides


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
