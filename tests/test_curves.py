"""Discount curve families and the rate identities they share.

Frozen reference values were computed independently (closed forms, or a
separately-coded midpoint refinement where noted in the repo notes).
"""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pvkit import (
    DomainError,
    FlatCurve,
    ScaledCurve,
    SpotGridCurve,
    SvenssonCurve,
    forward_discount,
    forward_rate,
    forward_rate_composition_check,
    spot_rate,
)
from pvkit.sampling import CURVE_FAMILIES, random_curve

seeds = st.integers(min_value=0, max_value=2**32 - 1)


# --- flat ------------------------------------------------------------------


def test_flat_discount_oracle():
    c = FlatCurve(0.05)
    assert c.discount(0.0) == 1.0
    assert c.discount(1.0) == pytest.approx(0.9523809523809523, rel=1e-15)
    assert c.discount(2.0) == pytest.approx(1.0 / 1.1025, rel=1e-15)


def test_flat_negative_rate_ok_but_floor_rejected():
    c = FlatCurve(-0.01)
    assert c.discount(1.0) > 1.0
    with pytest.raises(DomainError):
        FlatCurve(-1.0)


def test_flat_spot_and_forward_recover_rate():
    c = FlatCurve(0.05)
    assert spot_rate(c, 3.7) == pytest.approx(0.05, rel=1e-13)
    assert forward_rate(c, 1.2, 6.4) == pytest.approx(0.05, rel=1e-13)


# --- spot grid ---------------------------------------------------------------


def test_grid_exact_at_knots_loglinear_between():
    c = SpotGridCurve(((0.0, 1.0), (2.0, 0.9), (5.0, 0.7)))
    assert c.discount(2.0) == 0.9
    assert c.discount(5.0) == 0.7
    # geometric midpoint: sqrt(1 * 0.9)
    assert c.discount(1.0) == pytest.approx(0.9486832980505138, rel=1e-15)


def test_grid_implied_spot_rate_oracle():
    # P(2) = 0.9  =>  y = 0.9^(-1/2) - 1
    c = SpotGridCurve(((0.0, 1.0), (2.0, 0.9)))
    assert spot_rate(c, 2.0) == pytest.approx(0.05409255338945984, rel=1e-14)


def test_grid_tail_extends_last_forward():
    c = SpotGridCurve(((0.0, 1.0), (1.0, 0.97), (2.0, 0.93)))
    f12 = 0.97 / 0.93 - 1.0
    assert forward_rate(c, 1.0, 2.0) == pytest.approx(f12, rel=1e-14)
    # beyond the last knot the same one-period forward keeps compounding
    assert c.discount(3.0) == pytest.approx(0.93 * 0.93 / 0.97, rel=1e-13)


def test_grid_validation():
    with pytest.raises(DomainError):
        SpotGridCurve(((0.0, 0.99), (1.0, 0.9)))  # must start at (0, 1)
    with pytest.raises(DomainError):
        SpotGridCurve(((0.0, 1.0), (1.0, -0.5)))
    with pytest.raises(DomainError):
        SpotGridCurve(((0.0, 1.0), (1.0, 0.9), (1.0, 0.8)))


# --- svensson ----------------------------------------------------------------


def test_svensson_short_and_long_limits():
    c = SvenssonCurve(beta0=0.04, beta1=-0.02, beta2=0.03, beta3=0.01,
                      tau1=2.0, tau2=7.0)
    assert c.discount(0.0) == 1.0
    # instantaneous yield tends to beta0 + beta1 at t -> 0
    assert c.yield_at(1e-9) == pytest.approx(0.02, abs=1e-9)
    # long end tends to beta0
    assert c.yield_at(5000.0) == pytest.approx(0.04, rel=1e-3)


def test_svensson_yield_formula_oracle():
    c = SvenssonCurve(beta0=0.03, beta1=-0.01, beta2=0.02, beta3=0.015,
                      tau1=1.5, tau2=6.0)
    t = 2.5
    x1, x2 = t / 1.5, t / 6.0
    h1 = -math.expm1(-x1) / x1
    expected = (0.03 - 0.01 * h1
                + 0.02 * (h1 - math.exp(-x1))
                + 0.015 * (-math.expm1(-x2) / x2 - math.exp(-x2)))
    assert c.yield_at(t) == pytest.approx(expected, rel=1e-15)
    assert c.discount(t) == pytest.approx(math.exp(-t * expected), rel=1e-15)


def test_svensson_yields_match_the_masked_hump_bit_for_bit():
    # the hump (1 - exp(-x)) / x as expm1(n) / n at n = -x, with the least
    # subnormal standing in for n = 0, against np.divide masked at x = 0
    def masked(c, ts):
        def hump(x):
            return np.divide(-np.expm1(-x), x, out=np.ones_like(x), where=x != 0.0)
        x1, x2 = ts / c.tau1, ts / c.tau2
        h1 = hump(x1)
        return (c.beta0 + c.beta1 * h1 + c.beta2 * (h1 - np.exp(-x1))
                + c.beta3 * (hump(x2) - np.exp(-x2)))

    rng = np.random.default_rng(19)
    ts = np.concatenate((rng.uniform(0.0, 100.0, 50_000), 10.0 ** rng.uniform(-320.0, 2.0, 50_000),
                         [0.0, -0.0, 5e-324, 1e-300, 1e-8]))
    for c in (SvenssonCurve(0.03, -0.01, 0.02, 0.015, tau1=1.5, tau2=6.0),
              SvenssonCurve(0.04, 0.02, -0.03, 0.01, tau1=1e-3, tau2=1e3),
              SvenssonCurve(0.01, -0.02, 0.05, -0.04, tau1=30.0, tau2=0.25)):
        assert c._yields(ts).tobytes() == masked(c, ts).tobytes()


def test_svensson_rejects_nonpositive_tau_and_negative_discounts():
    with pytest.raises(DomainError):
        SvenssonCurve(0.03, 0.0, 0.0, 0.0, tau1=0.0, tau2=1.0)
    with pytest.raises(DomainError):
        # yields so negative the discount factor explodes upward is fine,
        # but a curve whose discount hits zero region must be rejected:
        # beta0 << 0 makes P(t) -> huge, still positive; use NaN-free check
        SvenssonCurve(math.inf, 0.0, 0.0, 0.0, tau1=1.0, tau2=2.0)


# --- scaled (dual-functional ingredient) -------------------------------------


def test_scaled_curve_breaks_unit_price_at_zero():
    c = ScaledCurve(FlatCurve(0.05), 2.0)
    assert c.discount(0.0) == 2.0
    assert c.discount(1.0) == pytest.approx(2.0 / 1.05, rel=1e-15)
    with pytest.raises(DomainError):
        ScaledCurve(FlatCurve(0.05), 0.0)


# --- shared rate identities ---------------------------------------------------


def test_forward_rate_definition():
    c = SpotGridCurve(((0.0, 1.0), (1.0, 0.97), (2.0, 0.93)))
    s, t = 1.0, 2.0
    assert forward_rate(c, s, t) == pytest.approx(
        (c.discount(s) / c.discount(t)) ** (1.0 / (t - s)) - 1.0, rel=1e-15)
    assert forward_rate(c, 1.5, 1.5) == 0.0


def test_forward_discount_ratio():
    c = FlatCurve(0.03)
    assert forward_discount(c, 2.0, 5.0) == pytest.approx(
        c.discount(5.0) / c.discount(2.0), rel=1e-15)


def test_forward_rate_needs_s_at_most_t():
    with pytest.raises(DomainError, match=r"^forward rate needs 0 <= s <= t, got s=2.0, t=1.0$"):
        forward_rate(FlatCurve(0.05), 2.0, 1.0)


@pytest.mark.parametrize("r, s, t", [(-1.0, 1.0, 1.0), (0.0, -0.5, 1.0), (0.0, 1.0, -0.5)])
def test_composition_check_needs_nonnegative_arguments(r, s, t):
    with pytest.raises(DomainError, match=r"^composition check needs r, s, t >= 0$"):
        forward_rate_composition_check(FlatCurve(0.05), r, s, t)


def test_spot_rate_needs_positive_time():
    with pytest.raises(DomainError):
        spot_rate(FlatCurve(0.02), 0.0)


@given(seeds)
def test_spot_equals_forward_from_zero(seed):
    rng = np.random.default_rng(seed)
    curve = random_curve(rng)
    t = float(rng.uniform(0.05, min(curve.horizon, 40.0)))
    assert spot_rate(curve, t) == forward_rate(curve, 0.0, t)


@given(seeds)
def test_forward_rate_composition(seed):
    rng = np.random.default_rng(seed)
    curve = random_curve(rng)
    r, s, t = np.sort(rng.uniform(0.0, min(curve.horizon, 40.0), size=3))
    if not (r < s < t):
        return
    assert forward_rate_composition_check(curve, r, s, t) < 1e-12


@given(seeds)
def test_discount_positive_and_one_at_zero(seed):
    rng = np.random.default_rng(seed)
    curve = random_curve(rng)
    assert curve.discount(0.0) == 1.0
    for u in np.linspace(0.0, min(curve.horizon, 50.0), 23):
        assert curve.discount(float(u)) > 0.0


def test_every_family_is_sampled():
    rng = np.random.default_rng(0)
    seen = {type(random_curve(rng)).__name__ for _ in range(60)}
    assert seen == {"FlatCurve", "SpotGridCurve", "SvenssonCurve"}
    assert set(CURVE_FAMILIES) == {"flat", "spot_grid", "svensson"}


def test_random_curve_refuses_an_unknown_family():
    with pytest.raises(ValueError, match="unknown curve family 'nope'"):
        random_curve(np.random.default_rng(0), "nope")


def test_horizon_is_declared_and_positive():
    assert FlatCurve(0.05).horizon == 100.0
    assert FlatCurve(0.05, horizon=10.0).horizon == 10.0
    with pytest.raises(DomainError):
        FlatCurve(0.05, horizon=0.0)


# --- array evaluation ----------------------------------------------------------


def _close_ulps(many, scalar, ulps):
    return all(abs(m - s) <= ulps * math.ulp(s) for m, s in zip(many, scalar))


def _grid_closed_form(knots, t):
    # log-linear between the knots, the last segment's forward rate after
    # the last knot
    (ta, pa), (tb, pb) = knots[-2], knots[-1]
    if t >= tb:
        return pb * math.exp(-(math.log(pa) - math.log(pb)) / (tb - ta) * (t - tb))
    for (t0, p0), (t1, p1) in zip(knots, knots[1:]):
        if t0 <= t < t1:
            return p0 * (p1 / p0) ** ((t - t0) / (t1 - t0))


def _svensson_closed_form(t):
    # the formula of test_svensson_yield_formula_oracle, h1 -> 1 at t = 0
    def h1(x):
        return -math.expm1(-x) / x if x else 1.0
    x1, x2 = t / 1.5, t / 6.0
    y = (0.03 - 0.01 * h1(x1)
         + 0.02 * (h1(x1) - math.exp(-x1))
         + 0.015 * (h1(x2) - math.exp(-x2)))
    return math.exp(-t * y)


def test_discount_many_matches_discount():
    knots = ((0.0, 1.0), (1.0, 0.97), (2.5, 0.92), (7.0, 0.74))
    grid = SpotGridCurve(knots, horizon=30.0)
    curves = [
        (FlatCurve(0.05, horizon=30.0), lambda t: 1.05 ** -t),
        (FlatCurve(-0.004, horizon=30.0), lambda t: 0.996 ** -t),
        (grid, lambda t: _grid_closed_form(knots, t)),
        (SvenssonCurve(0.03, -0.01, 0.02, 0.015, tau1=1.5, tau2=6.0, horizon=30.0),
         _svensson_closed_form),
        (ScaledCurve(grid, 2.0), lambda t: 2.0 * _grid_closed_form(knots, t)),
    ]
    # t = 0, every spot-grid knot, between and past the last knot, the horizon
    ts = [0.0, 0.3, 1.0, 1.7, 2.5, 4.0, 7.0, 7.5, 12.25, 30.0]
    for curve, closed_form in curves:
        many = curve.discount_many(np.array(ts))
        assert many.dtype == np.float64 and many.shape == (len(ts),)
        assert _close_ulps(many.tolist(), [closed_form(t) for t in ts], 4), curve
        assert [curve.discount(t) for t in ts] == many.tolist(), curve
    scaled = curves[-1][0]
    assert (scaled.discount_many(np.array(ts)) == 2.0 * grid.discount_many(np.array(ts))).all()
    # a grid with only the origin knot is flat at 1
    assert SpotGridCurve(((0.0, 1.0),)).discount_many(np.array(ts)).tolist() == [1.0] * len(ts)


def test_discount_many_rejects_negative_times():
    for curve in (FlatCurve(0.05), SpotGridCurve(((0.0, 1.0), (2.0, 0.9))),
                  SvenssonCurve(0.03, 0.0, 0.0, 0.0, tau1=1.0, tau2=2.0),
                  ScaledCurve(FlatCurve(0.05), 2.0)):
        for bad in (-0.5, math.nan):
            with pytest.raises(DomainError):
                curve.discount_many(np.array([1.0, bad, 2.0]))
            with pytest.raises(DomainError):
                curve.discount(bad)
    with pytest.raises(DomainError):
        SvenssonCurve(0.03, 0.0, 0.0, 0.0, tau1=1.0, tau2=2.0).yield_at(math.nan)


def test_positivity_validators_keep_their_messages():
    from pvkit import DualCurrencyMarket, DualFunctional

    with pytest.raises(DomainError, match=r"curve is not positive and bounded on "
                                          r"\[0, 200\.0\]: P\(103\.125\) = inf"):
        FlatCurve(-0.999, horizon=200.0)
    with pytest.raises(DomainError,
                       match=r"forward FX rate is not positive and bounded at t=78\.125"):
        DualCurrencyMarket(FlatCurve(99.0), FlatCurve(-0.99), 1.0)
    with pytest.raises(DomainError, match=r"density_weight must be positive and "
                                          r"bounded, got inf at t="):
        DualFunctional(FlatCurve(0.05), ScaledCurve(FlatCurve(-0.99), 1e300))
