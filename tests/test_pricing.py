"""Present values, forward prices, yields.

Reference values are closed forms: a unit annuity over n years at flat
rate i is worth (1 - (1+i)^-n)/i, and a unit-density payment stream over
[0, T) is worth (1 - (1+i)^-T)/ln(1+i).
"""
import importlib.util
import math
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pvkit import (
    DensityPiece,
    DomainError,
    DualCashFlow,
    DualCurrencyMarket,
    FlatCurve,
    SpotGridCurve,
    default_tolerance,
    density,
    dirac,
    forward_discount,
    forward_price,
    irr,
    is_nonnegative,
    jordan,
    lebesgue,
    price,
    price_dual,
    total_mass,
    total_variation,
    translate,
    YieldResult,
    yield_bound_check,
)
from pvkit import poly, pricing, quadrature
from pvkit.dual_functional import double_density, dual_price
from pvkit.fx import default_dual_tolerance
from pvkit.measures import CashFlow
from pvkit.sampling import random_cashflow, random_curve

seeds = st.integers(min_value=0, max_value=2**32 - 1)

ANNUITY_10 = sum((dirac(float(k)) for k in range(2, 11)), dirac(1.0))


def test_discrete_annuity_closed_form():
    res = price(FlatCurve(0.05), ANNUITY_10)
    expected = (1.0 - 1.05 ** -10) / 0.05  # 7.721734929184818
    assert res.value == pytest.approx(expected, rel=1e-14)
    assert res.lower == res.upper == res.value  # atoms price exactly
    assert res.density_part == 0.0


def test_continuous_annuity_bracket():
    res = price(FlatCurve(0.05), density(0.0, 10.0, (1.0,)), tol=1e-10)
    expected = (1.0 - 1.05 ** -10) / math.log(1.05)  # 7.91320859504571
    assert res.lower <= expected <= res.upper
    assert res.upper - res.lower <= 1e-10
    assert res.atom_part == 0.0


def test_mixed_flow_parts_sum():
    flow = dirac(1.0, 2.0) + density(0.0, 3.0, (0.5,))
    res = price(FlatCurve(0.03), flow, tol=1e-11)
    assert res.value == pytest.approx(res.atom_part + res.density_part,
                                      abs=1e-11)
    assert res.atom_part == pytest.approx(2.0 / 1.03, rel=1e-14)


def test_default_tolerance_scales_with_variation():
    small = dirac(1.0, 1.0)
    big = dirac(1.0, 1e6)
    assert default_tolerance(big) > default_tolerance(small)
    assert default_tolerance(small) == pytest.approx(2e-10, rel=1e-6)


def test_support_beyond_horizon_rejected():
    with pytest.raises(DomainError):
        price(FlatCurve(0.05, horizon=5.0), dirac(6.0, 1.0))
    with pytest.raises(DomainError):
        price(FlatCurve(0.05), dirac(1.0), tol=0.0)


def test_null_flow_prices_to_zero():
    res = price(FlatCurve(0.05), CashFlow())
    assert res.value == res.lower == res.upper == 0.0


def test_price_adds_over_the_lebesgue_parts():
    # the functional is additive: a flow's price is the sum, bit for bit, of
    # its singular and absolutely continuous parts' prices at the same tol
    for seed in range(60):
        rng = np.random.default_rng(seed)
        curve, flow = random_curve(rng), random_cashflow(rng)
        tol = default_tolerance(flow)
        parts = lebesgue(flow)
        assert (price(curve, flow, tol)
                == price(curve, parts.singular, tol)
                + price(curve, parts.absolutely_continuous, tol)), seed


def test_sums_past_the_float_range_are_domain_errors():
    # math.fsum's OverflowError used to escape each of these
    big = dirac(1.0, 1.5e308) + dirac(2.0, 1.5e308)
    for call in (lambda: total_variation(big), lambda: total_mass(big),
                 lambda: total_variation(dirac(1.0, 1.5e308) - dirac(2.0, 1.5e308)),
                 lambda: price(FlatCurve(0.01), big),
                 lambda: price(FlatCurve(0.01), big, tol=1.0),
                 lambda: irr(big, 1e308)):
        with pytest.raises(DomainError, match="the flow's sum exceeds the float range"):
            call()
    # a density whose integral overflows raises without a numpy warning
    with pytest.raises(DomainError, match="the flow's sum exceeds the float range"):
        price(FlatCurve(0.01), density(0.0, 1.0, (1.7e308,)) + density(1.0, 2.0, (1.7e308,)),
              tol=1.0)
    # the items' sums raised math.fsum's OverflowError; an atom discounted
    # past the float range priced at Bracket(inf, inf, inf, 0.0) with a
    # numpy warning, and two of opposite signs raised fsum's ValueError
    stream = CashFlow(pieces=tuple(DensityPiece(k, k + 1, ((0.45 + 0.01 * k) * 1e308,))
                                   for k in range(5)))
    for curve, flow, tol in ((FlatCurve(0.0001), stream, 1e300),
                             (FlatCurve(-0.5), dirac(10.0, 1e306), 1.0),
                             (FlatCurve(-0.5), dirac(10.0, 1e306) - dirac(11.0, 1e306), 1.0)):
        with pytest.raises(DomainError, match="the flow's sum exceeds the float range"):
            price(curve, flow, tol)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_irr_fixed_node_sums_past_the_float_range_raise_no_warning():
    # each weight times its node passes the float range: the first moment
    # and every step's moment warned "overflow encountered in multiply"
    assert irr(dirac(50.0, 1e307) + dirac(60.0, 1e307), 1e306) == YieldResult(
        0.05669967955327593, -2.4110218714251963e+295, 37)


@pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan])
def test_price_refuses_a_tolerance_that_is_not_positive(tol):
    with pytest.raises(DomainError, match="tolerance must be positive"):
        price(FlatCurve(0.05), density(0.0, 1.0), tol)


def test_irr_reads_present_values_past_the_float_range_as_infinite():
    # two atoms worth 0.9e308 bought for 1.7e308: steps below the root sum
    # past the float range, which used to escape from math.fsum; the root
    # solves 0.3 v**2 + 0.6 v = 1.7 for v = 1 / (1 + rate)
    res = irr(dirac(1.0, 0.6e308) + dirac(2.0, 0.3e308), 1.7e308)
    v = (math.sqrt(0.36 + 4.0 * 0.3 * 1.7) - 0.6) / 0.6
    assert res.rate == pytest.approx(1.0 / v - 1.0, abs=1e-10)


def test_a_density_whose_integral_fits_the_float_range_is_priced():
    # an item's GL8 sums were formed before its half-length scaled them, so
    # this density, worth 7.5e307, was refused; one worth 3e308 still is
    res = price(FlatCurve(0.0), density(0.0, 0.5, (1.5e308,)), tol=1e300)
    assert res.lower <= 7.5e307 <= res.upper
    with pytest.raises(DomainError, match="the flow's sum exceeds the float range"):
        price(FlatCurve(0.0), density(0.0, 2.0, (1.5e308,)), tol=1e300)


def test_irr_solves_a_density_worth_nearly_the_float_range():
    # at the root the flow is worth 1.7e308, and its density item's sums
    # used to overflow; the root, to 40 digits by mpmath, is
    # -0.31405837896713695...
    res = irr(density(1.0, 2.0, (0.6e308,)) + dirac(2.0, 0.3e308), 1.7e308)
    assert res.rate == pytest.approx(-0.31405837896713695, abs=1e-10)


# --- property suites --------------------------------------------------------


@given(seeds)
def test_linearity(seed):
    rng = np.random.default_rng(seed)
    curve = random_curve(rng, horizon=120.0)
    a = random_cashflow(rng)
    b = random_cashflow(rng)
    k = float(rng.uniform(-3.0, 3.0))
    lhs = price(curve, a + k * b).value
    rhs = price(curve, a).value + k * price(curve, b).value
    scale = 1.0 + total_variation(a) + abs(k) * total_variation(b)
    assert lhs == pytest.approx(rhs, abs=1e-9 * scale)


@given(seeds)
def test_strict_positivity(seed):
    rng = np.random.default_rng(seed)
    curve = random_curve(rng, horizon=120.0)
    flow = random_cashflow(rng, nonnegative=True)
    if flow.is_null:
        return
    res = price(curve, flow)
    assert res.lower > 0.0


@given(seeds)
def test_monotonicity_in_the_flow(seed):
    rng = np.random.default_rng(seed)
    curve = random_curve(rng, horizon=120.0)
    base = random_cashflow(rng)
    bump = random_cashflow(rng, nonnegative=True)
    lo = price(curve, base)
    hi = price(curve, base + bump)
    assert hi.value >= lo.value - 1e-9 * (1 + total_variation(base)
                                          + total_variation(bump))


@given(seeds)
def test_self_financing_round_trip(seed):
    # buying the flow for its price leaves a position worth zero
    rng = np.random.default_rng(seed)
    curve = random_curve(rng, horizon=120.0)
    flow = random_cashflow(rng)
    p = price(curve, flow).value
    hedged = flow - p * dirac(0.0, 1.0)
    res = price(curve, hedged)
    assert abs(res.value) <= 1e-9 * (1 + total_variation(flow) + abs(p))


@given(seeds)
def test_forward_price_consistency(seed):
    # value today of (forward price payable at t) equals value today of flow
    rng = np.random.default_rng(seed)
    curve = random_curve(rng, horizon=120.0)
    flow = random_cashflow(rng)
    at = float(rng.uniform(0.0, 10.0))
    tol = default_tolerance(flow)
    fwd = forward_price(curve, flow, at).value
    spot = price(curve, flow).value
    assert fwd * curve.discount(at) == pytest.approx(spot, abs=4 * tol)


def test_forward_price_at_zero_is_price():
    flow = dirac(2.0, 3.0) + density(0.0, 1.0, (1.0,))
    c = FlatCurve(0.04)
    assert forward_price(c, flow, 0.0).value == pytest.approx(
        price(c, flow).value, rel=1e-14)


def test_forward_price_uses_forward_discounts():
    c = SpotGridCurve(((0.0, 1.0), (1.0, 0.97), (2.0, 0.93)))
    res = forward_price(c, dirac(2.0, 1.0), 1.0)
    assert res.value == pytest.approx(forward_discount(c, 1.0, 2.0), rel=1e-14)


# --- internal rate of return -------------------------------------------------


def test_irr_recovers_flat_rate():
    target = price(FlatCurve(0.05), ANNUITY_10).value
    res = irr(ANNUITY_10, target)
    assert res.rate == pytest.approx(0.05, abs=1e-9)
    assert abs(res.residual) <= 1e-9


def test_irr_with_purchase_time_shift():
    # paying at t=2 for the annuity tail discounts from the purchase date
    tail = sum((dirac(float(k)) for k in range(4, 11)), dirac(3.0))
    target = forward_price(FlatCurve(0.07), tail, 2.0).value
    res = irr(tail, target, purchase_time=2.0)
    assert res.rate == pytest.approx(0.07, abs=1e-9)


def test_irr_of_a_density_about_another_origin():
    # the same density stored about t = 0 and, moved there by translate,
    # about t = 20: the same rate, reached by the same rate steps, whether
    # bought at 0 or at 15
    about_zero = density(20.0, 30.0, poly.taylor_shift((1.0, 0.25, -0.02), -20.0))
    about_twenty = translate(density(0.0, 10.0, (1.0, 0.25, -0.02)), 20.0)
    assert about_twenty.pieces[0].origin == 20.0
    for purchase in (0.0, 15.0):
        target = forward_price(FlatCurve(0.04), about_zero, purchase).value
        mine, theirs = (irr(f, target, purchase) for f in (about_twenty, about_zero))
        assert mine.rate == pytest.approx(0.04, abs=1e-9)
        assert mine.rate == pytest.approx(theirs.rate, abs=1e-10)
        assert mine.iterations == theirs.iterations


def test_irr_rejects_bad_inputs():
    with pytest.raises(DomainError):
        irr(dirac(1.0, -1.0), 1.0)  # signed flow
    with pytest.raises(DomainError):
        irr(dirac(1.0, 1.0), -0.5)  # negative price
    with pytest.raises(DomainError):
        irr(CashFlow(), 1.0)
    with pytest.raises(DomainError):
        irr(dirac(1.0, 1.0), 0.5, purchase_time=2.0)  # support before purchase
    for purchase_time in (-1.0, math.nan):
        with pytest.raises(DomainError, match="purchase time must be >= 0"):
            irr(dirac(1.0, 1.0), 0.9, purchase_time=purchase_time)
    for tol in (0.0, -1e-10):
        with pytest.raises(DomainError, match="tolerance must be positive"):
            irr(dirac(1.0, 1.0), 0.9, tol=tol)


def test_irr_rejects_a_non_finite_tolerance():
    # tol = inf stopped at once and returned the window's end 10.0 with
    # residual -7.58, though the root is near 0.064
    for tol in (math.inf, math.nan):
        with pytest.raises(DomainError, match="tolerance must be positive and finite"):
            irr(density(0.0, 10.0) + dirac(10.0), 8.0, tol=tol)


def test_irr_deep_discount_root():
    # a payment of 1 at t=1 bought for 2 implies the rate -0.5 exactly
    res = irr(dirac(1.0, 1.0), 2.0)
    assert res.rate == pytest.approx(-0.5, abs=1e-9)


def test_irr_no_rate_reaches_target():
    # PV of 1-at-1 spans (1/11, 1000] over the searchable rates; targets
    # outside that range have no root
    with pytest.raises(DomainError):
        irr(dirac(1.0, 1.0), 2000.0)
    with pytest.raises(DomainError):
        irr(dirac(1.0, 1.0), 0.05)


def test_irr_bisects_when_newton_steps_leave_the_bracket(monkeypatch):
    # predictions past both ends of the window: certified steps go to the
    # window's ends, and every later one bisects the certified bracket; for
    # atoms alone every step is certified, with a density the first steers
    for flow in (ANNUITY_10, density(0.0, 10.0) + dirac(10.0, 0.5)):
        target = price(FlatCurve(0.05), flow).value
        expected = irr(flow, target)
        calls = []  # the rate of every prediction

        def wild(rate, pv, moment, tgt):
            calls.append(rate)
            return 20.0 if len(calls) % 2 else -0.9999

        with monkeypatch.context() as patch:
            patch.setattr(pricing, "_newton_rate", wild)
            res = irr(flow, target)
        assert abs(res.rate - expected.rate) <= 1e-10
        assert abs(res.residual) <= 1e-10 * (1.0 + target)
        assert res.iterations > expected.iterations
        # calls[0] is the start's prediction, from rate 0; then one per step
        steps = calls[1:]
        ends = {pricing._IRR_HI, pricing._IRR_LO + 1e-9}
        last = max(k for k, rate in enumerate(steps) if rate in ends)
        assert ends <= set(steps[:last + 1]) and last + 1 < len(steps)
        for k in range(last + 1, len(steps)):
            below = max(r for r in steps[:k] if r < steps[k])
            above = min(r for r in steps[:k] if r > steps[k])
            assert steps[k] == 0.5 * (below + above)


def _irr_profile_cases():
    path = Path(__file__).resolve().parents[1] / "scripts" / "irr_profile.py"
    spec = importlib.util.spec_from_file_location("irr_profile", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.cases()


def test_irr_certifies_one_bracket_on_the_profile_cases(monkeypatch):
    # steering on fixed-node estimates leaves enclose to one rate next to
    # the root, and that enclosure's items bound PV just under tol away on
    # the other side; an atoms-only flow has exact sums and never encloses.
    # The layout cuts the partition before that enclosure, so it ends in its
    # first batch (density(0, 10) took a second one before the layout)
    calls, batches = [], []
    enclose, evaluate_items = pricing.enclose, quadrature._evaluate_items
    monkeypatch.setattr(pricing, "enclose", lambda *args: calls.append(args) or enclose(*args))
    monkeypatch.setattr(quadrature, "_evaluate_items",
                        lambda *args: batches.append(args) or evaluate_items(*args))
    for name, flow, rate in _irr_profile_cases():
        target = price(FlatCurve(rate), flow).value
        calls.clear()
        batches.clear()
        assert irr(flow, target).rate == pytest.approx(rate, abs=1e-9)
        assert len(calls) == (1 if flow.pieces else 0), name
        assert len(batches) == len(calls), name


def _laid_out(flow, rate, tol, purchase_time=0.0):
    """The prepared partition of ``flow`` and what ``_lay_out`` makes of it
    at ``rate`` and ``tol``, with the measure's rows."""
    times, amounts, rows, part = quadrature.prepare(flow._units, atoms=flow.atoms,
                                                    origin=purchase_time)
    weights = quadrature.fixed_nodes((times, amounts, rows, part))[1].tolist()
    return part, pricing._lay_out(part, weights[len(times):], rate, tol), rows


def _predicted_widths(part, rows, rate):
    """Each item's predicted sampled width at a flat ``rate``: 4 m (|lam|
    h)^7 max P / (2^6 7!) plus the roundoff allowance 4 R (1 + |lam| b) m
    max P, m the sum of the item's fixed-node weights."""
    a, b, _ = part
    weights = quadrature.fixed_nodes((np.array([]), np.array([]), rows, part))[1]
    mass = weights.reshape(len(a), -1).sum(axis=1)
    lam = abs(math.log1p(rate))
    top = mass * np.power(1.0 + rate, -(a if rate > 0.0 else b))
    return (4.0 * top * (lam * 0.5 * (b - a)) ** 7 / (2 ** 6 * math.factorial(7))
            + 4.0 * quadrature._ROUNDOFF * (1.0 + lam * b) * top)


def test_irr_layout_predicts_each_item_width():
    # seeded: rates in [-0.95, 9], one density of degree 0 to 8, nonnegative
    # (coefficients >= 0 about its start), 1e-3 to 30 long and starting up
    # to 5 after a purchase time in [0, 5], laid out for a tolerance from
    # 1e-13 to 1e-6 of its largest discounted mass
    rng = np.random.default_rng(27)
    cut = 0
    for case in range(400):
        rate = float(rng.uniform(-0.95, 9.0))
        length = float(10.0 ** rng.uniform(-3.0, math.log10(30.0)))
        coeffs = tuple(rng.uniform(0.0, 1.0, int(rng.integers(0, 9)) + 1).tolist())
        purchase = float(rng.uniform(0.0, 5.0))
        start = purchase + float(rng.uniform(0.0, 5.0))
        flow = CashFlow(pieces=(DensityPiece(start, start + length, coeffs, start),))
        scale = flow.pieces[0].mass() * max(1.0, (1.0 + rate) ** -(start + length - purchase))
        tol = scale * 10.0 ** rng.uniform(-13.0, -6.0)
        given, part, rows = _laid_out(flow, rate, tol, purchase)
        cut += part is not given
        a, b, unit = part
        items = quadrature._evaluate_items(lambda ts: np.power(1.0 + rate, -ts), a, b, rows[unit])
        width = items[:, 4] - items[:, 3]
        predicted = _predicted_widths(part, rows, rate)
        assert (width <= predicted).all(), case
        if part is not given:  # the one item cut: its children within tol
            assert math.fsum(predicted) <= tol, case
    assert 50 <= cut <= 350


def test_irr_layout_returns_the_partition_when_no_item_needs_a_cut():
    # a one-year item at 12% misses tol = 1e-11 by 1e-16 uncut
    given, part, _ = _laid_out(density(40.0, 41.0), 0.12, 1e-11)
    assert part is given


def test_irr_layout_leaves_items_past_the_depth_cap_to_enclose():
    # at 500%, [0, 1) needs 3 levels for 1e-10; [1, 30) would need 8 and is
    # left whole for enclose's rounds, alone as well as beside [0, 1)
    given, part, _ = _laid_out(density(0.0, 1.0, (2.0,)) + density(1.0, 30.0), 5.0, 1e-10)
    assert sorted(zip(*(x.tolist() for x in part))) == [
        (k / 8, (k + 1) / 8, 0) for k in range(8)] + [(1.0, 30.0, 1)]
    given, part, _ = _laid_out(density(1.0, 30.0), 5.0, 1e-10)
    assert part is given


def test_irr_layout_refuses_a_max_discount_past_the_float_range():
    # (1 + rate)^-150 overflows at rate -0.999, (|lam| h)^7 at h = 1e50, and
    # m (|lam| h)^7 for a mass of 2.4e301 at 900% over [0, 24)
    for flow, rate in ((density(149.0, 150.0), -0.999), (density(0.0, 1e50), 1e-9),
                       (density(0.0, 24.0, (1e300,)), 9.0)):
        given, part, _ = _laid_out(flow, rate, 1e-10)
        assert part is given


def test_irr_layout_refuses_a_tolerance_below_the_roundoff_allowance():
    # the allowance of density(0, 10) at 5% is 4e-15 (1 + 10 ln 1.05) 10 = 6e-14
    given, part, _ = _laid_out(density(0.0, 10.0), 0.05, 1e-14)
    assert part is given
    given, part, _ = _laid_out(density(0.0, 10.0), 0.05, 1e-12)
    assert part is not given


@pytest.mark.parametrize("lo, hi, target, rate, iterations", [
    (0.0, 30.0, 1e30, -0.9027812836392534, 6),
    (0.0, 20.0, 200.0, -0.1653539375942209, 5),
    (40.0, 41.0, 0.01, 0.12043971337163474, 3),
])
def test_irr_keeps_the_unusual_solves(lo, hi, target, rate, iterations):
    # near rate -1 an item needs more than _MAX_DEPTH levels and is left to
    # enclose's rounds; a one-year item needs no cut: rates and steps as
    # before the layout
    res = irr(density(lo, hi), target)
    assert (res.rate, res.iterations) == (rate, iterations)


def test_irr_encloses_again_where_the_item_bound_fails(monkeypatch):
    # density(0, 0.25) ends its enclosure as one item starting at the
    # purchase time, where e^(-d a) = 1 bounds nothing past the step's own
    # bracket, so the second side takes a second enclose
    flow = density(0.0, 0.25)
    target = price(FlatCurve(0.05), flow).value
    calls = []
    enclose = pricing.enclose

    def counted(fn, measure, tol):
        bracket, part = enclose(fn, measure, tol)
        calls.append(part)
        return bracket, part

    monkeypatch.setattr(pricing, "enclose", counted)
    res = irr(flow, target)
    assert abs(res.rate - 0.05) <= 1e-10
    assert [(p[0].tolist(), p[1].tolist()) for p in calls] == [([0.0], [0.25])] * 2


def test_irr_long_dated_flow_at_a_high_rate():
    # 1 at t = 700 is worth 1e-300 at about 168%; the discount factor at
    # rate 10 underflows to 0 beyond t = 310, which must not end the search
    res = irr(dirac(700.0, 1.0), 1e-300)
    assert res.rate == pytest.approx(math.expm1(300.0 * math.log(10.0) / 700.0), abs=1e-9)


def test_irr_target_beyond_every_value_is_a_domain_error():
    # value / target underflows to 0 on the first Newton step
    with pytest.raises(DomainError, match="no internal rate"):
        irr(dirac(1.0, 1e-300), 1e300)


def test_irr_steps_past_an_overflowing_value():
    # 1 at t = 1 and at t = 150 is worth 1e300 at 1 + rate = 1e-2; near the
    # window's low end (1 + rate)^-150 overflows, and that step's value is
    # infinite and its Newton update undefined
    res = irr(dirac(1.0) + dirac(150.0), 1e300)
    assert abs(res.rate + 0.99) <= 1e-10


def test_irr_bounds_nothing_from_an_overflowing_value():
    # the density analogue: the step at the window's low end overflows
    # before any enclosure, so it bounds no other rate from stale items;
    # root from 40-digit mpmath on the closed form of the two integrals
    res = irr(density(0.0, 1.0) + density(149.0, 150.0), 1e300)
    assert abs(res.rate + 0.9901020987372979658) <= 1e-10


def test_irr_names_the_rate_where_a_bracket_cannot_narrow():
    flow = density(0.0, 30.0, (1.0, 0.1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8))
    with pytest.raises(DomainError, match=r"irr tolerance not achievable at rate [0-9.]+: "):
        irr(flow, 5.0, tol=1e-16)


def test_irr_stops_at_its_step_cap(monkeypatch):
    monkeypatch.setattr(pricing, "_IRR_STEPS", 1)
    with pytest.raises(DomainError, match="did not converge"):
        irr(density(0.0, 10.0), 5.0)


def test_irr_degenerate_all_at_purchase_time():
    # flow entirely at the purchase date: PV is rate-free
    res = irr(dirac(0.0, 3.0), 3.0)
    assert res.rate == 0.0
    with pytest.raises(DomainError):
        irr(dirac(0.0, 3.0), 2.0)


@given(seeds)
def test_irr_round_trips_random_nonneg_flows(seed):
    rng = np.random.default_rng(seed)
    flow = random_cashflow(rng, nonnegative=True, horizon=20.0)
    if flow.is_null:
        return
    rate = float(rng.uniform(-0.2, 0.5))
    target = price(FlatCurve(rate, horizon=25.0), flow).value
    res = irr(flow, target)
    # flows paying only at t=0 price rate-free; any rate is as good as rate 0
    only_now = flow.support_bounds()[1] == 0.0
    if not only_now:
        assert res.rate == pytest.approx(rate, abs=1e-6)
    assert abs(res.residual) <= 2e-10 * (1.0 + target)


# --- yield bound ---------------------------------------------------------------


def test_yield_bound_flat_curve_is_tight():
    flow = ANNUITY_10
    report = yield_bound_check(FlatCurve(0.05), flow)
    assert report.holds
    assert report.rate == pytest.approx(0.05, abs=1e-8)
    assert report.forward_max == pytest.approx(0.05, abs=1e-10)


@given(seeds)
@example(309652245)  # flat 2.44% on [0.118, 0.533): a residual stop overshot the slack
def test_yield_bound_property(seed):
    rng = np.random.default_rng(seed)
    curve = random_curve(rng, horizon=120.0)
    flow = random_cashflow(rng, nonnegative=True, horizon=20.0)
    if flow.is_null or flow.support_bounds()[1] == 0.0:
        return
    report = yield_bound_check(curve, flow)
    assert report.holds, (report.rate, report.forward_max)


def test_yield_bound_holds_for_flows_worth_less_than_the_default_width():
    # at 823.71% these flows are worth about 1e-11, below the default
    # tolerance 1e-10 (1 + variation); a target priced to that absolute
    # width made draws 7, 9, 13, 16 and 18 report holds=False
    rng = np.random.default_rng(1111)
    curve = FlatCurve(8.2371, horizon=70.0)
    for k in range(20):
        flow = random_cashflow(rng, horizon=60.0, nonnegative=True)
        report = yield_bound_check(curve, flow)
        assert report.holds, (k, report.rate, report.forward_max)


def test_yield_bound_refuses_a_tolerance_that_is_not_positive():
    # min(1e-10, nan) gave irr 1e-10, but rate <= forward_max + nan is
    # False: a flow that meets the bound was answered holds=False
    for tol in (math.nan, 0.0, -1e-10):
        with pytest.raises(DomainError, match="tolerance must be positive"):
            yield_bound_check(FlatCurve(0.03), density(0.0, 10.0), tol=tol)


def test_each_flow_is_split_once(monkeypatch):
    # the flow keeps its sign split: the first call on a fresh flow splits
    # it once, one poly.sign_units call over its pieces, where
    # yield_bound_check and price_dual on one flow in both legs used to
    # split it twice, and a second call splits nothing
    def make():
        return (dirac(1.0, 0.5) + density(0.0, 5.0, (1.0, 0.1))
                + density(6.0, 9.0, (2.0, -0.1, 0.01)))

    curve = FlatCurve(0.04)
    target = price(curve, make()).value
    market = DualCurrencyMarket(curve, FlatCurve(0.02), 1.3)
    calls = []
    sign_units = poly.sign_units

    def counted(pieces):
        if pieces:  # an atoms-only flow, as dual_price's singular part, splits nothing
            calls.append(pieces)
        return sign_units(pieces)

    monkeypatch.setattr(poly, "sign_units", counted)
    runs = (lambda f: price(curve, f),
            lambda f: forward_price(curve, f, 2.0),
            lambda f: irr(f, target),
            lambda f: yield_bound_check(curve, f),
            lambda f: price_dual(market, DualCashFlow(f, f)),
            lambda f: dual_price(double_density(curve), f),
            jordan, total_variation, is_nonnegative)
    for run in runs:
        flow = make()
        calls.clear()
        run(flow)
        assert len(calls) == 1 and len(calls[0]) == len(flow.pieces)
        calls.clear()
        run(flow)
        assert calls == []
    # the default tolerance read from that split is the one an explicit
    # call passes, so the results are those of the separate calls
    flow = make()
    both = DualCashFlow(flow, flow)
    assert price_dual(market, both) == price_dual(
        market, both, tol=default_dual_tolerance(market, both))
    assert dual_price(double_density(curve), flow) == dual_price(
        double_density(curve), flow, default_tolerance(flow))
    # the kept split is no part of the flow's value
    fresh = make()
    assert flow == fresh and hash(flow) == hash(fresh) and repr(flow) == repr(fresh)
    assert pickle.dumps(flow) == pickle.dumps(fresh)
    restored = pickle.loads(pickle.dumps(flow))
    assert restored == fresh and price(curve, restored) == price(curve, fresh)


def test_results_hold_builtin_numbers():
    # numpy scalars would leak into JSON output and comparisons
    from pvkit import (DualCashFlow, DualCurrencyMarket, SvenssonCurve,
                       convert_measure_with_bound, price_dual)

    curve = SvenssonCurve(0.03, -0.01, 0.02, 0.015, tau1=1.5, tau2=6.0)
    flow = density(1.0, 9.0, (1.0, 0.1)) + dirac(3.0, 2.0)
    market = DualCurrencyMarket(FlatCurve(0.01), curve, 0.9)
    results = [
        price(curve, flow),
        forward_price(curve, flow, 2.0),
        price_dual(market, DualCashFlow(flow, flow)),
    ]
    for res in results:
        for name in ("value", "lower", "upper", "atom_part", "density_part"):
            assert type(getattr(res, name)) is float, name
    solved = irr(flow, price(FlatCurve(0.04), flow).value)
    assert type(solved.rate) is float and type(solved.residual) is float
    bound = yield_bound_check(curve, flow)
    assert type(bound.rate) is float and type(bound.forward_max) is float
    assert type(bound.holds) is bool
    converted, err = convert_measure_with_bound(market, flow)
    assert type(err) is float
    for piece in converted.pieces:
        assert all(type(c) is float for c in piece.coeffs)
        assert type(piece.start) is float and type(piece.end) is float


# --- densities that touch zero -------------------------------------------------


def _touching_densities():
    """400 densities (t - a)^2 q(t) on [0, 10) that are exactly nonnegative.

    ``a`` is on the 1/8 grid, ``q = (t+1)(t+3)`` or ``t^2 + 1``, and some
    have a second double root.  Every coefficient is exact in binary, so
    the double roots are true touching points, not pairs of crossings.
    """
    rng = np.random.default_rng(5)
    flows = []
    for _ in range(400):
        coeffs = (3.0, 4.0, 1.0) if rng.random() < 0.5 else (1.0, 0.0, 1.0)
        for _ in range(2 if rng.random() < 0.3 else 1):
            factor = (-int(rng.integers(1, 80)) / 8, 1.0)
            coeffs = poly.multiply(coeffs, poly.multiply(factor, factor))
        flows.append(density(0.0, 10.0, coeffs))
    return flows


def test_touching_roots_are_not_sign_changes():
    flows = _touching_densities()
    for flow in flows:
        assert is_nonnegative(flow)
        assert jordan(flow).negative.is_null
    # the first 100 include eight that a sign split trusting Horner noise
    # reported as signed, so irr refused them
    for flow in flows[:100]:
        target = price(FlatCurve(0.04, horizon=12.0), flow).value
        assert irr(flow, target).rate == pytest.approx(0.04, abs=1e-9)


def _bump(lo, hi, power):
    """``(t - lo)^power (t - hi)^power`` on [lo, hi); exact coefficients."""
    coeffs = (1.0,)
    for root in (lo,) * power + (hi,) * power:
        coeffs = poly.multiply(coeffs, (-root, 1.0))
    return density(lo, hi, coeffs)


@pytest.mark.parametrize("lo, hi, power", [(19.5, 20.5, 4), (25.0, 25.0078125, 2)])
def test_bumps_below_horner_error_keep_their_mass(lo, hi, power):
    # Horner's rounding error bound near t = 20-25 exceeds these bumps'
    # height (0.5^8 and about 2.3e-10), yet each is a nonnegative density
    # with positive mass and must be priced as one
    flow = _bump(lo, hi, power)
    assert is_nonnegative(flow)
    assert not jordan(flow).positive.is_null
    assert price(FlatCurve(0.04, horizon=30.0), flow).lower > 0.0


def test_degree_eight_bump_has_variation_and_a_yield():
    flow = _bump(19.5, 20.5, 4)
    assert total_variation(flow) > 0.0
    target = price(FlatCurve(0.04, horizon=30.0), flow).value
    assert irr(flow, target).rate == pytest.approx(0.04, abs=1e-6)


def test_irr_of_a_flow_worth_less_than_tol():
    # the bump is worth 3.4e-13 at 4%, below irr's tol of 1e-10 (1 + target):
    # a residual stop accepted any rate there and returned 10.0
    flow = _bump(25.0, 25.0078125, 2)
    target = price(FlatCurve(0.04, horizon=30.0), flow).value
    assert 3e-13 < target < 4e-13
    res = irr(flow, target)
    assert res.rate == pytest.approx(0.04, abs=1e-9)
    assert abs(res.residual) <= 1e-10 * (1.0 + target)
