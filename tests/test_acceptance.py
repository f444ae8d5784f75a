"""Acceptance gate: the library's headline guarantees, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion (add ``-s`` to see the measured numbers).  Tolerances and runtime
budgets are asserted, never just printed.
"""
import math
import time

import numpy as np
import pytest
from hypothesis import settings

from pvkit import (
    Arbitrage,
    CashFlow,
    DomainError,
    DualCashFlow,
    DualCurrencyMarket,
    FlatCurve,
    Quote,
    QuoteSet,
    check,
    convert_measure_with_bound,
    density,
    dirac,
    double_density,
    dual_price,
    forward_price,
    forward_rate,
    forward_rate_composition_check,
    fx_forward,
    implied_curve,
    jordan,
    lebesgue,
    mass,
    price,
    price_dual,
    total_mass,
    total_variation,
    yield_bound_check,
)
from pvkit.fx import default_dual_tolerance
from pvkit.pricing import default_tolerance
from pvkit.quadrature import bracketed_integral
from pvkit.sampling import CURVE_FAMILIES, random_cashflow, random_curve
from selfchecks import verify_na_positivity

from test_arbitrage import brute_force_has_arbitrage, random_quote_set, replay

ANNUITY_PV = (1.0 - 1.05 ** -10) / 0.05
CONTINUOUS_PV = (1.0 - 1.05 ** -10) / math.log(1.05)


def _report(n: int, detail: str) -> None:
    print(f"criterion {n:2d}: PASS — {detail}")


def _best_of(fn, runs: int = 5) -> float:
    best = math.inf
    for _ in range(runs):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_01_discrete_annuity_exact_and_fast():
    flow = sum((dirac(float(k)) for k in range(2, 11)), dirac(1.0))
    curve = FlatCurve(0.05)
    res = price(curve, flow)
    # the atom path is an exact float sum; its zero-width bracket sits one
    # ulp from the independently rounded closed form, so compare relatively
    assert res.value == pytest.approx(ANNUITY_PV, rel=1e-12)
    assert res.lower == res.upper == res.value
    elapsed = _best_of(lambda: price(curve, flow))
    assert elapsed < 1e-3
    _report(1, f"annuity-10 = {res.value:.15f}, {elapsed * 1e3:.3f} ms")


def test_02_continuous_annuity_bracket_and_fast():
    flow = density(0.0, 10.0)
    curve = FlatCurve(0.05)
    res = price(curve, flow, 1e-10)
    assert res.lower <= CONTINUOUS_PV <= res.upper
    assert res.upper - res.lower <= 1e-10
    assert abs(res.value - CONTINUOUS_PV) <= 1e-10
    elapsed = _best_of(lambda: price(curve, flow, 1e-10), runs=3)
    assert elapsed < 0.05
    _report(2, f"bracket width {res.upper - res.lower:.2e}, {elapsed * 1e3:.1f} ms")


def test_03_positive_linear_rule_beats_any_curve():
    f = FlatCurve(0.05)
    functional = double_density(f)
    flow = density(0.0, 10.0)
    dual = dual_price(functional, flow, 1e-10)
    choquet = price(f, flow, 1e-10)
    # densities price at twice the curve integral, atoms stay on the curve:
    # a positive linear unit-price rule no single curve can reproduce
    assert dual.value == pytest.approx(2.0 * CONTINUOUS_PV, abs=2e-10)
    assert choquet.value == pytest.approx(CONTINUOUS_PV, abs=2e-10)
    report = verify_na_positivity(functional, trials=1000, seed=20260815)
    assert report.ok, report
    _report(3, f"dual = {dual.value:.12f} = 2x curve integral; "
               f"{report.trials} positivity/linearity trials clean")


def test_04_forward_rate_identities():
    rng = np.random.default_rng(20260815)
    worst = 0.0
    for family in CURVE_FAMILIES:
        for _ in range(1000):
            curve = random_curve(rng, family)
            h = min(curve.horizon, 40.0)
            r, s, t = sorted(float(x) for x in rng.uniform(0.0, h, size=3))
            if t > s:
                lhs = (1.0 + forward_rate(curve, s, t)) ** (t - s)
                rhs = curve.discount(s) / curve.discount(t)
                worst = max(worst, abs(lhs - rhs) / rhs)
            worst = max(worst, abs(forward_rate_composition_check(curve, r, s, t)))
    assert worst < 1e-12
    _report(4, f"worst residual {worst:.2e} over 3x1000 samples")


def test_05_forward_price_consistency():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        curve = random_curve(rng)
        flow = random_cashflow(rng, horizon=10.0)
        tol = default_tolerance(flow)
        s, t = (float(x) for x in rng.uniform(0.0, 10.0, size=2))
        direct = forward_price(curve, flow, s, tol)
        at_t = forward_price(curve, flow, t, tol)
        relayed = forward_price(curve, dirac(t, at_t.value), s, tol)
        gap = abs(direct.value - relayed.value)
        assert gap <= 4.0 * tol
        worst = max(worst, gap / tol)
    _report(5, f"worst delivery-relay gap {worst:.2e} tol (limit 4)")


def test_06_fx_parity_and_route_equivalence():
    # worked instance: euro discounting at 1%, dollar at 3%, spot 0.9
    euro_dollar = DualCurrencyMarket(FlatCurve(0.01), FlatCurve(0.03), 0.9)
    one_year = fx_forward(euro_dollar, 1.0)
    assert one_year == pytest.approx(0.9 * 1.01 / 1.03, abs=1e-13)
    assert f"{one_year:.6f}" == "0.882524"

    rng = np.random.default_rng(60)
    worst_parity = 0.0
    worst_route = 0.0
    done = 0
    while done < 100:
        try:
            market = DualCurrencyMarket(
                random_curve(rng, horizon=60.0),
                random_curve(rng, horizon=60.0),
                float(rng.uniform(0.2, 5.0)),
            )
        except DomainError:
            continue
        for t in rng.uniform(0.0, market.horizon, size=20):
            lhs = fx_forward(market, float(t)) * market.domestic_curve.discount(float(t))
            rhs = market.spot_fx * market.foreign_curve.discount(float(t))
            worst_parity = max(worst_parity, abs(lhs - rhs) / rhs)
        foreign = random_cashflow(rng, horizon=25.0)
        flow = DualCashFlow(foreign=foreign)
        tol = default_dual_tolerance(market, flow)
        converted, fit_err = convert_measure_with_bound(market, foreign)
        direct = price_dual(market, flow, tol=tol).value
        routed = price(market.domestic_curve, converted, tol).value
        gap = abs(direct - routed)
        assert gap <= 4.0 * tol + fit_err
        worst_route = max(worst_route, gap / (4.0 * tol + fit_err))
        done += 1
    assert worst_parity < 1e-13
    _report(6, f"parity residual {worst_parity:.2e}; route gap at "
               f"{100 * worst_route:.2f}% of budget over 100 dual flows")


def test_07_arbitrage_verdicts_match_brute_force():
    rng = np.random.default_rng(20260815)
    found = {True: 0, False: 0}
    for _ in range(500):
        quote_set = random_quote_set(rng)
        verdict = check(quote_set)
        assert isinstance(verdict, Arbitrage) == brute_force_has_arbitrage(quote_set)
        replay(quote_set, verdict)
        found[isinstance(verdict, Arbitrage)] += 1
    _report(7, f"{found[True]} arbitrage / {found[False]} arbitrage-free, "
               f"all verdicts match brute force and every certificate replays")


def test_08_implied_curve_round_trip():
    curve = FlatCurve(0.03)
    grid = (0.0, 1.0, 2.0, 3.0)
    p = [curve.discount(float(k)) for k in range(4)]
    quotes = [Quote(dirac(float(k)), dirac(0.0, p[k])) for k in (1, 2, 3)]
    # two redundant cross-quotes, consistent by construction (they reuse the
    # pinned price floats rather than introducing new rounded arithmetic)
    quotes.append(Quote(dirac(1.0) + dirac(0.0, p[2]), dirac(2.0) + dirac(0.0, p[1])))
    quotes.append(Quote(dirac(3.0, 2.0) + dirac(1.0), dirac(0.0, 2.0 * p[3]) + dirac(1.0)))
    quote_set = QuoteSet(grid, tuple(quotes))
    D = np.array([[float(x) for x in row] for row in quote_set.difference_matrix()])
    assert np.linalg.matrix_rank(D) == 3  # redundant but uniquely invertible
    recovered = implied_curve(quote_set)
    worst = max(abs(recovered.discount(float(k)) - 1.03 ** -k) for k in range(4))
    assert worst <= 1e-9
    _report(8, f"grid prices recovered to {worst:.2e} from 5 quotes (rank 3)")


def test_09_property_sweep():
    # the hypothesis suites in this directory run under a >= 200-example
    # profile; this sweep re-runs the same invariants on 200 seeded draws
    assert settings().max_examples >= 200
    rng = np.random.default_rng(9)
    for i in range(200):
        curve = random_curve(rng, CURVE_FAMILIES[i % 3])
        a = random_cashflow(rng, horizon=20.0)
        b = random_cashflow(rng, horizon=20.0)

        linear_gap = abs(
            price(curve, a + b).value - price(curve, a).value - price(curve, b).value
        )
        assert linear_gap <= (default_tolerance(a + b) + default_tolerance(a)
                              + default_tolerance(b))

        positive = random_cashflow(rng, horizon=20.0, nonnegative=True)
        assert price(curve, positive).lower > 0.0

        grow = price(curve, a + positive).value - price(curve, a).value
        assert grow >= -(default_tolerance(a + positive) + default_tolerance(a))

        spot = price(curve, a).value
        settled = a - dirac(0.0, spot)
        assert abs(price(curve, settled).value) <= (
            default_tolerance(settled) + default_tolerance(a) + 1e-15 * abs(spot)
        )

        cuts = sorted({0.0, 21.0, *(float(x) for x in rng.uniform(0.0, 21.0, size=3))})
        sigma = math.fsum(mass(a, lo, hi, "[)") for lo, hi in zip(cuts, cuts[1:]))
        assert sigma == pytest.approx(total_mass(a),
                                      abs=1e-9 * (1.0 + total_variation(a)))

        pieces = [(q.start, q.end, q.coeffs) for q in a.pieces]
        if pieces:
            knots = curve.knot_times()
            coarse = bracketed_integral(curve.discount_many, pieces, 1e-6, breakpoints=knots)
            fine = bracketed_integral(curve.discount_many, pieces, 1e-9, breakpoints=knots)
            assert fine.width <= coarse.width
            assert max(fine.lower, coarse.lower) <= min(fine.upper, coarse.upper)

        parts = jordan(a)
        assert parts.positive - parts.negative == a
        split = lebesgue(a)
        assert split.absolutely_continuous + split.singular == a
    _report(9, "200-case sweep of 7 invariants clean; "
               f"hypothesis profile runs {settings().max_examples} examples")


def test_10_yield_never_beats_best_forward():
    rng = np.random.default_rng(10)
    for family in CURVE_FAMILIES:
        for _ in range(100):
            curve = random_curve(rng, family)
            flow = random_cashflow(rng, horizon=20.0, nonnegative=True)
            bound = yield_bound_check(curve, flow)
            assert bound.holds, (family, bound)
    _report(10, "bound holds on 100 nonnegative flows per curve family")
