"""Two-currency markets: forward FX, combined pricing, measure conversion.

Conventions: ``spot_fx`` is domestic units per foreign unit, and the
forward FX rate is spot * P_foreign(t) / P_domestic(t) -- covered
interest parity.  Conversion rewrites a foreign flow as the domestic
flow with the same combined value, atom by atom exactly and density by
certified polynomial refit.
"""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pvkit import (
    DomainError,
    DualCashFlow,
    DualCurrencyMarket,
    FlatCurve,
    SpotGridCurve,
    SvenssonCurve,
    convert_measure_with_bound,
    density,
    dirac,
    fx_forward,
    price,
    price_dual,
    total_variation,
)
from pvkit import fx, poly
from pvkit.fx import FIT_REL_TOL, default_dual_tolerance, interpolate_chebyshev
from pvkit.sampling import random_cashflow, random_curve

seeds = st.integers(min_value=0, max_value=2**32 - 1)

MARKET = DualCurrencyMarket(
    domestic_curve=FlatCurve(0.01),
    foreign_curve=FlatCurve(0.03),
    spot_fx=0.9,
)


def _random_market(rng):
    return DualCurrencyMarket(
        domestic_curve=random_curve(rng, horizon=60.0),
        foreign_curve=random_curve(rng, horizon=60.0),
        spot_fx=float(rng.uniform(0.2, 5.0)),
    )


def test_interest_parity_oracle():
    # one-year forward: 0.9 * 1.01 / 1.03
    assert fx_forward(MARKET, 1.0) == pytest.approx(0.8825242718446602,
                                                    abs=1e-13)
    assert fx_forward(MARKET, 0.0) == pytest.approx(0.9, abs=1e-15)


def test_fx_forward_respects_horizon():
    with pytest.raises(DomainError):
        fx_forward(MARKET, 101.0)
    with pytest.raises(DomainError):
        fx_forward(MARKET, -1.0)


def test_market_validation():
    with pytest.raises(DomainError):
        DualCurrencyMarket(FlatCurve(0.01), FlatCurve(0.03), 0.0)
    with pytest.raises(DomainError):
        DualCurrencyMarket(FlatCurve(0.01), FlatCurve(0.03), -2.0)


def test_combined_price_in_both_quote_currencies():
    flow = DualCashFlow(domestic=dirac(1.0, 1.0), foreign=dirac(1.0, 1.0))
    expected = 1.0 / 1.01 + 0.9 / 1.03
    dom = price_dual(MARKET, flow)
    assert dom.value == pytest.approx(expected, abs=1e-13)
    fore = price_dual(MARKET, flow, currency="foreign")
    assert fore.value == pytest.approx(expected / 0.9, abs=1e-13)
    with pytest.raises(DomainError):
        price_dual(MARKET, flow, currency="sterling")


@pytest.mark.parametrize("tol", [0.0, -1e-10])
def test_price_dual_rejects_non_positive_tolerance(tol):
    flow = DualCashFlow(domestic=dirac(1.0, 1.0), foreign=dirac(1.0, 1.0))
    with pytest.raises(DomainError, match="tolerance must be positive"):
        price_dual(MARKET, flow, tol=tol)


def test_price_dual_reports_a_leg_past_the_horizon_before_the_tolerance():
    # each leg's price checks the tolerance, after both legs' supports
    flow = DualCashFlow(domestic=dirac(1.0, 1.0), foreign=dirac(150.0, 1.0))
    with pytest.raises(DomainError, match="foreign leg support reaches 150.0, beyond the "
                                          "market horizon 100.0"):
        price_dual(MARKET, flow, tol=0.0)


def test_one_sided_flows():
    dom_only = DualCashFlow(domestic=dirac(2.0, 5.0))
    assert price_dual(MARKET, dom_only).value == pytest.approx(
        5.0 * MARKET.domestic_curve.discount(2.0), abs=1e-12)
    for_only = DualCashFlow(foreign=dirac(2.0, 5.0))
    assert price_dual(MARKET, for_only).value == pytest.approx(
        0.9 * 5.0 * MARKET.foreign_curve.discount(2.0), abs=1e-12)


def test_bracket_splits_tolerance_between_legs():
    flow = DualCashFlow(domestic=density(0.0, 10.0, (1.0,)),
                        foreign=density(0.0, 10.0, (1.0,)))
    res = price_dual(MARKET, flow, tol=1e-10)
    assert res.upper - res.lower <= 1e-10
    assert res.lower <= res.value <= res.upper


def test_atoms_convert_by_forward_fx():
    converted, _ = convert_measure_with_bound(MARKET, dirac(1.0, 100.0))
    (atom,) = converted.atoms
    assert atom.time == 1.0
    assert atom.amount == pytest.approx(100.0 * fx_forward(MARKET, 1.0),
                                        rel=1e-14)


def test_convert_route_equals_direct_price():
    foreign = density(0.0, 5.0, (1.0, 0.2)) + dirac(3.0, 2.0)
    converted, fit_bound = convert_measure_with_bound(MARKET, foreign)
    direct = price_dual(MARKET, DualCashFlow(foreign=foreign), tol=1e-11)
    routed = price(MARKET.domestic_curve, converted, tol=1e-11)
    assert routed.value == pytest.approx(direct.value, abs=4e-11 + fit_bound)
    assert fit_bound < 1e-9


def test_convert_keeps_degree_cap():
    foreign = density(0.0, 8.0, (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5))
    converted, _ = convert_measure_with_bound(MARKET, foreign)
    assert all(len(p.coeffs) <= 9 for p in converted.pieces)


def test_convert_across_grid_kinks():
    kinked = DualCurrencyMarket(
        domestic_curve=SpotGridCurve(((0.0, 1.0), (2.0, 0.95), (6.0, 0.8))),
        foreign_curve=SpotGridCurve(((0.0, 1.0), (3.0, 0.9))),
        spot_fx=1.25,
    )
    foreign = density(0.0, 5.5, (1.0,))
    converted, fit_bound = convert_measure_with_bound(kinked, foreign)
    direct = price_dual(kinked, DualCashFlow(foreign=foreign), tol=1e-11)
    routed = price(kinked.domestic_curve, converted, tol=1e-11)
    assert routed.value == pytest.approx(direct.value, abs=4e-11 + fit_bound)
    # pieces break at every curve knot inside the support
    starts = {p.start for p in converted.pieces}
    assert {2.0, 3.0}.issubset(starts)


@given(seeds)
def test_route_equivalence_random(seed):
    rng = np.random.default_rng(seed)
    market = _random_market(rng)
    foreign = random_cashflow(rng, horizon=25.0)
    converted, fit_bound = convert_measure_with_bound(market, foreign)
    tol = default_dual_tolerance(market, DualCashFlow(foreign=foreign))
    direct = price_dual(market, DualCashFlow(foreign=foreign)).value
    routed = price(market.domestic_curve, converted,
                   tol=tol / market.spot_fx).value
    assert market.spot_fx * 0 + routed == pytest.approx(
        direct, abs=4 * tol + fit_bound)


@given(seeds)
def test_dual_linearity(seed):
    rng = np.random.default_rng(seed)
    market = _random_market(rng)
    a = DualCashFlow(domestic=random_cashflow(rng, horizon=25.0),
                     foreign=random_cashflow(rng, horizon=25.0))
    b = DualCashFlow(domestic=random_cashflow(rng, horizon=25.0),
                     foreign=random_cashflow(rng, horizon=25.0))
    both = DualCashFlow(domestic=a.domestic + b.domestic,
                        foreign=a.foreign + b.foreign)
    lhs = price_dual(market, both).value
    rhs = price_dual(market, a).value + price_dual(market, b).value
    scale = (1.0 + total_variation(a.domestic) + total_variation(b.domestic)
             + market.spot_fx * (total_variation(a.foreign)
                                 + total_variation(b.foreign)))
    assert lhs == pytest.approx(rhs, abs=1e-9 * scale)


class _RingingCurve:
    # smooth and positive, but oscillating far too fast for any degree-8
    # fit over a knot-free span
    horizon = 30.0

    def discount(self, t: float) -> float:
        return math.exp(-0.02 * t) * (1.0 + 0.5 * math.sin(29314.7 * t))

    def discount_many(self, ts):
        return np.exp(-0.02 * ts) * (1.0 + 0.5 * np.sin(29314.7 * ts))

    def knot_times(self):
        return ()


def test_fit_budget_guard():
    # variation faster than the refit budget can certify must raise, not
    # silently return a bad flow
    wild = DualCurrencyMarket(
        domestic_curve=_RingingCurve(),
        foreign_curve=FlatCurve(0.03, horizon=30.0),
        spot_fx=1.0,
    )
    with pytest.raises(DomainError):
        convert_measure_with_bound(wild, density(0.0, 19.0, (1.0,)))


def test_batched_spans_fit_independently():
    # every span of a conversion is fitted in the same rounds; no span's
    # fit may depend on the others
    kinked = DualCurrencyMarket(
        domestic_curve=SpotGridCurve(((0.0, 1.0), (2.0, 0.95), (6.0, 0.8), (30.0, 0.05))),
        foreign_curve=SpotGridCurve(((0.0, 1.0), (3.0, 0.9), (30.0, 0.7))),
        spot_fx=1.25,
    )
    parts = [density(0.0, 2.5, (1.0, 0.3)),
             density(3.5, 7.0, (2.0, -0.1, 0.01, 0.0, 0.0, 0.0, 1e-4)),
             density(8.0, 29.5, (0.5, 0.0, 0.0, 0.002, 0.0, 0.0, 0.0, 0.0, 1e-9))]
    converted, bound = convert_measure_with_bound(kinked, parts[0] + parts[1] + parts[2])
    alone = [convert_measure_with_bound(kinked, p) for p in parts]
    assert len(converted.pieces) == 12  # the last span is bisected
    assert converted.pieces == tuple(q for c, _ in alone for q in c.pieces)
    assert bound == pytest.approx(sum(e for _, e in alone), rel=1e-14)


def test_segments_split_to_mixed_depths(monkeypatch):
    # a Svensson pair from perfbench's book (seed 1, position 395): the
    # 25-year density is cut three levels deep at once, then a few of its
    # segments are bisected, while the 60-year tail beside it is cut two
    # levels deep in the same first round; no span's fit may depend on the
    # others
    market = DualCurrencyMarket(
        SvenssonCurve(0.037892423204183304, -0.010318914331532451, 0.010171535122184723,
                      -0.018254624286838043, 0.6912388874528301, 7.412591154286311),
        SvenssonCurve(0.045338739283340555, -0.010521262078878855, -0.003873644167332914,
                      0.009736948507434805, 1.0953654320297157, 5.778498008965069),
        1.4494129616673783,
    )
    parts = [density(0.21768759238167124, 25.750463573098777,
                     (1.558649483556027, -0.0038663300011317855, 9.097295876350759e-05,
                      -3.2303813526561504e-06)),
             density(30.0, 90.0, (1.0, 0.05))]
    depths = []
    split = fx._split

    def recorded(a, b, depth):
        depths.append(depth.tolist())
        return split(a, b, depth)

    monkeypatch.setattr(fx, "_split", recorded)
    converted, bound = convert_measure_with_bound(market, parts[0] + parts[1])
    assert any(len(set(d)) > 1 for d in depths)  # one round, two depths
    assert max(max(d) for d in depths) == 3 and len(depths) > 1
    pieces = converted.pieces
    for p in parts:
        (piece,) = p.pieces
        mine = [q for q in pieces if piece.start <= q.start < piece.end]
        assert mine[0].start == piece.start and mine[-1].end == piece.end
        assert all(x.end == y.start for x, y in zip(mine, mine[1:]))
        for q in mine:
            # the fitter's own samples: 33 evenly spaced points of the piece
            ts = q.start + (q.end - q.start) * (np.arange(33) / 32)
            exact = poly.evaluate(piece.coeffs, ts) * fx._fx_forward_many(market, ts)
            error = np.abs(poly.evaluate(q.coeffs, ts - q.origin) - exact).max()
            assert error <= FIT_REL_TOL * np.abs(exact).max()
    alone = [convert_measure_with_bound(market, p) for p in parts]
    assert pieces == tuple(q for c, _ in alone for q in c.pieces)
    assert bound == pytest.approx(sum(e for _, e in alone), rel=1e-14)


class _LateRingingCurve(_RingingCurve):
    # plain exponential before its knot at t = 10, ringing after it
    def discount(self, t: float) -> float:
        return float(self.discount_many(np.array([t]))[0])

    def discount_many(self, ts):
        return np.where(ts < 10.0, np.exp(-0.02 * ts), super().discount_many(ts))

    def knot_times(self):
        return (10.0,)


def test_fit_budget_guard_names_the_span():
    # one span over budget fails the conversion, though the others fit
    wild = DualCurrencyMarket(
        domestic_curve=_LateRingingCurve(),
        foreign_curve=FlatCurve(0.03, horizon=30.0),
        spot_fx=1.0,
    )
    convert_measure_with_bound(wild, density(0.0, 8.0, (1.0,)) + density(9.0, 10.0, (1.0,)))
    with pytest.raises(DomainError, match=r"budget exceeded on \[10\.0, 19\.0\)"):
        convert_measure_with_bound(wild, density(0.0, 8.0, (1.0,)) + density(9.0, 19.0, (1.0,)))


def test_chebyshev_interpolation_reproduces_low_degree():
    c = (0.3, -1.2, 0.8, 0.05, -0.4, 0.02, 0.6)  # degree 6 exactly fits 7 nodes
    fn = lambda x: poly.evaluate(c, x)
    values = [fn(0.5 + 2.0 * x) for x in poly.chebyshev_nodes(7)]
    (model,) = interpolate_chebyshev(np.array([values]), np.array([2.0]))
    for x in np.linspace(-1.5, 2.5, 13):
        assert poly.evaluate(model, x - 0.5) == pytest.approx(fn(x), rel=1e-9,
                                                              abs=1e-9)


def test_chebyshev_interpolation_meets_exact_oracle():
    # each interpolant, evaluated exactly at its own nodes u = half * x_k,
    # returns the node values to within half an ulp of the middle node's
    # value plus 256 ulp of the values' variation about it.  Rows near 1e8
    # that vary far less than that fail the bound for a product that is not
    # centred on the middle value, and the n = 9 rows fail it for a matrix
    # built in floats instead of exactly.
    eps = 2.0 ** -52
    rng = np.random.default_rng(11)
    for n in (1, 2, 9):
        scaled = rng.normal(size=(24, n)) * 10.0 ** rng.integers(-8, 9, size=(24, 1))
        offset = 1e8 + rng.normal(size=(8, n)) * 10.0 ** rng.integers(-6, 3, size=(8, 1))
        values = np.concatenate((scaled, offset))
        half = rng.uniform(1e-3, 15.0, size=len(values))
        rows = interpolate_chebyshev(values, half)
        assert rows.shape == values.shape
        nodes = [Fraction(x) for x in poly.chebyshev_nodes(n)]
        for row, v, h in zip(rows.tolist(), values.tolist(), half.tolist()):
            centre = v[n // 2]
            bound = eps * (0.5 * abs(centre) + 256.0 * max(abs(x - centre) for x in v))
            for x, value in zip(nodes, v):
                u = Fraction(h) * x
                exact = sum(Fraction(c) * u ** i for i, c in enumerate(row))
                assert abs(exact - Fraction(value)) <= bound


def test_knot_shared_by_both_curves_on_a_piece_boundary():
    # both curves have a knot at 2.0, where one piece ends and the next
    # starts: the cut there is made once, and no empty piece appears
    market = DualCurrencyMarket(
        domestic_curve=SpotGridCurve(((0.0, 1.0), (2.0, 0.95), (6.0, 0.8))),
        foreign_curve=SpotGridCurve(((0.0, 1.0), (2.0, 0.9), (6.0, 0.75))),
        spot_fx=1.25,
    )
    parts = [density(0.0, 2.0, (1.0, 0.3)), density(2.0, 5.0, (0.8, -0.05))]
    converted, bound = convert_measure_with_bound(market, parts[0] + parts[1])
    pieces = converted.pieces
    assert pieces[0].start == 0.0 and pieces[-1].end == 5.0
    assert all(x.end == y.start for x, y in zip(pieces, pieces[1:]))
    assert [p.start for p in pieces].count(2.0) == 1
    assert all(p.start < p.end for p in pieces)
    alone = [convert_measure_with_bound(market, p) for p in parts]
    assert pieces == tuple(q for c, _ in alone for q in c.pieces)
    assert bound == pytest.approx(sum(e for _, e in alone), rel=1e-14)
