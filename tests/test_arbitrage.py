"""Exact screening of finite quote sets.

The checker decides, with exact rational arithmetic, whether a strictly
positive price vector reprices every quote; otherwise it returns weights
whose quote combination is a nonnegative, nonzero flow.  Certificates are
replayed here in floating point and, for the random sample, compared to
a brute-force integer-coefficient search.  Long ladders and one pinned
case per branch of the null-space decision replay their certificates in
exact arithmetic.  The general LP the checker once ran on every quote set
serves as an oracle: for verdicts and prices at every null-space
dimension, and for the phase-1 simplex that decides a null space of two
or more dimensions.
"""
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from pvkit import (
    Arbitrage,
    ArbitrageFree,
    CashFlow,
    DomainError,
    FlatCurve,
    NonUniqueImpliedPricesError,
    Quote,
    QuoteSet,
    check,
    dirac,
    implied_curve,
    price,
)
from pvkit import arbitrage, simplex
from pvkit.arbitrage import _echelon, reduce_quotes
from pvkit.measures import Atom
from pvkit.simplex import phase_one
from selfchecks import closure_probe, eager_echelon, solve_lp


def _quote(left, right):
    mk = lambda side: CashFlow(atoms=tuple(Atom(t, a) for t, a in side))
    return Quote(mk(left), mk(right))


def random_quote_set(rng):
    g = int(rng.integers(2, 5))
    grid = tuple(float(k) for k in range(g))
    quotes = []
    for _ in range(int(rng.integers(1, 5))):
        sides = []
        for _side in range(2):
            amts = rng.integers(-3, 4, size=g)
            sides.append(tuple((float(t), float(a))
                               for t, a in zip(grid, amts) if a != 0))
        quotes.append(_quote(sides[0], sides[1]))
    return QuoteSet(grid=grid, quotes=tuple(quotes))


def brute_force_has_arbitrage(quote_set, lo=-5, hi=5):
    D = np.array([[float(x) for x in row]
                  for row in quote_set.difference_matrix()])
    axes = np.meshgrid(*([np.arange(lo, hi + 1)] * D.shape[0]), indexing="ij")
    coeffs = np.stack([ax.ravel() for ax in axes], axis=1).astype(float)
    ports = coeffs @ D
    return bool(((ports >= 0.0).all(axis=1)
                 & (np.abs(ports) > 0.0).any(axis=1)).any())


def replay(quote_set, verdict, tol=1e-9):
    """Re-check a certificate from its float rendering."""
    D = quote_set.difference_matrix()
    if isinstance(verdict, ArbitrageFree):
        assert all(p > 0.0 for p in verdict.implied)
        for row in D:
            resid = sum(float(c) * p for c, p in zip(row, verdict.implied))
            assert abs(resid) <= tol
    else:
        combo = [0.0] * len(quote_set.grid)
        for w, row in zip(verdict.coefficients, D):
            for j, c in enumerate(row):
                combo[j] += w * float(c)
        assert all(v >= -tol for v in combo)
        assert max(combo) > tol
        # the stated portfolio is that combination
        port = {a.time: a.amount for a in verdict.portfolio.atoms}
        for t, v in zip(quote_set.grid, combo):
            assert port.get(t, 0.0) == pytest.approx(v, abs=tol)


# --- pinned instances -------------------------------------------------------


def test_law_of_one_price_violation():
    # the same claim quoted at two prices: hold the cheap, short the dear
    qs = QuoteSet(grid=(0.0, 1.0), quotes=(
        _quote([(0.0, 0.95)], [(1.0, 1.0)]),
        _quote([(0.0, 0.96)], [(1.0, 1.0)]),
    ))
    verdict = check(qs)
    assert isinstance(verdict, Arbitrage)
    assert verdict.coefficients == (1.0, -1.0)
    (free_lunch,) = verdict.portfolio.atoms
    assert free_lunch.time == 0.0
    assert free_lunch.amount == pytest.approx(0.01)
    replay(qs, verdict)


def test_single_quote_implies_discount():
    qs = QuoteSet(grid=(0.0, 1.0), quotes=(
        _quote([(0.0, 1.05)], [(1.0, 1.05), (0.0, 0.05)]),
    ))
    verdict = check(qs)
    assert isinstance(verdict, ArbitrageFree)
    assert verdict.implied[0] == 1.0
    assert verdict.implied[1] == pytest.approx(1.0 / 1.05, abs=1e-12)
    replay(qs, verdict)


def test_negative_price_claim_is_arbitrage():
    # paying to give money away: right side minus left side is positive
    qs = QuoteSet(grid=(0.0, 2.0), quotes=(
        _quote([], [(0.0, 1.0), (2.0, 1.0)]),
    ))
    verdict = check(qs)
    assert isinstance(verdict, Arbitrage)
    replay(qs, verdict)


def test_empty_quotes_are_free():
    verdict = check(QuoteSet(grid=(0.0, 1.0, 2.0), quotes=()))
    assert isinstance(verdict, ArbitrageFree)
    assert verdict.implied == (1.0, 1.0, 1.0)


def test_redundant_quotes_still_free():
    # the same consistent quote stated three times must not confuse the LP
    q = _quote([(0.0, 0.9)], [(2.0, 1.0)])
    qs = QuoteSet(grid=(0.0, 2.0), quotes=(q, q, q))
    verdict = check(qs)
    assert isinstance(verdict, ArbitrageFree)
    assert verdict.implied[1] == pytest.approx(0.9, abs=1e-12)


def test_off_grid_atom_rejected():
    with pytest.raises(DomainError):
        QuoteSet(grid=(0.0, 1.0), quotes=(_quote([(0.5, 1.0)], [(1.0, 1.0)]),))
    with pytest.raises(DomainError):
        QuoteSet(grid=(1.0, 2.0), quotes=())  # grid must include 0
    with pytest.raises(DomainError):
        Quote(dirac(0.0), CashFlow(pieces=(
            __import__("pvkit").DensityPiece(0.0, 1.0, (1.0,)),)))


# --- implied curve ----------------------------------------------------------


def test_implied_curve_two_point_grid():
    qs = QuoteSet(grid=(0.0, 1.0, 2.0), quotes=(
        _quote([(0.0, 0.95)], [(1.0, 1.0)]),
        _quote([(0.0, 0.90)], [(2.0, 1.0)]),
    ))
    curve = implied_curve(qs)
    assert curve.discount(1.0) == pytest.approx(0.95, abs=1e-12)
    assert curve.discount(2.0) == pytest.approx(0.90, abs=1e-12)


def test_implied_curve_round_trips_flat():
    flat = FlatCurve(0.03)
    grid = (0.0, 1.0, 2.0, 3.0)
    quotes = tuple(
        _quote([(0.0, flat.discount(k))], [(float(k), 1.0)]) for k in (1, 2, 3))
    curve = implied_curve(QuoteSet(grid=grid, quotes=quotes))
    for k in (1, 2, 3):
        assert curve.discount(float(k)) == pytest.approx(
            flat.discount(float(k)), abs=1e-9)


def test_implied_curve_needs_unique_prices():
    qs = QuoteSet(grid=(0.0, 1.0, 2.0), quotes=(
        _quote([(0.0, 0.95)], [(1.0, 1.0)]),
    ))
    with pytest.raises(NonUniqueImpliedPricesError) as exc:
        implied_curve(qs)
    # the free direction moves only the unconstrained t=2 price
    for direction in exc.value.free_directions:
        assert direction[0] == 0.0 and direction[1] == 0.0
        assert any(abs(x) > 0 for x in direction)


def test_non_unique_directions_are_pinned():
    # the directions of the grid-order reduction's free columns, t = 5, 6
    # and 7 here (the latest-first reduction leaves t = 0, 3 and 6 free),
    # to the last bit
    rng = random.Random("unquoted")
    qs = ladder_quote_set(rng, 8, rng.uniform(0.005, 0.08), unquoted=(3, 6))
    want = (
        (0.0, 1.3113431984246826e-16, 4.0098073276054515e-16, 310.00970856796977,
         -8.061514643492314, -7.9881128120569755, -7.759529792622211,
         -7.759529792622211),
        (0.0, -3.563462550663101e-18, -1.089630713337413e-17, -9.478845640868503,
         0.24648858027783654, 0.24424424853369028, 1.2108585598337704,
         0.21085855983377036),
        (0.0, -1.314338592496836e-16, -4.0189666027014107e-16, -349.6153659814826,
         9.091422992747031, 9.008643623418505, 7.777254252223207,
         8.777254252223207),
    )
    with pytest.raises(NonUniqueImpliedPricesError) as exc:
        implied_curve(qs)
    assert exc.value.free_directions == want
    assert str(exc.value) == (
        "implied prices are not unique; free directions over the grid: "
        + "; ".join(str(v) for v in want))


def test_implied_curve_rejects_arbitrage():
    qs = QuoteSet(grid=(0.0, 1.0), quotes=(
        _quote([(0.0, 0.95)], [(1.0, 1.0)]),
        _quote([(0.0, 0.96)], [(1.0, 1.0)]),
    ))
    with pytest.raises(DomainError):
        implied_curve(qs)


def test_priced_flows_match_the_generating_curve():
    # quotes built from a curve's prices imply that curve back, so pricing
    # any on-grid flow with the implied curve agrees with the original
    flat = FlatCurve(0.03)
    grid = (0.0, 1.0, 2.0, 3.0)
    quotes = tuple(
        _quote([(0.0, flat.discount(k))], [(float(k), 1.0)]) for k in (1, 2, 3))
    curve = implied_curve(QuoteSet(grid=grid, quotes=quotes))
    flow = dirac(1.0, 5.0) + dirac(3.0, -2.0)
    assert price(curve, flow).value == pytest.approx(
        price(flat, flow).value, abs=1e-9)


# --- closure probe -----------------------------------------------------------


def test_closure_probe_on_consistent_market():
    flat = FlatCurve(0.03)
    grid = (0.0, 1.0, 2.0, 3.0)
    quotes = tuple(
        _quote([(0.0, flat.discount(k))], [(float(k), 1.0)]) for k in (1, 2, 3))
    report = closure_probe(QuoteSet(grid=grid, quotes=quotes),
                           trials=100, seed=9)
    assert report.ok
    assert report.trials == 100


# --- randomized agreement with brute force ----------------------------------


def test_brute_force_never_beats_the_checker():
    # the integer-box search is sound but incomplete: whatever it finds,
    # check() must also find (the converse can fail -- e.g. a certificate
    # needing coefficients (11,-5,2,3) escapes the [-5,5] box), and every
    # certificate must replay
    rng = np.random.default_rng(1234)
    disagreements = 0
    for _ in range(150):
        qs = random_quote_set(rng)
        verdict = check(qs)
        oracle = brute_force_has_arbitrage(qs)
        if oracle:
            assert isinstance(verdict, Arbitrage)
        if isinstance(verdict, Arbitrage) != oracle:
            disagreements += 1
        replay(qs, verdict)
    # the box misses only rare, large-coefficient certificates
    assert disagreements <= 5


def test_scaled_quotes_keep_the_verdict():
    # doubling both sides of every quote is the same market
    rng = np.random.default_rng(77)
    for _ in range(40):
        qs = random_quote_set(rng)
        scaled = QuoteSet(grid=qs.grid, quotes=tuple(
            Quote(2.0 * q.left, 2.0 * q.right) for q in qs.quotes))
        assert isinstance(check(qs), Arbitrage) == isinstance(
            check(scaled), Arbitrage)


# --- the null-space decision -------------------------------------------------


def exact_replay(quote_set, verdict):
    """Replay a certificate from its exact weights, in rationals."""
    D = quote_set.difference_matrix()
    weights = verdict.exact_coefficients
    assert verdict.coefficients == tuple(float(w) for w in weights)
    assert max(abs(w) for w in weights) == 1
    combo = [sum((w * row[j] for w, row in zip(weights, D)), Fraction(0))
             for j in range(len(quote_set.grid))]
    assert all(v >= 0 for v in combo) and any(v > 0 for v in combo)
    assert verdict.portfolio.atoms == tuple(
        Atom(t, float(v)) for t, v in zip(quote_set.grid, combo) if v != 0)


@pytest.fixture
def lp_calls(monkeypatch):
    """Counts the checker's calls of the phase-1 simplex."""
    calls = []

    def counted(*args):
        calls.append(args)
        return phase_one(*args)
    monkeypatch.setattr(arbitrage, "phase_one", counted)
    return calls


def ladder_quote_set(rng, points, rate, off_curve=0, unquoted=()):
    """A coupon-bond ladder priced on the flat curve (1+rate)^-t, grid
    0..points-1, with no bond maturing at the times ``unquoted``;
    ``off_curve`` = +1 or -1 adds a zero-coupon quote 2% to 8% off the
    curve in that direction."""
    grid = tuple(float(t) for t in range(points))
    quotes = []
    for k in range(1, points):
        c = rng.uniform(0.0, 0.08)
        if k in unquoted:
            continue
        right = [(float(j), c) for j in range(1, k)] + [(float(k), 1.0 + c)]
        value = sum(a * (1.0 + rate) ** -t for t, a in right)
        quotes.append(_quote([(0.0, value)], right))
    if off_curve:
        k = rng.randrange(1, points)
        miss = rng.uniform(0.02, 0.08) * off_curve
        quotes.append(_quote([(0.0, (1.0 + rate) ** -k * (1.0 + miss))],
                             [(float(k), 1.0)]))
    return QuoteSet(grid=grid, quotes=tuple(quotes))


@pytest.mark.parametrize("off_curve", [0, 1, -1])
@pytest.mark.parametrize("points", [30, 60])
def test_long_ladders(points, off_curve, lp_calls):
    rng = random.Random(f"ladder-{points}-{off_curve}")
    rate = rng.uniform(0.005, 0.08)
    qs = ladder_quote_set(rng, points, rate, off_curve)
    verdict = check(qs)
    assert not lp_calls
    if off_curve:
        assert isinstance(verdict, Arbitrage)
        exact_replay(qs, verdict)
    else:
        assert isinstance(verdict, ArbitrageFree)
        for t, p in zip(qs.grid, verdict.implied):
            want = (1.0 + rate) ** -t
            assert abs(p - want) <= 1e-12 * want
    replay(qs, verdict)


@pytest.mark.parametrize("grid", [(0.0, 2.0, 1.0), (0.0, 1.0, 1.0)])
def test_grid_must_increase(grid):
    with pytest.raises(DomainError, match=r"^grid times must be strictly increasing$"):
        QuoteSet(grid=grid, quotes=())


def test_lazy_echelon_matches_the_eager_one():
    cases = [
        ([[0, 2, 1], [3, 1, 0], [0, 0, 5]], 3),  # a row swap at the first pivot
        ([[0, 4, 1], [0, 2, 3]], 3),  # a zero column
        ([[1, 2, 3], [2, 4, 6], [0, 1, 1]], 3),  # rank-deficient
        ([[2, 0, 1], [0, 3, 1], [1, 1, 0]], 2),  # D^T with its right-hand side carried
    ]
    # sparse seeded integer matrices, some rank-deficient (a row that is a
    # combination of two others), some with width short of the columns
    rng = random.Random(404)
    for _ in range(400):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        rows = [[rng.choice((0, 0, 0, rng.randint(-9, 9), rng.randint(-2**70, 2**70)))
                 for _ in range(n)] for _ in range(m)]
        if m >= 3 and rng.random() < 0.3:
            rows[rng.randrange(m)] = [rng.randint(-3, 3) * x + rng.randint(-3, 3) * y
                                      for x, y in zip(rows[0], rows[1])]
        cases.append((rows, n - 1 if n > 1 and rng.random() < 0.3 else n))
    for rows, width in cases:
        assert _echelon(rows, width) == eager_echelon(rows, width)


def test_integer_rows_match_the_fraction_path():
    # each integer row over its scale is D's row, and the scale is the least
    # common denominator of that row (1 when it is 0)
    cases = [
        # 0.75 right against 0.25 left at t=1 leaves 1/2 there: scale 2, not 4
        _quote([(1.0, 0.25)], [(1.0, 0.75)]),
        _quote([(0.0, 0.3), (2.0, 1.5)], [(0.0, 0.3), (2.0, 1.5)]),
        Quote(CashFlow(), CashFlow()),
        _quote([(0.0, 1e-300)], [(1.0, 1e300), (2.0, 0.1)]),
        _quote([(1.0, -0.0)], [(0.0, -0.0), (2.0, 3.0)]),
    ]
    rng = random.Random(505)
    quote_sets = [QuoteSet(grid=(0.0, 1.0, 2.0), quotes=tuple(cases))]
    quote_sets += [random_float_quote_set(rng) for _ in range(200)]
    for qs in quote_sets:
        red = reduce_quotes(qs)
        for row, scale, want in zip(red.rows, red.scales, qs.difference_matrix(),
                                    strict=True):
            assert [Fraction(a, scale) for a in row] == want
            assert scale == math.lcm(*(v.denominator for v in want))
    red = reduce_quotes(quote_sets[0])
    assert red.scales[:3] == (2, 1, 1)
    assert red.rows[0] == (0, 1, 0) and red.rows[1] == red.rows[2] == (0, 0, 0)
    assert red.scales[3:] == (Fraction(1e-300).denominator, 1)
    assert red.rows[4] == (0, 0, 3)


def test_branch_no_null_space():
    # a package quoted 0.05 above its two bonds: sell it, buy the bonds,
    # and keep the difference at t=0 (w = e_0)
    qs = QuoteSet(grid=(0.0, 1.0, 2.0), quotes=(
        _quote([(0.0, 0.95)], [(1.0, 1.0)]),
        _quote([(0.0, 0.90)], [(2.0, 1.0)]),
        _quote([(0.0, 1.90)], [(1.0, 1.0), (2.0, 1.0)]),
    ))
    assert reduce_quotes(qs).null_dim == 0
    verdict = check(qs)
    assert isinstance(verdict, Arbitrage)
    assert verdict.coefficients == (1.0, 1.0, -1.0)
    (free_lunch,) = verdict.portfolio.atoms
    assert free_lunch.time == 0.0
    assert free_lunch.amount == float(
        Fraction(1.90) - Fraction(0.95) - Fraction(0.90))
    exact_replay(qs, verdict)


def test_branch_null_vector_with_a_zero():
    # both quotes price the t=2 payment at 0.8, but the second also asks
    # for a payment at t=1, which must then be worth 0 (w = e_1)
    qs = QuoteSet(grid=(0.0, 1.0, 2.0), quotes=(
        _quote([(0.0, 0.8)], [(2.0, 1.0)]),
        _quote([(0.0, 0.8), (1.0, 1.0)], [(2.0, 1.0)]),
    ))
    red = reduce_quotes(qs)
    assert red.null_dim == 1
    assert red.null_vector(red.free[0])[1] == 0
    verdict = check(qs)
    assert isinstance(verdict, Arbitrage)
    assert verdict.coefficients == (1.0, -1.0)
    assert verdict.portfolio.atoms == (Atom(1.0, 1.0),)
    exact_replay(qs, verdict)


def test_branch_null_vector_of_mixed_signs():
    # the quotes force p_2 = 0.5 - 0.9 < 0; the first positive and first
    # negative entries, t=0 and t=2, give w = 0.4 e_0 + e_2 (up to scale)
    qs = QuoteSet(grid=(0.0, 1.0, 2.0), quotes=(
        _quote([(0.0, 0.9)], [(1.0, 1.0)]),
        _quote([(0.0, 0.5)], [(1.0, 1.0), (2.0, 1.0)]),
    ))
    red = reduce_quotes(qs)
    assert red.null_dim == 1
    v = red.null_vector(red.free[0])
    assert v[0] * v[2] < 0 and all(x != 0 for x in v)
    verdict = check(qs)
    assert isinstance(verdict, Arbitrage)
    assert verdict.coefficients == (-1.0, 1.0)
    assert verdict.portfolio.atoms == (
        Atom(0.0, float(Fraction(0.9) - Fraction(0.5))), Atom(2.0, 1.0))
    exact_replay(qs, verdict)


def test_branch_wide_null_space_runs_the_lp(lp_calls):
    # free: no w >= 0 with sum 1 is orthogonal to the null space, and the
    # phase-1 duals price t=2 like t=1; arb: the first quote alone is a
    # free lunch, and the phase-1 point is that flow
    free = QuoteSet(grid=(0.0, 1.0, 2.0), quotes=(
        _quote([(0.0, 0.95)], [(1.0, 1.0)]),
    ))
    arb = QuoteSet(grid=(0.0, 1.0, 2.0, 3.0), quotes=(
        _quote([], [(0.0, 1.0), (1.0, 1.0)]),
        _quote([(0.0, 0.9)], [(2.0, 1.0)]),
    ))
    for qs in (free, arb):
        assert reduce_quotes(qs).null_dim >= 2
    verdict = check(free)
    assert isinstance(verdict, ArbitrageFree)
    assert lp_oracle(free)[0] == "free"
    assert verdict.implied == (1.0, 0.95, 0.95)
    verdict = check(arb)
    assert isinstance(verdict, Arbitrage)
    assert lp_oracle(arb)[0] == "arbitrage"
    assert verdict.coefficients == (1.0, 0.0)
    assert verdict.portfolio.atoms == (Atom(0.0, 1.0), Atom(1.0, 1.0))
    exact_replay(arb, verdict)
    assert len(lp_calls) == 2


# --- agreement with the general LP -------------------------------------------


def lp_oracle(quote_set):
    """The general LP verdict: maximize s subject to D (s*1 + q) = 0,
    s + q_j + r_j = 1, q, r >= 0, solved exactly; s > 0 gives the price
    vector and s = 0 makes the quote-row duals a certificate."""
    g = len(quote_set.grid)
    if not quote_set.quotes:
        return ("free", (1.0,) * g)
    zero = Fraction(0)
    D = quote_set.difference_matrix()
    m = len(D)
    A, b = [], []
    for i in range(m):
        s_i = sum(D[i], zero)
        A.append([s_i, -s_i] + list(D[i]) + [zero] * g)
        b.append(zero)
    for j in range(g):
        row = [Fraction(1), Fraction(-1)] + [zero] * (2 * g)
        row[2 + j] = Fraction(1)
        row[2 + g + j] = Fraction(1)
        A.append(row)
        b.append(Fraction(1))
    c = [Fraction(-1), Fraction(1)] + [zero] * (2 * g)
    res = solve_lp(A, b, c)
    assert res.status == "optimal"
    s_star = res.x[0] - res.x[1]
    if s_star > 0:
        p = [s_star + res.x[2 + j] for j in range(g)]
        return ("free", tuple(float(pj / p[0]) for pj in p))
    cert = [-res.duals[i] for i in range(m)]
    combo = [sum(cert[i] * D[i][j] for i in range(m)) for j in range(g)]
    if not (all(v >= 0 for v in combo) and any(v > 0 for v in combo)):
        cert = [-w for w in cert]
        combo = [-v for v in combo]
    unit = max(abs(w) for w in cert)
    return ("arbitrage", tuple(float(w / unit) for w in cert), tuple(
        Atom(t, float(v / unit)) for t, v in zip(quote_set.grid, combo) if v != 0))


def random_float_quote_set(rng):
    """Up to 8 grid points, most often few, and one quote more: quotes of
    integer amounts, or quotes priced at t=0 on a flat curve, some of them
    off it.  Prices are full-length floats; the paid amounts are multiples
    of 1/16, so that the oracle's LP stays quick."""
    g = min(rng.randint(1, 8), rng.randint(1, 8))
    grid = tuple(float(t) for t in range(g))
    quotes = []
    if rng.random() < 0.4:
        for _ in range(rng.randint(1, g + 1)):
            quotes.append(_quote(*(
                [(t, float(rng.randint(-3, 3))) for t in grid if rng.random() < 0.5]
                for _side in range(2))))
    else:
        rate = rng.uniform(-0.02, 0.1)
        for _ in range(rng.randint(1, g + 1)):
            right = [(t, rng.randint(-16, 32) / 16.0)
                     for t in grid if rng.random() < 0.5]
            value = sum(a * (1.0 + rate) ** -t for t, a in right)
            if rng.random() < 0.2:
                value *= 1.0 + rng.uniform(-0.05, 0.05)
            quotes.append(_quote([(0.0, value)], right))
    return QuoteSet(grid=grid, quotes=tuple(quotes))


def test_verdicts_match_the_lp_oracle():
    rng = random.Random(606)
    seen = set()
    for _ in range(500):
        qs = random_float_quote_set(rng)
        verdict = check(qs)
        oracle = lp_oracle(qs)
        k = reduce_quotes(qs).null_dim if qs.quotes else None
        if isinstance(verdict, ArbitrageFree):
            assert oracle[0] == "free"
            if k is None or k <= 1:
                assert oracle == ("free", verdict.implied)
            else:
                # a different vertex than the oracle's: check that it is a
                # price vector.  Each entry is p_j / p_0 rounded once, so
                # D's row i times it is at most 2^-52 sum_j |D_ij| implied_j
                assert verdict.implied[0] == 1.0
                assert all(p > 0 for p in verdict.implied)
                implied = [Fraction(p) for p in verdict.implied]
                for row in qs.difference_matrix():
                    residual = sum(d * p for d, p in zip(row, implied))
                    scale = sum(abs(d) * p for d, p in zip(row, implied))
                    assert abs(residual) <= Fraction(1, 2**52) * scale
        else:
            assert oracle[0] == "arbitrage"
            exact_replay(qs, verdict)
        seen.add((min(k, 2) if k is not None else None,
                  isinstance(verdict, Arbitrage)))
    # every branch of the decision was exercised
    assert {(0, True), (1, True), (1, False), (2, True), (2, False)} <= seen


# --- the phase-1 simplex against the general LP ------------------------------


def random_system(rng):
    """A small integer system ``A x = b`` with ``b >= 0``: random, or
    feasible by construction (``b = A x0`` for some ``x0 >= 0``, rows
    negated where needed), sometimes with a zero row or a repeated row."""
    m, n = rng.randint(1, 4), rng.randint(1, 6)
    A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
    if m >= 2 and rng.random() < 0.2:
        A[-1] = list(A[0]) if rng.random() < 0.5 else [0] * n
    if rng.random() < 0.5:
        x0 = [rng.choice((0, 0, rng.randint(1, 4))) for _ in range(n)]
        b = [sum(a * x for a, x in zip(row, x0)) for row in A]
        A = [row if bi >= 0 else [-a for a in row] for row, bi in zip(A, b)]
        b = [abs(bi) for bi in b]
    else:
        b = [rng.choice((0, rng.randint(0, 4))) for _ in range(m)]
    return A, b


def test_phase_one_matches_the_general_lp():
    rng = random.Random(707)
    seen = set()
    for _ in range(400):
        A, b = random_system(rng)
        lp = phase_one(A, b)
        if any(any(row) for row in A):
            oracle = solve_lp(A, b, [0] * len(A[0]))
            assert oracle.status in ("optimal", "infeasible")
            assert lp.feasible == (oracle.status == "optimal")
        else:
            # the oracle deletes every row of a zero A and then fails on
            # its empty tableau; x = 0 decides such a system
            assert lp.feasible == (not any(b))
        if lp.feasible:
            assert all(x >= 0 for x in lp.x)
            assert [sum(a * x for a, x in zip(row, lp.x)) for row in A] == b
        else:
            assert all(sum(y * row[j] for y, row in zip(lp.y, A)) <= 0
                       for j in range(len(A[0])))
            assert sum(y * bi for y, bi in zip(lp.y, b)) > 0
        seen.add(lp.feasible)
    assert seen == {True, False}


def test_phase_one_needs_b_nonnegative():
    with pytest.raises(ValueError, match=r"b >= 0"):
        phase_one([[1, 1]], [-1])


def test_phase_one_stops_at_the_pivot_cap(monkeypatch):
    monkeypatch.setattr(simplex, "_PIVOT_CAP", 0)
    with pytest.raises(RuntimeError, match="pivot cap"):
        phase_one([[1, 1]], [1])


def test_verdicts_are_replayed_before_they_are_returned():
    # 1 at t = 1 quoted at 0.9: its integer row is (0.9 * 2**53, -2**53)
    red = reduce_quotes(QuoteSet((0.0, 1.0), (Quote(dirac(1.0, 1.0), dirac(0.0, 0.9)),)))
    assert red.rows == ((8106479329266893, -2 ** 53),)
    assert red.max_bits == 54
    with pytest.raises(RuntimeError, match="does not reprice"):
        arbitrage._repricing(red, [1, 1])
    with pytest.raises(RuntimeError, match="not strictly positive"):
        arbitrage._repricing(red, [0, 0])
    # weight 1 on the row is the flow (0.9, -1), no free lunch either way
    with pytest.raises(RuntimeError, match="certificate replay failed"):
        arbitrage._certificate(red, [1])
