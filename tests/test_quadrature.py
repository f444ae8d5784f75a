"""Certified integration of smooth integrands against polynomial densities."""
import math
import time

import numpy as np
import pytest

from pvkit import (Atom, CashFlow, DensityPiece, DomainError, FlatCurve, SvenssonCurve,
                   density, price, quadrature)
from pvkit.sampling import random_cashflow, random_curve


def _exp_decay(t):
    return np.exp(-0.05 * t)


def _integral(fn, flow, tol, breakpoints=()):
    """The bracket of ``integral fn d(flow)``, the flow's units cut at the breakpoints."""
    return quadrature.enclose(fn, quadrature.prepare(flow._units, breakpoints), tol)[0]


def test_bracket_operators_act_field_by_field():
    a = quadrature.Bracket(1.0, 1.5, 0.25, 1.125)
    b = quadrature.Bracket(-2.0, -1.75, 0.5, -2.0)
    assert a + b == quadrature.Bracket(-1.0, -0.25, 0.75, -0.875)
    assert a * 4.0 == quadrature.Bracket(4.0, 6.0, 1.0, 4.5)
    assert a / 4.0 == quadrature.Bracket(0.25, 0.375, 0.0625, 0.28125)
    # the same float operations as the fields written out, bit for bit
    c = quadrature.Bracket(0.1, 0.3, 0.7, -0.1)
    assert (c * 1.3, c / 1.3) == (
        quadrature.Bracket(0.1 * 1.3, 0.3 * 1.3, 0.7 * 1.3, -0.1 * 1.3),
        quadrature.Bracket(0.1 / 1.3, 0.3 / 1.3, 0.7 / 1.3, -0.1 / 1.3))


def test_bracket_contains_closed_form():
    exact = (1.0 - math.exp(-0.5)) / 0.05
    br = _integral(_exp_decay, density(0.0, 10.0), 1e-10)
    assert br.lower <= exact <= br.upper
    assert br.upper - br.lower <= 1e-10
    assert br.value == pytest.approx(exact, abs=1e-10)


def test_growing_integrand_brackets_closed_form():
    # e^t against the unit density on [0, 1): exact e - 1
    br = _integral(np.exp, density(0.0, 1.0), 1e-12)
    exact = math.e - 1.0
    assert br.lower <= exact <= br.upper
    assert br.upper - br.lower <= 1e-12


def test_polynomial_integrand_times_density():
    # f(t) = t^2 against rho(t) = t on [0, 2): exact 2^4/4 = 4
    br = _integral(lambda t: t * t, density(0.0, 2.0, (0.0, 1.0)), 1e-12)
    assert br.lower <= 4.0 <= br.upper


def test_signed_density_split():
    # rho = t - 1 on [0, 2) against f = 1: exact 0, with both signs present
    br = _integral(np.ones_like, density(0.0, 2.0, (-1.0, 1.0)), 1e-12)
    assert br.lower <= 0.0 <= br.upper
    assert abs(br.value) <= 1e-12


def test_tightening_tolerance_narrows_bracket():
    flow = density(0.0, 30.0, (1.0, 0.2, 0.0, 0.001))
    widths = []
    for tol in (1e-4, 1e-7, 1e-10):
        br = _integral(_exp_decay, flow, tol)
        widths.append(br.upper - br.lower)
        assert br.upper - br.lower <= tol
    assert widths[0] >= widths[1] >= widths[2]


def test_refinement_never_loosens_enclosure():
    # Darboux-style refinement: finer tolerance brackets nest inside cruder
    # ones up to their certified widths
    flow = density(0.0, 20.0, (2.0, -0.1, 0.01))
    crude = _integral(_exp_decay, flow, 1e-3)
    fine = _integral(_exp_decay, flow, 1e-9)
    assert crude.lower - 1e-12 <= fine.lower
    assert fine.upper <= crude.upper + 1e-12
    assert crude.lower <= fine.value <= crude.upper


def test_breakpoints_are_respected():
    # integrand with a kink; supplying the kink keeps certification honest
    kink = 5.0
    fn = lambda t: np.abs(t - kink)
    br = _integral(fn, density(0.0, 10.0), 1e-9, breakpoints=(kink,))
    assert br.lower <= 25.0 <= br.upper
    assert br.upper - br.lower <= 1e-9


def test_impossible_budget_raises():
    # the residual pad floors bracket widths near 1e-15 * |fn| * mass, so a
    # tolerance below that floor must exhaust the budget, not silently pass
    with pytest.raises(DomainError):
        _integral(_exp_decay, density(0.0, 30.0), 1e-30)


def test_interval_budget_raises():
    # 19,999 breakpoints lay out 20,000 items, so no item can be bisected
    # and a tolerance the kink at 1/3 cannot meet exhausts the budget
    marks = tuple(np.linspace(0.0, 1.0, 20001)[1:-1])
    with pytest.raises(DomainError, match=r"tolerance 1e-15 not achievable within "
                       r"the 20000-interval budget: attained width \d"):
        _integral(lambda t: np.sqrt(np.abs(t - 1.0 / 3.0)), density(0.0, 1.0), 1e-15,
                  breakpoints=marks)


def test_non_finite_integrand_raises():
    fn = lambda t: np.where(t > 0.5, np.inf, 1.0)
    # raised without a numpy warning on the way
    with pytest.raises(DomainError, match="integrand is not finite on the density's support"):
        _integral(fn, density(0.0, 1.0), 1e-10)


def test_sub_resolution_features_need_breakpoints():
    # a needle far narrower than the sampling grid is invisible without a
    # marker; with markers at its feet the enclosure finds the mass
    fn = lambda t: np.exp(-((t - 3.0) ** 2) * 1e6)
    flow = density(0.0, 30.0)
    blind = _integral(fn, flow, 1e-12)
    assert blind.value == 0.0  # sampled certificate, honestly blind
    exact = math.sqrt(math.pi / 1e6)
    seen = _integral(fn, flow, 1e-12, breakpoints=(2.99, 3.0, 3.01))
    assert seen.lower <= exact <= seen.upper


def test_empty_pieces_is_zero():
    br = _integral(_exp_decay, CashFlow(), 1e-10)
    assert br.value == br.lower == br.upper == 0.0


def test_deterministic_brackets():
    rng = np.random.default_rng(11)
    flow = CashFlow(pieces=tuple(DensityPiece(float(a), float(a) + 1.5, tuple(rng.normal(size=3)))
                                 for a in range(0, 8, 2)))
    first = _integral(_exp_decay, flow, 1e-11)
    second = _integral(_exp_decay, flow, 1e-11)
    assert (first.value, first.lower, first.upper) == (
        second.value, second.lower, second.upper)


def test_stalled_bisection_fails_fast():
    # the width of this price sticks near 5.5e-12, above the requested
    # 1e-12: refinement stops at the first round that does not narrow it
    flow = density(14.62, 15.77, (1.2, -1.4, 1.3, 1.1))
    start = time.perf_counter()
    with pytest.raises(DomainError, match=r"tolerance 1e-12 .*attained width \d"):
        price(FlatCurve(0.05), flow, tol=1e-12)
    assert time.perf_counter() - start < 0.5


def _count_batches(monkeypatch):
    """Counts of ``_evaluate_items`` calls (batches) and the items they build."""
    counts = {"batches": 0, "items": 0}
    evaluate_items = quadrature._evaluate_items

    def counted(fn, a, b, coeffs):
        counts["batches"] += 1
        counts["items"] += len(a)
        return evaluate_items(fn, a, b, coeffs)

    monkeypatch.setattr(quadrature, "_evaluate_items", counted)
    return counts


def _svensson_oracle(b0, b1, b2, b3, tau1, tau2):
    """mpmath P(t) of a Svensson curve, from its parameters."""
    import mpmath as mp
    b0, b1, b2, b3, tau1, tau2 = (mp.mpf(v) for v in (b0, b1, b2, b3, tau1, tau2))

    def h1(x):
        return -mp.expm1(-x) / x

    def p(t):
        x1, x2 = t / tau1, t / tau2
        y = b0 + b1 * h1(x1) + b2 * (h1(x1) - mp.exp(-x1)) + b3 * (h1(x2) - mp.exp(-x2))
        return mp.exp(-t * y)
    return p


@pytest.mark.parametrize("family, batches", [("svensson", 3), ("flat", 2)])
def test_refinement_depth_follows_the_observed_decay(monkeypatch, family, batches):
    # a 30-year density at 1e-10: bisecting one level a round took 7 batches
    # on the Svensson curve and 4 on the flat one; splitting to the depth
    # the decay predicts takes at most 3 and 2
    mp = pytest.importorskip("mpmath")
    params = (0.03, -0.01, 0.02, 0.01, 2.0, 8.0)
    if family == "svensson":
        curve, oracle = SvenssonCurve(*params), _svensson_oracle(*params)
    else:
        curve, oracle = FlatCurve(0.03), (lambda t: (1 + mp.mpf(0.03)) ** (-t))
    counts = _count_batches(monkeypatch)
    br = price(curve, density(0.0, 30.0, (1.0, 0.1)), tol=1e-10)
    assert counts["batches"] <= batches
    assert br.upper - br.lower <= 1e-10
    with mp.workdps(30):
        exact = mp.quad(lambda t: (1 + mp.mpf(0.1) * t) * oracle(t), [0, 10, 20, 30])
    assert br.lower <= exact <= br.upper


# the cases of scripts/quadrature_sweep.py that tol 1e-12 refuses: each
# stalls at its noise floor, and bisecting one level a round built 639
# items on them in all
_NOISE_FLOOR_CASES = (0, 1, 10, 17, 25, 26, 30, 31, 37, 43, 55, 58, 62, 73, 85, 86, 87, 91,
                      100, 110, 113, 131, 135, 143, 144)


def test_noise_floor_refusals_stay_stalls(monkeypatch):
    # near the noise floor the measured decay falls below the gate and the
    # loop bisects: every refusal is still the stall, not the budget, and
    # the refusals build no more items in all than bisection alone did
    counts = _count_batches(monkeypatch)
    stalled = r"tolerance 1e-12 not achievable: refinement stalled at attained width \d"
    with pytest.raises(DomainError, match=stalled):
        price(FlatCurve(0.05), density(14.62, 15.77, (1.2, -1.4, 1.3, 1.1)), tol=1e-12)
    assert counts["items"] <= 3
    rng = np.random.default_rng(7)
    cases = [(random_curve(rng, horizon=30.0), random_cashflow(rng, horizon=30.0))
             for _ in range(150)]
    counts["items"] = 0
    for i in _NOISE_FLOOR_CASES:
        with pytest.raises(DomainError, match=stalled):
            price(*cases[i], tol=1e-12)
    assert counts["items"] <= 639


def test_node_to_sample_rows_sum_to_one():
    # the residual's roundoff allowance relies on this (see enclose)
    _, lagrange, _ = quadrature._tables()
    assert lagrange.shape == (7, 41)
    for row in lagrange.T.tolist():
        assert abs(math.fsum(row) - 1.0) <= 2 * math.ulp(1.0)


def test_polynomial_part_rule_is_exact_to_degree_15():
    # the 8-point rule integrates density times model (degree <= 14)
    for m in range(16):
        exact = 2.0 / (m + 1) if m % 2 == 0 else 0.0
        got = math.fsum(w * x ** m for x, w in quadrature._GL8)
        assert got == pytest.approx(exact, abs=1e-15)


def test_interval_too_narrow_to_bisect_is_kept_as_is():
    # [1, 1 + ulp] has no float midpoint: its width is final, so a
    # tolerance below it is refused instead of looping
    narrow = DensityPiece(1.0, math.nextafter(1.0, 2.0), (1.0,))
    br = _integral(np.exp, CashFlow(pieces=(narrow, DensityPiece(2.0, 3.0, (1.0,)))), 1e-12)
    assert br.lower <= math.exp(3.0) - math.exp(2.0) + math.e * 2.0 ** -52 <= br.upper
    with pytest.raises(DomainError, match="attained width"):
        _integral(np.exp, CashFlow(pieces=(narrow,)), 1e-40)


def test_split_depth_gate_cap_and_tiling():
    # ceil(log2(excess) / decay) levels, capped; one level below the gate
    # or where a deeper cut of a few-ulp item would leave an empty child
    depths = [quadrature._depth(excess, decay, cap) for excess, decay, cap in (
        (2.0 ** 13, 7.0, 3), (2.0 ** 15, 7.0, 3), (1e30, 7.0, 3), (1e30, 5.0, 3),
        (1e30, math.nan, 3), (1e30, 7.0, 2), (3.0, math.inf, 3))]
    assert depths == [2, 3, 3, 1, 1, 2, 1]
    few_ulps = math.nextafter(math.nextafter(math.nextafter(1.0, 2.0), 2.0), 2.0)
    a = np.array([0.0, 2.0, 4.0, 1.0])
    b = np.array([1.0, 3.0, 5.0, few_ulps])
    depth = np.array([2, 3, 1, 3])
    ca, cb, parent = quadrature._split(a, b, depth)
    assert depth.tolist() == [2, 3, 1, 1]
    for i in range(len(a)):
        order = np.argsort(ca[parent == i])
        lo, hi = ca[parent == i][order], cb[parent == i][order]
        assert len(lo) == 2 ** depth[i] and (lo < hi).all()
        assert lo[0] == a[i] and hi[-1] == b[i] and (lo[1:] == hi[:-1]).all()


def test_refine_continues_from_a_final_partition():
    # one split, then a sequence of integrands: each enclose starts from the
    # partition the previous one ended with and still meets its tolerance
    pieces = ((0.0, 10.0, (1.0, 0.1)), (12.0, 20.0, (2.0, -0.3, 0.01)))
    flow = CashFlow(pieces=tuple(DensityPiece(*p) for p in pieces))
    times, amounts, rows, part = quadrature.prepare(flow._units)
    _, part = quadrature.enclose(_exp_decay, (times, amounts, rows, part), 1e-10)
    for lam in (0.03, 0.08, 0.2):
        br, finer = quadrature.enclose(lambda t: np.exp(-lam * t),
                                       (times, amounts, rows, part), 1e-10)
        assert len(finer[0]) >= len(part[0])
        part = finer
        exact = sum(
            math.fsum(c * math.gamma(k + 1) / lam ** (k + 1) * (
                math.exp(-lam * a) * _poisson(k, lam * a)
                - math.exp(-lam * b) * _poisson(k, lam * b))
                for k, c in enumerate(coeffs))
            for a, b, coeffs in pieces)
        assert br.lower <= exact <= br.upper
        assert br.upper - br.lower <= 1e-10
        # the final partition tiles every unit without gaps or overlaps
        order = np.lexsort((part[0], part[2]))
        a, b, unit = (x[order] for x in part[:3])
        same = unit[1:] == unit[:-1]
        assert (a[1:][same] == b[:-1][same]).all()
        # the fixed nodes of the final partition estimate the same integral
        nodes, weights = quadrature.fixed_nodes((times, amounts, rows, part))
        estimate = math.fsum((weights * np.exp(-lam * nodes)).tolist())
        assert estimate == pytest.approx(exact, rel=1e-9)


def test_fixed_nodes_of_atoms_sum_as_enclose_does():
    # atoms only: the nodes are the atom times and the weights their
    # amounts, so the fixed-node sum is enclose's zero-width atom sum
    atoms = [Atom(t, a) for t, a in ((0.5, 1.25), (3.0, 0.03), (7.25, 2.0), (30.0, 1.0 / 3.0))]
    measure = quadrature.prepare((), atoms=atoms, origin=0.25)
    nodes, weights = quadrature.fixed_nodes(measure)
    for rate in (-0.5, 0.0, 0.0371, 0.9):
        fn = lambda t: np.power(1.0 + rate, -t)  # noqa: E731
        br, _ = quadrature.enclose(fn, measure, 1e-10)
        value = math.fsum((weights * fn(nodes)).tolist())
        assert br.lower == br.upper == value


def test_item_values_are_the_fixed_node_sum():
    # an item's point value is the GL8 sum that fixed_nodes lays out, so
    # the density part is the fixed-node estimate on the final partition
    # up to the rounding of the two summation orders
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(150):
        curve, flow = random_curve(rng), random_cashflow(rng)
        measure = quadrature.prepare(flow._units, curve.knot_times())
        if not len(measure[3][0]):
            continue
        br, part = quadrature.enclose(curve.discount_many, measure, 1e-3)
        nodes, weights = quadrature.fixed_nodes(measure[:3] + (part,))
        terms = (weights * curve.discount_many(nodes)).tolist()
        size = math.fsum(map(abs, terms))
        assert abs(br.density_part - math.fsum(terms)) <= 2 * math.ulp(1.0) * size
        checked += 1
    assert checked == 112


def test_an_item_alone_evaluates_as_in_a_batch():
    # each row's products are summed in node order, never by a BLAS matmul
    # whose order depends on the number of rows, so an item's enclosure and
    # value are the same bits alone as inside any batch
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(50):
        curve, flow = random_curve(rng), random_cashflow(rng)
        _, _, rows, (a, b, unit) = quadrature.prepare(flow._units, curve.knot_times())
        if not len(a):
            continue
        batch = quadrature._evaluate_items(curve.discount_many, a, b, rows[unit])
        for k in range(len(a)):
            alone = quadrature._evaluate_items(curve.discount_many, a[k:k + 1], b[k:k + 1],
                                               rows[unit[k:k + 1]])
            assert alone.tolist() == batch[k:k + 1].tolist()
            checked += 1
    assert checked == 63


def _poisson(k, x):
    """``sum_{j <= k} x^j / j!``, for ``integral t^k e^(-lam t)``."""
    return math.fsum(x ** j / math.factorial(j) for j in range(k + 1))
