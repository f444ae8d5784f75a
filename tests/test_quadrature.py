"""Certified integration of smooth integrands against polynomial densities."""
import math
import time

import numpy as np
import pytest

from pvkit import DomainError, FlatCurve, density, price
from pvkit import poly, quadrature
from pvkit.quadrature import bracketed_integral


def _exp_decay(t):
    return np.exp(-0.05 * t)


def test_bracket_contains_closed_form():
    pieces = ((0.0, 10.0, (1.0,)),)
    exact = (1.0 - math.exp(-0.5)) / 0.05
    br = bracketed_integral(_exp_decay, pieces, tol=1e-10)
    assert br.lower <= exact <= br.upper
    assert br.upper - br.lower <= 1e-10
    assert br.value == pytest.approx(exact, abs=1e-10)


def test_growing_integrand_brackets_closed_form():
    # e^t against the unit density on [0, 1): exact e - 1
    br = bracketed_integral(np.exp, ((0.0, 1.0, (1.0,)),), tol=1e-12)
    exact = math.e - 1.0
    assert br.lower <= exact <= br.upper
    assert br.upper - br.lower <= 1e-12


def test_polynomial_integrand_times_density():
    # f(t) = t^2 against rho(t) = t on [0, 2): exact 2^4/4 = 4
    br = bracketed_integral(lambda t: t * t,
                            ((0.0, 2.0, (0.0, 1.0)),), tol=1e-12)
    assert br.lower <= 4.0 <= br.upper


def test_signed_density_split():
    # rho = t - 1 on [0, 2) against f = 1: exact 0, with both signs present
    br = bracketed_integral(np.ones_like,
                            ((0.0, 2.0, (-1.0, 1.0)),), tol=1e-12)
    assert br.lower <= 0.0 <= br.upper
    assert abs(br.value) <= 1e-12


def test_tightening_tolerance_narrows_bracket():
    pieces = ((0.0, 30.0, (1.0, 0.2, 0.0, 0.001)),)
    widths = []
    for tol in (1e-4, 1e-7, 1e-10):
        br = bracketed_integral(_exp_decay, pieces, tol=tol)
        widths.append(br.upper - br.lower)
        assert br.upper - br.lower <= tol
    assert widths[0] >= widths[1] >= widths[2]


def test_refinement_never_loosens_enclosure():
    # Darboux-style refinement: finer tolerance brackets nest inside cruder
    # ones up to their certified widths
    pieces = ((0.0, 20.0, (2.0, -0.1, 0.01)),)
    crude = bracketed_integral(_exp_decay, pieces, tol=1e-3)
    fine = bracketed_integral(_exp_decay, pieces, tol=1e-9)
    assert crude.lower - 1e-12 <= fine.lower
    assert fine.upper <= crude.upper + 1e-12
    assert crude.lower <= fine.value <= crude.upper


def test_breakpoints_are_respected():
    # integrand with a kink; supplying the kink keeps certification honest
    kink = 5.0
    fn = lambda t: np.abs(t - kink)
    pieces = ((0.0, 10.0, (1.0,)),)
    br = bracketed_integral(fn, pieces, tol=1e-9, breakpoints=(kink,))
    assert br.lower <= 25.0 <= br.upper
    assert br.upper - br.lower <= 1e-9


def test_impossible_budget_raises():
    # the residual pad floors bracket widths near 1e-15 * |fn| * mass, so a
    # tolerance below that floor must exhaust the budget, not silently pass
    pieces = ((0.0, 30.0, (1.0,)),)
    with pytest.raises(DomainError):
        bracketed_integral(_exp_decay, pieces, tol=1e-30)


def test_sub_resolution_features_need_breakpoints():
    # a needle far narrower than the sampling grid is invisible without a
    # marker; with markers at its feet the enclosure finds the mass
    fn = lambda t: np.exp(-((t - 3.0) ** 2) * 1e6)
    pieces = ((0.0, 30.0, (1.0,)),)
    blind = bracketed_integral(fn, pieces, tol=1e-12)
    assert blind.value == 0.0  # sampled certificate, honestly blind
    exact = math.sqrt(math.pi / 1e6)
    seen = bracketed_integral(fn, pieces, tol=1e-12,
                              breakpoints=(2.99, 3.0, 3.01))
    assert seen.lower <= exact <= seen.upper


def test_empty_pieces_is_zero():
    br = bracketed_integral(_exp_decay, (), tol=1e-10)
    assert br.value == br.lower == br.upper == 0.0


def test_deterministic_brackets():
    rng = np.random.default_rng(11)
    pieces = tuple(
        (float(a), float(a) + 1.5, tuple(rng.normal(size=3)))
        for a in range(0, 8, 2)
    )
    first = bracketed_integral(_exp_decay, pieces, tol=1e-11)
    second = bracketed_integral(_exp_decay, pieces, tol=1e-11)
    assert (first.value, first.lower, first.upper) == (
        second.value, second.lower, second.upper)


def test_stalled_bisection_fails_fast():
    # the width of this price sticks near 5.5e-12, above the requested
    # 1e-12: bisection stops at the first round that does not narrow it
    flow = density(14.62, 15.77, (1.2, -1.4, 1.3, 1.1))
    start = time.perf_counter()
    with pytest.raises(DomainError, match=r"tolerance 1e-12 .*attained width \d"):
        price(FlatCurve(0.05), flow, tol=1e-12)
    assert time.perf_counter() - start < 0.5


def test_node_to_sample_rows_sum_to_one():
    # the residual's roundoff allowance relies on this (see bracketed_integral)
    _, lagrange, _, _ = quadrature._tables()
    assert lagrange.shape == (7, 48)
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
    narrow = (1.0, math.nextafter(1.0, 2.0), (1.0,))
    br = bracketed_integral(np.exp, (narrow, (2.0, 3.0, (1.0,))), tol=1e-12)
    assert br.lower <= math.exp(3.0) - math.exp(2.0) + math.e * 2.0 ** -52 <= br.upper
    with pytest.raises(DomainError, match="attained width"):
        bracketed_integral(np.exp, (narrow,), tol=1e-40)


def test_refine_continues_from_a_final_partition():
    # one split, then a sequence of integrands: each enclose starts from the
    # partition the previous one ended with and still meets its tolerance
    pieces = ((0.0, 10.0, (1.0, 0.1)), (12.0, 20.0, (2.0, -0.3, 0.01)))
    times, amounts, rows, part = quadrature.prepare(poly.sign_units(pieces))
    first, part = quadrature.enclose(_exp_decay, (times, amounts, rows, part), 1e-10)
    assert first == bracketed_integral(_exp_decay, pieces, tol=1e-10)
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
        a, b, unit = (x[order] for x in part)
        same = unit[1:] == unit[:-1]
        assert (a[1:][same] == b[:-1][same]).all()
        estimate = quadrature.estimate(lambda t: np.exp(-lam * t), rows, part)
        assert estimate == pytest.approx(exact, rel=1e-9)


def _poisson(k, x):
    """``sum_{j <= k} x^j / j!``, for ``integral t^k e^(-lam t)``."""
    return math.fsum(x ** j / math.factorial(j) for j in range(k + 1))
