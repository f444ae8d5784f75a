"""Origin invariance: a density stored about another origin is the same measure.

Every piece of seeded ``random_cashflow`` flows (two in three with a
density added that changes sign inside its piece) is re-expressed about a
random nonzero origin, by an exact Taylor shift in ``Fraction`` rounded
once.  The two flows must agree in masses, total variation and sign up
to the roundoff of evaluating either, and in Jordan cuts up to
``poly.ROOT_TOL`` plus what that roundoff moves a root; their price
brackets must overlap and each contain the 30-digit mpmath value, both up
to the roundoff allowance of ``tests/test_mpmath_sweep.py``, which the
brackets do not cover.
"""
import math
from fractions import Fraction

import numpy as np
import pytest

from pvkit import (CashFlow, DensityPiece, DomainError, density, is_nonnegative, jordan, mass,
                   poly, price, total_mass, total_variation)
from pvkit.measures import CLOSURES
from pvkit.sampling import random_cashflow, random_curve
from test_mpmath_sweep import _oracle_price

mp = pytest.importorskip("mpmath")

CASES = 60
HORIZON = 30.0
_EPS = 2.0 ** -52


def _about(piece, origin):
    """``piece`` in powers of ``t - origin``: exact Taylor shift, rounded once."""
    d = Fraction(origin) - Fraction(piece.origin)
    c = [Fraction(x) for x in piece.coeffs]
    q = [sum(c[k] * math.comb(k, j) * d ** (k - j) for k in range(j, len(c)))
         for j in range(len(c))]
    return DensityPiece(piece.start, piece.end, tuple(float(x) for x in q), origin)


def _size(flow):
    """Sum of ``|amount|`` and of ``width * sum_k |c_k| r^k`` over pieces, r
    the largest ``|t - origin|`` on the piece: what evaluating the flow
    rounds in proportion to."""
    return math.fsum([abs(a.amount) for a in flow.atoms] + [
        (p.end - p.start) * poly.evaluate(tuple(map(abs, p.coeffs)),
                                          max(abs(p.start - p.origin), abs(p.end - p.origin)))
        for p in flow.pieces])


def _sign_cuts(flow):
    """Times where jordan cuts a piece, the pieces' own ends left out."""
    j = jordan(flow)
    ends = {x for p in flow.pieces for x in (p.start, p.end)}
    return sorted({x for part in (j.positive, j.negative) for p in part.pieces
                   for x in (p.start, p.end)} - ends)


def _root_slack(flow, moved, x):
    """How far apart the two flows' sign changes near ``x`` may lie:
    ``poly.ROOT_TOL``, plus each one's rounding error at ``x`` over the
    slope there (the coefficients themselves are rounded), plus a few ulp
    of ``x`` for the conversions between times and a piece's coordinates."""
    (p,) = [p for p in flow.pieces if p.start < x < p.end]
    (q,) = [q for q in moved.pieces if q.start < x < q.end]
    slope = abs(poly.evaluate(poly.derivative(p.coeffs), x - p.origin))
    size = sum(poly.evaluate(tuple(map(abs, r.coeffs)), abs(x - r.origin)) for r in (p, q))
    return poly.ROOT_TOL + 16 * _EPS * size / slope + 4 * math.ulp(x)


def _cases():
    rng = np.random.default_rng(31)
    cases = []
    for i in range(CASES):
        curve = random_curve(rng, horizon=HORIZON)
        flow = random_cashflow(rng, horizon=HORIZON, nonnegative=i % 3 == 0)
        if i % 3:
            # and a density with one to three sign changes inside its piece
            lo = float(rng.uniform(0.0, 20.0))
            hi = lo + float(rng.uniform(1.0, 8.0))
            roots = poly.trim((float(rng.uniform(0.5, 2.0)),))
            for r in rng.uniform(lo, hi, int(rng.integers(1, 4))):
                roots = poly.multiply(roots, (-float(r), 1.0))
            flow = flow + density(lo, hi, roots)
        moved = []
        for p in flow.pieces:
            width = p.end - p.start
            origin = float(rng.uniform(p.start - width, p.end + width)) or 1.0
            moved.append(_about(p, origin))
        cases.append((curve, flow, CashFlow(flow.atoms, tuple(moved)), rng.uniform(0.0, HORIZON, 8)))
    return cases


def test_flows_about_other_origins_are_the_same_measure():
    for i, (_, flow, moved, ends) in enumerate(_cases()):
        assert all(p.origin != 0.0 for p in moved.pieces)
        slack = 64 * _EPS * (_size(flow) + _size(moved))
        assert total_mass(moved) == pytest.approx(total_mass(flow), abs=slack), i
        assert total_variation(moved) == pytest.approx(total_variation(flow), abs=slack), i
        assert is_nonnegative(moved) == is_nonnegative(flow), i
        for k, (lo, hi) in enumerate(zip(ends[::2], ends[1::2])):
            lo, hi = sorted((float(lo), float(hi)))
            closure = CLOSURES[k % len(CLOSURES)]
            assert mass(moved, lo, hi, closure) == pytest.approx(
                mass(flow, lo, hi, closure), abs=slack), i
        mine, theirs = _sign_cuts(moved), _sign_cuts(flow)
        assert len(mine) == len(theirs), i
        assert all(abs(x - y) <= _root_slack(flow, moved, y) for x, y in zip(mine, theirs)), i


def test_price_brackets_about_other_origins_contain_the_mpmath_value():
    with mp.workdps(30):
        for i, (curve, flow, moved, _) in enumerate(_cases()):
            exact, slack = _oracle_price(curve, flow)
            exact_moved, slack_moved = _oracle_price(curve, moved)
            assert abs(exact_moved - exact) <= slack + slack_moved, i
            for tol in (None, 1e-6, 1e-10):
                try:
                    both = price(curve, flow, tol), price(curve, moved, tol)
                except DomainError:
                    continue  # below the noise floor
                # neither bracket covers the roundoff of its own evaluation
                gap = max(b.lower for b in both) - min(b.upper for b in both)
                assert gap <= slack + slack_moved, (i, tol)
                for b, s in zip(both, (slack, slack_moved)):
                    assert b.lower - s <= exact <= b.upper + s, (i, tol)
