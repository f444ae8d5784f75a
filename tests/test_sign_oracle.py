"""The polynomial sign split against exact arithmetic.

``poly.sign_units`` cuts a polynomial at its sign changes.  The oracle
works on the same coefficients as exact rationals: sympy counts the real
roots of odd multiplicity strictly inside the interval (a square-free
factorisation, then exact root counting), and ``fractions.Fraction``
gives the sign at 15 evenly spaced points inside each span.  Nothing in
the oracle calls pvkit's polynomial code.
"""
from fractions import Fraction

import numpy as np
import pytest

from pvkit import poly
from pvkit.sampling import random_cashflow

sympy = pytest.importorskip("sympy")

_T = sympy.Symbol("t")


def _grid_product(rng) -> tuple[float, ...]:
    """1-4 factors ``t - r`` (r on the 1/8 grid in (0, 10)), some squared.

    Built in exact arithmetic; every coefficient converts to a float
    exactly, so a squared factor stays a true double root.
    """
    coeffs = [Fraction(1)]
    for _ in range(int(rng.integers(1, 5))):
        root = Fraction(int(rng.integers(1, 80)), 8)
        for _ in range(2 if rng.random() < 0.3 else 1):
            # times (t - root)
            coeffs = [-root * coeffs[0]] + [
                lo - root * hi for lo, hi in zip(coeffs, coeffs[1:])
            ] + [coeffs[-1]]
    assert all(Fraction(float(c)) == c for c in coeffs)
    return tuple(float(c) for c in coeffs)


def _late_bump(rng) -> tuple[float, float, tuple[float, ...]]:
    """A degree 5-8 product of factors ``t - r`` on a short span near t = 20-30.

    The roots are on the 1/8 grid in [a, a + 1], a an integer in 20..29, each
    squared with probability 0.3; the span is [a, a + 1] or [a - 0.5, a + 1.5].
    Horner's rounding error at these times is as large as the bump's own
    height.  The coefficients are converted to floats; where that rounds
    them (18 of 200 here), the oracle checks the stored polynomial, not the
    product.
    """
    a = int(rng.integers(20, 30))
    coeffs = [Fraction(1)]
    while len(coeffs) < int(rng.integers(6, 10)):
        root = a + Fraction(int(rng.integers(0, 9)), 8)
        for _ in range(2 if rng.random() < 0.3 and len(coeffs) < 8 else 1):
            coeffs = [-root * coeffs[0]] + [
                lo - root * hi for lo, hi in zip(coeffs, coeffs[1:])
            ] + [coeffs[-1]]
    lo, hi = (a, a + 1) if rng.random() < 0.5 else (a - 0.5, a + 1.5)
    return float(lo), float(hi), tuple(float(c) for c in coeffs)


def _cases():
    rng = np.random.default_rng(11)
    cases = []
    for _ in range(300):
        flow = random_cashflow(rng, horizon=30.0)
        cases += [(p.start, p.end, p.coeffs) for p in flow.pieces]
    cases += [(0.0, 10.0, _grid_product(rng)) for _ in range(300)]
    cases += [_late_bump(rng) for _ in range(200)]
    return cases


def _odd_roots_inside(exact, lo: Fraction, hi: Fraction) -> int:
    p = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(exact)],
                   _T, domain="QQ")
    a = sympy.Rational(lo.numerator, lo.denominator)
    b = sympy.Rational(hi.numerator, hi.denominator)
    count = 0
    for factor, multiplicity in p.sqf_list()[1]:
        if multiplicity % 2:
            # count_roots counts the closed interval [a, b]
            count += factor.count_roots(a, b) - (factor.eval(a) == 0) - (factor.eval(b) == 0)
    return count


def _exact_sign(exact, x: Fraction) -> int:
    v = sum(c * x ** k for k, c in enumerate(exact))
    return (v > 0) - (v < 0)


def test_sign_spans_match_exact_roots_and_signs():
    cases = _cases()
    assert len(cases) > 400
    misses = []
    for i, (lo, hi, coeffs) in enumerate(cases):
        exact = [Fraction(c) for c in coeffs]
        spans = [(a, b, s) for a, b, _, s, _ in poly.sign_units([(lo, hi, coeffs, 0.0)])]
        tiled = (bool(spans) and spans[0][0] == lo and spans[-1][1] == hi
                 and all(x[1] == y[0] for x, y in zip(spans, spans[1:])))
        cuts = len(spans) - 1
        signs_ok = True
        for a, b, sign in spans:
            # even roots may sit at some of the points, so none may have the
            # other sign and one at least must have this one
            seen = {_exact_sign(exact, Fraction(a) + (Fraction(b) - Fraction(a)) * k / 16)
                    for k in range(1, 16)}
            signs_ok &= sign in seen and -sign not in seen
        if not (tiled and signs_ok
                and cuts == _odd_roots_inside(exact, Fraction(lo), Fraction(hi))):
            misses.append(i)
    assert misses == []
