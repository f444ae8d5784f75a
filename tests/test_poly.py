"""Polynomial layer: evaluation, calculus, shifts, sign-change isolation."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pvkit import poly

coeff_lists = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=1, max_size=9
)


def test_evaluate_matches_numpy_polyval():
    rng = np.random.default_rng(7)
    for _ in range(50):
        c = rng.normal(size=rng.integers(1, 10))
        x = rng.uniform(-5, 5)
        # numpy wants highest-degree-first
        assert math.isclose(
            poly.evaluate(tuple(c), x), np.polyval(c[::-1], x),
            rel_tol=1e-12, abs_tol=1e-12,
        )


def test_definite_integral_power_rule():
    # \int_1^3 t^2 dt = 26/3
    assert poly.definite_integral((0.0, 0.0, 1.0), 1.0, 3.0) == pytest.approx(26 / 3)


def test_taylor_shift_recenters():
    c = (1.0, -2.0, 0.5, 3.0)
    shifted = poly.taylor_shift(c, 1.5)  # q(x) = p(x + 1.5)
    for x in (-2.0, 0.0, 0.3, 4.0):
        assert poly.evaluate(shifted, x) == pytest.approx(
            poly.evaluate(c, x + 1.5), rel=1e-12
        )


@given(coeff_lists, coeff_lists, st.floats(min_value=-3, max_value=3,
                                           allow_nan=False))
def test_add_and_multiply_are_pointwise(a, b, x):
    a, b = tuple(a), tuple(b)
    pa, pb = poly.evaluate(a, x), poly.evaluate(b, x)
    assert poly.evaluate(poly.add(a, b), x) == pytest.approx(pa + pb, abs=1e-6)
    prod = poly.evaluate(poly.multiply(a, b), x)
    if math.isfinite(pa * pb):
        assert prod == pytest.approx(pa * pb, rel=1e-9, abs=1e-6)


def test_derivative_antiderivative_inverse():
    c = (2.0, -1.0, 0.25, 4.0, -0.5)
    back = poly.derivative(poly.antiderivative(c))
    assert len(back) <= len(c)
    for x in (0.1, 1.7):
        assert poly.evaluate(back, x) == pytest.approx(poly.evaluate(c, x))


def _sign_changes(c, lo, hi):
    # the cuts between the sign units of one piece on [lo, hi)
    return tuple(b for _, b, *_ in poly.sign_units([(lo, hi, c, 0.0)])[:-1])


def test_sign_changes_isolates_simple_roots():
    # (t-1)(t-2) on [0, 3): crossings at 1 and 2
    c = (2.0, -3.0, 1.0)
    pts = _sign_changes(c, 0.0, 3.0)
    assert len(pts) == 2
    assert pts[0] == pytest.approx(1.0, abs=1e-12)
    assert pts[1] == pytest.approx(2.0, abs=1e-12)


def test_sign_changes_skips_touch_roots():
    # (t-1)^2 >= 0 everywhere: no sign change despite the root
    assert _sign_changes((1.0, -2.0, 1.0), 0.0, 2.0) == ()


def test_sign_changes_stops_at_adjacent_floats():
    # near sqrt(5000) one ulp exceeds ROOT_TOL: bisection ends when the
    # midpoint rounds to an end
    assert math.ulp(math.sqrt(5000.0)) > poly.ROOT_TOL
    (root,) = _sign_changes((-5000.0, 0.0, 1.0), 60.0, 80.0)
    assert abs(root - math.sqrt(5000.0)) <= poly.ROOT_TOL


def test_sign_changes_boundary_root_not_interior():
    # root exactly at the left endpoint does not split the interior
    assert _sign_changes((0.0, 1.0), 0.0, 1.0) == ()
