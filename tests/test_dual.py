"""A positive linear pricing rule that no single discount curve matches.

The rule prices atoms with one curve and densities with another (the
flagship preset doubles the density weight).  It stays linear, strictly
positive on nonzero nonnegative flows, and normalizes the unit payment
at time 0 to 1 -- all the no-arbitrage axioms -- yet its restriction to
atoms pins down the curve, which then misprices every density flow.
"""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pvkit import (
    DomainError,
    DualFunctional,
    FlatCurve,
    ScaledCurve,
    SpotGridCurve,
    choquet_gap,
    density,
    dirac,
    double_density,
    dual_price,
    price,
    total_variation,
)
from pvkit.sampling import random_cashflow
from selfchecks import verify_na_positivity

seeds = st.integers(min_value=0, max_value=2**32 - 1)

BASE = FlatCurve(0.05)
RULE = double_density(BASE)


def test_atoms_price_as_the_base_curve():
    flow = dirac(1.0, 2.0) + dirac(7.0, -1.0)
    assert dual_price(RULE, flow).value == pytest.approx(
        price(BASE, flow).value, rel=1e-14)
    assert choquet_gap(RULE, flow) == pytest.approx(0.0, abs=1e-12)


def test_densities_price_double():
    flow = density(0.0, 10.0, (1.0,))
    dual = dual_price(RULE, flow, tol=1e-11).value
    plain = price(BASE, flow, tol=1e-11).value
    assert dual == pytest.approx(2.0 * plain, abs=2e-10)
    assert plain == pytest.approx(7.91320859504571, abs=1e-10)
    assert choquet_gap(RULE, flow) == pytest.approx(plain, abs=2e-10)


def test_unit_payment_prices_to_one():
    assert dual_price(RULE, dirac(0.0, 1.0)).value == 1.0


@given(seeds)
def test_rule_is_linear(seed):
    rng = np.random.default_rng(seed)
    a = random_cashflow(rng)
    b = random_cashflow(rng)
    k = float(rng.uniform(-2.0, 2.0))
    lhs = dual_price(RULE, a + k * b).value
    rhs = dual_price(RULE, a).value + k * dual_price(RULE, b).value
    scale = 1.0 + total_variation(a) + abs(k) * total_variation(b)
    assert lhs == pytest.approx(rhs, abs=1e-9 * scale)


@given(seeds)
def test_rule_is_strictly_positive(seed):
    rng = np.random.default_rng(seed)
    flow = random_cashflow(rng, nonnegative=True)
    if flow.is_null:
        return
    assert dual_price(RULE, flow).lower > 0.0


def test_positivity_report_clean():
    report = verify_na_positivity(RULE, trials=300, seed=5)
    assert report.ok
    assert report.positivity_failures == 0
    assert report.linearity_failures == 0
    assert report.unit_price_gap == 0.0


def test_no_curve_can_match_both_parts():
    # any curve agreeing with the rule on atoms IS the base curve (atom
    # prices pin P pointwise), and the base curve misses densities by 2x
    probe_atom = dirac(3.0, 1.0)
    probe_density = density(2.0, 4.0, (1.0,))
    assert dual_price(RULE, probe_atom).value == pytest.approx(
        BASE.discount(3.0), rel=1e-14)
    ratio = dual_price(RULE, probe_density).value / price(BASE, probe_density).value
    assert ratio == pytest.approx(2.0, abs=1e-10)


def test_custom_weight_pair():
    atoms = SpotGridCurve(((0.0, 1.0), (5.0, 0.8)))
    weight = ScaledCurve(FlatCurve(0.02), 1.5)
    rule = DualFunctional(atoms, weight)
    flow = density(1.0, 3.0, (2.0,))
    expected = 1.5 * price(FlatCurve(0.02), flow).value
    assert dual_price(rule, flow).value == pytest.approx(expected, abs=1e-9)


def test_atom_curve_must_normalize():
    with pytest.raises(DomainError):
        DualFunctional(ScaledCurve(FlatCurve(0.05), 2.0), FlatCurve(0.05))


def test_support_beyond_horizon_rejected():
    with pytest.raises(DomainError):
        dual_price(double_density(FlatCurve(0.05, horizon=5.0)), dirac(9.0))
