"""Demonstrate a positive linear pricing rule no discount curve reproduces.

The "double-density" rule pays the usual curve price on point payments
but twice the curve price on density payments.  It is linear, strictly
positive, and assigns 1 to a unit payment at time 0 -- yet no single
curve can match it on both kinds of flow.  The table below shows the gap
growing with the density share of the flow while pure-atom flows price
identically under both rules.

The positivity and linearity trials are the test suite's self-check
(``tests/selfchecks.py``), which the script imports from there.

Run:  PYTHONPATH=src python scripts/counterexample_demo.py
"""
import pathlib
import sys

from pvkit import (
    FlatCurve,
    choquet_gap,
    density,
    dirac,
    double_density,
    dual_price,
    price,
)

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))
from selfchecks import verify_na_positivity  # noqa: E402


def main():
    base = FlatCurve(0.05)
    rule = double_density(base)

    flows = [
        ("unit at t=5", dirac(5.0, 1.0)),
        ("atoms 1..5", sum((dirac(float(k), 1.0) for k in range(2, 6)),
                           dirac(1.0, 1.0))),
        ("uniform density [0,10)", density(0.0, 10.0, (1.0,))),
        ("ramp density [0,4)", density(0.0, 4.0, (0.0, 1.0))),
        ("half atom, half density", dirac(2.0, 5.0) + density(0.0, 5.0, (1.0,))),
    ]

    print(f"{'flow':<28}{'curve price':>16}{'dual price':>16}{'gap':>16}")
    for name, flow in flows:
        curve_value = price(base, flow, tol=1e-12).value
        dual_value = dual_price(rule, flow, tol=1e-12).value
        gap = choquet_gap(rule, flow, tol=1e-12)
        print(f"{name:<28}{curve_value:>16.10f}{dual_value:>16.10f}{gap:>16.10f}")

    report = verify_na_positivity(rule, trials=1000, seed=20260815)
    print()
    print(f"positivity trials: {report.trials}, "
          f"violations: {report.positivity_failures}, "
          f"linearity violations: {report.linearity_failures}, "
          f"unit price gap: {report.unit_price_gap:.3e}")
    print("rule is a no-arbitrage pricing functional:", report.ok)

    # the rule cannot be any curve: a curve matching it on atoms is the base
    # curve itself, which misses every density flow by a factor of two
    probe = density(0.0, 1.0, (1.0,))
    ratio = dual_price(rule, probe).value / price(base, probe).value
    print(f"density price ratio vs the atom-matching curve: {ratio:.12f}")


if __name__ == "__main__":
    main()
