"""Work counts and wall time of ``irr`` solves on seeded flows.

Each flow is priced on a flat curve at a seeded rate and ``irr`` solves
for that price.  A solve steers by Newton steps on fixed-node estimates
until an update is within ``tol``, then certifies; an atoms-only flow has
exact sums and certifies from its first step.  For every solve the
script prints the rate steps (``iterations``), the steering steps among
them, the certified present-value brackets computed (``certified``:
calls of ``quadrature.enclose``, the atoms-plus-density enclosure a
certified step of a flow with densities runs, or for an atoms-only flow
one exact atom sum per step; the rate on the far side of the root that
``irr`` certifies from a certified step's own items is not a step and
computes no bracket, so a density solve that ends that way counts 1),
the flow splits (``poly.sign_units`` calls over one or more density
pieces; a flow is split once, when it is first priced),
the quadrature batches and items built
(``quadrature._evaluate_items`` calls and the intervals they evaluate)
and the best wall time of a solve.  A certified step whose bracket does
not tell the side of the target calls ``enclose`` again at the same rate,
so the certified steps of a flow with densities are the distinct rates
``enclose`` is called at (its integrand at ``t = -1`` is ``1 + rate``).
The first three flows are fixed: the 10-year annual annuity, a unit
density on [0, 10) and a narrow degree-4 bump worth 3.4e-13; the rest
come from ``random_cashflow`` (nonnegative, horizon 30) with rates drawn
from [0.005, 0.08).  A flow keeps its sign split once made, and pricing
the target splits it, so every solve, counted or timed, runs on a fresh
equal flow (``CashFlow(flow.atoms, flow.pieces)``, made outside the
timer) that has not been split.  Every column but the time repeats
exactly::

    PYTHONPATH=src python scripts/irr_profile.py
"""
from __future__ import annotations

import time

import numpy as np

from pvkit import CashFlow, FlatCurve, density, dirac, irr, poly, price, pricing, quadrature
from pvkit.sampling import random_cashflow

SEED = 7
RANDOM_FLOWS = 12
# best of this many solves, or of as many as fit in MIN_SECONDS
REPEATS = 5
MIN_SECONDS = 0.1


def bump():
    """``(t - 25)^2 (t - 25.0078125)^2`` on [25, 25.0078125); exact coefficients."""
    coeffs = (1.0,)
    for root in (25.0, 25.0, 25.0078125, 25.0078125):
        coeffs = poly.multiply(coeffs, (-root, 1.0))
    return density(25.0, 25.0078125, coeffs)


def cases():
    annuity = sum((dirac(float(k)) for k in range(2, 11)), dirac(1.0))
    out = [("annuity 10y", annuity, 0.05), ("density [0,10)", density(0.0, 10.0), 0.05),
           ("bump near 25", bump(), 0.04)]
    rng = np.random.default_rng(SEED)
    for k in range(RANDOM_FLOWS):
        flow = random_cashflow(rng, nonnegative=True)
        out.append((f"random {k}", flow, float(rng.uniform(0.005, 0.08))))
    return out


def fresh(flow):
    """An equal flow that has not made its sign split yet."""
    return CashFlow(flow.atoms, flow.pieces)


def best_time(flow, target) -> float:
    times = []
    while len(times) < REPEATS or sum(times) < MIN_SECONDS:
        solve = fresh(flow)
        t0 = time.perf_counter()
        irr(solve, target)
        times.append(time.perf_counter() - t0)
    return min(times)


def main() -> None:
    counts = {"pv": 0, "splits": 0, "batches": 0, "items": 0}
    rates = set()  # 1 + rate of each enclose call
    enclose, sign_units, evaluate_items = pricing.enclose, poly.sign_units, quadrature._evaluate_items

    def counted_enclose(fn, *args):
        counts["pv"] += 1
        rates.add(float(fn(np.array([-1.0]))[0]))
        return enclose(fn, *args)

    def counted_units(pieces):
        counts["splits"] += bool(pieces)
        return sign_units(pieces)

    def counted_items(fn, a, b, coeffs):
        counts["batches"] += 1
        counts["items"] += len(a)
        return evaluate_items(fn, a, b, coeffs)

    print(f"{'flow':>15} {'rate':>7} {'steps':>5} {'steer':>5} {'certified':>9} {'splits':>6} "
          f"{'batches':>7} {'items':>6} {'solve ms':>9}")
    rows = []
    for name, flow, rate in cases():
        target = price(FlatCurve(rate), flow).value
        for key in counts:
            counts[key] = 0
        rates.clear()
        patched = counted_enclose, counted_units, counted_items
        pricing.enclose, poly.sign_units, quadrature._evaluate_items = patched
        try:
            steps = irr(fresh(flow), target).iterations
        finally:
            pricing.enclose, poly.sign_units, quadrature._evaluate_items = (
                enclose, sign_units, evaluate_items)
        certified, steer = (counts["pv"], steps - len(rates)) if flow.pieces else (steps, 0)
        ms = 1e3 * best_time(flow, target)
        rows.append((steps, steer, certified, counts["splits"], counts["batches"],
                     counts["items"], ms))
        print(f"{name:>15} {rate:>7.4f} {steps:>5} {steer:>5} {certified:>9} "
              f"{counts['splits']:>6} {counts['batches']:>7} {counts['items']:>6} {ms:>9.3f}")
    mean = np.mean(rows, axis=0)
    print(f"{'mean':>15} {'':>7} {mean[0]:>5.1f} {mean[1]:>5.1f} {mean[2]:>9.1f} {mean[3]:>6.1f} "
          f"{mean[4]:>7.1f} {mean[5]:>6.1f} {mean[6]:>9.3f}")


if __name__ == "__main__":
    main()
