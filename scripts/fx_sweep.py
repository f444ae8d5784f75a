"""Refusals, fit segments, error bounds and digests of a seeded FX conversion sweep.

Converts two seeded sets of foreign flows (``numpy.random.default_rng(9)``)
with ``convert_measure_with_bound``, each on its own two-currency market
(two ``random_curve`` draws, horizon 60, and a spot rate in [0.2, 5]):

* ``random``: 150 ``random_cashflow`` flows at horizon 60;
* ``late``: 200 single densities of degree 4 to 8 starting at t = 20 to 28
  and 1 to 10 years long, bounded away from zero and stored in global
  monomials, where the fitter's roundoff floor binds.

For each set it prints how many cases raise DomainError (and which), the
total number of fitted pieces, the fit rounds (calls of
``fx.interpolate_chebyshev``, which the fitter makes once per round, refused
cases included) and their mean per case, the summed error bound, the
largest error bound relative to ``1 + TV`` (TV the converted flow's total
variation) and how many cases exceed ``1e-8`` of it, and a SHA-256 of the
``repr`` of every converted flow, in case order: two revisions whose
digests agree converted every case bit for bit.

A second line per set checks the paper's FX identity on every converted
case: the converted flow priced on the domestic curve against spot times
the foreign flow priced on the foreign curve, each bracket at most
``1e-9 (1 + TV)`` wide.  It counts the cases whose two brackets are
disjoint and the largest gap between them relative to ``1 + TV``.  All
but the times repeat exactly.

Run:  PYTHONPATH=src python scripts/fx_sweep.py
"""
import hashlib
import math
import time

import numpy as np

from pvkit import (DomainError, DualCurrencyMarket, convert_measure_with_bound, density, fx,
                   price, total_variation)
from pvkit.sampling import random_cashflow, random_curve

HORIZON = 60.0
RANDOM_CASES = 150
LATE_CASES = 200
BOUND_LIMIT = 1e-8  # of 1 + TV
PRICE_REL_TOL = 1e-9  # of 1 + TV, the width of each bracket of the identity check


def _market(rng):
    return DualCurrencyMarket(random_curve(rng, horizon=HORIZON),
                              random_curve(rng, horizon=HORIZON),
                              float(rng.uniform(0.2, 5.0)))


def _late_density(rng):
    """``sum_k c_k u**k`` with ``u = (t - start) / width`` and ``c_0`` above
    the sum of the other magnitudes, expanded in powers of t."""
    degree = int(rng.integers(4, 9))
    start = float(rng.uniform(20.0, 28.0))
    width = float(rng.uniform(1.0, 10.0))
    local = rng.uniform(-0.3, 0.3, size=degree + 1)
    local[0] = rng.uniform(0.6, 1.4) + np.abs(local[1:]).sum()
    coeffs = [math.fsum(float(local[k]) * math.comb(k, j) * (-start) ** (k - j) / width ** k
                        for k in range(j, degree + 1)) for j in range(degree + 1)]
    return density(start, start + width, tuple(coeffs))


def main():
    rng = np.random.default_rng(9)
    sets = {
        "random": [(_market(rng), random_cashflow(rng, horizon=HORIZON))
                   for _ in range(RANDOM_CASES)],
        "late": [(_market(rng), _late_density(rng)) for _ in range(LATE_CASES)],
    }
    counts = {"rounds": 0}
    interpolate = fx.interpolate_chebyshev

    def counted_interpolate(values, half):
        counts["rounds"] += 1
        return interpolate(values, half)

    fx.interpolate_chebyshev = counted_interpolate
    try:
        for name, cases in sets.items():
            report(name, cases, counts)
    finally:
        fx.interpolate_chebyshev = interpolate


def report(name, cases, counts):
    counts["rounds"] = 0
    start = time.perf_counter()
    refused, segments, bounds, converted = [], 0, [], []
    digest = hashlib.sha256()
    for i, (market, flow) in enumerate(cases):
        try:
            out, bound = convert_measure_with_bound(market, flow)
        except DomainError:
            refused.append(i)
            continue
        segments += len(out.pieces)
        bounds.append(bound)
        converted.append((market, flow, out, bound))
        digest.update(repr(out).encode())
    elapsed = time.perf_counter() - start
    relative = [bound / (1.0 + total_variation(out)) for *_, out, bound in converted]
    print(f"{name}: {len(refused)} of {len(cases)} refused, {segments} segments, "
          f"{counts['rounds']} fit rounds ({counts['rounds'] / len(cases):.2f} per case), "
          f"error bound sum {math.fsum(bounds):.6g}, max bound/(1+TV) {max(relative):.3g}, "
          f"{sum(r > BOUND_LIMIT for r in relative)} over {BOUND_LIMIT:g}, {elapsed:.2f} s; "
          f"refused {refused}; sha256 {digest.hexdigest()}")
    identity(name, converted)


def identity(name, converted):
    """Disjoint brackets and the largest gap of the FX identity check."""
    start = time.perf_counter()
    disjoint, gaps, unpriced = 0, [], []
    for i, (market, flow, out, _) in enumerate(converted):
        scale = 1.0 + total_variation(out)
        tol = PRICE_REL_TOL * scale
        s = market.spot_fx
        try:
            local = price(market.domestic_curve, out, tol)
            foreign = price(market.foreign_curve, flow, tol / s) * s
        except DomainError:
            unpriced.append(i)
            continue
        gap = max(local.lower - foreign.upper, foreign.lower - local.upper, 0.0)
        disjoint += gap > 0.0
        gaps.append(gap / scale)
    print(f"{name} identity: {disjoint} of {len(gaps)} brackets disjoint, "
          f"max gap/(1+TV) {max(gaps, default=0.0):.3g}, {len(unpriced)} not priced "
          f"{unpriced}, {time.perf_counter() - start:.2f} s")


if __name__ == "__main__":
    main()
