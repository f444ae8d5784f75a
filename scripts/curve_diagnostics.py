"""Numeric health checks for the curve families.

Samples random curves per family and reports worst-case residuals of
identities that should hold to rounding error:

* forward-rate composition over r < s < t,
  (1+f(r,t))^(t-r) = (1+f(r,s))^(s-r) (1+f(s,t))^(t-s),
* spot/forward agreement, y(t) = f(0,t),
* discount positivity over a dense sample of [0, horizon].

Run:  python scripts/curve_diagnostics.py [--trials N] [--seed S]
"""
import argparse

import numpy as np

from pvkit import forward_rate, forward_rate_composition_check, spot_rate
from pvkit.sampling import CURVE_FAMILIES, random_curve


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=20260815)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    print(f"{'family':<12}{'worst composition':>20}{'worst spot-fwd':>18}"
          f"{'min discount':>16}")
    for family in CURVE_FAMILIES:
        worst_comp = 0.0
        worst_spot = 0.0
        min_disc = float("inf")
        for _ in range(args.trials):
            curve = random_curve(rng, family=family)
            hi = min(curve.horizon, 40.0)
            r, s, t = np.sort(rng.uniform(0.0, hi, size=3))
            if not (r < s < t):
                continue
            worst_comp = max(worst_comp,
                             forward_rate_composition_check(curve, r, s, t))
            worst_spot = max(worst_spot,
                             abs(spot_rate(curve, t) - forward_rate(curve, 0.0, t)))
            min_disc = min(min_disc,
                           float(curve.discount_many(np.linspace(0.0, hi, 17)).min()))
        print(f"{family:<12}{worst_comp:>20.3e}{worst_spot:>18.3e}"
              f"{min_disc:>16.6f}")


if __name__ == "__main__":
    main()
