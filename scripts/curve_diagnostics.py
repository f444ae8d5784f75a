"""Numeric health checks for the curve families.

Samples random curves per family and reports worst-case residuals of
identities that should hold to rounding error:

* forward-rate composition over r < s < t,
  (1+f(r,t))^(t-r) = (1+f(r,s))^(s-r) (1+f(s,t))^(t-s),
* spot/forward agreement, y(t) = f(0,t),
* discount positivity over a dense sample of [0, horizon].

It also checks ``forward_max(s, a, b)`` against the forward rate sampled
on grids of step 1e-3 (the scan the yield bound used before) and 1e-5,
over a window [a, b] of 0.1 to 1 year seen from s = 0, from inside
(0, a) and from s = a in turn.  It reports the worst amount by which the
1e-3 grid's maximum exceeds ``forward_max``, which should be only the
grid's roundoff (it grows like 1/(t - s)), and the worst amount by which
``forward_max`` exceeds the 1e-5 grid's, which is what the finer sample
still misses (most where the window starts at s).

Run:  python scripts/curve_diagnostics.py [--trials N] [--seed S]
"""
import argparse
import math

import numpy as np

from pvkit import forward_rate, forward_rate_composition_check, spot_rate
from pvkit.sampling import CURVE_FAMILIES, random_curve


def grid_max(curve, s, a, b, step):
    """The largest forward rate f(s, t) over a ``step``-spaced grid on
    [a, b] (both ends included) after s, computed as
    ``(P(s)/P(t))**(1/(t - s)) - 1``."""
    n = int(math.floor((b - a) / step))
    grid = np.concatenate([a + step * np.arange(n + 1), [b]])
    grid = grid[grid > s]
    p = curve.discount_many(np.concatenate([[s], grid]))
    return float(np.max((p[0] / p[1:]) ** (1.0 / (grid - s)) - 1.0))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=20260815)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    # the forward-max windows come from their own stream, so the columns
    # before them read as they did without them
    windows = np.random.default_rng([args.seed, 1])
    print(f"{'family':<12}{'worst composition':>20}{'worst spot-fwd':>18}"
          f"{'min discount':>16}{'1e-3 grid - fmax':>20}{'fmax - 1e-5 grid':>20}")
    for family in CURVE_FAMILIES:
        worst_comp = 0.0
        worst_spot = 0.0
        min_disc = float("inf")
        worst_coarse = worst_fine = -math.inf
        for trial in range(args.trials):
            curve = random_curve(rng, family=family)
            a = float(windows.uniform(0.0, 20.0))
            b = a + float(windows.uniform(0.1, 1.0))
            s = (0.0, float(windows.uniform(0.0, a)), a)[trial % 3]
            fmax = curve.forward_max(s, a, b)
            worst_coarse = max(worst_coarse, grid_max(curve, s, a, b, 1e-3) - fmax)
            worst_fine = max(worst_fine, fmax - grid_max(curve, s, a, b, 1e-5))
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
              f"{min_disc:>16.6f}{worst_coarse:>20.3e}{worst_fine:>20.3e}")


if __name__ == "__main__":
    main()
