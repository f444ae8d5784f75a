"""Time ``arbitrage.check`` on coupon-bond ladders of growing size.

For n = 5, 12, 30 and 60 grid points (times 0..n-1) the script builds a
bootstrapped ladder on a flat curve: bond k pays a coupon at 1..k and its
principal at k, and is quoted at its curve value.  Each ladder is checked
as it is, and with one zero-coupon quote priced 2% to 8% off the curve,
which breaks the law of one price.  Two more consistent ladders leave some
maturities unquoted, so that the null space has two or more dimensions and
the exact phase-1 simplex runs: 12 points with 1 unquoted and 20 with 3.
Next to the best time of ``check`` it prints the work behind it: the
verdict, the dimension of the null space of the difference matrix D (1 on
a consistent ladder, 0 with the off-curve quote, 1 plus the number
unquoted), how many times ``simplex.phase_one`` ran (the LP runs), the
largest integer bit length of the fraction-free echelon form of D, and that
of the certificate's exact weights.  The inputs are seeded, so every column but the time repeats
exactly::

    PYTHONPATH=src python scripts/ladder_scaling.py
"""
from __future__ import annotations

import random
import time

from pvkit import Arbitrage, CashFlow, Quote, QuoteSet, arbitrage
from pvkit.measures import Atom

SIZES = (5, 12, 30, 60)
# (grid points, unquoted maturities) of the ladders with a wider null space
UNQUOTED = ((12, 1), (20, 3))
SEED = 6
# best of this many calls, or of as many as fit in MIN_SECONDS
REPEATS = 5
MIN_SECONDS = 0.2


def ladder(rng: random.Random, points: int, rate: float, off_curve: int,
           unquoted=()) -> QuoteSet:
    def flow(atoms):
        return CashFlow(atoms=tuple(Atom(t, a) for t, a in atoms))

    grid = tuple(float(t) for t in range(points))
    quotes = []
    for k in range(1, points):
        c = rng.uniform(0.0, 0.08)
        if k in unquoted:
            continue
        right = [(float(j), c) for j in range(1, k)] + [(float(k), 1.0 + c)]
        value = sum(a * (1.0 + rate) ** -t for t, a in right)
        quotes.append(Quote(flow([(0.0, value)]), flow(right)))
    if off_curve:
        k = rng.randrange(1, points)
        miss = rng.uniform(0.02, 0.08) * off_curve
        quotes.append(Quote(flow([(0.0, (1.0 + rate) ** -k * (1.0 + miss))]),
                            flow([(float(k), 1.0)])))
    return QuoteSet(grid, tuple(quotes))


def best_time(quote_set: QuoteSet) -> float:
    times = []
    while len(times) < REPEATS or sum(times) < MIN_SECONDS:
        t0 = time.perf_counter()
        arbitrage.check(quote_set)
        times.append(time.perf_counter() - t0)
    return min(times)


def main() -> None:
    rng = random.Random(SEED)
    lp_calls = 0
    phase_one = arbitrage.phase_one

    def counted(*args):
        nonlocal lp_calls
        lp_calls += 1
        return phase_one(*args)

    def row(n: int, kind: str, qs: QuoteSet) -> None:
        nonlocal lp_calls
        lp_calls = 0
        verdict = arbitrage.check(qs)
        runs = lp_calls
        ms = 1e3 * best_time(qs)
        red = arbitrage.reduce_quotes(qs)
        if isinstance(verdict, Arbitrage):
            name = "arbitrage"
            cert_bits = max(max(w.numerator.bit_length(), w.denominator.bit_length())
                            for w in verdict.exact_coefficients)
        else:
            name, cert_bits = "free", "-"
        print(f"{n:>3} {kind:>10} {name:>14} {red.null_dim:>8} {runs:>7} "
              f"{red.max_bits:>12} {cert_bits:>9} {ms:>10.2f}")

    print(f"{'n':>3} {'ladder':>10} {'verdict':>14} {'null dim':>8} {'LP runs':>7} "
          f"{'echelon bits':>12} {'cert bits':>9} {'check ms':>10}")
    arbitrage.phase_one = counted
    try:
        for n in SIZES:
            rate = rng.uniform(0.005, 0.08)
            for off in (0, 1):
                row(n, "off-curve" if off else "on-curve", ladder(rng, n, rate, off))
        for n, count in UNQUOTED:
            rate = rng.uniform(0.005, 0.08)
            unquoted = rng.sample(range(1, n), count)
            row(n, f"{count} unquoted", ladder(rng, n, rate, 0, unquoted))
    finally:
        arbitrage.phase_one = phase_one


if __name__ == "__main__":
    main()
