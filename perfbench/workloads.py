"""Seeded inputs for the four benchmark workloads, as plain data.

Nothing here imports pvkit: the specs are lists and dicts of floats in
the shapes of pvkit's JSON file formats, so the same specs feed the
worker (which builds pvkit objects from them), the oracles (which never
touch pvkit) and the CLI input files.  Every workload has a fixed
make-up: the seed only draws the values inside it, so the mix of
operation kinds and sizes is the same on every seed.
"""
from __future__ import annotations

import math
import random

WORKLOADS = ("book", "irr", "ladder", "cli")
FAMILIES = ("flat", "spot_grid", "svensson")

# book: per curve family, BOOK_LENGTHS density-length strata (5 to 30
# years) times BOOK_DEGREES polynomial degrees; every third position of a
# family is a foreign leg
BOOK_LENGTHS = 40
BOOK_DEGREES = 4
# irr: IRR_FLAT plain irr solves on flat curves, then IRR_BOUND
# yield_bound_check calls on each of the spot-grid and Svensson curves
IRR_FLAT = 24
IRR_BOUND = 8
IRR_LENGTHS = (4.0, 12.0)
# ladder: LADDER_POINTS grid times 0..LADDER_POINTS-1; per round
# LADDER_CONSISTENT ladders on a flat curve and LADDER_OFF ladders with one
# extra zero-coupon quote off that curve, priced alternately above and below
LADDER_POINTS = 12
LADDER_CONSISTENT = 5
LADDER_OFF = 3
# cli: the calls of one round, the size of the two arbitrage-check ladders
# and the annuity length
CLI_CALLS = ("price annuity", "fx-convert", "price converted", "arbitrage-check",
             "arbitrage-check off-curve")
CLI_LADDER_POINTS = 5
CLI_ANNUITY_YEARS = 10


def flat_spec(rng: random.Random) -> dict:
    return {"type": "flat", "i": rng.uniform(0.005, 0.06)}


def spot_grid_spec(rng: random.Random) -> dict:
    knots = [[0.0, 1.0]]
    log_p = 0.0
    prev = 0.0
    for t in (1.0, 2.0, 3.0, 5.0, 7.0, 10.0, 15.0, 20.0, 30.0):
        log_p -= rng.uniform(0.0, 0.06) * (t - prev)
        knots.append([t, math.exp(log_p)])
        prev = t
    return {"type": "spot_grid", "knots": knots}


def svensson_spec(rng: random.Random) -> dict:
    return {
        "type": "svensson",
        "beta0": rng.uniform(0.01, 0.06),
        "beta1": rng.uniform(-0.02, 0.02),
        "beta2": rng.uniform(-0.03, 0.03),
        "beta3": rng.uniform(-0.03, 0.03),
        "tau1": rng.uniform(0.5, 3.0),
        "tau2": rng.uniform(4.0, 12.0),
    }


CURVE_SPECS = {"flat": flat_spec, "spot_grid": spot_grid_spec,
               "svensson": svensson_spec}


def positive_density(rng: random.Random, start: float, end: float,
                     degree: int) -> list[float]:
    """Global-monomial coefficients of a density bounded away from zero.

    Drawn as ``sum_k c_k u**k`` in the local coordinate
    ``u = (t - start) / (end - start)`` with ``c_0`` larger than the sum of
    the other magnitudes, then expanded in powers of ``t``, which is the
    form pvkit stores.  No sign change means no sign split, and a density
    that stays near 1 keeps the default tolerance well above the noise
    floor of the stored coefficients.
    """
    local = [rng.uniform(-0.3, 0.3) for _ in range(degree)]
    local.insert(0, rng.uniform(0.6, 1.4) + sum(abs(c) for c in local))
    span = end - start
    out = [0.0] * (degree + 1)
    for k, ck in enumerate(local):
        # ck * ((t - start) / span)**k, expanded binomially
        for j in range(k + 1):
            out[j] += ck * math.comb(k, j) * (-start) ** (k - j) / span ** k
    return out


def coupon_atoms(rng: random.Random, start: float, end: float) -> list[list[float]]:
    """Annual coupons on (start, end] plus the principal at ``end``."""
    coupon = rng.uniform(0.01, 0.08)
    atoms = [[float(t), coupon] for t in range(math.floor(start) + 1, math.floor(end) + 1)]
    atoms.append([end, 1.0])
    return atoms


def book(seed: int) -> dict:
    """Positions on all three curve families, a third of them foreign."""
    rng = random.Random(f"book-{seed}")
    positions = []
    for li in range(BOOK_LENGTHS):
        for degree in range(BOOK_DEGREES):
            for family in FAMILIES:
                length = rng.uniform(5.0 + 25.0 * li / BOOK_LENGTHS,
                                     5.0 + 25.0 * (li + 1) / BOOK_LENGTHS)
                start = rng.uniform(0.0, 2.0)
                end = start + length
                curve = CURVE_SPECS[family](rng)
                market = None
                if (li * BOOK_DEGREES + degree) % 3 == 2:
                    market = {"domestic_curve": curve,
                              "foreign_curve": CURVE_SPECS[family](rng),
                              "spot_fx": rng.uniform(0.5, 2.0)}
                positions.append({
                    "family": family,
                    "curve": curve,
                    "market": market,
                    "atoms": coupon_atoms(rng, start, end),
                    "density": [[start, end, positive_density(rng, start, end, degree)]],
                })
    return {"positions": positions}


def irr(seed: int) -> dict:
    """Nonnegative flows: irr on flat curves, yield bounds on the others."""
    rng = random.Random(f"irr-{seed}")
    ops = []
    kinds = ["irr"] * IRR_FLAT + ["spot_grid", "svensson"] * IRR_BOUND
    lo, hi = IRR_LENGTHS
    for k, kind in enumerate(kinds):
        length = lo + (hi - lo) * (k + rng.random()) / len(kinds)
        start = rng.uniform(0.0, 2.0)
        end = start + length
        ops.append({
            "kind": kind,
            "rate": rng.uniform(0.005, 0.08) if kind == "irr" else None,
            "curve": None if kind == "irr" else CURVE_SPECS[kind](rng),
            "atoms": coupon_atoms(rng, start, end),
            "density": [[start, end, positive_density(rng, start, end, k % 3)]],
        })
    return {"ops": ops}


def ladder_quotes(rng: random.Random, points: int, rate: float,
                  off_curve: int = 0) -> dict:
    """A bootstrapped coupon-bond ladder on the integer grid 0..points-1.

    Bond k pays a coupon at 1..k and the principal at k; its price is the
    flat-curve value.  An off-curve ladder (``off_curve`` = +1 or -1) adds a
    zero-coupon quote whose price misses the curve by 2% to 8% in that
    direction, which breaks the law of one price.
    """
    grid = [float(t) for t in range(points)]
    quotes = []
    for k in range(1, points):
        c = rng.uniform(0.0, 0.08)
        right = [[float(j), c] for j in range(1, k)] + [[float(k), 1.0 + c]]
        value = sum(a * (1.0 + rate) ** -t for t, a in right)
        quotes.append({"left": [[0.0, value]], "right": right})
    if off_curve:
        k = rng.randrange(1, points)
        miss = rng.uniform(0.02, 0.08) * off_curve
        quotes.append({"left": [[0.0, (1.0 + rate) ** -k * (1.0 + miss)]],
                       "right": [[float(k), 1.0]]})
    return {"rate": rate, "off_curve": off_curve, "grid": grid, "quotes": quotes}


def ladder(seed: int) -> dict:
    rng = random.Random(f"ladder-{seed}")
    kinds = [0] * LADDER_CONSISTENT + [(-1) ** k for k in range(LADDER_OFF)]
    return {"ladders": [ladder_quotes(rng, LADDER_POINTS, rng.uniform(0.005, 0.08), off)
                        for off in kinds]}


def cli(seed: int) -> dict:
    """Small inputs for price, fx-convert then price, and arbitrage-check on
    a consistent and an off-curve ladder."""
    rng = random.Random(f"cli-{seed}")
    rate = rng.uniform(0.005, 0.08)
    amount = rng.uniform(0.5, 2.0)
    annuity = [[float(t), amount] for t in range(1, CLI_ANNUITY_YEARS + 1)]
    start = rng.uniform(0.0, 2.0)
    end = start + rng.uniform(3.0, 8.0)
    foreign_flow = {"atoms": [[end, 1.0]],
                    "density": [[start, end, positive_density(rng, start, end, 1)]]}
    market = {"domestic_curve": flat_spec(rng), "foreign_curve": flat_spec(rng),
              "spot_fx": rng.uniform(0.5, 2.0)}
    quotes = ladder_quotes(rng, CLI_LADDER_POINTS, rng.uniform(0.005, 0.08))
    off_quotes = ladder_quotes(rng, CLI_LADDER_POINTS, rng.uniform(0.005, 0.08),
                               off_curve=1)
    return {"curve": {"type": "flat", "i": rate}, "annuity": annuity,
            "market": market, "foreign_flow": foreign_flow, "quotes": quotes,
            "off_quotes": off_quotes}


GENERATORS = {"book": book, "irr": irr, "ladder": ladder, "cli": cli}


def specs(workload: str, seed: int) -> dict:
    return GENERATORS[workload](seed)
