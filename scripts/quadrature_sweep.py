"""Refusals and result digests of the seeded quadrature sweep, per tolerance.

Prices 150 random flows on random curves (``numpy.random.default_rng(7)``,
one ``random_curve`` then one ``random_cashflow`` per case, horizon 30) at
tol 1e-6, 1e-10 and 1e-12 and at the default tolerance (``tol=None``,
``1e-10 * (1 + total variation)``), and prints for each tolerance how many
cases raise DomainError (the tolerance is below the flow's noise floor),
which ones, and how many returned brackets are wider than the tolerance.  The
refused set shows where the noise floor of the bracketed quadrature lies,
so two revisions can be compared case by case.  The line also counts the
quadrature work: the batches (``quadrature._evaluate_items`` calls, one
integrand call each) and the items (intervals) they evaluate, refused
cases included.  The counts repeat exactly; the times do not.

Each tolerance's line also carries a SHA-256 of the ``repr`` of every
returned result's ``value``, ``lower``, ``upper``, ``atom_part`` and
``density_part``, in case order: two revisions whose digests agree
returned bit-identical results.  A second SHA-256 covers the one-field
tuple ``(density_part,)`` alone, so a change to the atom sum and a change
to the quadrature show up separately.  A third covers ``(lower, upper)``
alone, so a change to the point values that leaves every bracket as it
was shows as a change of the first two digests only.

Run:  PYTHONPATH=src python scripts/quadrature_sweep.py
"""
import hashlib
import time

import numpy as np

from pvkit import DomainError, default_tolerance, price, quadrature
from pvkit.sampling import random_cashflow, random_curve

CASES = 150
HORIZON = 30.0
TOLERANCES = (1e-6, 1e-10, 1e-12, None)
FIELDS = ("value", "lower", "upper", "atom_part", "density_part")


def main():
    rng = np.random.default_rng(7)
    cases = [(random_curve(rng, horizon=HORIZON), random_cashflow(rng, horizon=HORIZON))
             for _ in range(CASES)]
    counts = {"batches": 0, "items": 0}
    evaluate_items = quadrature._evaluate_items

    def counted_items(fn, a, b, coeffs):
        counts["batches"] += 1
        counts["items"] += len(a)
        return evaluate_items(fn, a, b, coeffs)

    quadrature._evaluate_items = counted_items
    try:
        sweep(cases, counts)
    finally:
        quadrature._evaluate_items = evaluate_items


def sweep(cases, counts):
    total = 0
    for tol in TOLERANCES:
        counts["batches"] = counts["items"] = 0
        start = time.perf_counter()
        refused, too_wide = [], 0
        digest, density, bracket = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
        for i, (curve, flow) in enumerate(cases):
            try:
                res = price(curve, flow, tol)
            except DomainError:
                refused.append(i)
                continue
            too_wide += res.upper - res.lower > (default_tolerance(flow) if tol is None else tol)
            digest.update(repr(tuple(getattr(res, f) for f in FIELDS)).encode())
            density.update(repr((res.density_part,)).encode())
            bracket.update(repr((res.lower, res.upper)).encode())
        total += len(refused)
        print(f"tol {'default' if tol is None else f'{tol:g}'}: {len(refused)} of {CASES} refused, {too_wide} wider than tol, "
              f"{time.perf_counter() - start:.2f} s; {counts['batches']} batches, "
              f"{counts['items']} items; refused {refused}; "
              f"sha256 {digest.hexdigest()}; density_part sha256 {density.hexdigest()}; "
              f"(lower, upper) sha256 {bracket.hexdigest()}")
    print(f"total: {total} of {CASES * len(TOLERANCES)} refused")


if __name__ == "__main__":
    main()
