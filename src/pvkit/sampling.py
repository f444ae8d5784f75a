"""Seeded random generators for cash flows and curves.

Used by the test suite and the experiment scripts.  Everything takes a
``numpy.random.Generator`` so runs are reproducible.
"""
from __future__ import annotations

import numpy as np

from . import poly
from .curves import FlatCurve, SpotGridCurve, SvenssonCurve
from .measures import Atom, CashFlow, DensityPiece

CURVE_FAMILIES = ("flat", "spot_grid", "svensson")


def random_cashflow(rng: np.random.Generator, *, horizon: float = 30.0,
                    nonnegative: bool = False) -> CashFlow:
    """A random nonzero cash flow supported inside [0, horizon]: up to 3
    atoms and up to 2 density pieces.

    Nonnegative flows use positive atom amounts and squared polynomials
    (plus a positive constant) as densities, so nonnegativity holds
    pointwise by construction, not merely on average.
    """
    n_atoms = int(rng.integers(0, 4))
    n_pieces = int(rng.integers(0, 3))
    if n_atoms == 0 and n_pieces == 0:
        n_atoms = 1
    atoms = []
    for _ in range(n_atoms):
        t = float(rng.uniform(0.0, 0.9 * horizon))
        amount = float(rng.uniform(0.1, 4.0))
        if not nonnegative and rng.random() < 0.5:
            amount = -amount
        atoms.append(Atom(t, amount))
    pieces = []
    starts = np.sort(rng.uniform(0.0, 0.85 * horizon, size=n_pieces))
    for k in range(n_pieces):
        a = float(starts[k])
        b = a + float(rng.uniform(0.2, 0.12 * horizon))
        if nonnegative:
            q = tuple(rng.uniform(-1.0, 1.0, size=int(rng.integers(1, 4))))
            coeffs = poly.add(poly.multiply(q, q), (float(rng.uniform(0.01, 0.5)),))
        else:
            coeffs = tuple(rng.uniform(-1.5, 1.5, size=int(rng.integers(1, 5))))
        pieces.append(DensityPiece(a, b, coeffs))
    # pieces may overlap as drawn; fold them in one at a time instead
    flow = CashFlow(tuple(atoms), ())
    for p in pieces:
        flow = flow + CashFlow((), (p,))
    return flow


def random_curve(rng: np.random.Generator, family: str | None = None,
                 horizon: float = 100.0):
    """A random valid curve from one of the three families."""
    if family is None:
        family = CURVE_FAMILIES[int(rng.integers(0, len(CURVE_FAMILIES)))]
    if family == "flat":
        return FlatCurve(float(rng.uniform(-0.005, 0.10)), horizon=horizon)
    if family == "spot_grid":
        n = int(rng.integers(2, 6))
        times = np.cumsum(rng.uniform(0.5, 8.0, size=n))
        knots = [(0.0, 1.0)]
        log_p = 0.0
        prev_t = 0.0
        for t in times:
            log_p -= float(rng.uniform(-0.01, 0.08)) * (float(t) - prev_t)
            knots.append((float(t), float(np.exp(log_p))))
            prev_t = float(t)
        return SpotGridCurve(tuple(knots), horizon=horizon)
    if family == "svensson":
        return SvenssonCurve(
            beta0=float(rng.uniform(0.005, 0.07)),
            beta1=float(rng.uniform(-0.03, 0.03)),
            beta2=float(rng.uniform(-0.05, 0.05)),
            beta3=float(rng.uniform(-0.05, 0.05)),
            tau1=float(rng.uniform(0.5, 3.0)),
            tau2=float(rng.uniform(3.0, 12.0)),
            horizon=horizon,
        )
    raise ValueError(f"unknown curve family {family!r}")
