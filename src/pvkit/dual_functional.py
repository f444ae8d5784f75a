"""Positive linear pricing rules that are not discount-curve integrals.

A :class:`DualFunctional` prices the two layers of a cash flow against two
*different* positive weight functions: the singular (atomic) part against
a genuine discount curve ``f`` and the absolutely continuous part against
a positive function ``g``.  Whenever ``g != f`` on the support of a
density, the resulting price differs from the curve price under ``f`` --
yet the functional is still linear, positive on nonzero nonnegative flows,
and assigns price 1 to a unit payment at time 0.  This shows that those
axioms alone do not force prices to be of discount-curve form; agreement
on point payments says nothing about payment streams.

The flagship instance doubles the density weight: ``g = 2f`` (preset name
``"double-density"``), under which any pure payment stream is priced at
exactly twice its curve price.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import ScaledCurve, check_positive
from .errors import DomainError
from .measures import CashFlow, _units, dirac, lebesgue, scale, add
from .pricing import _default_tolerance, _price, default_tolerance, price
from .quadrature import Bracket
from .sampling import random_cashflow


@dataclass(frozen=True)
class DualFunctional:
    """Price atoms against ``atom_curve``, densities against ``density_weight``.

    ``atom_curve`` must be a discount curve (P(0) = 1); ``density_weight``
    only needs to be positive, continuous and bounded on the horizon --
    e.g. a :class:`ScaledCurve` with factor != 1.
    """

    atom_curve: object
    density_weight: object

    def __post_init__(self):
        for name in ("atom_curve", "density_weight"):
            c = getattr(self, name)
            check_positive(
                c.discount_many,
                c.horizon,
                lambda t, w: f"{name} must be positive and bounded, got {w!r} at t={t}",
            )
        if self.atom_curve.discount(0.0) != 1.0:
            raise DomainError("atom curve must have P(0) = 1")

    @property
    def horizon(self) -> float:
        return min(self.atom_curve.horizon, self.density_weight.horizon)


def double_density(curve) -> DualFunctional:
    """The flagship instance: density weight 2*P, atom weight P."""
    return DualFunctional(curve, ScaledCurve(curve, 2.0))


PRESETS = {"double-density": double_density}


def dual_price(functional: DualFunctional, flow: CashFlow,
               tol: float | None = None) -> Bracket:
    """Price under the two-weight rule, with a certified bracket.

    The atomic layer is an exact sum against the atom curve; the density
    layer is bracketed quadrature against the density weight: ``atom_part``
    is the atomic layer, ``density_part`` the stream layer.  The flow is
    split once; the default tolerance and the stream layer read that split.
    """
    units = _units(flow)
    if tol is None:
        tol = _default_tolerance(flow, units)
    parts = lebesgue(flow)
    atoms = price(functional.atom_curve, parts.singular, tol)
    dens = _price(functional.density_weight, parts.absolutely_continuous, tol, units=units)
    return Bracket(
        atoms.value + dens.lower,
        atoms.value + dens.upper,
        atoms.value,
        dens.value,
    )


def choquet_gap(functional: DualFunctional, flow: CashFlow,
                tol: float | None = None) -> float:
    """Dual price minus the plain curve price under the atom curve.

    Zero (within 2*tol) exactly when the flow is purely atomic or the two
    weights agree on the support of its density part; under the
    double-density preset the gap on a pure stream equals the stream's
    curve price again.
    """
    if tol is None:
        tol = default_tolerance(flow)
    return (
        dual_price(functional, flow, tol).value
        - price(functional.atom_curve, flow, tol).value
    )


@dataclass(frozen=True)
class PositivityReport:
    trials: int
    positivity_failures: int
    linearity_failures: int
    unit_price_gap: float

    @property
    def ok(self) -> bool:
        return (
            self.positivity_failures == 0
            and self.linearity_failures == 0
            and self.unit_price_gap <= 1e-12
        )


def verify_na_positivity(functional: DualFunctional, trials: int = 1000,
                         seed: int = 0) -> PositivityReport:
    """Random evidence that the dual rule is a positive linear unit-price rule.

    Draws nonnegative nonzero flows and checks that the certified lower
    price bound stays strictly positive; draws signed pairs and checks
    linearity within a tolerance-scaled slack; checks the unit payment at
    time 0 prices to 1.
    """
    if trials < 1:
        raise DomainError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    horizon = 0.9 * functional.horizon
    pos_failures = 0
    lin_failures = 0
    for _ in range(trials):
        flow = random_cashflow(rng, horizon=min(30.0, horizon), nonnegative=True)
        if dual_price(functional, flow).lower <= 0.0:
            pos_failures += 1
        a = float(rng.uniform(-2.0, 2.0))
        b = float(rng.uniform(-2.0, 2.0))
        alpha = random_cashflow(rng, horizon=min(30.0, horizon))
        beta = random_cashflow(rng, horizon=min(30.0, horizon))
        combo = add(scale(alpha, a), scale(beta, b))
        tol = 1e-9 * (1.0 + abs(a) + abs(b))
        gap = abs(
            dual_price(functional, combo, tol).value
            - a * dual_price(functional, alpha, tol).value
            - b * dual_price(functional, beta, tol).value
        )
        if gap > 4.0 * tol * (1.0 + abs(a) + abs(b)):
            lin_failures += 1
    unit_gap = abs(dual_price(functional, dirac(0.0)).value - 1.0)
    return PositivityReport(trials, pos_failures, lin_failures, unit_gap)
