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

from .curves import ScaledCurve
from .errors import DomainError
from .measures import CashFlow, lebesgue
from .pricing import default_tolerance, price
from .quadrature import Bracket


@dataclass(frozen=True)
class DualFunctional:
    """Price atoms against ``atom_curve``, densities against ``density_weight``.

    ``atom_curve`` must be a discount curve (P(0) = 1); ``density_weight``
    only needs to be positive, continuous and bounded on the horizon --
    e.g. a :class:`ScaledCurve` with factor != 1.  Curves check that when
    built (:mod:`pvkit.curves`); here only ``P(0) = 1`` is checked.
    """

    atom_curve: object
    density_weight: object

    def __post_init__(self):
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
    is the atomic layer, ``density_part`` the stream layer.  Each layer is
    priced by :func:`~pvkit.pricing.price` to ``tol`` (default
    :func:`~pvkit.pricing.default_tolerance` of the whole flow); the two
    brackets add.
    """
    if tol is None:
        tol = default_tolerance(flow)
    parts = lebesgue(flow)
    return (price(functional.atom_curve, parts.singular, tol)
            + price(functional.density_weight, parts.absolutely_continuous, tol))


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

