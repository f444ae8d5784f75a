"""Present values of cash-flow measures under a discount curve.

The price of a flow is the integral of the discount factor against the
measure.  Atoms contribute an exact finite sum; densities are enclosed by
the bracketed quadrature engine, so every result carries a certified
interval ``[lower, upper]`` of width at most the requested tolerance.
The default tolerance scales with the flow: ``1e-10 * (1 + total
variation)``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import curves as _curves
from .errors import DomainError
from .measures import CashFlow, is_nonnegative, total_variation, translate
from .quadrature import Bracket, bracketed_integral

TOLERANCE_SCALE = 1e-10
_IRR_LO = -0.999
_IRR_HI = 10.0


def default_tolerance(flow: CashFlow) -> float:
    return TOLERANCE_SCALE * (1.0 + total_variation(flow))


def check_support(flow: CashFlow, horizon: float, what: str = "flow",
                  owner: str = "curve") -> None:
    """Raise DomainError when the flow's support reaches past ``horizon``."""
    sb = flow.support_bounds()
    if sb is not None and sb[1] > horizon:
        raise DomainError(
            f"{what} support reaches {sb[1]}, beyond the {owner} horizon {horizon}"
        )


def price(curve, flow: CashFlow, tol: float | None = None) -> Bracket:
    """Present value at time 0 with a certified bracket of width <= tol."""
    if tol is None:
        tol = default_tolerance(flow)
    if not tol > 0.0:
        raise DomainError("tolerance must be positive")
    check_support(flow, curve.horizon)
    times = np.array([a.time for a in flow.atoms])
    amounts = np.array([a.amount for a in flow.atoms])
    atom = math.fsum((amounts * curve.discount_many(times)).tolist())
    dens = bracketed_integral(
        curve.discount_many,
        [(p.start, p.end, p.coeffs) for p in flow.pieces],
        tol,
        breakpoints=curve.knot_times(),
    )
    return Bracket(atom + dens.lower, atom + dens.upper, atom, dens.density_part)


def forward_price(curve, flow: CashFlow, at: float, tol: float | None = None) -> Bracket:
    """Value of the flow quoted for delivery at time ``at``: price / P(at)."""
    if not 0.0 <= at <= curve.horizon:
        raise DomainError(f"forward time must lie in [0, {curve.horizon}], got {at}")
    if tol is None:
        tol = default_tolerance(flow)
    p_at = curve.discount(at)
    inner = price(curve, flow, tol * p_at)
    return Bracket(
        inner.lower / p_at,
        inner.upper / p_at,
        inner.atom_part / p_at,
        inner.density_part / p_at,
    )


def numeraire_price(curve, flow: CashFlow, numeraire: CashFlow,
                    tol: float | None = None) -> float:
    """Price of ``flow`` expressed in units of a nonnegative, nonzero flow."""
    if numeraire.is_null or not is_nonnegative(numeraire):
        raise DomainError("numeraire must be a nonnegative, nonzero flow")
    denom = price(curve, numeraire, tol).value
    if denom <= 0.0:
        raise DomainError("numeraire has nonpositive price")
    return price(curve, flow, tol).value / denom


@dataclass(frozen=True)
class YieldResult:
    rate: float
    residual: float
    iterations: int


def _pv_at_rate(flow: CashFlow, rate: float, quad_tol: float,
                variation: float) -> float:
    sup = flow.support_bounds()[1]
    try:
        # near rate = -1 the discount factor reaches ~(1+rate)^-sup, so a
        # fixed absolute tolerance is not certifiable there; what the root
        # search needs from such evaluations is only the sign, so the
        # tolerance follows the attainable magnitude
        far = (1.0 + rate) ** (-sup)
        scale = variation * max(1.0, far)
        if not math.isfinite(scale):
            return math.inf
        curve = _curves.FlatCurve(rate, horizon=max(1.0, sup) + 1.0)
        return price(curve, flow, max(quad_tol, 1e-12 * scale)).value
    except (DomainError, OverflowError):
        # discounting blew up (rate extremely close to -1); treat as +inf so
        # the bracketing logic keeps moving away from the boundary
        return math.inf


def irr(flow: CashFlow, target_price: float, purchase_time: float = 0.0,
        tol: float = 1e-10) -> YieldResult:
    """The flat annual rate at which the flow's value at ``purchase_time``
    equals ``target_price``.

    The flow must be nonnegative, nonzero, and supported at or after the
    purchase time; the target must be positive.  The present value is
    strictly decreasing in the rate (constant only when all mass sits
    exactly at the purchase time, in which case rate 0 is returned when
    the target matches and an error is raised otherwise).  The search is
    confined to rates in (-0.999, 10]: a bracketing scheme that bisects
    until a secant step is trustworthy, stopping when
    |PV - target| <= tol * (1 + |target|) -- relative to the target scale,
    since an absolute residual finer than double precision allows is not
    certifiable for large flows.
    """
    if flow.is_null or not is_nonnegative(flow):
        raise DomainError("internal rate needs a nonnegative, nonzero flow")
    if not (math.isfinite(target_price) and target_price > 0.0):
        raise DomainError(f"target price must be positive, got {target_price!r}")
    if not (math.isfinite(purchase_time) and purchase_time >= 0.0):
        raise DomainError(f"purchase time must be >= 0, got {purchase_time!r}")
    if not tol > 0.0:
        raise DomainError("tolerance must be positive")
    lo_support = flow.support_bounds()[0]
    if lo_support < purchase_time:
        raise DomainError("flow must be supported at or after the purchase time")
    shifted = translate(flow, -purchase_time)
    eff_tol = tol * (1.0 + abs(target_price))
    quad_tol = eff_tol / 8.0
    variation = total_variation(shifted)

    def f(rate: float) -> float:
        return _pv_at_rate(shifted, rate, quad_tol, variation) - target_price

    lo, hi = _IRR_LO + 1e-9, _IRR_HI
    flo, fhi = f(lo), f(hi)
    evals = 2
    if flo == fhi:  # all mass at the purchase time: PV constant in the rate
        if abs(flo) <= eff_tol:
            return YieldResult(0.0, flo, evals)
        raise DomainError("present value does not depend on the rate; no root")
    if flo < 0.0 or fhi > 0.0:
        raise DomainError(
            f"no internal rate in ({_IRR_LO}, {_IRR_HI}] reaches the target"
        )
    if abs(flo) <= eff_tol:
        return YieldResult(lo, flo, evals)
    if abs(fhi) <= eff_tol:
        return YieldResult(hi, fhi, evals)
    prev, fprev = lo, flo
    cur, fcur = hi, fhi
    for _ in range(200):
        x = cur - fcur * (cur - prev) / (fcur - fprev) if fcur != fprev else None
        if x is None or not (lo < x < hi):
            x = 0.5 * (lo + hi)
        fx = f(x)
        evals += 1
        if abs(fx) <= eff_tol:
            return YieldResult(x, fx, evals)
        if math.isinf(fx) or fx > 0.0:
            lo, flo = x, fx
        else:
            hi, fhi = x, fx
        prev, fprev = cur, fcur
        cur, fcur = x, fx
        if hi - lo <= 4.0 * math.ulp(max(abs(lo), abs(hi))):
            break
    fx = f(0.5 * (lo + hi))
    if abs(fx) <= eff_tol:
        return YieldResult(0.5 * (lo + hi), fx, evals + 1)
    raise DomainError("internal rate search did not converge to the tolerance")


@dataclass(frozen=True)
class YieldBound:
    rate: float
    forward_max: float
    holds: bool


def yield_bound_check(curve, flow: CashFlow, purchase_time: float = 0.0,
                      tol: float = 1e-9) -> YieldBound:
    """Check that the internal rate never beats the best forward rate.

    Buying the flow at its arbitrage-consistent forward price cannot yield
    more than the largest forward rate from the purchase time into the
    support: the internal rate is a discount-weighted mix of those
    forwards.  The maximum is scanned on a 1e-3-spaced grid over the
    support span (endpoints included); ``holds`` compares with slack
    ``tol``.
    """
    target = forward_price(curve, flow, purchase_time).value
    result = irr(flow, target, purchase_time, tol=min(1e-10, tol))
    lo, hi = flow.support_bounds()
    n = int(math.floor((hi - lo) / 1e-3))
    grid = np.unique(np.concatenate([lo + 1e-3 * np.arange(n + 1), [hi]]))
    grid = grid[grid > purchase_time]
    if grid.size == 0:
        forward_max = 0.0
    else:
        p = curve.discount_many(np.concatenate([[purchase_time], grid]))
        f = (p[0] / p[1:]) ** (1.0 / (grid - purchase_time)) - 1.0
        forward_max = float(np.max(f))
    return YieldBound(result.rate, forward_max, result.rate <= forward_max + tol)
