"""Two-currency markets: forward FX rates and combined pricing.

A :class:`DualCurrencyMarket` pairs a domestic and a foreign discount
curve with a spot exchange rate (domestic units per foreign unit).  The
arbitrage-consistent forward exchange rate follows from covered interest
parity::

    fx(t) = spot * P_foreign(t) / P_domestic(t)

so ``spot * P_foreign(t) = fx(t) * P_domestic(t)`` holds identically.  A
:class:`DualCashFlow` carries one leg per currency; its combined value in
domestic units is the domestic price of the domestic leg plus spot times
the foreign price of the foreign leg, and the foreign-unit value is that
divided by spot.

:func:`convert_measure` rewrites a foreign flow as the equivalent
domestic flow: atoms are multiplied by the forward rate at their payment
time; densities are multiplied pointwise by ``fx(t)``, which leaves the
polynomial representation, so each piece is replaced by a Chebyshev fit
of the product with a certified relative sup-norm error of at most
:data:`FIT_REL_TOL` (floored at the coefficient-evaluation roundoff of
the stored representation), bisecting pieces as needed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import poly
from .curves import _at, check_positive
from .errors import DomainError
from .measures import Atom, CashFlow, DensityPiece, total_variation
from .pricing import TOLERANCE_SCALE, check_support, price
from .quadrature import Bracket

FIT_REL_TOL = 1e-10
FIT_MAX_SEGMENTS = 1024  # per original density piece
_FIT_NODES = 9  # degree-8 fit
_FIT_SAMPLES = 33
_FIT_CHEB = poly.chebyshev_nodes(_FIT_NODES)
_EPS = 2.0 ** -52
CURRENCIES = ("domestic", "foreign")


@dataclass(frozen=True)
class DualCurrencyMarket:
    """Two discount curves joined by a spot rate (domestic per foreign unit)."""

    domestic_curve: object
    foreign_curve: object
    spot_fx: float

    def __post_init__(self):
        s = float(self.spot_fx)
        if not (math.isfinite(s) and s > 0.0):
            raise DomainError(f"spot FX rate must be positive, got {s!r}")
        object.__setattr__(self, "spot_fx", s)
        check_positive(
            lambda ts: _fx_forward_many(self, ts),
            self.horizon,
            lambda t, _: f"forward FX rate is not positive and bounded at t={t}",
        )

    @property
    def horizon(self) -> float:
        return min(self.domestic_curve.horizon, self.foreign_curve.horizon)


@dataclass(frozen=True)
class DualCashFlow:
    """One cash-flow leg per currency."""

    domestic: CashFlow = CashFlow()
    foreign: CashFlow = CashFlow()


def fx_forward(market: DualCurrencyMarket, t: float) -> float:
    """Forward exchange rate at time t (equals spot at t = 0 exactly)."""
    if not 0.0 <= t <= market.horizon:
        raise DomainError(f"forward FX time must lie in [0, {market.horizon}], got {t}")
    return _at(lambda ts: _fx_forward_many(market, ts), t)


def _fx_forward_many(market: DualCurrencyMarket, ts: np.ndarray) -> np.ndarray:
    return (
        market.spot_fx
        * market.foreign_curve.discount_many(ts)
        / market.domestic_curve.discount_many(ts)
    )


def default_dual_tolerance(market: DualCurrencyMarket, flow: DualCashFlow) -> float:
    return TOLERANCE_SCALE * (
        1.0
        + total_variation(flow.domestic)
        + market.spot_fx * total_variation(flow.foreign)
    )


def price_dual(market: DualCurrencyMarket, flow: DualCashFlow,
               currency: str = "domestic", tol: float | None = None) -> Bracket:
    """Combined value of both legs, quoted in the requested currency."""
    if currency not in CURRENCIES:
        raise DomainError(f"currency must be one of {CURRENCIES}, got {currency!r}")
    if tol is None:
        tol = default_dual_tolerance(market, flow)
    if not tol > 0.0:
        raise DomainError("tolerance must be positive")
    check_support(flow.domestic, market.horizon, "domestic leg", "market")
    check_support(flow.foreign, market.horizon, "foreign leg", "market")
    unit = 1.0 if currency == "domestic" else 1.0 / market.spot_fx
    dom_tol = 0.5 * tol / unit
    for_tol = 0.5 * tol / (unit * market.spot_fx)
    dom = price(market.domestic_curve, flow.domestic, dom_tol)
    for_ = price(market.foreign_curve, flow.foreign, for_tol)
    s = market.spot_fx
    return Bracket(
        unit * (dom.lower + s * for_.lower),
        unit * (dom.upper + s * for_.upper),
        unit * (dom.atom_part + s * for_.atom_part),
        unit * (dom.density_part + s * for_.density_part),
    )


def _fit_piece(fn, piece: DensityPiece):
    """Certified degree-8 fits of fn*density on [start, end), bisecting as needed.

    ``fn`` is vectorised (an array of times to an array of values); each
    segment makes one call for its 9 Chebyshev nodes and 33 samples.
    Returns (pieces, abs_error_integral_bound).  The certificate samples
    the stored global-monomial polynomial, so representation roundoff is
    part of the measured error, never hidden by it.  Far from the origin
    the monomial basis cancels heavily, so the acceptance threshold is
    FIT_REL_TOL relative to the sampled product, floored at the roundoff
    of evaluating the stored and input coefficients there -- below that
    floor no stored polynomial could certify, and bisection cannot help.
    """
    segments: list[DensityPiece] = []
    err_bound = 0.0
    stack = [(piece.start, piece.end)]
    used = 0
    while stack:
        a, b = stack.pop()
        used += 1
        if used > 2 * FIT_MAX_SEGMENTS:
            raise DomainError(
                f"FX conversion fit budget exceeded on [{piece.start}, {piece.end})"
            )
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        ts = np.array([mid + half * x for x in _FIT_CHEB]
                      + [a + (b - a) * j / (_FIT_SAMPLES - 1) for j in range(_FIT_SAMPLES)])
        fs = fn(ts)
        vs = poly.evaluate(piece.coeffs, ts) * fs
        local = poly.interpolate_chebyshev(vs[:_FIT_NODES], half)
        ts, fs, vs = ts[_FIT_NODES:], fs[_FIT_NODES:], vs[_FIT_NODES:]
        scale = float(np.abs(vs).max())
        fmax = float(np.abs(fs).max())
        # recentring at 0 amplifies the k-th local coefficient by mid**k,
        # which turns noise-level tail coefficients into cancellation the
        # samples can never certify; store whichever tail truncation of the
        # fit actually evaluates best (shortest wins ties)
        cands = np.zeros((len(local), len(local)))
        for n in range(1, len(local) + 1):
            cands[n - 1, :n] = poly.taylor_shift(local[:n], -mid)
        # Horner on every candidate at once: coefficient columns in, one row
        # of sample values per candidate out
        errors = np.abs(vs - poly.evaluate(cands.T[:, :, None], ts)).max(axis=1)
        best = int(np.argmin(errors))
        worst, coeffs = float(errors[best]), poly.trim(cands[best])
        # the sampled values themselves carry the roundoff of evaluating the
        # input coefficients; only that (never the candidate's own, which a
        # bad fit could inflate) may relax the acceptance threshold
        tmax = max(abs(a), abs(b))
        in_cond = sum(abs(c) * tmax ** k for k, c in enumerate(piece.coeffs))
        floor = 64.0 * _EPS * fmax * in_cond
        if worst <= max(FIT_REL_TOL * max(scale, 1e-300), floor) or not (a < mid < b):
            segments.append(DensityPiece(a, b, coeffs))
            err_bound += worst * (b - a)
        else:
            if len(segments) + len(stack) + 2 > FIT_MAX_SEGMENTS:
                raise DomainError(
                    f"FX conversion fit budget exceeded on [{piece.start}, {piece.end})"
                )
            stack.append((mid, b))
            stack.append((a, mid))
    segments.sort(key=lambda p: p.start)
    return segments, err_bound


def convert_measure_with_bound(market: DualCurrencyMarket,
                               foreign_flow: CashFlow) -> tuple[CashFlow, float]:
    """Domestic-currency flow equivalent to a foreign flow, plus an error bound.

    The bound is on the integral of the absolute density fit error, i.e.
    pricing the converted flow against any curve bounded by M on the
    support differs from pricing the exact product by at most M * bound.
    Atoms convert exactly.
    """
    check_support(foreign_flow, market.horizon, "foreign leg", "market")
    rates = _fx_forward_many(market, np.array([a.time for a in foreign_flow.atoms]))
    atoms = tuple(Atom(a.time, a.amount * r)
                  for a, r in zip(foreign_flow.atoms, rates.tolist()))
    pieces: list[DensityPiece] = []
    err = 0.0
    fn = lambda ts: _fx_forward_many(market, ts)
    kinks = sorted(
        set(market.domestic_curve.knot_times()) | set(market.foreign_curve.knot_times())
    )
    for p in foreign_flow.pieces:
        # fit only within smooth spans of the forward rate
        cuts = [p.start] + [k for k in kinks if p.start < k < p.end] + [p.end]
        for a, b in zip(cuts, cuts[1:]):
            segs, e = _fit_piece(fn, DensityPiece(a, b, p.coeffs))
            pieces.extend(segs)
            err += e
    return CashFlow(atoms, tuple(pieces)), err


def convert_measure(market: DualCurrencyMarket, foreign_flow: CashFlow) -> CashFlow:
    """Domestic-currency flow equivalent to a foreign flow."""
    return convert_measure_with_bound(market, foreign_flow)[0]
