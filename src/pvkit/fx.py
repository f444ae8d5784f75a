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

:func:`convert_measure_with_bound` rewrites a foreign flow as the
equivalent domestic flow: atoms are multiplied by the forward rate at
their payment time; densities are multiplied pointwise by ``fx(t)``,
which leaves the polynomial representation, so each piece is replaced
by Chebyshev fits of the product, each stored about its own segment's
midpoint (``DensityPiece.origin``), with a certified relative sup-norm
error of at most :data:`FIT_REL_TOL` (floored at the roundoff of
evaluating the input density there), splitting pieces as needed.  The
pieces are laid out by ``quadrature.prepare``, cut at the curves' knots;
every such span of one conversion is fitted in the same rounds, where one
round fits all pending segments as arrays (one ``fx`` evaluation and one
interpolation matrix for all) and cuts each one that fails as many levels
deep as the decay of its error predicts (see :func:`_fit_spans`).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import poly
from .curves import _at, check_positive
from .errors import DomainError
from .measures import Atom, CashFlow, DensityPiece, total_variation
from .pricing import TOLERANCE_SCALE, check_support, price
from .quadrature import Bracket, _depth, _split, density_at, prepare

FIT_REL_TOL = 1e-10
FIT_MAX_SEGMENTS = 1024  # per span of a density piece between curve knots
_FIT_NODES = 9  # degree-8 fit
_FIT_DECAY = 9.0  # bits per level a degree-8 fit's error is assumed to lose
_FIT_SAMPLES = 33
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
    """Combined value of both legs, quoted in the requested currency.

    Both legs are checked against the market horizon, then each is priced
    by :func:`~pvkit.pricing.price` to half of ``tol`` in the quote currency."""
    if currency not in CURRENCIES:
        raise DomainError(f"currency must be one of {CURRENCIES}, got {currency!r}")
    if tol is None:
        tol = default_dual_tolerance(market, flow)
    check_support(flow.domestic, market.horizon, "domestic leg", "market")
    check_support(flow.foreign, market.horizon, "foreign leg", "market")
    unit = 1.0 if currency == "domestic" else 1.0 / market.spot_fx
    dom_tol = 0.5 * tol / unit
    for_tol = 0.5 * tol / (unit * market.spot_fx)
    dom = price(market.domestic_curve, flow.domestic, dom_tol)
    for_ = price(market.foreign_curve, flow.foreign, for_tol)
    return (dom + for_ * market.spot_fx) * unit


@functools.cache
def _tables():
    """The 9 Chebyshev nodes on [-1, 1] and the sample fractions j/32, as
    arrays built on first use."""
    return (np.array(poly.chebyshev_nodes(_FIT_NODES)),
            np.arange(float(_FIT_SAMPLES)) / (_FIT_SAMPLES - 1))


@functools.cache
def _lagrange_monomials(n: int) -> np.ndarray:
    """Row ``k``: the coefficients, constant first, of the Lagrange basis
    polynomial of node ``k`` of the ``n`` Chebyshev nodes on [-1, 1], each
    rounded once from its exact value: with ``N_j = d * x_j`` integers for
    the nodes' power-of-two denominator ``d``, ``c_i * d**i / prod_{j != k}
    (N_k - N_j)`` for the integer coefficients of ``prod_{j != k} (X - N_j)``."""
    ratios = [x.as_integer_ratio() for x in poly.chebyshev_nodes(n)]
    d = max(q for _, q in ratios)
    nodes = [p * (d // q) for p, q in ratios]
    matrix = []
    for k, nk in enumerate(nodes):
        c, den = [1], 1
        for j, nj in enumerate(nodes):
            if j != k:
                c = [x - nj * y for x, y in zip([0] + c, c + [0])]
                den *= nk - nj
        matrix.append([ci * d ** i / den for i, ci in enumerate(c)])
    return np.array(matrix)


def interpolate_chebyshev(values, half):
    """Interpolants through each row of ``values`` at Chebyshev nodes.

    ``values`` is a (k, n) array and ``half`` a length-k array of half
    widths; row i holds values at ``u = half[i] * poly.chebyshev_nodes(n)``.
    Row i of the result holds the monomial coefficients, constant first, of
    the degree n - 1 interpolant of row i in the local coordinate u (an
    interval's midpoint is u = 0): one product with the exact matrix
    :func:`_lagrange_monomials`, centred on the middle node's value (so its
    rounding multiplies only the values' variation), then the column scale
    ``half**-i``.  Local coordinates keep the coefficients well-scaled on
    off-origin intervals.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[1]
    centre = values[:, n // 2]
    # einsum sums each row in node order; a BLAS matmul's order depends on
    # the number of rows, which would tie each fit to the others in its round
    out = np.einsum("ij,jk->ik", values - centre[:, None], _lagrange_monomials(n))
    out *= np.asarray(half, dtype=float)[:, None] ** -np.arange(n)
    out[:, 0] += centre
    return out


def _fit_spans(fn, rows, partition):
    """Certified degree-8 fits of fn*density on every span, splitting as needed.

    ``rows`` and ``partition = (a, b, unit)`` lay the pieces out as
    ``quadrature.prepare`` does: span ``k`` is ``[a[k], b[k])``, ``0 <=
    a[k] < b[k]``, with the density of row ``unit[k]``.  ``fn`` is vectorised
    (an array of times to an array of values).  The fit runs in rounds over
    every pending segment of every span at once: one ``fn`` call for each
    segment's 9 Chebyshev nodes and 33 samples, the interpolation matrix
    (:func:`interpolate_chebyshev`) in powers of ``t - mid`` for the
    segment's midpoint ``mid``, and one Horner evaluation of every fit at
    its samples.  Each accepted fit is stored as it is, a piece with
    origin ``mid``.  Returns (pieces, abs_error_integral_bound).

    A segment that fails is cut by repeated midpoint halving, each segment
    to its own depth: ``ceil(log2(excess) / decay)`` levels, at most 3,
    where the excess is its sampled error over its acceptance threshold
    and the decay is the bits of error a level removes, 9 in a span's first
    split (the error of a degree-8 fit goes as the length to the 9th power)
    and then what the segment's own split measured from its parent's error.
    Below a decay of 5.5 bits a level a segment is bisected once
    (``quadrature._depth``).

    The certificate samples the stored polynomial as a reader evaluates
    it, at ``t - mid`` for each sample time ``t``, so its roundoff is part
    of the measured error, never hidden by it.  The acceptance threshold is
    FIT_REL_TOL relative to the sampled product, floored at the roundoff of
    evaluating the input density there (one stored in powers of ``t`` far
    from ``t = 0`` cancels heavily): below that floor no stored polynomial
    could certify, and splitting cannot help.  The budget is per span: each
    round counts every span's accepted segments, raises DomainError naming
    the span when bisecting would leave it with more than FIT_MAX_SEGMENTS
    segments, and clips deeper cuts to what its budget leaves.
    """
    cheb, steps = _tables()
    a, b, unit = partition
    powers = np.arange(rows.shape[1] - 1)
    span = np.arange(len(a))
    kept = np.zeros(len(a), dtype=int)  # accepted segments per span
    decay = np.full(len(a), _FIT_DECAY)  # bits per level, measured after the first split
    parent_worst = None  # then each segment's parent's sampled error and its depth
    rounds = []
    while True:
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        width = b - a
        ts = np.concatenate((mid[:, None] + half[:, None] * cheb,
                             a[:, None] + width[:, None] * steps), axis=1)
        fs = fn(ts.ravel()).reshape(ts.shape)
        seg_rows = rows[unit[span]]
        vs = density_at(seg_rows, ts) * fs
        local = interpolate_chebyshev(vs[:, :_FIT_NODES], half)
        us = ts[:, _FIT_NODES:] - mid[:, None]
        fs, vs = fs[:, _FIT_NODES:], vs[:, _FIT_NODES:]
        worst = np.abs(vs - poly.evaluate(local.T[:, :, None], us)).max(axis=1)
        if parent_worst is not None:
            with np.errstate(divide="ignore"):
                decay = np.log2(parent_worst / worst) / depth
        # the sampled values themselves carry the roundoff of evaluating the
        # input density at t - origin, where |t - origin| <= r; only that
        # (never the fit's own, which a bad fit could inflate) may relax the
        # acceptance threshold
        origin = seg_rows[:, -1]
        r = np.maximum(np.abs(a - origin), np.abs(b - origin))
        in_cond = np.cumsum(np.abs(seg_rows[:, :-1]) * r[:, None] ** powers, axis=1)[:, -1]
        floor = 64.0 * _EPS * np.abs(fs).max(axis=1) * in_cond
        scale = np.abs(vs).max(axis=1)
        threshold = np.maximum(FIT_REL_TOL * np.maximum(scale, 1e-300), floor)
        accept = worst <= threshold
        if not accept.all():
            accept |= ~((a < mid) & (mid < b))  # too narrow to split
        rounds.append((accept, a, b, mid, worst * width, local))
        kept += np.bincount(span[accept], minlength=len(kept))
        split = ~accept
        if not split.any():
            break
        a, b, span, decay, worst = a[split], b[split], span[split], decay[split], worst[split]
        pending = np.bincount(span, minlength=len(kept))
        over = np.flatnonzero(kept + 2 * pending > FIT_MAX_SEGMENTS)
        if len(over):
            start, end = (float(x[over[0]]) for x in partition[:2])
            raise DomainError(f"FX conversion fit budget exceeded on [{start}, {end})")
        cap = np.log2((FIT_MAX_SEGMENTS - kept[span]) // pending[span]).astype(int)
        depth = np.array([_depth(*x) for x in zip((worst / threshold[split]).tolist(),
                                                  decay.tolist(), cap.tolist())])
        a, b, parent = _split(a, b, depth)
        span, parent_worst, depth = span[parent], worst[parent], depth[parent]
    accept, a, b, mid, errs, coeffs = (np.concatenate(x) for x in zip(*rounds))
    a, b, mid, errs, coeffs = a[accept], b[accept], mid[accept], errs[accept], coeffs[accept]
    pieces = [DensityPiece(*x) for x in zip(a.tolist(), b.tolist(), coeffs.tolist(),
                                            mid.tolist())]
    return pieces, math.fsum(errs.tolist())


def convert_measure_with_bound(market: DualCurrencyMarket,
                               foreign_flow: CashFlow) -> tuple[CashFlow, float]:
    """Domestic-currency flow equivalent to a foreign flow, plus an error bound.

    The bound is on the integral of the absolute density fit error, i.e.
    pricing the converted flow against any curve bounded by M on the
    support differs from pricing the exact product by at most M * bound.
    Atoms convert exactly.  Every density piece is cut at the curves'
    knots, and all of the spans are fitted together (:func:`_fit_spans`).
    """
    check_support(foreign_flow, market.horizon, "foreign leg", "market")
    rates = _fx_forward_many(market, np.array([a.time for a in foreign_flow.atoms]))
    atoms = tuple(Atom(a.time, a.amount * r)
                  for a, r in zip(foreign_flow.atoms, rates.tolist()))
    if not foreign_flow.pieces:
        return CashFlow(atoms, ()), 0.0
    # fit only within smooth spans of the forward rate
    _, _, rows, partition = prepare(
        [(p.start, p.end, p.coeffs, p.origin) for p in foreign_flow.pieces],
        market.domestic_curve.knot_times() + market.foreign_curve.knot_times())
    pieces, err = _fit_spans(lambda ts: _fx_forward_many(market, ts), rows, partition)
    return CashFlow(atoms, tuple(pieces)), err
