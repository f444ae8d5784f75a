"""Present values of cash-flow measures under a discount curve.

The price of a flow is the integral of the discount factor against the
measure.  Atoms contribute an exact finite sum; densities are enclosed by
the bracketed quadrature engine, so every result carries a certified
interval ``[lower, upper]`` of width at most the requested tolerance.
The default tolerance scales with the flow: ``1e-10 * (1 + total
variation)``.  ``irr`` steers on uncertified fixed-node estimates and
certifies the rates that straddle the root, the second from the first's
enclosure where it can, on a partition laid out beforehand from the
closed-form remainder of the flat rate's discount factor.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .measures import CashFlow, finite_sum, is_nonnegative, total_variation
from .quadrature import (_MAX_DEPTH, _MODEL_NODES, _ROUNDOFF, Bracket, _split, enclose,
                         fixed_nodes, prepare)

TOLERANCE_SCALE = 1e-10
_IRR_LO = -0.999
_IRR_HI = 10.0
_IRR_STEPS = 200


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
    """Present value at time 0 with a certified bracket of width <= tol
    (default :func:`default_tolerance`); it and the quadrature read the
    split the flow keeps (``CashFlow._units``)."""
    if tol is None:
        tol = default_tolerance(flow)
    if not tol > 0.0:
        raise DomainError("tolerance must be positive")
    check_support(flow, curve.horizon)
    return enclose(curve.discount_many, prepare(flow._units, curve.knot_times(), flow.atoms),
                   tol)[0]


def forward_price(curve, flow: CashFlow, at: float, tol: float | None = None) -> Bracket:
    """Value of the flow quoted for delivery at time ``at``: price / P(at),
    with the price bracketed to width ``tol * P(at)``."""
    if not 0.0 <= at <= curve.horizon:
        raise DomainError(f"forward time must lie in [0, {curve.horizon}], got {at}")
    p_at = curve.discount(at)
    tol = default_tolerance(flow) if tol is None else tol
    return price(curve, flow, tol * p_at) / p_at


@dataclass(frozen=True)
class YieldResult:
    rate: float
    residual: float
    iterations: int


def irr(flow: CashFlow, target_price: float, purchase_time: float = 0.0,
        tol: float = 1e-10) -> YieldResult:
    """The flat annual rate at which the flow's value at ``purchase_time``
    equals ``target_price``.

    The flow must be nonnegative, nonzero, and supported at or after the
    purchase time; the target must be positive.  The present value is
    strictly decreasing in the rate (constant only when all mass sits
    exactly at the purchase time, in which case rate 0 is returned when
    the target matches and an error is raised otherwise).  The search is
    confined to rates in (-0.999, 10].

    The flow's split decides its nonnegativity, and the flow is prepared
    once with time measured from the purchase time, as a partition each
    certified step starts from and refines only as far as it needs.  The
    steps are Newton steps on ``ln PV`` against ``ln(1 + rate)``, with
    ``PV`` and its slope ``-(sum a_k t_k P(t_k) + integral t rho P dt) /
    PV`` summed on the atom times and the partition's Gauss-Legendre nodes
    (:func:`~pvkit.quadrature.fixed_nodes`), one ``np.power`` call a step.
    ``PV`` is log-convex in ``ln(1 + rate)``, so from below the root the
    steps rise monotonically towards it, and the first, where the mass
    discounted at the mean payment time meets the target, is below it by
    Jensen's inequality.  These sums steer until an update is within
    ``tol``; every later step is certified by
    :func:`~pvkit.quadrature.enclose` (atoms alone have exact sums and
    certify from the first step).  A certified step that leaves the
    certified bracket of the root bisects it instead, and the window's
    ends are evaluated only when a step reaches them.

    Before the first enclosure the prepared partition is laid out for it
    (:func:`_lay_out`): on an item of half-length ``h_k``, mass ``m_k`` (the
    sum of its fixed-node weights) and largest discount factor ``max P``,
    the degree-6 model of ``e^(-lam s)``, ``lam = ln(1 + rate)``, misses by
    at most ``(|lam| h_k)^7 max P / (2^6 7!)``, so the item's sampled width
    is at most ``4 m_k`` times that plus a roundoff allowance, and each
    level of halving divides the first term by ``2^7``.  Each item is cut
    to the fewest levels, at most ``quadrature._MAX_DEPTH``, that fit the
    step's tolerance, so the step usually ends in its first batch; an item
    that needs deeper cuts, or a bound that passes the float range or
    leaves nothing of the tolerance, is left to ``enclose``'s own rounds,
    which certify every result in any case.  Later certified steps start
    from the partition the previous one ended with.  After a certified
    step that cut the partition, its fixed nodes are rebuilt only when a
    later step reads the moment, so a solve that ends at that step builds
    none.

    A certified step at ``x`` that proves one side of the root also bounds
    the rate ``y`` just under ``tol`` away on the other side, from its own
    enclosure's items.  Time ``s`` is measured from the purchase time and
    the flow is nonnegative, so on item ``[a_k, b_k)`` ``s >= a_k >= 0``
    and ``rho >= 0``; with ``d = ln(1 + y) - ln(1 + x)``, ``e^(-d s) <=
    e^(-d a_k)`` for ``d > 0`` and ``>=`` for ``d < 0``, hence ``PV(y) <=
    atoms(y) + sum_k e^(-d a_k) upper_k`` for ``y > x`` and ``PV(y) >=
    atoms(y) + sum_k e^(-d a_k) lower_k`` for ``y < x``, ``atoms(y)`` the
    atom sum at ``y``.  That costs one atom sum and one ``np.exp`` over the
    items.  Where the bound reaches the target, ``y`` is certified without
    an enclosure; where it does not (an item starting at the purchase time
    bounds nothing past its own bracket), the loop goes on to the next
    certified step.  A step whose value overflows encloses nothing and so
    bounds nothing.  Like the brackets (the price's atom sum and the
    quadrature items), the bound is computed in floating point without
    outward rounding.

    The stop is on the rate: the result is returned once the present value
    is certified on both sides of the target at two rates at most ``tol``
    apart, at a certified rate between them with ``|PV - target| <= tol *
    (1 + |target|)`` (an absolute residual finer than double precision
    allows is not certifiable for large flows).  Near the root each
    certified step aims just past the predicted rate, on the side still
    lacking a certified bracket, and a bracket that contains the target is
    tightened to half the residual.  ``iterations`` counts the rate steps,
    steering and certified; a bound is not a step.  A fixed-node sum past
    the float range reads as inf.  Raises DomainError when ``tol`` is not
    positive and finite, when the flow's mass passes the float range, when
    no rate in the window reaches the target, and when a step's bracket
    cannot be made narrow enough (a ``tol`` below the flow's noise floor).
    """
    if flow.is_null or not is_nonnegative(flow):
        raise DomainError("internal rate needs a nonnegative, nonzero flow")
    if not (math.isfinite(target_price) and target_price > 0.0):
        raise DomainError(f"target price must be positive, got {target_price!r}")
    if not (math.isfinite(purchase_time) and purchase_time >= 0.0):
        raise DomainError(f"purchase time must be >= 0, got {purchase_time!r}")
    if not (tol > 0.0 and math.isfinite(tol)):
        raise DomainError(f"tolerance must be positive and finite, got {tol!r}")
    lo_support, hi_support = flow.support_bounds()
    if lo_support < purchase_time:
        raise DomainError("flow must be supported at or after the purchase time")
    eff_tol = tol * (1.0 + abs(target_price))
    times, amounts, rows, partition = prepare(flow._units, atoms=flow.atoms,
                                              origin=purchase_time)

    def node_weights(part) -> tuple:
        """The fixed nodes of ``part``, an array, with their weights and the
        weights times the nodes as lists: products with them are Python
        floats, inf past the float range and with no numpy warning."""
        nodes, weights = fixed_nodes((times, amounts, rows, part))
        weights = weights.tolist()
        return nodes, weights, list(map(operator.mul, weights, nodes.tolist()))

    nodes, weights, moments = node_weights(partition)
    # the mass and the first moment, the integral of t - purchase_time
    # (Gauss-Legendre is exact on them): the mean payment time is first / mass
    mass, first = finite_sum(weights), _fsum_up(moments)
    sup = hi_support - purchase_time
    if sup == 0.0:  # all mass at the purchase time: PV constant in the rate
        if abs(mass - target_price) <= eff_tol:
            return YieldResult(0.0, mass - target_price, 0)
        raise DomainError("present value does not depend on the rate; no root")
    laid_out = False  # whether a certified step has laid the partition out

    def value(rate: float, certify: bool,
              cap: float = math.inf) -> tuple[Bracket, float | None, tuple | None]:
        """The price at a flat ``rate``, the first moment, and the items
        this call enclosed, if any.  Without ``certify``, or for atoms
        alone, the price and moment are the ``sums`` on the last certified
        partition (an atom sum is exact).  With ``certify`` and a density
        the price is enclosed from that partition, the first time as
        :func:`_lay_out` cuts it, to a width of at most ``eff_tol / 8``, or
        ``1e-12`` of the largest discounted mass where wider, and at most
        ``cap``; the moment is left to ``sums`` (``None``), and the
        items are returned as their starts and lower and upper ends (empty
        for atoms alone).  On overflow the price is infinite, the moment
        nan and nothing is enclosed.
        """
        nonlocal partition, nodes, laid_out
        try:
            # near rate -1 the discount factor reaches ~(1+rate)^-sup, where
            # a fixed absolute tolerance is not certifiable and the search
            # needs only the sign, so the tolerance follows that magnitude
            scale = mass * max(1.0, (1.0 + rate) ** (-sup))
        except OverflowError:
            return Bracket(math.inf, math.inf, math.inf, 0.0), math.nan, None
        if certify and len(partition[0]):
            width = min(cap, max(eff_tol / 8.0, 1e-12 * scale))
            start = partition
            if not laid_out:  # the first enclosure: cut the prepared partition for it
                start, laid_out = _lay_out(partition, weights[len(times):], rate, width), True
            try:
                pv, part = enclose(lambda ts: np.power(1.0 + rate, -ts),
                                   (times, amounts, rows, start), width)
            except DomainError as err:
                raise DomainError(
                    f"irr tolerance not achievable at rate {rate!r}: {err}") from err
            if len(part[0]) != len(partition[0]):  # cut: new fixed nodes when read
                nodes = None
            partition = part
            return pv, None, (part[0], part[3], part[4])
        estimate, first_moment = sums(rate)
        a = partition[0]
        return (Bracket(estimate, estimate, estimate, 0.0), first_moment,
                (a, a, a) if certify else None)  # atoms alone: no items

    def sums(rate: float) -> tuple[float, float]:
        """Fixed-node sums of the price and the first moment at a flat
        ``rate`` on the last certified partition, whose nodes are rebuilt
        here, on first use, after a certified step cut it."""
        nonlocal nodes, weights, moments
        if nodes is None:
            nodes, weights, moments = node_weights(partition)
        discount = np.power(1.0 + rate, -nodes).tolist()
        return (_fsum_up(map(operator.mul, weights, discount)),
                _fsum_up(map(operator.mul, moments, discount)))

    lo_end, hi_end = _IRR_LO + 1e-9, _IRR_HI
    lo, hi = lo_end, hi_end  # bounds on the root, proved once lo_ok / hi_ok
    lo_ok = hi_ok = False
    close = []  # (|residual|, rate, residual) of the steps within eff_tol
    # the first step is where the mass, discounted at the mean payment
    # time, meets the target
    x = _newton_rate(0.0, mass, first, target_price)
    x = 0.0 if math.isnan(x) else min(max(x, lo_end), hi_end)
    steer = len(partition[0]) > 0  # atoms alone certify at once
    for step in range(1, _IRR_STEPS + 1):
        pv, moment, items = value(x, not steer)
        res = pv.value - target_price
        if not steer:
            if (x == hi_end and res > 0.0) or (x == lo_end and res < 0.0):
                raise DomainError(
                    f"no internal rate in ({_IRR_LO}, {_IRR_HI}] reaches the target")
            if pv.lower < target_price < pv.upper and res != 0.0:
                # the bracket does not tell the side: tighten it to |res| / 2
                pv, moment, items = value(x, True, 0.5 * abs(res))
                res = pv.value - target_price
            # x proved below the root, above it, or (a zero-width bracket) at it
            below, above = pv.lower >= target_price, pv.upper <= target_price
            if below:
                lo, lo_ok = max(lo, x), True
            if above:
                hi, hi_ok = min(hi, x), True
            if abs(res) <= eff_tol:
                close.append((abs(res), x, res))
            # the rate y just under tol away on the other side, in the window,
            # bounded from the items x was enclosed on (none on overflow)
            y = math.nextafter(x + tol if below else x - tol, x)
            y = min(max(y, lo_end), hi_end)
            if (items is not None and below != above and y != x
                    and not (lo_ok and hi_ok and hi - lo <= tol)):
                a, lower, upper = items
                d = math.log1p(y) - math.log1p(x)
                # an infinite PV(y), y < x, proves y; inf - inf is nan, which
                # proves nothing
                with np.errstate(over="ignore", invalid="ignore"):
                    bound = (_fsum_up((amounts * np.power(1.0 + y, -times)).tolist())
                             + float(np.exp(-d * a) @ (upper if below else lower)))
                if below and bound <= target_price:
                    hi, hi_ok = min(hi, y), True
                elif above and bound >= target_price:
                    lo, lo_ok = max(lo, y), True
            if lo_ok and hi_ok and hi - lo <= tol:
                inside = [c for c in close if lo <= c[1] <= hi]
                if inside:
                    _, rate, res = min(inside)
                    return YieldResult(rate, res, step)
            if moment is None:
                moment = sums(x)[1]
        p = _newton_rate(x, pv.value, moment, target_price)
        if steer:  # the last update aims past p below; an undefined one certifies x
            steer = lo_end <= p <= hi_end and abs(p - x) > tol
            x = p if steer else x
            if steer or math.isnan(p):
                continue
        if not lo <= p <= hi:
            if p > hi and not hi_ok:
                x = hi_end
            elif p < lo and not lo_ok:
                x = lo_end
            else:
                x = 0.5 * (lo + hi)
        else:
            # aim delta past the prediction, on the side still lacking a
            # certified bracket within tol / 2: delta keeps the residual
            # within eff_tol / 2 and two such steps within tol of each other
            delta = min(0.4 * tol, 0.5 * eff_tol * (1.0 + x) / moment)
            if lo_ok and p - lo <= 0.5 * tol:
                side = 1.0
            elif hi_ok and hi - p <= 0.5 * tol:
                side = -1.0
            else:
                side = 1.0 if res > 0.0 else -1.0
            x = min(max(p + side * delta, lo), hi)
    raise DomainError("internal rate search did not converge to the tolerance")


def _fsum_up(values) -> float:
    """``math.fsum`` of nonnegative values, inf where the sum passes the float range."""
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf


def _lay_out(partition: tuple, weights: list, rate: float, tol: float) -> tuple:
    """``partition`` ``(a, b, unit)``, times measured from the purchase
    time, cut so that :func:`~pvkit.quadrature.enclose` at a flat ``rate``
    is predicted to meet ``tol`` in its first batch.

    On item ``k`` of half-length ``h_k`` and mass ``m_k >= 0`` (the sum of
    its fixed-node weights), the degree-6 interpolant through the 7
    Chebyshev nodes misses ``P(s) = e^(-lam s)``, ``lam = ln(1 + rate)``,
    by at most ``(|lam| h_k)^7 max P / (2^6 7!)``, with ``max P`` at an end
    of the item, so its sampled width is at most 4 ``m_k`` times that,
    plus the roundoff allowance ``4 R (1 + |lam| b_k) m_k max P``, ``R``
    the pads' ``quadrature._ROUNDOFF`` (a sample time rounded by one ulp
    moves ``P`` by ``|lam| t`` ulp).  A level of halving divides the first
    term by exactly ``2^7`` and leaves the allowance, so each item is cut
    to the fewest levels that bring its first term within an equal share
    of what the allowances leave of ``tol``.  An item that needs more than
    ``_MAX_DEPTH`` levels is left whole for ``enclose``'s own rounds, and
    the partition is returned as given where no item is cut, where a term
    passes the float range and where the allowances leave nothing.
    """
    a, b = partition[0], partition[1]
    n, lam, grow = _MODEL_NODES, abs(math.log1p(rate)), 1.0 + rate
    k = len(weights) // len(a)  # nodes per item
    first, spare = [], tol
    try:
        for i, s, e in zip(range(0, len(weights), k), a.tolist(), b.tolist()):
            top = sum(weights[i:i + k]) * grow ** -(s if rate > 0.0 else e)  # m_k max P
            first.append(top * (lam * 0.5 * (e - s)) ** n)
            spare -= 4.0 * _ROUNDOFF * top * (1.0 + lam * e)
    except OverflowError:
        return partition
    # each first term is 4 / (2^(n-1) n!) times its entry in first
    share = spare * (2 ** (n - 1) * math.factorial(n)) / (4.0 * len(a))
    worst = max(first)
    if not (share > 0.0 and worst < math.inf) or worst <= share:
        return partition
    depth = np.array([0 if w <= share else math.ceil((math.log2(w) - math.log2(share)) / n)
                      for w in first])
    depth[depth > _MAX_DEPTH] = 0
    if not depth.any():
        return partition
    ca, cb, parent = _split(a, b, depth)
    return ca, cb, partition[2][parent]


def _newton_rate(rate: float, pv: float, moment: float, target: float) -> float:
    """One Newton step on ``ln PV`` against ``lam = ln(1 + rate)``.

    ``moment`` is ``-dPV/dlam``.  Returns NaN when the step is undefined
    and inf when it leaves every representable rate.
    """
    if not (0.0 < pv < math.inf and 0.0 < moment < math.inf):
        return math.nan
    ratio = pv / target
    # a ratio that underflows still has a finite logarithm
    log_ratio = math.log(ratio) if ratio > 0.0 else math.log(pv) - math.log(target)
    lam = math.log1p(rate) + log_ratio * pv / moment
    return math.expm1(lam) if lam < 700.0 else math.inf


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
    forwards.  That maximum is ``curve.forward_max(purchase_time, lo,
    hi)`` over the support ``[lo, hi]``, which each curve family finds
    from its own form (see :mod:`pvkit.curves`); ``holds`` compares with
    slack ``tol``.  A curve without ``forward_max``, or a ``tol`` that is
    not positive (nan included), is refused with a DomainError before any
    pricing.

    The target's default tolerance is absolute, too wide for a flow worth
    less than it, so before answering ``holds=False`` the target is priced
    again to ``1e-10`` of its value and the rate solved again.
    """
    if not tol > 0.0:
        raise DomainError("tolerance must be positive")
    best_forward = getattr(curve, "forward_max", None)
    if best_forward is None:
        raise DomainError(f"yield bound needs the curve's forward_max(s, a, b); "
                          f"{type(curve).__name__} has none")
    target = forward_price(curve, flow, purchase_time).value
    rate = irr(flow, target, purchase_time, tol=min(1e-10, tol)).rate
    forward_max = best_forward(purchase_time, *flow.support_bounds())
    if not rate <= forward_max + tol:
        target = forward_price(curve, flow, purchase_time, 1e-10 * target).value
        rate = irr(flow, target, purchase_time, tol=min(1e-10, tol)).rate
    return YieldBound(rate, forward_max, rate <= forward_max + tol)
