"""Reference values computed apart from pvkit, in mpmath at 30 digits.

Nothing here imports pvkit.  Curves are re-implemented from their
published formulas (flat effective rate, log-linear spot grid with the
last segment's forward extrapolated, Svensson), densities are integrated
with mpmath's Gauss-Legendre quadrature on spans split at every spot-grid
knot and at most ``_SPAN`` years long, and atoms are summed in the same
precision.
"""
from __future__ import annotations

import bisect

import mpmath as mp

mp.mp.dps = 30
_SPAN = 10.0


def discount(spec: dict):
    """``t -> P(t)`` at working precision, and the curve's kink times."""
    kind = spec["type"]
    if kind == "flat":
        log_base = mp.log(1 + mp.mpf(spec["i"]))
        return (lambda t: mp.exp(-t * log_base)), []
    if kind == "spot_grid":
        # log-linear between knots: on [t0, t1), P = p0 * exp(-f (t - t0));
        # the last segment's f carries on past the last knot
        times = [mp.mpf(t) for t, _ in spec["knots"]]
        logs = [mp.log(p) for _, p in spec["knots"]]
        fwd = [(la - lb) / (tb - ta) for ta, tb, la, lb
               in zip(times, times[1:], logs, logs[1:])]

        def grid(t):
            k = min(bisect.bisect_right(times, t) - 1, len(fwd) - 1)
            return mp.exp(logs[k] - fwd[k] * (t - times[k]))

        return grid, [float(t) for t in times[1:]]
    b0, b1, b2, b3, tau1, tau2 = (mp.mpf(spec[k]) for k in
                                  ("beta0", "beta1", "beta2", "beta3", "tau1", "tau2"))

    def hump(x, ex):
        # (1 - exp(-x)) / x, through expm1 where the subtraction would
        # cancel more than a digit
        if x < 0.1:
            return mp.mpf(1) if x == 0 else -mp.expm1(-x) / x
        return (1 - ex) / x

    def svensson(t):
        t = mp.mpf(t)
        x1, x2 = t / tau1, t / tau2
        e1, e2 = mp.exp(-x1), mp.exp(-x2)
        h1 = hump(x1, e1)
        y = b0 + b1 * h1 + b2 * (h1 - e1) + b3 * (hump(x2, e2) - e2)
        return mp.exp(-t * y)

    return svensson, []


def _spans(start: float, end: float, kinks) -> list:
    cuts = sorted({start, end} | {k for k in kinks if start < k < end})
    out = [mp.mpf(cuts[0])]
    for b in cuts[1:]:
        a = out[-1]
        n = max(1, int(mp.ceil((b - a) / _SPAN)))
        out.extend(a + (mp.mpf(b) - a) * j / n for j in range(1, n + 1))
    return out


def poly(coeffs):
    cs = [mp.mpf(c) for c in reversed(coeffs)]
    return lambda t: mp.polyval(cs, t)


def integral(fn, density, kinks=()) -> mp.mpf:
    """``sum over pieces of integral rho(t) fn(t) dt`` at working precision."""
    total = mp.mpf(0)
    for start, end, coeffs in density:
        rho = poly(coeffs)
        v, err = mp.quad(lambda t: rho(t) * fn(t), _spans(start, end, kinks),
                         method="gauss-legendre", error=True)
        if err > mp.mpf(10) ** (-mp.mp.dps + 5) * max(1, abs(v)):
            raise ArithmeticError(f"oracle quadrature error {err} on [{start}, {end})")
        total += v
    return total


def atom_sum(fn, atoms) -> mp.mpf:
    return mp.fsum(mp.mpf(a) * fn(t) for t, a in atoms)


def value(spec: dict, atoms, density) -> mp.mpf:
    """Present value of atoms plus densities under the curve ``spec``."""
    fn, kinks = discount(spec)
    return atom_sum(fn, atoms) + integral(fn, density, kinks)


def mass(atoms, density) -> mp.mpf:
    """Atom amounts plus exact density integrals: the total variation of a
    nonnegative flow."""
    total = mp.fsum(mp.mpf(a) for _, a in atoms)
    for start, end, coeffs in density:
        a, b = mp.mpf(start), mp.mpf(end)
        total += mp.fsum(mp.mpf(c) * (b ** (k + 1) - a ** (k + 1)) / (k + 1)
                         for k, c in enumerate(coeffs))
    return total


def fx_value(market: dict, atoms, density) -> mp.mpf:
    """Domestic value of a foreign flow: ``spot * integral P_foreign``."""
    return mp.mpf(market["spot_fx"]) * value(market["foreign_curve"], atoms, density)


def fx_rate(market: dict):
    """``t -> fx(t) = spot * P_foreign(t) / P_domestic(t)``, and its kinks."""
    pf, kf = discount(market["foreign_curve"])
    pd, kd = discount(market["domestic_curve"])
    spot = mp.mpf(market["spot_fx"])
    return (lambda t: spot * pf(t) / pd(t)), kf + kd


def fx_converted_mass(market: dict, atoms, density) -> mp.mpf:
    """Mass of the exact domestic equivalent ``fx(t) d(flow)`` of a
    nonnegative foreign flow."""
    fx, kinks = fx_rate(market)
    return atom_sum(fx, atoms) + integral(fx, density, kinks)


def flat_rate_derivative(rate: float, atoms, density) -> mp.mpf:
    """``|d PV / d i|`` of a flow under a flat effective rate ``i``."""
    base = 1 + mp.mpf(rate)

    def slope(t):
        return t * base ** (-t - 1)

    return atom_sum(slope, atoms) + integral(slope, density)
