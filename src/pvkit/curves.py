"""Discount curves and the rates derived from them.

A curve assigns a strictly positive present-value factor ``P(t)`` to every
``t >= 0`` with ``P(0) = 1``.  Three families are provided:

* :class:`FlatCurve` -- constant annual effective rate, ``P(t) = (1+i)**-t``;
* :class:`SpotGridCurve` -- log-linear interpolation through discount-factor
  knots, extrapolated beyond the last knot at that segment's constant
  continuously-compounded forward rate;
* :class:`SvenssonCurve` -- six-parameter parametric yield curve; the yield
  is continuously compounded, ``P(t) = exp(-t * y(t))``.

:class:`ScaledCurve` multiplies another curve by a positive constant.  It
intentionally breaks ``P(0) = 1`` and exists so that pricing functionals
can discount against a positive weight function that is not a discount
curve (see the dual-functional module).

All curves are immutable.  ``horizon`` marks how far out the curve is
meant to be used; construction samples ``P`` densely on [0, horizon] and
rejects parameters that produce non-finite or non-positive values there.
Each family has one formula, the array form ``discount_many(ts)``;
``discount(t)`` is ``discount_many`` at one time, so callers that need
several times make one ``discount_many`` call.

Each family also has ``forward_max(s, a, b)``, the largest forward rate
``f(s, t)`` over the times ``t`` in ``[a, b]`` after ``s``, found from
the family's own form and not from samples (:mod:`pvkit.forward_max`).

Rates use annual effective compounding throughout: the spot rate is
``y_t = P_t**(-1/t) - 1`` and the forward rate over ``[s, t]`` is
``f = (P_s/P_t)**(1/(t-s)) - 1`` with ``f = 0`` when ``s == t``.  Negative
rates are fine as long as ``1 + i > 0``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

DEFAULT_HORIZON = 100.0
_VALIDATION_SAMPLES = 64


def check_positive(fn, horizon: float, describe) -> None:
    """Raise DomainError unless ``fn`` is finite and positive on [0, horizon].

    ``fn`` maps an array of times to an array of values; it is checked at
    65 evenly spaced times, endpoints included.  At the first failing time
    ``t`` with value ``v`` the error message is ``describe(t, v)``.
    """
    ts = horizon * np.arange(_VALIDATION_SAMPLES + 1) / _VALIDATION_SAMPLES
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        vs = fn(ts)
    bad = ~(np.isfinite(vs) & (vs > 0.0))
    if bad.any():
        k = int(np.argmax(bad))
        raise DomainError(describe(float(ts[k]), float(vs[k])))


def _check_times(ts: np.ndarray) -> None:
    if ts.size and not ts.min() >= 0.0:
        raise DomainError(f"discount factor needs t >= 0, got {float(ts.min())}")


def _at(fn, t: float) -> float:
    """The array formula ``fn`` evaluated at the single time ``t``."""
    return float(fn(np.array([t], dtype=float))[0])


def _validate_curve(curve) -> None:
    check_positive(
        curve.discount_many,
        curve.horizon,
        lambda t, p: f"curve is not positive and bounded on [0, {curve.horizon}]: "
                     f"P({t}) = {p!r}",
    )


def _check_horizon(h: float) -> float:
    h = float(h)
    if not (math.isfinite(h) and h > 0.0):
        raise DomainError(f"horizon must be positive and finite, got {h!r}")
    return h


@dataclass(frozen=True)
class FlatCurve:
    """Constant annual effective rate i > -1."""

    rate: float
    horizon: float = DEFAULT_HORIZON

    def __post_init__(self):
        i = float(self.rate)
        if not (math.isfinite(i) and i > -1.0):
            raise DomainError(f"flat rate must be finite and > -1, got {i!r}")
        object.__setattr__(self, "rate", i)
        object.__setattr__(self, "horizon", _check_horizon(self.horizon))
        _validate_curve(self)

    def discount(self, t: float) -> float:
        return _at(self.discount_many, t)

    def discount_many(self, ts: np.ndarray) -> np.ndarray:
        _check_times(ts)
        return np.power(1.0 + self.rate, -ts)

    def forward_max(self, s: float, a: float, b: float) -> float:
        """Every forward rate is the rate; 0 when no time of [a, b] is after s."""
        from .forward_max import window
        return 0.0 if window(s, a, b) is None else self.rate

    def knot_times(self) -> tuple[float, ...]:
        return ()


@dataclass(frozen=True)
class SpotGridCurve:
    """Log-linear interpolation through ``knots = ((0, 1), (t1, P1), ...)``.

    Knot times are strictly increasing starting at 0 with P = 1; discount
    factors must be positive.  Beyond the last knot the curve grows at the
    final segment's constant continuously-compounded forward rate (flat
    at P = 1 if only the origin knot is given).
    """

    knots: tuple[tuple[float, float], ...]
    horizon: float = DEFAULT_HORIZON

    def __post_init__(self):
        ks = tuple((float(t), float(p)) for t, p in self.knots)
        if not ks or ks[0] != (0.0, 1.0):
            raise DomainError("spot grid must start with the knot (0, 1)")
        for (t0, p0), (t1, p1) in zip(ks, ks[1:]):
            if not t1 > t0:
                raise DomainError("spot grid times must be strictly increasing")
        for t, p in ks:
            if not (math.isfinite(t) and math.isfinite(p) and p > 0.0):
                raise DomainError(f"spot grid knot ({t!r}, {p!r}) is invalid")
        object.__setattr__(self, "knots", ks)
        object.__setattr__(self, "horizon", _check_horizon(self.horizon))
        if len(ks) >= 2:
            (ta, pa), (tb, pb) = ks[-2], ks[-1]
            tail = (math.log(pa) - math.log(pb)) / (tb - ta)
        else:
            tail = 0.0
        object.__setattr__(self, "_tail_forward", tail)
        object.__setattr__(self, "_knot_t", np.array([t for t, _ in ks]))
        object.__setattr__(self, "_knot_p", np.array([p for _, p in ks]))
        _validate_curve(self)

    def discount(self, t: float) -> float:
        return _at(self.discount_many, t)

    def discount_many(self, ts: np.ndarray) -> np.ndarray:
        _check_times(ts)
        last_t, last_p = self.knots[-1]
        out = last_p * np.exp(-self._tail_forward * (ts - last_t))
        inside = ts < last_t
        if inside.any():
            t = ts[inside]
            k = np.searchsorted(self._knot_t, t, side="right") - 1
            t0, t1 = self._knot_t[k], self._knot_t[k + 1]
            p0, p1 = self._knot_p[k], self._knot_p[k + 1]
            out[inside] = p0 * (p1 / p0) ** ((t - t0) / (t1 - t0))
        return out

    def forward_max(self, s: float, a: float, b: float) -> float:
        """The largest forward rate f(s, t) over t in [a, b] with t > s;
        0 when there is no such t (:func:`pvkit.forward_max.spot_grid`)."""
        from .forward_max import spot_grid
        return spot_grid(self, s, a, b)

    def knot_times(self) -> tuple[float, ...]:
        # interpolation is non-smooth at every interior knot and at the
        # extrapolation boundary
        return tuple(t for t, _ in self.knots[1:])


def _hump1_many(n: np.ndarray) -> np.ndarray:
    # (1 - exp(-x)) / x at n = -x <= 0, which is expm1(n) / n; at n = 0 the
    # least subnormal stands in, whose expm1 is itself: the limit 1
    m = np.minimum(n, -5e-324)
    return np.expm1(m) / m


@dataclass(frozen=True)
class SvenssonCurve:
    """Parametric continuously-compounded yield curve.

    ``y(t) = b0 + b1*h1(t/tau1) + b2*h2(t/tau1) + b3*h2(t/tau2)`` with
    ``h1(x) = (1-exp(-x))/x`` and ``h2(x) = h1(x) - exp(-x)``;
    ``P(t) = exp(-t*y(t))``.  Requires tau1, tau2 > 0.
    """

    beta0: float
    beta1: float
    beta2: float
    beta3: float
    tau1: float
    tau2: float
    horizon: float = DEFAULT_HORIZON

    def __post_init__(self):
        for name in ("beta0", "beta1", "beta2", "beta3", "tau1", "tau2"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise DomainError(f"{name} must be finite, got {v!r}")
            object.__setattr__(self, name, v)
        if self.tau1 <= 0.0 or self.tau2 <= 0.0:
            raise DomainError("tau1 and tau2 must be positive")
        object.__setattr__(self, "horizon", _check_horizon(self.horizon))
        _validate_curve(self)

    def yield_at(self, t: float) -> float:
        return _at(self._yields, t)

    def discount(self, t: float) -> float:
        return _at(self.discount_many, t)

    def _yields(self, ts: np.ndarray) -> np.ndarray:
        _check_times(ts)
        n1 = ts / -self.tau1
        n2 = ts / -self.tau2
        h1 = _hump1_many(n1)
        return (
            self.beta0
            + self.beta1 * h1
            + self.beta2 * (h1 - np.exp(n1))
            + self.beta3 * (_hump1_many(n2) - np.exp(n2))
        )

    def discount_many(self, ts: np.ndarray) -> np.ndarray:
        return np.exp(-ts * self._yields(ts))

    def forward_max(self, s: float, a: float, b: float) -> float:
        """The largest forward rate f(s, t) over t in [a, b] with t > s;
        0 when there is no such t (:func:`pvkit.forward_max.svensson`)."""
        from .forward_max import svensson
        return svensson(self, s, a, b)

    def knot_times(self) -> tuple[float, ...]:
        return ()


@dataclass(frozen=True)
class ScaledCurve:
    """A positive constant multiple of another curve; P(0) = factor != 1 allowed."""

    base: object
    factor: float

    def __post_init__(self):
        f = float(self.factor)
        if not (math.isfinite(f) and f > 0.0):
            raise DomainError(f"scale factor must be positive, got {f!r}")
        object.__setattr__(self, "factor", f)

    @property
    def horizon(self) -> float:
        return self.base.horizon

    def discount(self, t: float) -> float:
        return _at(self.discount_many, t)

    def discount_many(self, ts: np.ndarray) -> np.ndarray:
        return self.factor * self.base.discount_many(ts)

    def forward_max(self, s: float, a: float, b: float) -> float:
        """The base's: the factor cancels in P(s)/P(t)."""
        return self.base.forward_max(s, a, b)

    def knot_times(self) -> tuple[float, ...]:
        return self.base.knot_times()


def forward_rate(curve, s: float, t: float) -> float:
    """Annual effective forward rate locked in over [s, t]; 0 when s == t."""
    if not (0.0 <= s <= t):
        raise DomainError(f"forward rate needs 0 <= s <= t, got s={s}, t={t}")
    if s == t:
        return 0.0
    p_s, p_t = curve.discount_many(np.array([s, t], dtype=float)).tolist()
    return (p_s / p_t) ** (1.0 / (t - s)) - 1.0


def spot_rate(curve, t: float) -> float:
    """Annual effective spot rate for maturity t > 0 (undefined at t = 0)."""
    if not t > 0.0:
        raise DomainError(f"spot rate needs t > 0, got {t}")
    return forward_rate(curve, 0.0, t)


def forward_discount(curve, at: float, maturity: float) -> float:
    """Value at time ``at`` of a unit payment at ``maturity``: P(maturity)/P(at)."""
    p_at, p_maturity = curve.discount_many(np.array([at, maturity], dtype=float)).tolist()
    return p_maturity / p_at


def forward_rate_composition_check(curve, r: float, s: float, t: float) -> float:
    """Relative residual of forward-rate composition over [r, r+s, r+s+t].

    Compounding the forward over [r, r+s+t] must equal compounding the two
    adjacent forwards; returns |lhs - rhs| / max(|lhs|, |rhs|) which is
    zero up to roundoff for any valid curve.
    """
    if s < 0.0 or t < 0.0 or r < 0.0:
        raise DomainError("composition check needs r, s, t >= 0")
    lhs = (1.0 + forward_rate(curve, r, r + s + t)) ** (s + t)
    rhs = (1.0 + forward_rate(curve, r, r + s)) ** s * (
        1.0 + forward_rate(curve, r + s, r + s + t)
    ) ** t
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
