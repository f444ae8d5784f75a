"""JSON file formats for cash flows, curves, quotes and markets.

Parsers are strict: unknown keys, missing fields, non-finite numbers,
negative times and empty-interval pieces are all rejected with a
:class:`SchemaError` naming the offending path.  Writers emit the same
shapes, so command outputs round-trip as inputs.  The curve, market and
dual parsers import the numeric modules (and numpy with them) when they
are called, so cash-flow and quote files parse without numpy.

Formats (all JSON objects):

* cash flow::

    {"atoms": [{"t": 1.0, "amount": 100.0}],
     "density": [{"from": 0.0, "to": 10.0, "coeffs": [1.0]}]}

  A density entry may carry an ``"origin"`` (default 0): its ``coeffs``
  are then in powers of ``t - origin``.  Writers emit the key only when
  it is nonzero.

* curve: ``{"type": "flat", "i": 0.05}`` |
  ``{"type": "spot_grid", "knots": [[0, 1.0], [2, 0.9]]}`` |
  ``{"type": "svensson", "beta0": ..., "beta1": ..., "beta2": ...,
  "beta3": ..., "tau1": ..., "tau2": ...}``, each with an optional
  ``"horizon"``; where a positive weight function (not necessarily a
  discount curve) is accepted, additionally
  ``{"type": "scaled", "factor": 2.0, "base": <curve>}``.

* quotes: ``{"grid": [0, 1, 2], "quotes": [{"left": <atoms-only cash
  flow>, "right": <atoms-only cash flow>}]}``

* market: ``{"domestic_curve": <curve>, "foreign_curve": <curve>,
  "spot_fx": 0.9}``

* dual-currency cash flow: ``{"domestic": <cash flow>, "foreign":
  <cash flow>}``

* dual pricing functional: ``{"f": <curve>, "g": <curve or scaled
  curve>, "g_unit_check": false}`` -- with the flag true, ``g`` must be a
  genuine discount curve (g(0) = 1); default false.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict
from typing import TYPE_CHECKING

from .arbitrage import Quote, QuoteSet
from .errors import DomainError, SchemaError
from .measures import Atom, CashFlow, DensityPiece

if TYPE_CHECKING:
    from .dual_functional import DualFunctional
    from .fx import DualCashFlow, DualCurrencyMarket
    from .quadrature import Bracket


def read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read file: {exc}", path)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, bad UTF-8, integer literals past Python's digit
        # limit for int conversion, and nesting deeper than the parser recurses
        raise SchemaError(f"invalid JSON: {exc}", path)


def _obj(value, path: str, keys=None) -> dict:
    """``value`` as an object with no key outside ``keys``, if given."""
    if not isinstance(value, dict):
        raise SchemaError("expected an object", path)
    unknown = set(value).difference(keys) if keys else ()
    if unknown:
        raise SchemaError(f"unknown fields {sorted(unknown)}", path)
    return value


def _list(value, path: str) -> list:
    if not isinstance(value, list):
        raise SchemaError("expected an array", path)
    return value


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError("expected a number", path)
    try:
        x = float(value)
    except OverflowError:
        raise SchemaError("integer too large for a float", path) from None
    if not math.isfinite(x):
        raise SchemaError(f"number must be finite, got {value!r}", path)
    return x


def _field(obj: dict, key: str, path: str):
    if key not in obj:
        raise SchemaError(f"missing field {key!r}", path)
    return obj[key]


def _wrap_domain(fn, path: str):
    try:
        return fn()
    except DomainError as exc:
        raise SchemaError(str(exc), path)


def parse_cashflow(value, path: str = "cashflow") -> CashFlow:
    obj = _obj(value, path, ("atoms", "density"))
    atoms = []
    for k, entry in enumerate(_list(obj.get("atoms", []), f"{path}.atoms")):
        p = f"{path}.atoms[{k}]"
        e = _obj(entry, p, ("t", "amount"))
        t = _number(_field(e, "t", p), f"{p}.t")
        amount = _number(_field(e, "amount", p), f"{p}.amount")
        atoms.append(_wrap_domain(lambda: Atom(t, amount), p))
    pieces = []
    for k, entry in enumerate(_list(obj.get("density", []), f"{path}.density")):
        p = f"{path}.density[{k}]"
        e = _obj(entry, p, ("from", "to", "coeffs", "origin"))
        lo = _number(_field(e, "from", p), f"{p}.from")
        hi = _number(_field(e, "to", p), f"{p}.to")
        raw = _list(_field(e, "coeffs", p), f"{p}.coeffs")
        coeffs = tuple(_number(c, f"{p}.coeffs[{i}]") for i, c in enumerate(raw))
        origin = _number(e.get("origin", 0.0), f"{p}.origin")
        pieces.append(_wrap_domain(lambda: DensityPiece(lo, hi, coeffs, origin), p))
    return _wrap_domain(lambda: CashFlow(tuple(atoms), tuple(pieces)), path)


_SVENSSON_PARAMS = ("beta0", "beta1", "beta2", "beta3", "tau1", "tau2")
_CURVE_FIELDS = {
    "flat": ("type", "i", "horizon"),
    "spot_grid": ("type", "knots", "horizon"),
    "svensson": ("type", *_SVENSSON_PARAMS, "horizon"),
    "scaled": ("type", "factor", "base"),
}


def parse_curve(value, path: str = "curve", allow_scaled: bool = False):
    from .curves import FlatCurve, ScaledCurve, SpotGridCurve, SvenssonCurve

    kind = _field(_obj(value, path), "type", path)
    if kind not in _CURVE_FIELDS or (kind == "scaled" and not allow_scaled):
        raise SchemaError(f"unknown curve type {kind!r}", f"{path}.type")
    obj = _obj(value, path, _CURVE_FIELDS[kind])
    if kind == "scaled":
        factor = _number(_field(obj, "factor", path), f"{path}.factor")
        base = parse_curve(_field(obj, "base", path), f"{path}.base")
        return _wrap_domain(lambda: ScaledCurve(base, factor), path)
    kwargs = {}
    if "horizon" in obj:
        kwargs["horizon"] = _number(obj["horizon"], f"{path}.horizon")
    if kind == "flat":
        i = _number(_field(obj, "i", path), f"{path}.i")
        return _wrap_domain(lambda: FlatCurve(i, **kwargs), path)
    if kind == "spot_grid":
        knots = []
        for k, entry in enumerate(_list(_field(obj, "knots", path), f"{path}.knots")):
            p = f"{path}.knots[{k}]"
            pair = _list(entry, p)
            if len(pair) != 2:
                raise SchemaError("expected a [time, discount] pair", p)
            knots.append((_number(pair[0], f"{p}[0]"), _number(pair[1], f"{p}[1]")))
        return _wrap_domain(lambda: SpotGridCurve(tuple(knots), **kwargs), path)
    params = {
        name: _number(_field(obj, name, path), f"{path}.{name}")
        for name in _SVENSSON_PARAMS
    }
    return _wrap_domain(lambda: SvenssonCurve(**params, **kwargs), path)


def parse_quotes(value, path: str = "quotes") -> QuoteSet:
    obj = _obj(value, path, ("grid", "quotes"))
    grid = tuple(
        _number(t, f"{path}.grid[{k}]")
        for k, t in enumerate(_list(_field(obj, "grid", path), f"{path}.grid"))
    )
    quotes = []
    for k, entry in enumerate(_list(_field(obj, "quotes", path), f"{path}.quotes")):
        p = f"{path}.quotes[{k}]"
        e = _obj(entry, p, ("left", "right"))
        left = parse_cashflow(_field(e, "left", p), f"{p}.left")
        right = parse_cashflow(_field(e, "right", p), f"{p}.right")
        quotes.append(_wrap_domain(lambda: Quote(left, right), p))
    return _wrap_domain(lambda: QuoteSet(grid, tuple(quotes)), path)


def parse_market(value, path: str = "market") -> DualCurrencyMarket:
    from .fx import DualCurrencyMarket

    obj = _obj(value, path, ("domestic_curve", "foreign_curve", "spot_fx"))
    dom = parse_curve(_field(obj, "domestic_curve", path), f"{path}.domestic_curve")
    fore = parse_curve(_field(obj, "foreign_curve", path), f"{path}.foreign_curve")
    spot = _number(_field(obj, "spot_fx", path), f"{path}.spot_fx")
    return _wrap_domain(lambda: DualCurrencyMarket(dom, fore, spot), path)


def parse_dual_cashflow(value, path: str = "dual-cashflow") -> DualCashFlow:
    from .fx import DualCashFlow

    obj = _obj(value, path, ("domestic", "foreign"))
    return DualCashFlow(
        parse_cashflow(obj.get("domestic", {}), f"{path}.domestic"),
        parse_cashflow(obj.get("foreign", {}), f"{path}.foreign"),
    )


def parse_dual_functional(value, path: str = "dual-functional") -> DualFunctional:
    from .dual_functional import DualFunctional

    obj = _obj(value, path, ("f", "g", "g_unit_check"))
    f = parse_curve(_field(obj, "f", path), f"{path}.f")
    g = parse_curve(_field(obj, "g", path), f"{path}.g", allow_scaled=True)
    unit_check = obj.get("g_unit_check", False)
    if not isinstance(unit_check, bool):
        raise SchemaError("expected a boolean", f"{path}.g_unit_check")
    if unit_check and g.discount(0.0) != 1.0:
        raise SchemaError(
            f"g(0) = {g.discount(0.0)!r} but g_unit_check requires 1.0", f"{path}.g"
        )
    return _wrap_domain(lambda: DualFunctional(f, g), path)


def cashflow_json(flow: CashFlow) -> dict:
    return {
        "atoms": [{"t": a.time, "amount": a.amount} for a in flow.atoms],
        "density": [
            {"from": p.start, "to": p.end, "coeffs": list(p.coeffs)}
            | ({"origin": p.origin} if p.origin else {})
            for p in flow.pieces
        ],
    }


def price_json(res: Bracket) -> dict:
    return asdict(res) | {"value": res.value}
