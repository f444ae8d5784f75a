"""Command-line interface.

Subcommands: price, forward-price, irr, decompose, fx-price, fx-convert,
arbitrage-check, curve-eval, counterexample.  Inputs are the JSON files
documented in :mod:`pvkit.io`; output is deterministic (same inputs, same
bytes).  ``--format structured`` emits JSON in the same shapes the
parsers accept, so outputs can be piped back in (e.g. fx-convert output
feeds price).  Text-mode numbers are printed with ``--precision`` (default
6) decimal places, trailing zeros trimmed.

Exit codes: 0 on success (an ARBITRAGE verdict is a successful check),
1 for domain errors (valid files, invalid request), 2 for malformed
input (unreadable files, schema violations, bad flags).
"""
from __future__ import annotations

import argparse
import json
import math
import sys

# Handlers that need the numeric layer (pricing, fx, dual functionals and
# numpy under them) import it when they run, so that decompose and
# arbitrage-check start without numpy.
from . import io as fio
from .arbitrage import Arbitrage, check
from .errors import DomainError, SchemaError
from .measures import jordan, lebesgue, total_mass

# the keys of dual_functional.PRESETS, sorted: --preset's choices
PRESET_NAMES = ("double-density",)
# curve-eval refuses a table longer than this before building any row
MAX_CURVE_ROWS = 100_000
# every double's exact decimal expansion ends by this place (2**-1074 is the
# smallest), so fmt prints the same bytes for any larger precision
_MAX_PRECISION = 1074


def fmt(x: float, precision: int) -> str:
    s = f"{x:.{precision}f}"
    if "." in s:
        s = s.rstrip("0").rstrip(".")
    return "0" if s in ("-0", "") else s


def _structured(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _price_text(res, p: int) -> str:
    return f"{fmt(res.value, p)} [{fmt(res.lower, p)}, {fmt(res.upper, p)}]"


def _precision(text: str) -> int:
    """``--precision``: a nonnegative int, clamped to 1074.  Text that is no
    int is refused with the message argparse gives for ``type=int``."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return min(value, _MAX_PRECISION)


def _common(sub, *, tol=True):
    sub.add_argument("--precision", type=_precision, default=6,
                     help="decimal places in text output (default 6)")
    sub.add_argument("--format", choices=("text", "structured"), default="text")
    sub.add_argument("--out", help="write output to this file instead of stdout")
    if tol:
        sub.add_argument("--tol", type=float, default=None,
                         help="certified bracket width (default scales with the flow)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pvkit",
        description="Valuation of cash-flow measures under discount curves.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("price", help="present value of a cash flow")
    s.add_argument("--curve", required=True)
    s.add_argument("--cashflow", required=True)
    _common(s)

    s = subs.add_parser("forward-price", help="value quoted for delivery at time t")
    s.add_argument("--curve", required=True)
    s.add_argument("--cashflow", required=True)
    s.add_argument("--t", type=float, required=True)
    _common(s)

    s = subs.add_parser("irr", help="internal rate of return at a target price")
    s.add_argument("--cashflow", required=True)
    s.add_argument("--target", type=float, required=True)
    s.add_argument("--purchase-time", type=float, default=0.0)
    _common(s)

    s = subs.add_parser("decompose", help="sign and smoothness decompositions")
    s.add_argument("--cashflow", required=True)
    _common(s, tol=False)

    s = subs.add_parser("fx-price", help="combined value of a two-currency flow")
    s.add_argument("--market", required=True)
    s.add_argument("--dual", required=True,
                   help="dual-currency cash-flow file {domestic, foreign}")
    s.add_argument("--currency", choices=("domestic", "foreign"), default="domestic")
    _common(s)

    s = subs.add_parser("fx-convert",
                        help="rewrite a foreign flow in domestic currency")
    s.add_argument("--market", required=True)
    s.add_argument("--cashflow", required=True, help="foreign-currency cash flow")
    _common(s, tol=False)

    s = subs.add_parser("arbitrage-check", help="screen quotes for arbitrage")
    s.add_argument("--quotes", required=True)
    _common(s, tol=False)

    s = subs.add_parser("curve-eval",
                        help="tabulate discount factors, spot and forward rates")
    s.add_argument("--curve", required=True)
    s.add_argument("--to", type=float, required=True)
    s.add_argument("--step", type=float, default=1.0)
    _common(s, tol=False)

    s = subs.add_parser(
        "counterexample",
        help="price under a positive linear rule that is not a curve integral",
    )
    s.add_argument("--dual", help="dual functional file {f, g, g_unit_check}")
    s.add_argument("--preset", choices=PRESET_NAMES,
                   help="built-in functional; needs --curve for f")
    s.add_argument("--curve", help="curve file for --preset")
    s.add_argument("--cashflow", required=True)
    _common(s)
    return parser


def _run_price(args) -> tuple[str, object]:
    from .pricing import price

    curve = fio.parse_curve(fio.read_json(args.curve))
    flow = fio.parse_cashflow(fio.read_json(args.cashflow))
    res = price(curve, flow, args.tol)
    return _price_text(res, args.precision), fio.price_json(res)


def _run_forward_price(args):
    from .pricing import forward_price

    curve = fio.parse_curve(fio.read_json(args.curve))
    flow = fio.parse_cashflow(fio.read_json(args.cashflow))
    res = forward_price(curve, flow, args.t, args.tol)
    return _price_text(res, args.precision), fio.price_json(res)


def _run_irr(args):
    from .pricing import irr

    flow = fio.parse_cashflow(fio.read_json(args.cashflow))
    res = irr(flow, args.target, args.purchase_time,
              **({} if args.tol is None else {"tol": args.tol}))
    p = args.precision
    text = (
        f"{fmt(res.rate, p)} (residual {fmt(res.residual, p)}, "
        f"iterations {res.iterations})"
    )
    return text, {
        "rate": res.rate,
        "residual": res.residual,
        "iterations": res.iterations,
    }


def _run_decompose(args):
    flow = fio.parse_cashflow(fio.read_json(args.cashflow))
    j = jordan(flow)
    leb = lebesgue(flow)
    p = args.precision
    parts = (
        ("jordan.positive", j.positive),
        ("jordan.negative", j.negative),
        ("lebesgue.absolutely_continuous", leb.absolutely_continuous),
        ("lebesgue.singular", leb.singular),
    )
    text = "part,mass\n" + "\n".join(
        f"{name},{fmt(total_mass(part), p)}" for name, part in parts
    )
    payload = {
        "jordan": {
            "positive": fio.cashflow_json(j.positive),
            "negative": fio.cashflow_json(j.negative),
        },
        "lebesgue": {
            "absolutely_continuous": fio.cashflow_json(leb.absolutely_continuous),
            "singular": fio.cashflow_json(leb.singular),
        },
    }
    return text, payload


def _run_fx_price(args):
    from .fx import price_dual

    market = fio.parse_market(fio.read_json(args.market))
    flow = fio.parse_dual_cashflow(fio.read_json(args.dual))
    res = price_dual(market, flow, args.currency, args.tol)
    return _price_text(res, args.precision), fio.price_json(res)


def _run_fx_convert(args):
    from .fx import convert_measure_with_bound

    market = fio.parse_market(fio.read_json(args.market))
    flow = fio.parse_cashflow(fio.read_json(args.cashflow))
    converted, _ = convert_measure_with_bound(market, flow)
    payload = fio.cashflow_json(converted)
    # the converted flow is itself a cash-flow file in both modes, so the
    # output can always be fed straight back into `price`
    return _structured(payload), payload


def _run_arbitrage_check(args):
    quotes = fio.parse_quotes(fio.read_json(args.quotes))
    verdict = check(quotes)
    p = args.precision
    if isinstance(verdict, Arbitrage):
        lines = ["ARBITRAGE", "quote,coefficient"]
        lines += [f"{k},{fmt(w, p)}" for k, w in enumerate(verdict.coefficients)]
        lines.append("portfolio t,amount")
        lines += [f"{fmt(a.time, p)},{fmt(a.amount, p)}"
                  for a in verdict.portfolio.atoms]
        payload = {
            "verdict": "arbitrage",
            "coefficients": list(verdict.coefficients),
            "portfolio": fio.cashflow_json(verdict.portfolio),
        }
        return "\n".join(lines), payload
    lines = ["ARBITRAGE-FREE", "t,price"]
    lines += [f"{fmt(t, p)},{fmt(v, p)}"
              for t, v in zip(verdict.grid, verdict.implied)]
    payload = {
        "verdict": "arbitrage-free",
        "grid": list(verdict.grid),
        "implied": list(verdict.implied),
    }
    return "\n".join(lines), payload


def _tabulation_times(to: float, step: float) -> list[float]:
    """``k * step`` for every k with ``k * step <= to`` (within 1e-12
    relative), clipped to ``to``, then ``to`` itself if it is not the last.

    The count comes first: more than :data:`MAX_CURVE_ROWS` times are
    refused before any is built.
    """
    end = to * (1.0 + 1e-12)
    count = MAX_CURVE_ROWS + 1
    if end / step < MAX_CURVE_ROWS:
        # k * step rises with k; the quotient can be one off at the edge
        count = int(end / step) + 1
        while count * step <= end:
            count += 1
        while (count - 1) * step > end:
            count -= 1
    last = min((count - 1) * step, to)
    if count + (last < to) > MAX_CURVE_ROWS:
        raise DomainError(f"--to {to} at --step {step} needs more than "
                          f"{MAX_CURVE_ROWS} rows, the curve-eval limit")
    return [min(k * step, to) for k in range(count)] + ([to] if last < to else [])


def _run_curve_eval(args):
    import numpy as np

    curve = fio.parse_curve(fio.read_json(args.curve))
    if not (math.isfinite(args.to) and math.isfinite(args.step)):
        raise DomainError("--to and --step must be finite")
    if args.step <= 0.0:
        raise DomainError("--step must be positive")
    if args.to < 0.0:
        raise DomainError("--to must be >= 0")
    if args.to > curve.horizon:
        raise DomainError(f"--to {args.to} is beyond the curve horizon {curve.horizon}")
    times = _tabulation_times(args.to, args.step)
    discs = curve.discount_many(np.array(times)).tolist()
    p = args.precision
    lines = ["t,P,y,f"]
    rows = []
    for t, disc in zip(times, discs):
        if t > 0.0:
            # the spot rate y is the forward rate f over [0, t]
            y = (discs[0] / disc) ** (1.0 / t) - 1.0
            rate = fmt(y, p)
        else:
            y, rate = None, "-"
        lines.append(f"{fmt(t, p)},{fmt(disc, p)},{rate},{rate}")
        rows.append({"t": t, "P": disc, "y": y, "f": y})
    return "\n".join(lines), {"rows": rows}


def _run_counterexample(args):
    from .dual_functional import PRESETS, dual_price
    from .pricing import price

    if args.dual and (args.preset or args.curve):
        raise SchemaError("give either --dual or --preset with --curve, not both")
    if args.dual:
        functional = fio.parse_dual_functional(fio.read_json(args.dual))
    elif args.preset:
        if not args.curve:
            raise SchemaError("--preset needs --curve for the atom curve")
        functional = PRESETS[args.preset](fio.parse_curve(fio.read_json(args.curve)))
    else:
        raise SchemaError("counterexample needs --dual or --preset")
    flow = fio.parse_cashflow(fio.read_json(args.cashflow))
    dual = dual_price(functional, flow, args.tol)
    curve_res = price(functional.atom_curve, flow, args.tol)
    gap = dual.value - curve_res.value
    p = args.precision
    text = "\n".join([
        f"dual {_price_text(dual, p)}",
        f"choquet {_price_text(curve_res, p)}",
        f"gap {fmt(gap, p)}",
    ])
    payload = {
        "dual": fio.price_json(dual),
        "choquet": fio.price_json(curve_res),
        "gap": gap,
    }
    return text, payload


_HANDLERS = {
    "price": _run_price,
    "forward-price": _run_forward_price,
    "irr": _run_irr,
    "decompose": _run_decompose,
    "fx-price": _run_fx_price,
    "fx-convert": _run_fx_convert,
    "arbitrage-check": _run_arbitrage_check,
    "curve-eval": _run_curve_eval,
    "counterexample": _run_counterexample,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text, payload = _HANDLERS[args.command](args)
        out = _structured(payload) if args.format == "structured" else text
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(out + "\n")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
    else:
        print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
