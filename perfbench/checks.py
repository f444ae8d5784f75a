"""Checks of every distinct output against the oracles in ``oracle.py``.

``EXPECT[workload](specs)`` computes the reference values before the run
(for ``irr`` it also sets each solve's target price, which is an input);
``VERIFY[workload](specs, expected, outputs)`` returns one message per
output that disagrees.  Operations that raised are not among the outputs;
the worker counts them as failed.  Nothing here imports pvkit.
"""
from __future__ import annotations

import json
import math

import mpmath as mp

import oracle
import workloads

TOLERANCE_SCALE = 1e-10  # pvkit's default tolerance is this times (1 + variation)
IRR_TOL = 1e-10  # irr's default tolerance, relative to 1 + |target|
IRR_WINDOW = 1e-6  # rates are checked within this distance of the curve's rate
REPLAY_TOL = 1e-9  # slack of the float replay of an arbitrage certificate


def _default_tol(variation) -> mp.mpf:
    return TOLERANCE_SCALE * (1 + variation)


# -- book ------------------------------------------------------------------


def _sup_discount(spec: dict, start: float, end: float) -> mp.mpf:
    """An upper bound on P over [start, end]: the largest of 257 samples
    plus 1%, far more than P moves between samples."""
    fn, _ = oracle.discount(spec)
    return 1.01 * max(fn(mp.mpf(start) + (end - start) * mp.mpf(k) / 256)
                      for k in range(257))


def expect_book(specs: dict) -> list:
    out = []
    for p in specs["positions"]:
        atoms, dens = p["atoms"], p["density"]
        if p["market"] is None:
            out.append({"value": oracle.value(p["curve"], atoms, dens),
                        "tol": _default_tol(oracle.mass(atoms, dens))})
        else:
            start, end = dens[0][:2]  # the atoms lie in [start, end] too
            with mp.workdps(15):  # only the tolerance depends on it
                converted_mass = oracle.fx_converted_mass(p["market"], atoms, dens)
            out.append({"value": oracle.fx_value(p["market"], atoms, dens),
                        "converted_mass": converted_mass,
                        "sup_p": _sup_discount(p["curve"], start, end)})
    return out


def verify_book(specs, expected, outputs) -> list[str]:
    bad = []
    for k, (p, exp, outs) in enumerate(zip(specs["positions"], expected, outputs)):
        for out in outs:
            value, lower, upper = (mp.mpf(x) for x in out[:3])
            width = upper - lower
            if p["market"] is None:
                if not lower <= exp["value"] <= upper:
                    bad.append(f"position {k}: [{lower}, {upper}] misses {exp['value']}")
                if width > exp["tol"]:
                    bad.append(f"position {k}: width {width} > tolerance {exp['tol']}")
            else:
                err = mp.mpf(out[3])
                # the converted flow's variation differs from the exact
                # product's mass by at most the fit error
                tol = _default_tol(exp["converted_mass"] + err) * (1 + mp.mpf(1e-12))
                allowed = tol + exp["sup_p"] * err
                if width > tol:
                    bad.append(f"position {k}: width {width} > tolerance {tol}")
                if abs(value - exp["value"]) > allowed:
                    bad.append(f"position {k}: foreign value {value} is "
                               f"{abs(value - exp['value'])} from {exp['value']}, "
                               f"allowed {allowed}")
            if not lower <= value <= upper:
                bad.append(f"position {k}: value {value} outside its bracket")
    return bad


# -- irr -------------------------------------------------------------------


def expect_irr(specs: dict) -> list:
    """Sets each flat-curve solve's target to the flow's price at its rate."""
    out = []
    for o in specs["ops"]:
        if o["kind"] != "irr":
            out.append(None)
            continue
        flat = {"type": "flat", "i": o["rate"]}
        o["target"] = float(oracle.value(flat, o["atoms"], o["density"]))
        # |PV'| falls as the rate rises, so its value at the top of the
        # window bounds it below across the window
        out.append({"slope": oracle.flat_rate_derivative(o["rate"] + IRR_WINDOW,
                                                         o["atoms"], o["density"]),
                    "mass": oracle.mass(o["atoms"], o["density"])})
    return out


def verify_irr(specs, expected, outputs) -> list[str]:
    bad = []
    for k, (o, exp, outs) in enumerate(zip(specs["ops"], expected, outputs)):
        for out in outs:
            if o["kind"] != "irr":
                if out[2] is not True:
                    bad.append(f"op {k}: yield bound fails on the {o['kind']} curve: "
                               f"rate {out[0]} > forward max {out[1]}")
                continue
            rate, residual = mp.mpf(out[0]), mp.mpf(out[1])
            target = o["target"]
            eff_tol = IRR_TOL * (1 + abs(target))
            if abs(residual) > eff_tol:
                bad.append(f"op {k}: residual {residual} above {eff_tol}")
            # the price at the returned rate is within |residual| of the
            # target, up to irr's quadrature tolerance (at most eff_tol, or
            # 1e-12 of the variation) and the target's own rounding
            slack = (abs(residual) + eff_tol + 1e-12 * exp["mass"]
                     + math.ulp(target))
            bound = min(mp.mpf(IRR_WINDOW), slack / exp["slope"])
            if abs(rate - mp.mpf(o["rate"])) > bound:
                bad.append(f"op {k}: rate {rate} is {abs(rate - o['rate'])} from "
                           f"{o['rate']}, allowed {bound}")
    return bad


# -- ladder ----------------------------------------------------------------


def _difference_rows(lad: dict) -> list[list[float]]:
    index = {t: j for j, t in enumerate(lad["grid"])}
    rows = []
    for q in lad["quotes"]:
        row = [0.0] * len(lad["grid"])
        for t, a in q["right"]:
            row[index[t]] += a
        for t, a in q["left"]:
            row[index[t]] -= a
        rows.append(row)
    return rows


def expect_ladder(specs: dict) -> list:
    return [None if lad["off_curve"] else
            [(1 + mp.mpf(lad["rate"])) ** -mp.mpf(t) for t in lad["grid"]]
            for lad in specs["ladders"]]


def verify_ladder(specs, expected, outputs) -> list[str]:
    bad = []
    for k, (lad, exp, outs) in enumerate(zip(specs["ladders"], expected, outputs)):
        for out in outs:
            if not lad["off_curve"]:
                if out[0] != "free":
                    bad.append(f"ladder {k}: consistent ladder reported {out[0]}")
                    continue
                for t, got, want in zip(lad["grid"], out[1], exp):
                    if abs(got - want) > 1e-12 * want:
                        bad.append(f"ladder {k}: price at {t} is {got}, curve {want}")
            elif out[0] != "arbitrage":
                bad.append(f"ladder {k}: off-curve ladder reported {out[0]}")
            else:
                bad += [f"ladder {k}: {m}" for m in _replay(lad, out[1], out[2])]
    return bad


def _replay(lad: dict, weights, portfolio) -> list[str]:
    """The certificate replayed in floats, as the test suite replays it."""
    combo = [0.0] * len(lad["grid"])
    for w, row in zip(weights, _difference_rows(lad)):
        for j, c in enumerate(row):
            combo[j] += w * c
    bad = []
    if not all(v >= -REPLAY_TOL for v in combo) or not max(combo) > REPLAY_TOL:
        bad.append(f"certificate combination {combo} is not a free lunch")
    stated = dict((t, a) for t, a in portfolio)
    for t, v in zip(lad["grid"], combo):
        if abs(stated.get(t, 0.0) - v) > REPLAY_TOL:
            bad.append(f"portfolio amount at {t} is {stated.get(t, 0.0)}, combination {v}")
    return bad


# -- cli -------------------------------------------------------------------


def expect_cli(specs: dict) -> dict:
    i = mp.mpf(specs["curve"]["i"])
    amount = mp.mpf(specs["annuity"][0][1])
    n = len(specs["annuity"])
    m, f, q = specs["market"], specs["foreign_flow"], specs["quotes"]
    fx, _ = oracle.fx_rate(m)
    return {
        "annuity": amount * (1 - (1 + i) ** -n) / i,
        "converted_atoms": [mp.mpf(a) * fx(mp.mpf(t)) for t, a in f["atoms"]],
        "converted_value": oracle.fx_value(m, f["atoms"], f["density"]),
        "converted_mass": oracle.fx_converted_mass(m, f["atoms"], f["density"]),
        "grid_prices": [(1 + mp.mpf(q["rate"])) ** -mp.mpf(t) for t in q["grid"]],
    }


def _print_slack(x, precision: int = 6) -> mp.mpf:
    # half a unit in the last printed place, plus the float's own rounding
    return mp.mpf(0.5) * mp.mpf(10) ** -precision + 1e-15 * (1 + abs(x))


def _price_line(stdout: str) -> list[float]:
    value, rest = stdout.strip().split(" ", 1)
    lower, upper = rest.strip("[]").split(", ")
    return [float(value), float(lower), float(upper)]


def verify_cli(specs, expected, outputs) -> list[str]:
    bad = []
    for name, outs in zip(workloads.CLI_CALLS, outputs):
        for out in outs:
            stdout, written = out
            try:
                bad += [f"{name}: {m}" for m in _verify_call(name, specs, expected,
                                                           stdout, written)]
            except (ValueError, KeyError, IndexError) as exc:
                bad.append(f"{name}: unreadable output {stdout!r}: {exc}")
    return bad


def _verify_call(name, specs, expected, stdout, written) -> list[str]:
    bad = []
    if name == "price annuity":
        want = expected["annuity"]
        for got in _price_line(stdout):
            if abs(got - want) > _print_slack(want):
                bad.append(f"printed {got}, annuity {want}")
    elif name == "fx-convert":
        flow = json.loads(written)
        for atom, want in zip(flow["atoms"], expected["converted_atoms"]):
            if abs(atom["amount"] - want) > 1e-12 * abs(want):
                bad.append(f"atom at {atom['t']} converted to {atom['amount']}, oracle {want}")
        start, end = specs["foreign_flow"]["density"][0][:2]
        spans = sorted((p["from"], p["to"]) for p in flow["density"])
        if (not spans or spans[0][0] != start or spans[-1][1] != end
                or any(a[1] != b[0] for a, b in zip(spans, spans[1:]))):
            bad.append(f"converted pieces {spans} do not tile [{start}, {end})")
    elif name == "price converted":
        want = expected["converted_value"]
        # the bracket's tolerance and the fit error are each far below a
        # part in 1e9 of the converted flow's mass
        allowed = _print_slack(want) + 1e-9 * (1 + expected["converted_mass"])
        for got in _price_line(stdout):
            if abs(got - want) > allowed:
                bad.append(f"printed {got}, FX oracle {want}")
    elif name == "arbitrage-check off-curve":
        verdict = json.loads(stdout)
        if verdict["verdict"] != "arbitrage":
            bad.append(f"verdict {verdict['verdict']} on an off-curve ladder")
        else:
            bad += _replay(specs["off_quotes"], verdict["coefficients"],
                           [[a["t"], a["amount"]] for a in verdict["portfolio"]["atoms"]])
    else:
        lines = stdout.strip().splitlines()
        if lines[:2] != ["ARBITRAGE-FREE", "t,price"]:
            bad.append(f"verdict {lines[:1]} on a consistent ladder")
        for line, want in zip(lines[2:], expected["grid_prices"]):
            got = float(line.split(",")[1])
            if abs(got - want) > _print_slack(want):
                bad.append(f"printed {line}, curve price {want}")
        if len(lines) != 2 + len(expected["grid_prices"]):
            bad.append(f"{len(lines) - 2} prices for {len(expected['grid_prices'])} grid times")
    return bad


EXPECT = {"book": expect_book, "irr": expect_irr, "ladder": expect_ladder,
          "cli": expect_cli}
VERIFY = {"book": verify_book, "irr": verify_irr, "ladder": verify_ladder,
          "cli": verify_cli}
