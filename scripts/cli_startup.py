"""Start-up cost of each ``python -m pvkit.cli`` subcommand.

For each of the nine subcommands the script writes small inputs (a flat
curve, a flow of two payments and a signed density, a five-year coupon
bond for ``irr``, a two-currency market, a three-point quote set) and
reports:

* the best wall time of ``REPEATS`` fresh ``python -m pvkit.cli`` calls,
  taken in rounds over all subcommands so that a slow spell of the host
  hits every row alike;
* whether the call loaded numpy;
* one ``-X importtime`` run's import time, split by the top-level module
  imported: numpy, pvkit, and the rest (the standard library).

A bare ``python -c pass`` row gives the interpreter's own start.  It runs
the pvkit found on ``PYTHONPATH``, so pointing that at another checkout
compares two trees::

    PYTHONPATH=src python scripts/cli_startup.py
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time

REPEATS = 8
CURVE = {"type": "flat", "i": 0.04}
FLOW = {"atoms": [{"t": 1.0, "amount": 3.0}, {"t": 2.0, "amount": -1.0}],
        "density": [{"from": 0.0, "to": 5.0, "coeffs": [1.0, -0.5, 0.05]}]}
BOND = {"atoms": [{"t": float(k), "amount": 0.05} for k in range(1, 5)]
        + [{"t": 5.0, "amount": 1.05}]}
MARKET = {"domestic_curve": {"type": "flat", "i": 0.01},
          "foreign_curve": {"type": "flat", "i": 0.03}, "spot_fx": 0.9}
DUAL = {"domestic": {"atoms": [{"t": 1.0, "amount": 1.0}]},
        "foreign": {"density": [{"from": 0.0, "to": 3.0, "coeffs": [1.0]}]}}
QUOTES = {"grid": [0, 1, 2], "quotes": [
    {"left": {"atoms": [{"t": 1, "amount": 1}]}, "right": {"atoms": [{"t": 0, "amount": 0.96}]}},
    {"left": {"atoms": [{"t": 2, "amount": 1}]}, "right": {"atoms": [{"t": 0, "amount": 0.92}]}},
]}


def commands(d: str) -> dict[str, list[str]]:
    def write(name, payload):
        path = os.path.join(d, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        return path

    curve, flow = write("curve.json", CURVE), write("flow.json", FLOW)
    market, dual = write("market.json", MARKET), write("dual.json", DUAL)
    return {
        "price": ["price", "--curve", curve, "--cashflow", flow],
        "forward-price": ["forward-price", "--curve", curve, "--cashflow", flow, "--t", "2"],
        "irr": ["irr", "--cashflow", write("bond.json", BOND), "--target", "0.98"],
        "decompose": ["decompose", "--cashflow", flow],
        "fx-price": ["fx-price", "--market", market, "--dual", dual],
        "fx-convert": ["fx-convert", "--market", market, "--cashflow", flow],
        "arbitrage-check": ["arbitrage-check", "--quotes", write("quotes.json", QUOTES)],
        "curve-eval": ["curve-eval", "--curve", curve, "--to", "10"],
        "counterexample": ["counterexample", "--preset", "double-density", "--curve", curve,
                           "--cashflow", flow],
    }


def wall(cmd: list[str]) -> float:
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def import_split(cmd: list[str]) -> dict[str, float]:
    """Self import time in ms of one ``-X importtime`` run, by top-level
    module: numpy, pvkit and the rest; numpy is absent when not loaded."""
    err = subprocess.run([cmd[0], "-X", "importtime", *cmd[1:]], check=True,
                         stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True).stderr
    split = {"pvkit": 0.0, "stdlib": 0.0}
    for line in err.splitlines():
        if not line.startswith("import time:"):
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        if not self_us.strip().isdigit():
            continue  # the header
        top = name.strip().split(".")[0]
        key = top if top in ("numpy", "pvkit") else "stdlib"
        split[key] = split.get(key, 0.0) + int(self_us) / 1e3
    return split


def main() -> None:
    with tempfile.TemporaryDirectory() as d:
        cmds = {"(python -c pass)": [sys.executable, "-c", "pass"]}
        cmds.update({name: [sys.executable, "-m", "pvkit.cli", *argv]
                     for name, argv in commands(d).items()})
        best = dict.fromkeys(cmds, float("inf"))
        for _ in range(REPEATS):
            for name, cmd in cmds.items():
                best[name] = min(best[name], wall(cmd))
        print(f"Python {sys.version.split()[0]}, best of {REPEATS} fresh calls\n")
        print("| command | wall ms | numpy loaded | numpy ms | pvkit ms | stdlib ms |")
        print("| --- | ---: | --- | ---: | ---: | ---: |")
        for name, cmd in cmds.items():
            split = import_split(cmd)
            loaded = "yes" if "numpy" in split else "no"
            print(f"| `{name}` | {best[name] * 1e3:.0f} | {loaded} | {split.get('numpy', 0.0):.0f} "
                  f"| {split['pvkit']:.0f} | {split['stdlib']:.0f} |")


if __name__ == "__main__":
    main()
