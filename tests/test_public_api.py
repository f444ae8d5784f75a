"""The names ``pvkit`` exports, pinned so that a change to them is deliberate,
and the lazy package import that keeps numpy out of the exact commands."""
import json
import os
import subprocess
import sys

import pvkit

PUBLIC = [
    "Arbitrage", "ArbitrageFree", "Atom", "Bracket", "CashFlow", "DensityPiece",
    "DomainError", "DualCashFlow", "DualCurrencyMarket", "DualFunctional",
    "FlatCurve", "JordanDecomposition", "LebesgueDecomposition", "NULL",
    "NonUniqueImpliedPricesError", "PRESETS", "Quote", "QuoteSet", "ScaledCurve",
    "SchemaError", "SpotGridCurve", "SvenssonCurve", "YieldBound", "YieldResult",
    "check", "choquet_gap", "convert_measure_with_bound", "default_tolerance",
    "density", "dirac", "distribution", "double_density", "dual_price",
    "forward_discount", "forward_price", "forward_rate",
    "forward_rate_composition_check", "fx_forward", "implied_curve", "irr",
    "is_nonnegative", "jordan", "lebesgue", "mass", "price", "price_dual",
    "spot_rate", "total_mass", "total_variation", "trace", "translate",
    "yield_bound_check",
]


def test_public_names_are_pinned():
    assert sorted(pvkit.__all__) == PUBLIC
    assert len(set(pvkit.__all__)) == len(pvkit.__all__) == 52


def test_every_public_name_resolves():
    for name in pvkit.__all__:
        assert hasattr(pvkit, name), name


_GUARD = r"""
import contextlib, io, json, os, sys
import pvkit
loaded = {"import pvkit": "numpy" in sys.modules}
from pvkit import cli
d = sys.argv[1]
quotes = {"grid": [0, 1, 2], "quotes": [
    {"left": {"atoms": [{"t": 1, "amount": 1}]}, "right": {"atoms": [{"t": 0, "amount": 0.95}]}},
    {"left": {"atoms": [{"t": 2, "amount": 1}]}, "right": {"atoms": [{"t": 0, "amount": 0.97}]}}]}
flow = {"atoms": [{"t": 1.0, "amount": -2.0}],
        "density": [{"from": 0.0, "to": 4.0, "coeffs": [1.0, -0.5]}]}
for name, payload in (("q.json", quotes), ("f.json", flow)):
    with open(os.path.join(d, name), "w") as fh:
        json.dump(payload, fh)
for argv in (["arbitrage-check", "--quotes", os.path.join(d, "q.json")],
             ["arbitrage-check", "--quotes", os.path.join(d, "q.json"),
              "--format", "structured"],
             ["decompose", "--cashflow", os.path.join(d, "f.json")]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    loaded[" ".join(argv[:1] + argv[3:])] = "numpy" in sys.modules
names = {}
exec("from pvkit import *", names)
print(json.dumps({"loaded": loaded, "star": sorted(set(names) - {"__builtins__"}),
                  "dir": dir(pvkit)}))
"""


def test_exact_commands_load_no_numpy(tmp_path):
    # a fresh interpreter: this one has numpy loaded already
    src = os.path.dirname(os.path.dirname(pvkit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", _GUARD, str(tmp_path)], env=env,
                          capture_output=True, text=True, check=True)
    report = json.loads(proc.stdout)
    assert report["loaded"] == {
        "import pvkit": False,
        "arbitrage-check": False,
        "arbitrage-check --format structured": False,
        "decompose": False,
    }
    assert report["star"] == PUBLIC
    assert set(PUBLIC) <= set(report["dir"])
