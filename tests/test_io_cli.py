"""File formats and the command-line front end."""
import json
import math
import os
import subprocess
import sys

import pytest

from pvkit import (CashFlow, DensityPiece, FlatCurve, SchemaError, convert_measure_with_bound,
                   density, dirac, forward_price, price, spot_rate, total_mass)
from pvkit import PRESETS, DomainError
from pvkit import io as fio
from pvkit.cli import fmt, main
from pvkit.cli import MAX_CURVE_ROWS, PRESET_NAMES, _tabulation_times

FLAT5 = {"type": "flat", "i": 0.05}
ANNUITY = {
    "atoms": [{"t": float(k), "amount": 1.0} for k in range(1, 11)],
    "density": [],
}
MARKET = {
    "domestic_curve": {"type": "flat", "i": 0.01},
    "foreign_curve": {"type": "flat", "i": 0.03},
    "spot_fx": 0.9,
}


def _write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- parsing


def test_cashflow_round_trip():
    flow = dirac(1.0, 2.0) + dirac(0.0, -0.5) + density(0.0, 3.0, (1.0, -0.25))
    assert fio.parse_cashflow(fio.cashflow_json(flow)) == flow
    # origin 0 is the default, and is not written
    assert "origin" not in fio.cashflow_json(flow)["density"][0]
    about = CashFlow((), (DensityPiece(3.0, 4.0, (1.0, -0.25), 3.5),))
    written = fio.cashflow_json(about)
    assert written["density"] == [{"from": 3.0, "to": 4.0, "coeffs": [1.0, -0.25],
                                   "origin": 3.5}]
    assert fio.parse_cashflow(json.loads(json.dumps(written))) == about


@pytest.mark.parametrize(
    "payload, needle",
    [
        ({"atoms": [], "density": [], "extra": 1}, "unknown fields"),
        ({"atoms": [{"t": 1.0}]}, "amount"),
        ({"atoms": [{"t": True, "amount": 1.0}]}, "expected a number"),
        ({"atoms": [{"t": -1.0, "amount": 1.0}]}, "atoms[0]"),
        ({"atoms": "nope"}, "expected an array"),
        ({"density": [{"from": 0.0, "to": 0.0, "coeffs": [1.0]}]}, "density[0]"),
        ({"density": [{"from": 0.0, "to": 1.0, "coeffs": [1.0, "x"]}]}, "coeffs[1]"),
        (["not", "an", "object"], "expected an object"),
        ({"density": [{"from": 0.0, "to": 1.0, "coeffs": [1.0], "origin": "x"}]},
         "cashflow.density[0].origin: expected a number"),
        ({"density": [{"from": 0.0, "to": 1.0, "coeffs": [1.0], "origin": True}]},
         "cashflow.density[0].origin: expected a number"),
        ({"density": [{"from": 0.0, "to": 1.0, "coeffs": [1.0], "origin": math.inf}]},
         "cashflow.density[0].origin: number must be finite"),
        ({"density": [{"from": 0.0, "to": 1.0, "coeffs": [1.0], "origin": 0.5, "at": 1}]},
         "unknown fields ['at']"),
    ],
)
def test_cashflow_rejections(payload, needle):
    with pytest.raises(SchemaError) as err:
        fio.parse_cashflow(payload)
    assert needle in str(err.value)


def test_overlapping_density_is_a_schema_error():
    payload = {
        "density": [
            {"from": 0.0, "to": 2.0, "coeffs": [1.0]},
            {"from": 1.0, "to": 3.0, "coeffs": [1.0]},
        ]
    }
    with pytest.raises(SchemaError):
        fio.parse_cashflow(payload)


def test_curve_formats():
    assert fio.parse_curve(FLAT5).discount(1.0) == pytest.approx(1 / 1.05)
    grid = {"type": "spot_grid", "knots": [[0.0, 1.0], [2.0, 0.9]], "horizon": 40.0}
    assert fio.parse_curve(grid).horizon == 40.0
    sv = {
        "type": "svensson", "beta0": 0.03, "beta1": -0.01, "beta2": 0.01,
        "beta3": 0.02, "tau1": 1.5, "tau2": 9.0,
    }
    assert fio.parse_curve(sv).discount(0.0) == 1.0


@pytest.mark.parametrize(
    "payload, needle",
    [
        ({"type": "flat", "rate": 0.05}, "unknown fields"),
        ({"type": "linear"}, "unknown curve type"),
        ({"type": "flat", "i": -2.0}, "curve"),
        ({"type": "spot_grid", "knots": [[0.0, 1.0, 2.0]]}, "pair"),
        ({"type": "svensson", "beta0": 0.03}, "missing field"),
        # a scaled weight is not a discount curve; only functional files take it
        ({"type": "scaled", "factor": 2.0, "base": FLAT5}, "unknown curve type"),
    ],
)
def test_curve_rejections(payload, needle):
    with pytest.raises(SchemaError) as err:
        fio.parse_curve(payload)
    assert needle in str(err.value)


def test_dual_functional_scaled_weight_and_unit_check():
    payload = {"f": FLAT5, "g": {"type": "scaled", "factor": 2.0, "base": FLAT5}}
    functional = fio.parse_dual_functional(payload)
    assert functional.density_weight.discount(0.0) == 2.0
    with pytest.raises(SchemaError, match="g_unit_check"):
        fio.parse_dual_functional({**payload, "g_unit_check": True})


@pytest.mark.parametrize("flag", [1, "true", None])
def test_dual_functional_unit_check_must_be_boolean(flag):
    payload = {"f": FLAT5, "g": FLAT5, "g_unit_check": flag}
    with pytest.raises(SchemaError, match=r"^dual-functional\.g_unit_check: expected a boolean$"):
        fio.parse_dual_functional(payload)


def test_quotes_parse_and_reject_density_sides():
    left = {"atoms": [{"t": 1.0, "amount": 1.0}]}
    ok = {"grid": [0.0, 1.0],
          "quotes": [{"left": left, "right": {"atoms": [{"t": 0.0, "amount": 0.95}]}}]}
    qs = fio.parse_quotes(ok)
    assert qs.grid == (0.0, 1.0)
    assert len(qs.quotes) == 1
    bad = {"grid": [0.0, 1.0],
           "quotes": [{"left": {"density": [{"from": 0.0, "to": 1.0, "coeffs": [1.0]}]},
                       "right": left}]}
    with pytest.raises(SchemaError):
        fio.parse_quotes(bad)


def test_market_spot_must_be_positive():
    payload = dict(MARKET, spot_fx=-1.0)
    with pytest.raises(SchemaError, match="spot FX"):
        fio.parse_market(payload)


def test_read_json_errors(tmp_path):
    with pytest.raises(SchemaError, match="cannot read"):
        fio.read_json(str(tmp_path / "missing.json"))
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(SchemaError, match="invalid JSON"):
        fio.read_json(str(broken))


# ------------------------------------------------------------------- CLI


def test_fmt_trims_and_normalizes():
    assert fmt(7.721734929184818, 6) == "7.721735"
    assert fmt(2.0, 6) == "2"
    assert fmt(1.5, 2) == "1.5"
    assert fmt(-1e-9, 6) == "0"
    assert fmt(-0.25, 6) == "-0.25"


def test_cli_price_text(tmp_path, capsys):
    curve = _write(tmp_path, "curve.json", FLAT5)
    flow = _write(tmp_path, "flow.json", ANNUITY)
    code, out, err = run(capsys, "price", "--curve", curve, "--cashflow", flow)
    assert code == 0
    assert err == ""
    assert out == "7.721735 [7.721735, 7.721735]\n"
    code, out, _ = run(capsys, "price", "--curve", curve, "--cashflow", flow,
                       "--precision", "2")
    assert out == "7.72 [7.72, 7.72]\n"


def test_cli_price_structured(tmp_path, capsys):
    curve = _write(tmp_path, "curve.json", FLAT5)
    flow = _write(tmp_path, "flow.json", ANNUITY)
    code, out, _ = run(capsys, "price", "--curve", curve, "--cashflow", flow,
                       "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(7.721734929184818, rel=1e-12)
    assert payload["lower"] <= payload["value"] <= payload["upper"]
    # canonical form: sorted keys, two-space indent, trailing newline
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_cli_out_file_and_determinism(tmp_path, capsys):
    curve = _write(tmp_path, "curve.json", FLAT5)
    flow = _write(tmp_path, "flow.json", ANNUITY)
    target = tmp_path / "res.txt"
    code, out, _ = run(capsys, "price", "--curve", curve, "--cashflow", flow,
                       "--out", str(target))
    assert code == 0
    assert out == ""
    first = target.read_text()
    assert first.endswith("\n")
    run(capsys, "price", "--curve", curve, "--cashflow", flow, "--out", str(target))
    assert target.read_text() == first


def test_cli_exit_codes(tmp_path, capsys):
    curve = _write(tmp_path, "curve.json", FLAT5)
    flow = _write(tmp_path, "flow.json", ANNUITY)
    # unreadable input
    code, _, err = run(capsys, "price", "--curve", str(tmp_path / "nope.json"),
                       "--cashflow", flow)
    assert code == 2
    assert err.startswith("error:")
    # malformed file content
    bad_curve = _write(tmp_path, "bad_curve.json", {"type": "flat", "i": -2.0})
    assert run(capsys, "price", "--curve", bad_curve, "--cashflow", flow)[0] == 2
    # well-formed files, invalid request
    code, _, err = run(capsys, "price", "--curve", curve, "--cashflow", flow,
                       "--tol", "-1")
    assert code == 1
    assert err.startswith("error:")
    code, _, _ = run(capsys, "forward-price", "--curve", curve, "--cashflow", flow,
                     "--t", "200")
    assert code == 1
    # unwritable output
    code, _, _ = run(capsys, "price", "--curve", curve, "--cashflow", flow,
                     "--out", str(tmp_path / "no" / "dir.txt"))
    assert code == 2
    # argparse usage errors keep their conventional exit code
    with pytest.raises(SystemExit) as stop:
        main(["price"])
    capsys.readouterr()
    assert stop.value.code == 2


def test_cli_forward_price(tmp_path, capsys):
    # the annuity's price carried forward to t = 2: 7.721734929... * 1.05^2
    curve = _write(tmp_path, "curve.json", FLAT5)
    flow = _write(tmp_path, "flow.json", ANNUITY)
    code, out, err = run(capsys, "forward-price", "--curve", curve, "--cashflow", flow,
                         "--t", "2")
    assert (code, err) == (0, "")
    assert out == "8.513213 [8.513213, 8.513213]\n"
    code, out, _ = run(capsys, "forward-price", "--curve", curve, "--cashflow", flow,
                       "--t", "2", "--format", "structured")
    assert code == 0
    res = forward_price(FlatCurve(0.05), fio.parse_cashflow(ANNUITY), 2.0)
    assert out == json.dumps(fio.price_json(res), indent=2, sort_keys=True) + "\n"
    assert json.loads(out)["value"] == pytest.approx(7.721734929184818 * 1.05 ** 2,
                                                     rel=1e-14)


def test_cli_irr(tmp_path, capsys):
    flow = _write(tmp_path, "flow.json",
                  {"atoms": [{"t": 1.0, "amount": 1.05}], "density": []})
    code, out, _ = run(capsys, "irr", "--cashflow", flow, "--target", "1.0")
    assert code == 0
    assert out.startswith("0.05 (residual ")
    assert "iterations" in out
    code, out, _ = run(capsys, "irr", "--cashflow", flow, "--target", "1.0",
                       "--format", "structured")
    payload = json.loads(out)
    assert payload["rate"] == pytest.approx(0.05, abs=1e-8)
    assert payload["iterations"] >= 1


def test_cli_irr_of_a_density_prints_exact_bytes(tmp_path, capsys):
    # a certified step and the item bound beside it end the solve: 4
    # steering steps and one certified, where two certified steps made 6
    flow = _write(tmp_path, "flow.json", {
        "atoms": [{"t": 10.0, "amount": 0.5}],
        "density": [{"from": 0.0, "to": 10.0, "coeffs": [1.0, 0.1]}],
    })
    code, out, _ = run(capsys, "irr", "--cashflow", flow, "--target", "10.0")
    assert (code, out) == (0, "0.085349 (residual 0, iterations 5)\n")
    code, out, _ = run(capsys, "irr", "--cashflow", flow, "--target", "10.0",
                       "--format", "structured")
    assert (code, out) == (0, '{\n  "iterations": 5,\n  "rate": 0.08534851648710853,\n'
                              '  "residual": -5.500027100424631e-10\n}\n')


@pytest.mark.parametrize("argv", [
    ("price", "--curve", "flat.json", "--cashflow", "big.json"),
    ("irr", "--target", "1e308", "--cashflow", "big.json"),
    ("decompose", "--cashflow", "big.json"),
])
def test_cli_refuses_a_flow_whose_sum_overflows(tmp_path, capsys, argv):
    # two atoms of 1.5e308: their sum used to escape as an OverflowError
    # traceback from math.fsum
    _write(tmp_path, "flat.json", {"type": "flat", "i": 0.01})
    _write(tmp_path, "big.json", {"atoms": [{"t": 1.0, "amount": 1.5e308},
                                            {"t": 2.0, "amount": 1.5e308}]})
    code, out, err = run(capsys, *(str(tmp_path / a) if a.endswith(".json") else a
                                   for a in argv))
    assert (code, out, err) == (1, "", "error: the flow's sum exceeds the float range\n")


@pytest.mark.parametrize("rate, flow, tol", [
    # five unit densities worth 4.5e307 to 4.9e307: the items' sums pass
    # the float range
    (0.0001, {"density": [{"from": k, "to": k + 1, "coeffs": [(0.45 + 0.01 * k) * 1e308]}
                          for k in range(5)]}, "1e300"),
    # an atom whose discounted amount passes the float range
    (-0.5, {"atoms": [{"t": 10.0, "amount": 1e306}]}, "1.0"),
], ids=["density-items", "discounted-atom"])
def test_cli_refuses_a_price_whose_sum_overflows(tmp_path, capsys, rate, flow, tol):
    # the first raised an OverflowError traceback from math.fsum, and the
    # second printed "inf [inf, inf]" and exited 0
    curve = _write(tmp_path, "curve.json", {"type": "flat", "i": rate})
    flow = _write(tmp_path, "flow.json", flow)
    code, out, err = run(capsys, "price", "--curve", curve, "--cashflow", flow, "--tol", tol)
    assert (code, out, err) == (1, "", "error: the flow's sum exceeds the float range\n")


def test_cli_decompose(tmp_path, capsys):
    flow = _write(tmp_path, "flow.json", {
        "atoms": [{"t": 0.0, "amount": -2.0}, {"t": 1.0, "amount": 3.0}],
        "density": [{"from": 0.0, "to": 2.0, "coeffs": [1.0]}],
    })
    code, out, _ = run(capsys, "decompose", "--cashflow", flow)
    assert code == 0
    assert out.splitlines() == [
        "part,mass",
        "jordan.positive,5",
        "jordan.negative,2",
        "lebesgue.absolutely_continuous,2",
        "lebesgue.singular,1",
    ]
    code, out, _ = run(capsys, "decompose", "--cashflow", flow,
                       "--format", "structured")
    payload = json.loads(out)
    positive = fio.parse_cashflow(payload["jordan"]["positive"])
    assert total_mass(positive) == pytest.approx(5.0)
    singular = fio.parse_cashflow(payload["lebesgue"]["singular"])
    assert not singular.pieces


def test_cli_arbitrage_check(tmp_path, capsys):
    left = {"atoms": [{"t": 1.0, "amount": 1.0}]}
    # the same claim quoted at two prices violates the law of one price
    arb = _write(tmp_path, "arb.json", {
        "grid": [0.0, 1.0],
        "quotes": [
            {"left": left, "right": {"atoms": [{"t": 0.0, "amount": 0.95}]}},
            {"left": left, "right": {"atoms": [{"t": 0.0, "amount": 0.90}]}},
        ],
    })
    code, out, _ = run(capsys, "arbitrage-check", "--quotes", arb)
    assert code == 0  # a definite verdict is a successful check
    lines = out.splitlines()
    assert lines[0] == "ARBITRAGE"
    assert lines[1] == "quote,coefficient"
    assert "portfolio t,amount" in lines
    code, out, _ = run(capsys, "arbitrage-check", "--quotes", arb,
                       "--format", "structured")
    payload = json.loads(out)
    assert payload["verdict"] == "arbitrage"
    assert len(payload["coefficients"]) == 2

    af = _write(tmp_path, "af.json", {
        "grid": [0.0, 1.0],
        "quotes": [{"left": left, "right": {"atoms": [{"t": 0.0, "amount": 0.95}]}}],
    })
    code, out, _ = run(capsys, "arbitrage-check", "--quotes", af)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "ARBITRAGE-FREE"
    assert lines[1] == "t,price"
    assert len(lines) == 4


def test_cli_malformed_numbers_exit_2(tmp_path, capsys):
    # a 401-digit integer overflows float(); a 5,000-digit one is past
    # Python's digit limit for int conversion while the JSON is parsed
    quotes = tmp_path / "quotes.json"
    template = ('{"grid": [0, 1], "quotes": [{"left": {"atoms": [{"t": 1, "amount": 1}]},'
                ' "right": {"atoms": [{"t": 0, "amount": %s}]}}]}')
    quotes.write_text(template % ("1" + "0" * 400))
    code, out, err = run(capsys, "arbitrage-check", "--quotes", str(quotes))
    assert (code, out) == (2, "")
    assert err == ("error: quotes.quotes[0].right.atoms[0].amount: "
                   "integer too large for a float\n")
    quotes.write_text(template % ("1" + "0" * 4999))
    code, out, err = run(capsys, "arbitrage-check", "--quotes", str(quotes))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {quotes}: invalid JSON: ")


def test_cli_curve_eval(tmp_path, capsys):
    curve = _write(tmp_path, "curve.json", FLAT5)
    code, out, _ = run(capsys, "curve-eval", "--curve", curve, "--to", "2.5",
                       "--step", "1.0")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,P,y,f"
    assert lines[1] == "0,1,-,-"  # rates are undefined at t = 0
    assert lines[2] == "1,0.952381,0.05,0.05"
    assert lines[-1].startswith("2.5,")
    code, out, _ = run(capsys, "curve-eval", "--curve", curve, "--to", "2",
                       "--format", "structured")
    rows = json.loads(out)["rows"]
    assert rows[0]["y"] is None
    assert rows[0]["f"] is None
    assert rows[1]["y"] == pytest.approx(0.05)
    assert run(capsys, "curve-eval", "--curve", curve, "--to", "2", "--step", "0")[0] == 1
    # non-finite ends or steps used to loop until killed or print NaN rows
    for to, step in (("nan", "1"), ("inf", "1"), ("2", "nan"), ("2", "inf")):
        code, out, err = run(capsys, "curve-eval", "--curve", curve, "--to", to,
                             "--step", step)
        assert code == 1 and out == ""
        assert err.count("error:") == 1


def test_cli_curve_eval_rows_match_the_curve(tmp_path, capsys):
    sv = {
        "type": "svensson", "beta0": 0.03, "beta1": -0.01, "beta2": 0.01,
        "beta3": 0.02, "tau1": 1.5, "tau2": 9.0,
    }
    curve = fio.parse_curve(sv)
    code, out, _ = run(capsys, "curve-eval", "--curve", _write(tmp_path, "sv.json", sv),
                       "--to", "30", "--step", "0.7", "--format", "structured")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["t"] for r in rows] == [0.7 * k for k in range(43)] + [30.0]
    for r in rows:
        assert r["P"] == curve.discount(r["t"])
        if r["t"] > 0.0:
            assert r["y"] == pytest.approx(spot_rate(curve, r["t"]), rel=1e-12, abs=0.0)
            assert r["f"] == r["y"]


def test_cli_fx_price_and_convert_round_trip(tmp_path, capsys):
    market = _write(tmp_path, "market.json", MARKET)
    dual = _write(tmp_path, "dual.json",
                  {"foreign": {"atoms": [{"t": 1.0, "amount": 1.0}]}})
    code, out, _ = run(capsys, "fx-price", "--market", market, "--dual", dual)
    assert code == 0
    assert float(out.split()[0]) == pytest.approx(0.9 / 1.03, abs=5e-7)
    code, out, _ = run(capsys, "fx-price", "--market", market, "--dual", dual,
                       "--currency", "foreign", "--format", "structured")
    assert json.loads(out)["value"] == pytest.approx(1 / 1.03, abs=1e-12)

    flow = _write(tmp_path, "flow.json",
                  {"atoms": [{"t": 1.0, "amount": 1.0}], "density": []})
    code, out, _ = run(capsys, "fx-convert", "--market", market, "--cashflow", flow)
    assert code == 0
    converted = json.loads(out)  # text mode still emits a cash-flow file
    assert converted["atoms"][0]["amount"] == pytest.approx(0.9 * 1.01 / 1.03, rel=1e-14)

    conv = tmp_path / "converted.json"
    run(capsys, "fx-convert", "--market", market, "--cashflow", flow,
        "--out", str(conv), "--format", "structured")
    dom = _write(tmp_path, "dom.json", MARKET["domestic_curve"])
    code, out, _ = run(capsys, "price", "--curve", dom, "--cashflow", str(conv),
                       "--format", "structured")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.9 / 1.03, rel=1e-12)


def test_cli_fx_convert_writes_each_piece_about_its_midpoint(tmp_path, capsys):
    # a knot at t = 2 cuts the density; each fitted piece is written with
    # its origin at its midpoint, and the pieces tile [0.5, 3)
    spec = {"domestic_curve": {"type": "flat", "i": 0.01},
            "foreign_curve": {"type": "spot_grid", "knots": [[0.0, 1.0], [2.0, 0.94]]},
            "spot_fx": 0.9}
    foreign = {"atoms": [], "density": [{"from": 0.5, "to": 3.0, "coeffs": [1.0, -0.125]}]}
    market, flow = _write(tmp_path, "market.json", spec), _write(tmp_path, "flow.json", foreign)
    conv = tmp_path / "converted.json"
    code, out, _ = run(capsys, "fx-convert", "--market", market, "--cashflow", flow,
                       "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert payload["atoms"] == []
    assert [sorted(p) for p in payload["density"]] == [["coeffs", "from", "origin", "to"]] * 2
    assert [(p["from"], p["to"], p["origin"]) for p in payload["density"]] == [
        (0.5, 2.0, 1.25), (2.0, 3.0, 2.5)]
    for p in payload["density"]:
        # the constant coefficient is the converted density at the origin
        t = p["origin"]
        fx_t = 0.9 * 0.94 ** (t / 2.0) * 1.01 ** t
        assert len(p["coeffs"]) == 9
        assert p["coeffs"][0] == pytest.approx(fx_t * (1.0 - 0.125 * t), rel=1e-10)
    run(capsys, "fx-convert", "--market", market, "--cashflow", flow,
        "--out", str(conv), "--format", "structured")
    assert conv.read_text() == out
    # pricing the written file gives the bits of pricing the converted flow
    dom = _write(tmp_path, "dom.json", spec["domestic_curve"])
    code, out, _ = run(capsys, "price", "--curve", dom, "--cashflow", str(conv),
                       "--format", "structured")
    converted, _ = convert_measure_with_bound(fio.parse_market(spec),
                                              fio.parse_cashflow(foreign))
    assert code == 0
    assert json.loads(out) == fio.price_json(price(FlatCurve(0.01), converted))


def test_cli_counterexample(tmp_path, capsys):
    curve = _write(tmp_path, "curve.json", FLAT5)
    flow = _write(tmp_path, "flow.json",
                  {"atoms": [], "density": [{"from": 0.0, "to": 10.0, "coeffs": [1.0]}]})
    code, out, _ = run(capsys, "counterexample", "--preset", "double-density",
                       "--curve", curve, "--cashflow", flow, "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload["dual"]["value"] == pytest.approx(2 * payload["choquet"]["value"],
                                                     rel=1e-9)
    assert payload["gap"] == pytest.approx(payload["choquet"]["value"], rel=1e-8)

    fn_file = _write(tmp_path, "fn.json",
                     {"f": FLAT5, "g": {"type": "scaled", "factor": 2.0, "base": FLAT5}})
    code, out2, _ = run(capsys, "counterexample", "--dual", fn_file,
                        "--cashflow", flow, "--format", "structured")
    assert code == 0
    assert json.loads(out2)["gap"] == pytest.approx(payload["gap"], abs=1e-10)

    code, text, _ = run(capsys, "counterexample", "--preset", "double-density",
                        "--curve", curve, "--cashflow", flow)
    lines = text.splitlines()
    assert lines[0].startswith("dual ")
    assert lines[1].startswith("choquet ")
    assert lines[2].startswith("gap ")

    # the two functional sources are exclusive, and one is required
    assert run(capsys, "counterexample", "--dual", fn_file, "--preset",
               "double-density", "--curve", curve, "--cashflow", flow)[0] == 2
    assert run(capsys, "counterexample", "--cashflow", flow)[0] == 2
    assert run(capsys, "counterexample", "--preset", "double-density",
               "--cashflow", flow)[0] == 2


@pytest.mark.parametrize("argv", [
    ("price", "--curve", "c.json", "--cashflow", "f.json"),
    ("forward-price", "--curve", "c.json", "--cashflow", "f.json", "--t", "1"),
    ("irr", "--cashflow", "f.json", "--target", "1"),
    ("decompose", "--cashflow", "f.json"),
    ("fx-price", "--market", "m.json", "--dual", "d.json"),
    ("fx-convert", "--market", "m.json", "--cashflow", "f.json"),
    ("arbitrage-check", "--quotes", "q.json"),
    ("curve-eval", "--curve", "c.json", "--to", "1"),
    ("counterexample", "--dual", "d.json", "--cashflow", "f.json"),
])
def test_cli_negative_precision_is_a_bad_flag(capsys, argv):
    # refused by argparse (exit 2) before any file is read, where it used to
    # reach the formatter and exit 1 with "Format specifier missing precision"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--precision", "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith("error: argument --precision: must be >= 0, got -1\n")


def test_cli_precision_that_is_no_int_is_a_bad_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["curve-eval", "--curve", "c.json", "--to", "1", "--precision", "abc"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith("error: argument --precision: invalid int value: 'abc'\n")


def test_cli_curve_eval_refuses_a_negative_end(tmp_path, capsys):
    curve = _write(tmp_path, "curve.json", FLAT5)
    code, out, err = run(capsys, "curve-eval", "--curve", curve, "--to", "-1")
    assert (code, out, err) == (1, "", "error: --to must be >= 0\n")


def test_cli_huge_precision_is_clamped(tmp_path, capsys):
    # 5e-324 (2**-1074) has the longest exact decimal expansion of any
    # double, so every precision from 1074 up prints the same bytes; a
    # precision of 2**31 used to exit 1 with "precision too big"
    flow = _write(tmp_path, "flow.json", {"atoms": [{"t": 1.0, "amount": 0.1},
                                                   {"t": 2.0, "amount": -5e-324}]})
    outs = {}
    for p in ("1073", "1074", "2147483648", str(10 ** 30)):
        code, outs[p], _ = run(capsys, "decompose", "--cashflow", flow, "--precision", p)
        assert code == 0
    assert outs["1074"] == outs["2147483648"] == outs[str(10 ** 30)] != outs["1073"]
    assert "jordan.negative,0." + "0" * 323 + "494" in outs["1074"]


def test_cli_deeply_nested_json_exits_2(tmp_path, capsys):
    # the parser's RecursionError used to escape as a traceback, exit 1
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    with pytest.raises(SchemaError, match="invalid JSON"):
        fio.read_json(str(deep))
    code, out, err = run(capsys, "decompose", "--cashflow", str(deep))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {deep}: invalid JSON: ")


def test_cli_curve_eval_refuses_times_past_the_horizon(tmp_path, capsys):
    # past the horizon a discount factor can underflow to 0 (a
    # ZeroDivisionError in the rates) or overflow (inf rows, exit 0)
    flat4 = _write(tmp_path, "flat4.json", {"type": "flat", "i": 0.04})
    code, out, err = run(capsys, "curve-eval", "--curve", flat4, "--to", "100000",
                         "--step", "50000")
    assert (code, out) == (1, "")
    assert err == "error: --to 100000.0 is beyond the curve horizon 100.0\n"
    rising = _write(tmp_path, "rising.json", {"type": "flat", "i": -0.5})
    code, out, err = run(capsys, "curve-eval", "--curve", rising, "--to", "2000",
                         "--step", "1000")
    assert (code, out) == (1, "")
    assert err == "error: --to 2000.0 is beyond the curve horizon 100.0\n"
    # the horizon itself is still tabulated
    code, out, _ = run(capsys, "curve-eval", "--curve", rising, "--to", "100",
                       "--step", "50", "--format", "structured")
    assert code == 0
    assert [r["P"] for r in json.loads(out)["rows"]] == [1.0, 2.0 ** 50, 2.0 ** 100]


def test_cli_curve_eval_refuses_too_many_rows(tmp_path, capsys):
    curve = _write(tmp_path, "curve.json", FLAT5)
    for step in ("1e-9", "5e-324"):
        code, out, err = run(capsys, "curve-eval", "--curve", curve, "--to", "100",
                             "--step", step)
        assert (code, out) == (1, "")
        assert err == (f"error: --to 100.0 at --step {float(step)} needs more than "
                       "100000 rows, the curve-eval limit\n")


def test_curve_eval_row_limit_is_exact():
    # k = 0 .. 99999 is 100,000 rows; one more step, or a last row at `to`
    # itself, passes the limit
    assert MAX_CURVE_ROWS == 100_000
    assert len(_tabulation_times(99999.0, 1.0)) == MAX_CURVE_ROWS
    assert _tabulation_times(2.5, 1.0) == [0.0, 1.0, 2.0, 2.5]
    for to in (100000.0, 99999.5):
        with pytest.raises(DomainError, match="needs more than 100000 rows"):
            _tabulation_times(to, 1.0)


@pytest.mark.parametrize("to, step, k", [
    (21711.199999978286, 0.7, 31016),  # int(end / step) is k - 1
    (7793.863128459082, 0.7922202814054561, 9837),  # int(end / step) is k + 1
])
def test_curve_eval_count_corrects_the_quotient(to, step, k):
    end = to * (1.0 + 1e-12)
    assert int(end / step) != k
    assert k * step <= end < (k + 1) * step
    last = min(k * step, to)
    assert _tabulation_times(to, step) == (
        [min(j * step, to) for j in range(k + 1)] + ([to] if last < to else []))


def test_cli_runs_as_a_module(tmp_path, capsys):
    # python -m pvkit.cli prints what main prints
    curve = _write(tmp_path, "curve.json", FLAT5)
    argv = ["curve-eval", "--curve", curve, "--to", "2.5", "--step", "1.0"]
    src = os.path.dirname(os.path.dirname(fio.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-m", "pvkit.cli", *argv], env=env,
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, run(capsys, *argv)[1], "")


def test_preset_choices_are_the_presets():
    # --preset's choices are listed in cli so that parsing loads no numerics
    assert PRESET_NAMES == tuple(sorted(PRESETS))
