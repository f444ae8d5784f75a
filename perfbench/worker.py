"""Builds one workload's inputs through pvkit's public API and runs them.

A fresh interpreter runs this file; ``run.py`` starts it with ``src`` on
``PYTHONPATH``.  With ``--setup-only`` it stops once the inputs are built,
which is what the set-up time measures.  Otherwise it prints ``ready``
once the inputs are built, then reads segment lengths in seconds from
standard input, one a line; for each it runs whole rounds of the
workload's operations in a closed loop with one caller until the segments
so far have had their time (at least one round), timing each operation
and, between them, a reference (``reference.py``), and prints ``done``.
At the end of its input it writes the latencies with the reference time
around each, every distinct output of every operation and its
own peak memory (for ``cli``, that of the largest call) to ``--out`` as
JSON.  The pauses between segments are where
``run.py`` times the set-up.  With ``--trace FILE`` it instead runs
``--seconds``: half untraced, then half traced (see ``spans.py``), and
writes the spans to ``FILE``.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from array import array

import pvkit
from pvkit import io as pvio

import reference
import workloads


def make_curve(spec: dict):
    kind = spec["type"]
    if kind == "flat":
        return pvkit.FlatCurve(spec["i"])
    if kind == "spot_grid":
        return pvkit.SpotGridCurve(tuple((t, p) for t, p in spec["knots"]))
    params = {k: v for k, v in spec.items() if k != "type"}
    return pvkit.SvenssonCurve(**params)


def make_flow(atoms, density=()) -> pvkit.CashFlow:
    return pvkit.CashFlow(
        tuple(pvkit.Atom(t, a) for t, a in atoms),
        tuple(pvkit.DensityPiece(a, b, tuple(c)) for a, b, c in density),
    )


def book_ops(specs: dict, _workdir: str) -> list:
    ops = []
    for p in specs["positions"]:
        flow = make_flow(p["atoms"], p["density"])
        curve = make_curve(p["curve"])
        if p["market"] is None:
            def op(curve=curve, flow=flow):
                r = pvkit.price(curve, flow)
                return [r.value, r.lower, r.upper]
        else:
            market = pvkit.DualCurrencyMarket(
                curve, make_curve(p["market"]["foreign_curve"]), p["market"]["spot_fx"])

            def op(curve=curve, flow=flow, market=market):
                converted, err = pvkit.convert_measure_with_bound(market, flow)
                r = pvkit.price(curve, converted)
                return [r.value, r.lower, r.upper, err, len(converted.pieces)]
        ops.append(op)
    return ops


def irr_ops(specs: dict, _workdir: str) -> list:
    ops = []
    for o in specs["ops"]:
        flow = make_flow(o["atoms"], o["density"])
        if o["kind"] == "irr":
            def op(flow=flow, target=o["target"]):
                r = pvkit.irr(flow, target)
                return [r.rate, r.residual, r.iterations]
        else:
            def op(flow=flow, curve=make_curve(o["curve"])):
                r = pvkit.yield_bound_check(curve, flow)
                return [r.rate, r.forward_max, r.holds]
        ops.append(op)
    return ops


def ladder_ops(specs: dict, _workdir: str) -> list:
    ops = []
    for lad in specs["ladders"]:
        quotes = pvkit.QuoteSet(tuple(lad["grid"]), tuple(
            pvkit.Quote(make_flow(q["left"]), make_flow(q["right"])) for q in lad["quotes"]))

        def op(quotes=quotes):
            v = pvkit.check(quotes)
            if isinstance(v, pvkit.ArbitrageFree):
                return ["free", list(v.implied)]
            return ["arbitrage", list(v.coefficients),
                    [[a.time, a.amount] for a in v.portfolio.atoms]]
        ops.append(op)
    return ops


def cli_argvs(specs: dict, workdir: str) -> list[list[str]]:
    """Writes the CLI input files; returns the arguments of each call, in
    the order of ``workloads.CLI_CALLS``."""
    def write(name, payload):
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        return path

    def flow_file(name, atoms, density=()):
        return write(name, pvio.cashflow_json(make_flow(atoms, density)))

    def quote_file(name, q):
        return write(name, {"grid": q["grid"], "quotes": [
            {"left": pvio.cashflow_json(make_flow(x["left"])),
             "right": pvio.cashflow_json(make_flow(x["right"]))} for x in q["quotes"]]})

    m = specs["market"]
    f = specs["foreign_flow"]
    converted = os.path.join(workdir, "converted.json")
    argvs = {
        "price annuity": ["price", "--curve", write("curve.json", specs["curve"]),
                          "--cashflow", flow_file("annuity.json", specs["annuity"])],
        "fx-convert": ["fx-convert", "--market", write("market.json", m),
                       "--cashflow", flow_file("foreign.json", f["atoms"], f["density"]),
                       "--out", converted],
        "price converted": ["price", "--curve", write("domestic.json", m["domestic_curve"]),
                            "--cashflow", converted],
        "arbitrage-check": ["arbitrage-check",
                            "--quotes", quote_file("quotes.json", specs["quotes"])],
        "arbitrage-check off-curve": ["arbitrage-check", "--format", "structured",
                                      "--quotes", quote_file("off_quotes.json",
                                                             specs["off_quotes"])],
    }
    return [argvs[name] for name in workloads.CLI_CALLS]


def _cli_output(argv: list[str], code: int, stdout: str, stderr: str) -> list:
    """Standard output and, for fx-convert, the ``--out`` file it wrote."""
    if code != 0:
        raise RuntimeError(f"pvkit {' '.join(argv)} exited {code}: {stderr.strip()}")
    written = None
    if "--out" in argv:
        with open(argv[argv.index("--out") + 1], encoding="utf-8") as fh:
            written = fh.read()
    return [stdout, written]


class Spawner:
    """The ``spawn.py`` helper, started at the first call."""

    def __init__(self):
        self.proc = None

    def run(self, cmd: list[str]) -> list:
        if self.proc is None:
            self.proc = subprocess.Popen(
                [sys.executable, os.path.join(os.path.dirname(__file__), "spawn.py")],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.proc.stdin.write(json.dumps(cmd) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self) -> float:
        """Stops the helper; returns its calls' largest peak memory in MB."""
        self.proc.stdin.close()
        peak_kib = int(self.proc.stdout.readline())
        self.proc.wait()
        self.proc.stdout.close()
        return peak_kib / 1024.0


def cli_ops(specs: dict, workdir: str, spawner: Spawner) -> list:
    """One child process per call, at most one at a time, started by
    ``spawner``."""
    def op(argv):
        code, out, err = spawner.run([sys.executable, "-m", "pvkit.cli", *argv])
        return _cli_output(argv, code, out, err)
    return [lambda argv=argv: op(argv) for argv in cli_argvs(specs, workdir)]


def own_peak_mb() -> float:
    """This process's peak resident memory since it started this program
    (``VmHWM``); ``ru_maxrss`` would count the memory of ``run.py``, which
    started it, too."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def cli_inprocess_ops(specs: dict, workdir: str) -> list:
    """The same calls through ``pvkit.cli.main`` in this process."""
    from pvkit import cli

    def op(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return _cli_output(argv, code, out.getvalue(), err.getvalue())
    return [lambda argv=argv: op(argv) for argv in cli_argvs(specs, workdir)]


SPAWNER = Spawner()
BUILDERS = {"book": book_ops, "irr": irr_ops, "ladder": ladder_ops,
            "cli": lambda specs, workdir: cli_ops(specs, workdir, SPAWNER)}
# a traced run also ends after the round that passes this many spans, which
# keeps the span arrays under about 60 MB
TRACE_SPAN_CAP = 2_000_000


def run_rounds(ops: list, seconds: float, kernel, every: float, tracer=None) -> dict:
    """Whole rounds of ``ops`` until ``seconds`` have passed (at least one).

    Every distinct output of each operation is kept for the checks; an
    operation that raises is counted as failed, with its message.  Between
    operations ``kernel``, which times a reference run, runs whenever
    ``every`` seconds have passed since its last run; each operation gets
    the mean time of the reference runs just before and just after it.
    """
    # arrays, not lists of floats, so that the bookkeeping of a run adds
    # little to the peak memory however many operations it runs
    latencies = array("d")
    outputs: list[list] = [[] for _ in ops]
    failures: list[str] = []
    failed = 0
    rounds = 0
    kernel_s = [kernel()]
    op_kernel = array("l")  # per operation, the reference run just before it
    clock = time.perf_counter
    start = last_kernel = clock()
    deadline = start + seconds
    while True:
        for i, op in enumerate(ops):
            if clock() - last_kernel >= every:
                kernel_s.append(kernel())
                last_kernel = clock()
            op_kernel.append(len(kernel_s) - 1)
            if tracer is not None:
                tracer.begin_op()
            t0 = clock()
            try:
                out = op()
            except Exception as exc:  # a failed operation is counted, not fatal
                out = None
                failed += 1
                msg = f"operation {i}: {type(exc).__name__}: {exc}"
                if msg not in failures:
                    failures.append(msg)
            latencies.append(clock() - t0)
            if tracer is not None:
                tracer.end_op()
            if out is not None and out not in outputs[i]:
                outputs[i].append(out)
        rounds += 1
        if clock() >= deadline or (tracer is not None
                                   and tracer.span_count() >= TRACE_SPAN_CAP):
            break
    kernel_s.append(kernel())
    return {"wall_s": clock() - start, "rounds": rounds, "attempted": len(latencies),
            "failed": failed, "failures": failures, "latencies_s": latencies,
            "kernel_s": array("d", ((kernel_s[k] + kernel_s[k + 1]) / 2 for k in op_kernel)),
            "outputs": outputs}


def merge(segments: list[dict]) -> dict:
    """One result for segments run one after another by the same ops."""
    out = {"wall_s": 0.0, "rounds": 0, "attempted": 0, "failed": 0, "failures": [],
           "latencies_s": array("d"), "kernel_s": array("d"),
           "outputs": [[] for _ in segments[0]["outputs"]]}
    for seg in segments:
        for key in ("wall_s", "rounds", "attempted", "failed", "latencies_s", "kernel_s"):
            out[key] += seg[key]
        out["failures"] += [m for m in seg["failures"] if m not in out["failures"]]
        for mine, theirs in zip(out["outputs"], seg["outputs"]):
            mine += [o for o in theirs if o not in mine]
    return out


def import_ms(samples: int = 5) -> float:
    """Median time of ``import pvkit.cli`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import pvkit.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(samples):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True).stdout
        times.append(float(out) * 1e3)
    return statistics.median(times)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    ap.add_argument("--specs", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--out")
    ap.add_argument("--trace", help="run half the time traced; write spans here")
    args = ap.parse_args(argv)

    with open(args.specs, encoding="utf-8") as fh:
        specs = json.load(fh)
    ops = BUILDERS[args.workload](specs, args.workdir)
    if args.setup_only:
        return 0

    # the cli calls start interpreters, so theirs is the start reference;
    # the traced run calls cli.main in this process instead
    if args.workload == "cli" and args.trace is None:
        kernel, nominal, every = ((lambda: reference.timed_start(os.environ)),
                                  reference.START_NOMINAL_S, reference.START_EVERY_S)
    else:
        kernel, nominal, every = (reference.timed_kernel, reference.KERNEL_NOMINAL_S,
                                  reference.KERNEL_EVERY_S)
    if args.trace is None:
        # run.py times set-ups only once this process has built its inputs
        print("ready", flush=True)
        # each segment ends when the timed phase has run as long as the
        # segments so far, so a round that overshoots one segment
        # shortens the next, and the run overshoots by at most a round
        segments = []
        target = 0.0
        for line in sys.stdin:
            target += float(line)
            segments.append(run_rounds(ops, target - sum(g["wall_s"] for g in segments),
                                       kernel, every))
            print("done", flush=True)
        result = merge(segments)
    else:
        import spans

        if args.workload == "cli":
            # per-layer figures come from cli.main in this process
            ops = cli_inprocess_ops(specs, args.workdir)
        untraced = run_rounds(ops, args.seconds / 2, kernel, every)
        tracer = spans.Tracer()
        with tracer.installed():
            traced = run_rounds(ops, args.seconds / 2, kernel, every, tracer)
        tracer.write(args.trace)
        result = traced
        result["layers"] = tracer.layer_metrics(traced["attempted"])
        result["layers"]["cli.import_ms"] = import_ms()
        result["untraced"] = untraced
    result["kernel_nominal_s"] = nominal
    if args.workload == "cli" and args.trace is None:
        result["peak_rss_mb"] = SPAWNER.close()
    else:
        result["peak_rss_mb"] = own_peak_mb()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, default=list)
    return 0


if __name__ == "__main__":
    sys.exit(main())
