"""Benchmark of pvkit: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout that holds ``src/pvkit``::

    python3 perfbench/run.py --workload book --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn
    python3 perfbench/run.py --smoke                   # every workload briefly
    python3 perfbench/run.py --workload irr --repeat 10

The first line is the benchmark's calling convention; ``--seconds`` is
``run_seconds`` of ``BENCHMARK.json``, which is also its default.

Each run builds its inputs from ``--seed`` (``workloads.py``), computes the
reference values (``oracle.py``, ``checks.py``), runs the workload in one
worker process (``worker.py``) in segments, times the set-up in fresh
interpreters before, between and after the segments, and checks every
distinct output.  Latencies and set-up times are scaled to the machine's
reference speed by the reference runs around them (``reference.py``).
The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``, which are the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0`` and its per-layer metrics with ``--trace 1``.

``--smoke`` runs every workload for a few seconds with all checks and
asserts nothing about time.  ``--repeat N`` runs one workload on seeds
``seed .. seed+N-1`` and prints each end-to-end metric's median and
quartiles next to its bound.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

# of 50, 75, 90, 95, 99 and 99.9, the highest percentile with at least ten
# samples beyond it at the sample counts of a default-length run (README.md)
TAIL_PERCENTILE = {"book": 99, "irr": 95, "ladder": 90, "cli": 75}
# the timed phase runs in SEGMENTS parts; SETUP_PER_GAP set-up samples are
# taken before, between and after them, so that set-up sees the machine
# over the whole run, as throughput does
SEGMENTS = 8
SETUP_PER_GAP = 2
SMOKE_SECONDS = 2.0
# a worker gets its run length plus this long for set-up and its last round
WORKER_SLACK_S = 90
SETUP_TIMEOUT_S = 60


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def worker_cmd(workload: str, workdir: Path, *extra: str) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--specs", str(workdir / "specs.json"), "--workdir", str(workdir), *extra]


def setup_times(workload: str, workdir: Path, samples: int) -> list[tuple]:
    """Wall times of fresh interpreters that import pvkit and build the
    workload's inputs, each with the mean time of the ``reference.timed_start``
    runs just before and just after it."""
    cmd = worker_cmd(workload, workdir, "--setup-only")
    times = []
    before = reference.timed_start(child_env())
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=child_env(), check=True, capture_output=True,
                       timeout=SETUP_TIMEOUT_S)
        wall = time.perf_counter() - t0
        after = reference.timed_start(child_env())
        times.append((wall, (before + after) / 2))
        before = after
    return times


def timed_phase(workload: str, workdir: Path, result_path: Path, seconds: float,
                segments: int, per_gap: int) -> list[float]:
    """Runs the worker for ``seconds`` in ``segments`` parts and returns
    the set-up times sampled in the gaps."""
    cmd = worker_cmd(workload, workdir, "--out", str(result_path))
    setup = []
    proc = subprocess.Popen(cmd, env=child_env(), stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(seconds + WORKER_SLACK_S, proc.kill)
    watchdog.start()
    try:
        if proc.stdout.readline().strip() != "ready":
            raise RuntimeError(f"{workload} worker stopped during set-up")
        for _ in range(segments):
            setup += setup_times(workload, workdir, per_gap)
            proc.stdin.write(f"{seconds / segments!r}\n")
            proc.stdin.flush()
            if proc.stdout.readline().strip() != "done":
                raise RuntimeError(f"{workload} worker stopped mid-run")
        setup += setup_times(workload, workdir, per_gap)
        proc.stdin.close()
        if proc.wait() != 0:
            raise RuntimeError(f"{workload} worker exited {proc.returncode}")
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    return setup


def scaled(times, kernel, nominal: float) -> list[float]:
    """Times at the machine's reference speed: each divided by the
    reference's time measured around it, times the reference's nominal
    time."""
    return [t * nominal / k for t, k in zip(times, kernel)]


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 segments: int = SEGMENTS, per_gap: int = SETUP_PER_GAP) -> dict:
    """One run; returns the result object and writes its details to out/."""
    specs = workloads.specs(workload, seed)
    expected = checks.EXPECT[workload](specs)
    out_dir = HERE / "out"
    workdir = out_dir / f"run-{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        (workdir / "specs.json").write_text(json.dumps(specs), encoding="utf-8")
        # an untimed start writes the bytecode caches, as an installed
        # package has them
        setup_times(workload, workdir, 1)
        result_path = workdir / "result.json"
        suffix = "-trace" if trace else ""
        if trace:
            subprocess.run(worker_cmd(
                workload, workdir, "--seconds", repr(seconds), "--out", str(result_path),
                "--trace", str(out_dir / f"trace-{workload}-{seed}.npz")),
                env=child_env(), check=True, timeout=seconds + WORKER_SLACK_S)
        else:
            setup = timed_phase(workload, workdir, result_path, seconds, segments, per_gap)
        raw = json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    phases = [raw] + ([raw["untraced"]] if trace else [])
    problems = []
    failures = []
    for phase in phases:
        problems += checks.VERIFY[workload](specs, expected, phase["outputs"])
        failures += phase["failures"]
    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    completed_per_s = (raw["attempted"] - raw["failed"]) / raw["wall_s"]
    lat_ms = [x * 1e3 for x in scaled(raw["latencies_s"], raw["kernel_s"],
                                      raw["kernel_nominal_s"])]
    if trace:
        base = raw["untraced"]
        untraced_per_s = (base["attempted"] - base["failed"]) / base["wall_s"]
        values = dict(raw["layers"])
        values["trace.traced_ops_s"] = completed_per_s
        values["trace.untraced_ops_s"] = untraced_per_s
        values["trace.overhead_ratio"] = completed_per_s / untraced_per_s
    else:
        values = {
            "setup_s": statistics.median(scaled(*zip(*setup),
                                                reference.START_NOMINAL_S)),
            "throughput_ops_s": 1e3 * (raw["attempted"] - raw["failed"]) / sum(lat_ms),
            "latency_p50_ms": statistics.median(lat_ms),
            "latency_tail_ms": statistics.quantiles(
                lat_ms, n=100, method="inclusive")[TAIL_PERCENTILE[workload] - 1],
            "peak_rss_mb": raw["peak_rss_mb"],
        }
    listed = benchmark_metrics()["per_layer" if trace else "end_to_end"]
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }
    quarter = max(1, len(lat_ms) // 4)
    details = {"workload": workload, "seed": seed, "seconds": seconds,
               "rounds": raw["rounds"], "problems": problems, "failures": failures,
               "setup_samples_s": [] if trace else [w for w, _ in setup],
               "setup_kernel_s": [] if trace else [k for _, k in setup],
               "wall_ops_s": completed_per_s,
               "raw_p50_ms": 1e3 * statistics.median(raw["latencies_s"]),
               "kernel_p50_ms": 1e3 * statistics.median(raw["kernel_s"]),
               "quarter_p50_ms": [statistics.median(lat_ms[k:k + quarter])
                                  for k in range(0, quarter * 4, quarter)],
               "tail_percentile": TAIL_PERCENTILE[workload], "all_values": values,
               "result": result}
    (out_dir / f"result-{workload}-{seed}{suffix}.json").write_text(
        json.dumps(details, indent=1), encoding="utf-8")
    for msg in problems[:20]:
        print(f"{workload}: WRONG {msg}", file=sys.stderr)
    for msg in failures[:20]:
        print(f"{workload}: FAILED {msg}", file=sys.stderr)
    return result


def benchmark_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def summary_line(workload: str, result: dict) -> str:
    metrics = "  ".join(f"{k}={v['value']:.6g} {v['unit']}"
                        for k, v in result["metrics"].items())
    return (f"{workload}: correct={result['correct']} attempted={result['attempted']} "
            f"failed={result['failed']}  {metrics}")


def repeat(workload: str, seed: int, n: int, seconds: float, trace: bool) -> bool:
    """Runs ``n`` seeds; prints median, quartiles and spread against bounds."""
    runs = []
    for s in range(seed, seed + n):
        runs.append(run_workload(workload, s, seconds, trace))
        print(summary_line(f"{workload} seed {s}", runs[-1]), flush=True)
    bounds = {m["name"]: m.get("bound") for m in benchmark_metrics()["end_to_end"]}
    ok = all(r["correct"] and r["failed"] == 0 for r in runs)
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"{workload}: failed share over {n} runs: {sorted(shares)}")
    ok &= len(shares) == 1
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        bound = bounds.get(name)
        note = "" if bound is None else (
            f"bound {bound:.2f}  spread/bound {spread / bound:.2f}")
        print(f"  {name:24s} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
              f"spread {spread:.3f}  {note}")
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="length of the timed phase (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="every workload for a few seconds; checks only, no timing")
    ap.add_argument("--repeat", type=int, default=0, metavar="N",
                    help="run N seeds of one workload and report spreads")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "pvkit" / "__init__.py").is_file():
        print(f"error: no pvkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    seconds = args.seconds or float(benchmark_metrics()["run_seconds"])

    if args.smoke:
        ok = True
        for w in workloads.WORKLOADS:
            r = run_workload(w, args.seed, SMOKE_SECONDS, trace=False, segments=1,
                             per_gap=1)
            print(summary_line(w, r), flush=True)
            ok &= r["correct"] and r["failed"] == 0
        print("smoke:", "ok" if ok else "FAILED")
        return 0 if ok else 1
    if args.repeat:
        if args.workload == "all":
            ap.error("--repeat needs one --workload")
        return 0 if repeat(args.workload, args.seed, args.repeat, seconds,
                           bool(args.trace)) else 1

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for w in names:
        results[w] = run_workload(w, args.seed, seconds, bool(args.trace))
        if len(names) > 1:
            print(summary_line(w, results[w]), flush=True)
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }))
    # the result is printed either way; the exit code tells a caller that
    # reads only it whether every output was right and no operation failed
    return 0 if all(r["correct"] and r["failed"] == 0 for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
