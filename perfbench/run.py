"""Benchmark runner for the simulator's user-facing runs.

Run from the repository root::

    python3 perfbench/run.py --workload serve-resize --seed 0 --seconds 42 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 42 --trace 1

Each pass runs one workload (see ``harnesses.py``) in a fresh
interpreter; passes run one after another, never in parallel, while
one more as slow as the slowest so far still fits in ``--seconds`` of
wall-clock time.  Every pass's output is checked (``verify.py``); a
pass that raises or whose check fails counts toward ``error_rate``.

``--trace 0`` reports the end-to-end metrics, each the median over the
passes: ``setup_s``, ``run_rel`` and ``peak_rss_mb``.  ``run_rel`` is a
pass's harness time divided by the reference kernel's time in the same
pass (``reference.py``): the host is shared and its speed drifts by
tens of percent over seconds and minutes, which moves both alike, so
the ratio stays put while ``run_s`` does not.  The table also prints
``run_s``, ``ops_per_s`` and ``ref_s`` (median, min, max), which are
not gated.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics from the traced ones (``tracer.py``), plus
``trace.overhead_ratio`` = median traced ``run_rel`` / median untraced
``run_rel``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from tracer import EXACT_COUNTS, LAYER_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
SRC = os.path.join(REPO, "src")
ONE_PASS = os.path.join(HERE, "one_pass.py")
OUT_DIR = os.path.join(HERE, "out")

#: Same as ``harnesses.WORKLOADS``; run.py itself never imports the
#: simulator, so it can refuse cleanly when the sources are missing.
WORKLOADS = ("serve-resize", "chaos-traced", "trace-replay")

#: The metrics of the JSON line (and of BENCHMARK.json's end_to_end).
END_TO_END = (("setup_s", "s"), ("run_rel", "ratio"), ("peak_rss_mb", "MB"))
#: Printed in the table only: raw host times, which drift with the host.
TABLE_ONLY = (("run_s", "s"), ("ops_per_s", "1/s"), ("ref_s", "s"))

#: Every run ends well inside 180 s: no pass may start past this.
WALL_LIMIT_S = 165.0


def run_pass(workload: str, seed: int, traced: bool,
             timeout: float) -> Dict:
    """One pass in a fresh interpreter; its record, or ``{"error": ...}``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, ONE_PASS, "--workload", workload,
           "--seed", str(seed)]
    if traced:
        cmd += ["--traced", "--spans-out",
                os.path.join(OUT_DIR, f"spans-{workload}.npz")]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=REPO, env=env,
                              capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"pass timed out after {timeout:.0f} s"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-5:]
        return {"error": f"pass exited {proc.returncode}: "
                         + " | ".join(tail)}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    """Run passes for *seconds* and aggregate them."""
    started = time.monotonic()
    plain: List[Dict] = []
    traced: List[Dict] = []
    failures: List[str] = []      # one message per failed pass
    attempted = 0
    longest = 0.0                 # the slowest cycle so far
    while True:
        cycle_started = time.monotonic()
        for is_traced in ((False, True) if trace else (False,)):
            left = WALL_LIMIT_S - (time.monotonic() - started)
            rec = run_pass(workload, seed, is_traced, timeout=max(left, 1.0))
            attempted += 1
            if "error" in rec:
                failures.append(rec["error"])
                continue
            if rec["problems"]:
                failures.append("; ".join(rec["problems"]))
            (traced if is_traced else plain).append(rec)
        longest = max(longest, time.monotonic() - cycle_started)
        # Stop unless another cycle as slow as the slowest still fits.
        if (time.monotonic() - started) + longest > min(seconds,
                                                         WALL_LIMIT_S):
            break

    result = {"workload": workload, "seed": seed, "attempted": attempted,
              "failed": len(failures), "failures": failures,
              "inconsistent": [], "samples": len(plain),
              "traced_samples": len(traced)}
    if not plain or (trace and not traced):
        return result
    samples = {
        "setup_s": [r["setup_s"] for r in plain],
        "run_rel": [r["run_s"] / r["ref_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "run_s": [r["run_s"] for r in plain],
        "ops_per_s": [r["ops"] / r["run_s"] for r in plain],
        "ref_s": [r["ref_s"] for r in plain],
    }
    result["end_to_end"] = {name: statistics.median(vals)
                            for name, vals in samples.items()}
    result["end_to_end"]["error_rate"] = len(failures) / attempted
    result["range"] = {name: (min(vals), max(vals))
                       for name, vals in samples.items()}
    if trace:
        result["per_layer"] = aggregate_layers(traced, plain,
                                               result["inconsistent"])
    return result


def aggregate_layers(traced: List[Dict], plain: List[Dict],
                     inconsistent: List[str]) -> Dict[str, float]:
    """Median of each per-layer metric over the traced passes; a count
    that should repeat exactly but differs is reported in *inconsistent*."""
    layers: Dict[str, float] = {}
    for name, _unit in LAYER_METRICS:
        if name == "trace.overhead_ratio":
            layers[name] = (
                statistics.median(r["run_s"] / r["ref_s"] for r in traced)
                / statistics.median(r["run_s"] / r["ref_s"] for r in plain))
            continue
        values = [r["layers"][name] for r in traced]
        if name in EXACT_COUNTS and len(set(values)) > 1:
            inconsistent.append(f"{name} differs between traced passes: "
                                f"{values}")
        layers[name] = statistics.median(values)
    return layers


def render(result: Dict) -> str:
    e2e = result["end_to_end"]
    lines = [f"## {result['workload']} (seed {result['seed']}): "
             f"{result['samples']} untraced + {result['traced_samples']} "
             f"traced passes, {result['failed']}/{result['attempted']} failed"]
    for name, unit in END_TO_END + TABLE_ONLY:
        lo, hi = result["range"][name]
        lines.append(f"  {name:<28} {e2e[name]:>14.4f} {unit:<6} "
                     f"median of n={result['samples']}  "
                     f"(min {lo:.4f}, max {hi:.4f})")
    lines.append(f"  {'error_rate':<28} {e2e['error_rate']:>14.4f} "
                 f"{'ratio':<6} over n={result['attempted']} passes")
    for name, unit in (LAYER_METRICS if "per_layer" in result else ()):
        digits = 0 if unit in ("count", "B") else 4
        lines.append(f"  {name:<28} {result['per_layer'][name]:>14.{digits}f} "
                     f"{unit:<6} median of n={result['traced_samples']}")
    for msg in result["failures"][:20]:
        lines.append(f"  FAILED: {msg}")
    for msg in result["inconsistent"]:
        lines.append(f"  INCONSISTENT: {msg}")
    return "\n".join(lines)


def json_line(results: List[Dict], trace: bool) -> Dict:
    units = dict(LAYER_METRICS) if trace else dict(END_TO_END)
    metrics = {}
    for res in results:
        values = res["per_layer"] if trace else res["end_to_end"]
        prefix = "" if len(results) == 1 else res["workload"] + "."
        for name, unit in units.items():
            metrics[prefix + name] = {"value": values[name], "unit": unit}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = failed == 0 and not any(r["inconsistent"] for r in results)
    return {"correct": correct, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="simulator benchmark: serve-resize, chaos-traced, "
                    "trace-replay")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be >= 0", file=sys.stderr)
        return 2
    # Compile once up front: set-up time is import time, not bytecode
    # compilation a user pays only on the first run of a checkout.
    compileall.compile_dir(SRC, quiet=2)
    os.makedirs(OUT_DIR, exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = measure(name, args.seed, args.seconds, bool(args.trace))
        if "end_to_end" not in result:
            for msg in result["failures"]:
                print(f"perfbench: {name}: {msg}", file=sys.stderr)
            print(f"perfbench: {name}: no pass completed", file=sys.stderr)
            return 1
        print(render(result), flush=True)
        results.append(result)
    print(json.dumps(json_line(results, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
