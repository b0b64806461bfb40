"""The three benchmark workloads: inputs from a seed, the timed harness
calls, and a deterministic summary of what each pass computed.

Each workload is two functions.  ``prepare(seed, small)`` builds the
inputs (this runs during set-up, before the first harness call), and
``run(inputs, root)`` makes the harness calls and returns a
:class:`PassOutput`.  ``root`` wraps each timed harness call: the
identity for an untraced pass, the root span for a traced one, so
``run_s`` times exactly the region inside that span.  ``one_pass.py``
also times the reference kernel there, before the span starts.

Seed mapping (``--seed n``):

* ``serve-resize``: ``run_serve(seed=7 + n, check=False)``;
* ``chaos-traced``: ``run_chaos`` for seeds ``6n .. 6n+5``, each with its
  ``FaultPlan.three_phase_default`` plan and a JSONL trace sink;
* ``trace-replay``: ``run_trace_analysis`` on CC-a (generator seed
  ``1701 + n``) then CC-b (``1702 + n``); ``n = 0`` is the default
  traces of Figs. 8/9 and Table II.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List

from repro.experiments.traces import run_trace_analysis
from repro.faults.harness import run_chaos
from repro.faults.plan import FaultPlan
from repro.obs.runtime import OBS
from repro.obs.trace import JSONLSink
from repro.serving.harness import run_serve

WORKLOADS = ("serve-resize", "chaos-traced", "trace-replay")

#: Where chaos traces are written while a pass runs (inside the
#: checkout, ignored by git); each file is hashed, then deleted.
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

Root = Callable[[Callable], Callable]


@dataclass
class PassOutput:
    run_s: float          # wall-clock seconds inside the harness calls
    ops: int              # requests completed / events written / ticks
    trace_bytes: int      # JSONL bytes written (0 without a sink)
    summary: Dict         # deterministic outputs, checked by verify.py


def canonical_sha256(obj: object) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _stopwatch(fn: Callable, *args, **kwargs):
    t0 = perf_counter()
    out = fn(*args, **kwargs)
    return out, perf_counter() - t0


def _timed(root: Root, fn: Callable, *args, **kwargs):
    """``(fn(*args, **kwargs), seconds)``, timed inside *root*."""
    return root(_stopwatch)(fn, *args, **kwargs)


def untraced(fn: Callable) -> Callable:
    return fn


# ----------------------------------------------------------------------
# serve-resize: the request path during a resize
# ----------------------------------------------------------------------
def prepare_serve(seed: int, small: bool) -> Dict:
    kwargs: Dict = {"seed": 7 + seed, "check": False}
    if small:
        kwargs.update(duration=30.0, resize_at=10.0, resize_back_at=20.0)
    return kwargs


def run_serve_pass(inputs: Dict, root: Root) -> PassOutput:
    result, run_s = _timed(root, run_serve, **inputs)
    summary = {
        "serve_seed": inputs["seed"],
        "p99": result.latency["overall"]["p99"],
        "completed": result.completed,
        "rejected": result.rejected,
        "enqueued": result.enqueued,
        "ok": result.ok,
        "violations": len(result.violations),
        "sha256": canonical_sha256(dataclasses.asdict(result)),
    }
    return PassOutput(run_s=run_s, ops=sum(result.completed.values()),
                      trace_bytes=0, summary=summary)


# ----------------------------------------------------------------------
# chaos-traced: the `repro chaos --trace-out` path, six seeds
# ----------------------------------------------------------------------
def prepare_chaos(seed: int, small: bool) -> List:
    seeds = [6 * seed] if small else range(6 * seed, 6 * seed + 6)
    scale = 0.05 if small else 0.25
    return [(s, scale, FaultPlan.three_phase_default(s, n=10, off_count=4))
            for s in seeds]


def _traced_chaos(path: str, seed: int, scale: float, plan: FaultPlan):
    sink = JSONLSink(path)
    OBS.bus.attach(sink)
    try:
        result = run_chaos(seed=seed, scale=scale, plan=plan)
    finally:
        OBS.bus.detach(sink)
        sink.close()
    return result, sink.events_written


def run_chaos_pass(inputs: List, root: Root) -> PassOutput:
    os.makedirs(OUT_DIR, exist_ok=True)
    run_s = 0.0
    ops = nbytes = 0
    per_seed = []
    for seed, scale, plan in inputs:
        OBS.reset()   # fresh span ids and clock, as in a new `repro chaos`
        path = os.path.join(OUT_DIR, f"chaos-{os.getpid()}-{seed}.jsonl")
        try:
            (result, events), elapsed = _timed(
                root, _traced_chaos, path, seed, scale, plan)
            with open(path, "rb") as fh:
                data = fh.read()
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        run_s += elapsed
        ops += events
        nbytes += len(data)
        per_seed.append({
            "seed": seed,
            "ok": result.ok,
            "violations": len(result.violations),
            "events": events,
            "bytes": len(data),
            "sha256": hashlib.sha256(data).hexdigest(),
        })
    return PassOutput(run_s=run_s, ops=ops, trace_bytes=nbytes,
                      summary={"runs": per_seed})


# ----------------------------------------------------------------------
# trace-replay: Figs. 8/9 and Table II
# ----------------------------------------------------------------------
def prepare_trace(seed: int, small: bool) -> List:
    return [("CC-a", 1701 + seed), ("CC-b", 1702 + seed)]


def run_trace_pass(inputs: List, root: Root) -> PassOutput:
    run_s = 0.0
    ticks = 0
    rows = []
    for which, seed in inputs:
        exp, elapsed = _timed(root, run_trace_analysis, which, seed=seed)
        run_s += elapsed
        ticks += len(exp.trace)
        rows.append({
            "trace": which,
            "seed": seed,
            "ticks": len(exp.trace),
            "ideal_h": exp.analysis.ideal_machine_hours,
            "machine_hours": {name: res.machine_hours for name, res
                              in exp.analysis.results.items()},
            "table2": exp.table2_row(),
        })
    return PassOutput(run_s=run_s, ops=ticks, trace_bytes=0,
                      summary={"rows": rows})


PREPARE = {"serve-resize": prepare_serve, "chaos-traced": prepare_chaos,
           "trace-replay": prepare_trace}
RUN = {"serve-resize": run_serve_pass, "chaos-traced": run_chaos_pass,
       "trace-replay": run_trace_pass}


def run_untraced(workload: str, seed: int, small: bool = False) -> PassOutput:
    """One pass with no tracer: what tests and the recorder use."""
    inputs = PREPARE[workload](seed, small)
    return RUN[workload](inputs, untraced)
