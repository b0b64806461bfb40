"""Output checks for benchmark passes.

Seeds ``0 .. RECORDED_SEEDS-1`` of every workload are recorded in
``expected.json`` and checked exactly: the pass must
reproduce the recorded summary (serve-resize: pooled p99, per-population
completed/rejected/enqueued counts and a digest of the whole result;
chaos-traced: each seed's trace sha256, event count and ``ok``;
trace-replay: the Table II machine-hours rows).  Any other seed is held
out: it was never recorded, so the pass is checked for health instead
(see :func:`health`).  An exception in the pass is a failure either
way (the caller counts it).
"""

from __future__ import annotations

import json
import math
import os
from typing import Dict, List, Optional

#: Seeds ``0 .. RECORDED_SEEDS-1`` are recorded; the rest are held out.
RECORDED_SEEDS = 16

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")


def load_expected(path: str = EXPECTED_PATH) -> Dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _diff(expected: object, actual: object, where: str) -> List[str]:
    if isinstance(expected, dict) and isinstance(actual, dict):
        problems = []
        for key in sorted(set(expected) | set(actual)):
            problems += _diff(expected.get(key), actual.get(key),
                              f"{where}.{key}")
        return problems
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{where}: {len(actual)} entries, expected "
                    f"{len(expected)}"]
        problems = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            problems += _diff(e, a, f"{where}[{i}]")
        return problems
    if expected != actual:
        return [f"{where}: got {actual!r}, expected {expected!r}"]
    return []


def health(workload: str, summary: Dict) -> List[str]:
    """Problems that make a pass wrong whatever its seed."""
    problems = []
    if workload == "serve-resize":
        # The pass runs without live checkers, so there are no invariant
        # violations to look at: ``ok`` is the queue bound and the SLO.
        if not summary["ok"]:
            problems.append("serve result not ok (queue bound or SLO)")
        if sum(summary["completed"].values()) <= 0:
            problems.append("no request completed")
    elif workload == "chaos-traced":
        for run in summary["runs"]:
            if not run["ok"] or run["violations"]:
                problems.append(f"chaos seed {run['seed']} unhealthy "
                                f"({run['violations']} violations)")
            if run["events"] <= 0:
                problems.append(f"chaos seed {run['seed']} wrote no events")
    elif workload == "trace-replay":
        for row in summary["rows"]:
            ideal = row["ideal_h"]
            if not (math.isfinite(ideal) and ideal > 0):
                problems.append(f"{row['trace']}: ideal hours {ideal!r}")
            for name, hours in row["machine_hours"].items():
                # Every policy keeps at least the ideal machine count on.
                if not (math.isfinite(hours) and hours >= ideal):
                    problems.append(f"{row['trace']}: {name} used "
                                    f"{hours!r} h < ideal {ideal!r} h")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return problems


def check(workload: str, seed: int, summary: Dict,
          expected: Optional[Dict] = None) -> List[str]:
    """Problems found in one pass's summary; empty means correct."""
    if expected is None:
        expected = load_expected()
    if seed >= RECORDED_SEEDS:
        return health(workload, summary)
    recorded = expected.get(workload, {}).get(str(seed))
    if recorded is None:
        return [f"{workload} seed {seed} is missing from expected.json"]
    return _diff(recorded, summary, workload)
