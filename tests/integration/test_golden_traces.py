"""Golden traces: the sha256 of each harness's in-process JSONL trace
is pinned to a recorded value, not only compared with a second run.

A same-seed rerun proves determinism; these digests prove that a
refactor of the wiring (construction order, span ids, capacity
tokens, fraction caches) changed nothing a trace can see.  A change
that alters a run on purpose re-records the digest and says why.
"""

from __future__ import annotations

import hashlib
import io

import pytest

from repro.experiments.three_phase import run_three_phase
from repro.faults.harness import run_chaos
from repro.kvstore.harness import run_kv_churn
from repro.obs import OBS
from repro.obs.trace import JSONLSink
from repro.serving.harness import run_serve


def _trace_digest(run) -> str:
    OBS.reset()
    buf = io.StringIO()
    sink = OBS.bus.attach(JSONLSink(buf))
    try:
        run()
    finally:
        OBS.bus.detach(sink)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


GOLDEN = {
    "three-phase-none": (
        lambda: run_three_phase("none", scale=0.03),
        ("fd344b6c1bf359525994db8e3ef413b3"
         "0b5d27388123d45e1b72c6e555fc18ec")),
    "three-phase-original": (
        lambda: run_three_phase("original", scale=0.03),
        ("aa2b71b3bb8766072da1521deb768787"
         "36f1e38725819c29b0a168879af614bc")),
    "three-phase-full": (
        lambda: run_three_phase("full", scale=0.03),
        ("c81974a2fc0b2b0c185ce6c43c117efd"
         "783214e0e34a6b6a9750f7782a718ddf")),
    "three-phase-selective": (
        lambda: run_three_phase("selective", scale=0.03),
        ("fd1a95fe9fb5bc7ff3924cb060d66611"
         "f69599d524b5af45049ea5caf00a4a23")),
    "chaos": (
        lambda: run_chaos(seed=7, scale=0.05),
        ("30f24a2d66e8862052b4b6b238b4b994"
         "172423cdd92859c0a1c09822339b4725")),
    "serve": (
        lambda: run_serve(seed=7, duration=30, resize_at=10,
                          resize_back_at=20),
        ("7d5576ed455f194decd4a96bd44338db"
         "1d7a74a55cb49b13c19a18e7bfaa2d3f")),
    "kvchurn": (
        lambda: run_kv_churn(seed=7),
        ("c28852079e9004f5109d858cebbffad7"
         "536acdb58a9c413cbe2a33af2551d64c")),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_trace_matches_golden_digest(name):
    run, digest = GOLDEN[name]
    assert _trace_digest(run) == digest
