"""Tests of the benchmark itself: output checks catch a wrong answer,
traced count metrics repeat exactly, the reference kernel checks its
own answer, and ``run.py`` refuses to run without the simulator
sources.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harnesses  # noqa: E402
import reference  # noqa: E402
import verify  # noqa: E402
from tracer import EXACT_COUNTS  # noqa: E402

EXPECTED = verify.load_expected()


def _perturbations(workload):
    """(description, mutate(entry)) pairs, each changing one checked value."""
    def set_path(*path, fn):
        def mutate(entry):
            node = entry
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = fn(node[path[-1]])
        return mutate

    if workload == "serve-resize":
        return [
            ("p99", set_path("p99", fn=lambda v: v * (1 + 1e-12))),
            ("completed", set_path("completed", "open", fn=lambda v: v + 1)),
            ("rejected", set_path("rejected", "closed", fn=lambda v: v - 1)),
            ("enqueued", set_path("enqueued", "open", fn=lambda v: v + 1)),
            ("digest", set_path("sha256", fn=lambda v: "0" * len(v))),
        ]
    if workload == "chaos-traced":
        return [
            ("trace sha256", set_path("runs", 3, "sha256",
                                      fn=lambda v: v[::-1])),
            ("ok", set_path("runs", 5, "ok", fn=lambda v: not v)),
            ("events", set_path("runs", 0, "events", fn=lambda v: v + 1)),
        ]
    return [
        ("ideal hours", set_path("rows", 0, "ideal_h",
                                 fn=lambda v: v + 0.01)),
        ("table II", set_path("rows", 1, "table2", "primary-selective",
                              fn=lambda v: v * 1.001)),
        ("machine hours", set_path("rows", 1, "machine_hours",
                                   "original-ch", fn=lambda v: v - 1)),
    ]


@pytest.mark.parametrize("workload", harnesses.WORKLOADS)
def test_perturbed_expected_value_is_caught(workload):
    recorded = EXPECTED[workload]["0"]
    assert verify.check(workload, 0, recorded, EXPECTED) == []
    for what, mutate in _perturbations(workload):
        expected = copy.deepcopy(EXPECTED)
        mutate(expected[workload]["0"])
        assert verify.check(workload, 0, recorded, expected), what


def test_reference_values_of_the_paper_runs():
    serve = EXPECTED["serve-resize"]["0"]
    assert serve["p99"] == 2.348040420823395
    assert sum(serve["completed"].values()) == 45_360
    chaos = EXPECTED["chaos-traced"]["0"]["runs"]
    assert [r["seed"] for r in chaos] == list(range(6))
    assert all(r["ok"] for r in chaos)
    rows = EXPECTED["trace-replay"]["0"]["rows"]
    assert [round(r["ideal_h"], 2) for r in rows] == [7721.43, 7503.87]


def test_real_pass_matches_recording_and_perturbation_is_caught():
    summary = harnesses.run_untraced("trace-replay", 0).summary
    assert verify.check("trace-replay", 0, summary, EXPECTED) == []
    expected = copy.deepcopy(EXPECTED)
    expected["trace-replay"]["0"]["rows"][0]["ideal_h"] += 1e-9
    assert verify.check("trace-replay", 0, summary, expected)


def test_held_out_seed_is_health_checked():
    assert "999" not in EXPECTED["serve-resize"]
    healthy = copy.deepcopy(EXPECTED["serve-resize"]["0"])
    # A recorded seed never falls back to the health check.
    assert verify.check("serve-resize", 0, healthy, {})
    assert verify.check("serve-resize", 999, healthy, EXPECTED) == []
    healthy["ok"] = False
    assert verify.check("serve-resize", 999, healthy, EXPECTED)
    chaos = copy.deepcopy(EXPECTED["chaos-traced"]["0"])
    chaos["runs"][2]["violations"] = 1
    assert verify.check("chaos-traced", 999, chaos, EXPECTED)


def test_reference_kernel_checks_its_answer(monkeypatch):
    assert reference.timed() > 0
    monkeypatch.setattr(reference, "CHECKSUM", reference.CHECKSUM + 1)
    with pytest.raises(RuntimeError):
        reference.timed()


def _traced_small_pass(workload):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(HERE), "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "one_pass.py"),
         "--workload", workload, "--seed", "0", "--t0", "0",
         "--traced", "--small"],
        capture_output=True, text=True, env=env, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", harnesses.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = (_traced_small_pass(workload) for _ in range(2))
    assert first["problems"] == [] and second["problems"] == []
    assert first["ref_s"] > 0 and second["ref_s"] > 0
    counts = {name: first["layers"][name] for name in EXACT_COUNTS}
    assert counts == {name: second["layers"][name] for name in EXACT_COUNTS}
    if workload == "trace-replay":
        assert counts["obs.events"] == counts["engine.events"] == 0
        assert counts["policy.ticks"] == 56_160
    else:
        assert counts["engine.events"] > 0
        assert counts["hashring.hash64.calls"] > 0


def test_runner_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-resize",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
