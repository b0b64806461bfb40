"""The shared testbed: capacities, capacity tokens, the load-fraction
memo, migration flows, and the checked run every harness uses.

``Testbed`` is reached through its module: pytest would try to collect
a ``Test*`` class imported by name."""

from __future__ import annotations

import io

import pytest

from repro import cli
from repro.cluster.cluster import ElasticCluster, OriginalCHCluster
from repro.faults.harness import run_chaos
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent, FaultPlan
from repro.kvstore.harness import run_kv_churn
from repro.obs import OBS
from repro.obs import invariants
from repro.obs.invariants import CheckerSink
from repro.obs.trace import JSONLSink
from repro import testbed
from repro.testbed import checked_run, invariants_section


def _elastic(n=10):
    return ElasticCluster(n, 2, disk_bandwidth=64e6, layout_mode="uniform",
                          placement_mode="original")


class TestCapacities:
    def test_every_active_rank_gets_disk_bw_in_server_order(self):
        bed = testbed.Testbed(_elastic(), disk_bw=64e6, dt=1.0)
        bed.cluster.resize(6)
        caps = bed.capacities()
        assert list(caps) == bed.active_ranks()
        assert list(caps) == sorted(caps)
        assert len(caps) == 6 and set(caps.values()) == {64e6}

    def test_injector_factors_scale_capacities(self):
        plan = FaultPlan([FaultEvent(kind="slow_disk", time=0.0, rank=3,
                                     duration=10.0, factor=0.25)])
        injector = FaultInjector(plan)
        bed = testbed.Testbed(_elastic(), disk_bw=64e6, dt=1.0,
                              injector=injector)
        injector.arm(bed.sim, lambda action: None)
        token = bed.capacity_token()
        bed.sim.run_until(1.0)
        assert bed.capacities()[3] == pytest.approx(16e6)
        assert bed.capacities()[4] == 64e6
        assert bed.capacity_token() != token

    def test_original_ch_token_follows_ring_membership(self):
        cluster = OriginalCHCluster(6, 2, vnodes_per_server=50,
                                    disk_bandwidth=64e6)
        bed = testbed.Testbed(cluster, disk_bw=64e6, dt=1.0)
        token = bed.capacity_token()
        assert bed.capacity_token() == token
        cluster.remove_server(6)
        assert bed.capacity_token() != token
        assert list(bed.capacities()) == [1, 2, 3, 4, 5]


class TestFractions:
    def test_memoised_per_active_set(self):
        bed = testbed.Testbed(_elastic(), disk_bw=64e6, dt=1.0,
                              probe_objects=500)
        full = bed.fractions()
        assert bed.fractions() is full
        assert sum(full.values()) == pytest.approx(1.0)
        bed.cluster.resize(6)
        shrunk = bed.fractions()
        assert shrunk is not full
        assert set(shrunk) <= set(bed.active_ranks())
        bed.cluster.resize(10)
        assert bed.fractions() is full


class TestMigrationFlow:
    def test_read_spread_plus_destination_share(self):
        bed = testbed.Testbed(_elastic(4), disk_bw=64e6, dt=1.0)
        flow = bed.migration_flow(8e6, {2: 3.0, 4: 1.0}, rate_cap=1e6)
        assert flow.coefficients == {1: 0.25, 2: 1.0, 3: 0.25, 4: 0.5}
        assert flow.total_bytes == 8e6 and flow.rate_cap == 1e6
        assert flow.name == "migration" and len(bed.io.flows) == 1


class TestCheckedRun:
    def test_span_ends_failed_and_sink_detaches_on_error(self):
        OBS.reset()
        with OBS.bus.capture() as cap:
            with pytest.raises(RuntimeError):
                with checked_run(True) as run:
                    run.begin("demo.run")
                    raise RuntimeError("boom")
            assert not any(isinstance(s, CheckerSink)
                           for s in OBS.bus.sinks)
        ends = cap.events("span.end")
        assert [e["status"] for e in ends] == ["failed"]

    def test_reuses_an_attached_checker_sink(self):
        OBS.reset()
        outer = OBS.bus.attach(CheckerSink())
        try:
            with checked_run(True) as run:
                run.begin("demo.run")
            assert OBS.bus.sinks == [outer]
            assert run.events_seen == outer.suite.events_seen == 2
        finally:
            OBS.bus.detach(outer)

    def test_unchecked_run_collects_nothing(self):
        with checked_run(False) as run:
            run.begin("demo.run")
        assert (run.violations, run.checkers, run.events_seen) == ([], 0, 0)

    def test_invariants_section(self):
        class R:
            violations, checkers, events_seen = [], 15, 42
        assert invariants_section(R)[-1] == \
            "all 15 checkers hold over 42 events."
        R.checkers = 0
        assert invariants_section(R)[-1] == \
            "checkers not attached (check=False)."


def _traced(run):
    OBS.reset()
    buf = io.StringIO()
    sink = OBS.bus.attach(JSONLSink(buf))
    try:
        result = run()
    finally:
        OBS.bus.detach(sink)
    return result, buf.getvalue().count("\n")


class TestHarnessesSeeTheWholeRun:
    """The suite attaches before any component is built, so it sees
    the KV store's opening view change and repair too."""

    def test_chaos_events_seen_equals_trace_lines(self):
        result, lines = _traced(lambda: run_chaos(seed=7, scale=0.05))
        assert result.checkers == 15
        assert result.events_seen == lines

    def test_kvchurn_events_seen_equals_trace_lines(self):
        result, lines = _traced(lambda: run_kv_churn(seed=7))
        assert result.checkers == 15
        assert result.events_seen == lines

    @pytest.mark.parametrize("argv", [
        ["chaos", "--seed", "7", "--scale", "0.05"],
        ["kvchurn", "--seed", "7", "--duration", "40"],
        ["serve", "--seed", "7", "--duration", "30", "--resize-at", "10",
         "--resize-back-at", "20"],
    ])
    def test_one_suite_under_cli_check(self, argv, monkeypatch, capsys):
        built = []
        original = invariants.InvariantSuite.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(invariants.InvariantSuite, "__init__",
                            counting_init)
        OBS.reset()
        assert cli.main(argv + ["--check"]) == 0
        assert len(built) == 1
        out = capsys.readouterr()
        seen = built[0].events_seen
        assert f"hold over {seen} events." in out.out
        assert f"all invariants hold ({seen} events)" in out.err
