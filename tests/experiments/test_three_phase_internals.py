"""Internals of the 3-phase driver: phases, materialised writes,
flow plumbing — at tiny scale so they run fast."""

import pytest

from repro.experiments import run_three_phase

SCALE = 0.03


class TestTimelineIntegrity:
    @pytest.fixture(scope="class")
    def res(self):
        return run_three_phase("selective", scale=SCALE)

    def test_time_axis_monotone(self, res):
        assert all(b > a for a, b in zip(res.times, res.times[1:]))

    def test_phase_order(self, res):
        assert (res.phase_ends["phase1"] < res.phase_ends["phase2"]
                < res.phase_ends["phase3"])

    def test_client_bytes_match_workload(self, res):
        from repro.workloads.three_phase import three_phase_workload
        expected = sum(p.total_bytes for p in three_phase_workload(SCALE))
        moved = sum(res.throughput)  # dt = 1s
        assert moved == pytest.approx(expected, rel=0.02)

    def test_duration_covers_timeline(self, res):
        assert res.duration == pytest.approx(res.times[-1])

    def test_migration_series_aligned(self, res):
        assert len(res.migration_rate) == len(res.times)


class TestWriteMaterialisation:
    def test_objects_created_match_written_bytes(self):
        """Drive the shared phase driver by hand: each phase creates
        exactly the whole 4 MB objects in its written bytes, and the
        fractional carry resets when the phase ends."""
        from repro.cluster.cluster import ElasticCluster
        from repro.testbed import ClientPhases, Testbed
        from repro.workloads.three_phase import three_phase_workload
        mb4 = 4 * 1024 * 1024
        phases = three_phase_workload(SCALE)
        bed = Testbed(ElasticCluster(10, 2, disk_bandwidth=64e6,
                                     layout_mode="uniform",
                                     placement_mode="original"),
                      disk_bw=64e6, dt=1.0)
        client = ClientPhases(bed, phases, replicas=2, client_cap=320e6,
                              object_size=mb4)
        client.start(0)
        now, created, leftover = 0.0, [], []
        while now < 3_600.0:
            now += 1.0
            bed.io.step(now)
            client.materialise_writes()
            carry = client.carry
            if client.end_phase(now) is None:
                continue
            created.append(client.written - sum(created))
            leftover.append(carry)
            assert client.carry == 0.0
            if not client.start_next():
                break
        assert created == [int(p.write_bytes // mb4) for p in phases]
        assert leftover == [pytest.approx(p.write_bytes % mb4)
                            for p in phases]
        assert len(bed.cluster.catalog) == client.written == sum(created)
        assert set(client.ends) == {p.name for p in phases}

    def test_dirty_objects_only_from_phase2(self):
        res = run_three_phase("selective", scale=SCALE)
        # Selective migration equals the offloaded share of phase-2
        # writes: strictly less than the full replicated phase-2 write
        # volume, and nonzero.
        from repro.workloads.three_phase import three_phase_workload
        phase2_writes = three_phase_workload(SCALE)[1].write_bytes
        assert 0 < res.migrated_bytes < 2 * phase2_writes


class TestModesAtTinyScale:
    def test_all_modes_complete(self):
        for mode in ("none", "original", "full", "selective"):
            res = run_three_phase(mode, scale=SCALE)
            assert set(res.phase_ends) == {"phase1", "phase2", "phase3"}

    def test_full_design_variant_completes(self):
        res = run_three_phase("selective", scale=SCALE,
                              isolate_reintegration=False)
        assert set(res.phase_ends) == {"phase1", "phase2", "phase3"}
        assert res.migrated_bytes > 0

    def test_custom_off_count(self):
        res = run_three_phase("selective", scale=SCALE, off_count=2)
        assert res.migrated_bytes > 0

    def test_phase2_rate_controls_duration(self):
        slow = run_three_phase("none", scale=SCALE, phase2_rate=10e6)
        fast = run_three_phase("none", scale=SCALE, phase2_rate=40e6)
        dur_slow = (slow.phase_ends["phase2"] - slow.phase_ends["phase1"])
        dur_fast = (fast.phase_ends["phase2"] - fast.phase_ends["phase1"])
        assert dur_slow == pytest.approx(4 * dur_fast, rel=0.1)
