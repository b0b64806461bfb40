"""Additional engine edge cases surfaced while building the drivers."""

from repro.simulation.engine import Simulator


class TestReentrancy:
    def test_callback_scheduling_at_now(self):
        sim = Simulator()
        log = []

        def first():
            log.append("first")
            sim.schedule(0.0, log.append, "second")

        sim.schedule(1.0, first)
        sim.run()
        assert log == ["first", "second"]
        assert sim.now == 1.0

    def test_cancel_from_within_callback(self):
        sim = Simulator()
        fired = []
        later = sim.schedule(2.0, fired.append, "later")
        sim.schedule(1.0, later.cancel)
        sim.run()
        assert fired == []

    def test_run_until_then_schedule(self):
        sim = Simulator()
        sim.run_until(10.0)
        fired = []
        sim.schedule(1.0, fired.append, True)
        sim.run()
        assert fired == [True]
        assert sim.now == 11.0


class TestPendingCounter:
    """The O(1) live-event counter must track a naive heap scan
    through every schedule / cancel / step / clear interleaving."""

    @staticmethod
    def naive_pending(sim):
        return sum(1 for _t, _seq, ev in sim._heap if not ev.cancelled)

    def test_counter_matches_scan_under_random_ops(self):
        import random
        rng = random.Random(0xE17)
        sim = Simulator()
        events = []
        for _ in range(600):
            op = rng.random()
            if op < 0.45 or not events:
                events.append(sim.schedule(rng.uniform(0.0, 10.0),
                                           lambda: None))
            elif op < 0.70:
                rng.choice(events).cancel()
            elif op < 0.95:
                sim.step()
            else:
                sim.clear()
            assert sim.pending == self.naive_pending(sim)
        sim.run()
        assert sim.pending == 0

    def test_double_cancel_decrements_once(self):
        sim = Simulator()
        ev = sim.schedule(1.0, lambda: None)
        assert sim.pending == 1
        ev.cancel()
        ev.cancel()
        assert sim.pending == 0

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        ev = sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.pending == 0
        ev.cancel()
        assert sim.pending == 0

    def test_clear_then_schedule(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i + 1), lambda: None)
        assert sim.clear() == 5
        assert sim.pending == 0
        sim.schedule(1.0, lambda: None)
        assert sim.pending == 1


class TestClockDiscipline:
    def test_now_is_event_time_inside_callback(self):
        sim = Simulator()
        seen = []
        sim.schedule(3.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [3.5]

    def test_run_until_sets_clock_even_without_events(self):
        sim = Simulator()
        sim.run_until(42.0)
        assert sim.now == 42.0

    def test_many_same_time_events_ordered(self):
        sim = Simulator()
        log = []
        for i in range(50):
            sim.schedule(1.0, log.append, i)
        sim.run()
        assert log == list(range(50))


class TestCancelledCount:
    """``engine.cancelled`` counts every cancelled event the loop
    discards, whether the discard happens in ``step`` or in the
    ``peek_time`` that ``run_until`` consults first."""

    @staticmethod
    def cancelled_by(drive):
        from repro.obs.runtime import OBS
        sim = Simulator()
        for t in (1.0, 2.0, 3.0, 4.0):
            ev = sim.schedule(t, lambda: None)
            if t in (1.0, 3.0):
                ev.cancel()
        counter = OBS.metrics.counter("engine.cancelled")
        before = counter.value
        drive(sim)
        return counter.value - before

    def test_run_and_run_until_agree(self):
        by_run = self.cancelled_by(lambda sim: sim.run())
        by_run_until = self.cancelled_by(lambda sim: sim.run_until(10.0))
        assert by_run == by_run_until == 2
