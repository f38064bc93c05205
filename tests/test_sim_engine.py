"""Tests for the discrete-event engine."""

import pytest

from repro.sim.engine import ReferenceHeapSimulator, Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.call_at(30, lambda: fired.append(30))
        sim.call_at(10, lambda: fired.append(10))
        sim.call_at(20, lambda: fired.append(20))
        sim.run()
        assert fired == [10, 20, 30]

    def test_same_cycle_events_fire_in_schedule_order(self):
        sim = Simulator()
        fired = []
        for tag in range(5):
            sim.call_at(7, lambda t=tag: fired.append(t))
        sim.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_schedule_after_is_relative(self):
        sim = Simulator()
        times = []
        sim.call_at(5, lambda: sim.call_after(10, lambda: times.append(sim.now)))
        sim.run()
        assert times == [15]

    def test_now_tracks_event_time(self):
        sim = Simulator()
        seen = []
        sim.call_at(42, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [42]
        assert sim.now == 42

    def test_cannot_schedule_in_past(self):
        sim = Simulator()
        sim.call_at(10, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.call_at(5, lambda: None)

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.call_after(-1, lambda: None)

    def test_call_at_and_call_after_share_seq_order(self):
        # Both APIs take the next seq, so same-cycle events fire in the
        # order they were scheduled whichever API scheduled them.
        sim = Simulator()
        fired = []
        sim.call_after(4, fired.append, "after-0")
        sim.call_at(4, fired.append, "at-1")
        sim.call_after(4, fired.append, "after-2")
        sim.call_at(4, fired.append, "at-3")
        sim.run()
        assert fired == ["after-0", "at-1", "after-2", "at-3"]

    def test_prebound_arg_is_passed_to_callback(self):
        sim = Simulator()
        seen = []
        sim.call_at(3, seen.append, None)  # None is an argument, not absent
        sim.call_after(5, seen.append, ("tuple", 1))
        sim.call_at(7, lambda: seen.append("no-arg"))
        sim.run()
        assert seen == [None, ("tuple", 1), "no-arg"]

    def test_call_at_now_after_run_fires_at_now(self):
        sim = Simulator()
        fired = []
        sim.call_at(40, lambda: None)
        sim.run()
        sim.call_at(sim.now, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [40]
        assert sim.now == 40


class TestPendingEventsCounter:
    def test_counter_tracks_fired_events(self):
        sim = Simulator()
        for t in range(5):
            sim.call_at(t, lambda: None)
        assert sim.pending_events == 5
        sim.run()
        assert sim.pending_events == 0

    def test_counter_after_max_events_stop(self):
        sim = Simulator()
        for t in range(10):
            sim.call_at(t, lambda: None)
        with pytest.raises(RuntimeError, match="max_events"):
            sim.run(max_events=5)
        assert sim.pending_events == 5
        assert sim.run() == 5
        assert sim.pending_events == 0

    def test_counter_spans_wheel_and_overflow_heap(self):
        sim = Simulator()
        sim.call_at(10, lambda: None)
        sim.call_at(sim.WHEEL_SIZE - 1, lambda: None)
        sim.call_at(sim.WHEEL_SIZE * 3, lambda: None)
        sim.call_at(sim.WHEEL_SIZE * 4 + 7, lambda: None)
        assert len(sim._heap) == 2
        assert sim.pending_events == 4
        sim.run()
        assert sim.pending_events == 0

    def test_counter_excludes_fired_entries_mid_drain(self):
        # Read from inside callbacks of one cycle: the entries already
        # drained from the bucket (the firing one included) are not
        # pending, and the hybrid engine agrees with the pure heap.
        def observe(sim):
            seen = []
            for _ in range(4):
                sim.call_at(6, lambda: seen.append(sim.pending_events))
            sim.call_at(9, lambda: seen.append(sim.pending_events))
            sim.run()
            return seen

        seen = observe(Simulator())
        assert seen == [4, 3, 2, 1, 0]
        assert seen == observe(ReferenceHeapSimulator())

    def test_counter_counts_same_cycle_appends(self):
        sim = Simulator()
        seen = []

        def spawn():
            sim.call_at(sim.now, lambda: None)
            sim.call_at(sim.now, lambda: None)
            seen.append(sim.pending_events)

        sim.call_at(2, spawn)
        sim.call_at(2, lambda: seen.append(sim.pending_events))
        assert sim.run() == 4
        assert seen == [3, 2]
        assert sim.pending_events == 0

    def test_fired_wheel_entries_are_recycled(self):
        sim = Simulator()
        for t in range(64):
            sim.call_at(10 + t % 8, lambda: None)
        sim.run()
        assert len(sim._free) == 64
        # Later schedules reuse the recycled entries instead of
        # allocating new ones.
        for t in range(40):
            sim.call_after(t % 5, lambda: None)
        assert len(sim._free) == 24
        sim.run()
        assert len(sim._free) == 64
        assert not any(sim._wheel) and sim._occ == 0

    def test_fired_overflow_heap_entries_are_recycled(self):
        sim = Simulator()
        far = sim.WHEEL_SIZE * 4
        for t in range(32):
            sim.call_at(far + t, lambda: None)
        assert len(sim._heap) == 32
        sim.run()
        assert not sim._heap
        assert len(sim._free) == 32
        fired = []
        sim.call_after(far, lambda: fired.append(sim.now))
        assert len(sim._free) == 31
        sim.run()
        assert fired == [far + 31 + far]


class TestRunLimits:
    def test_max_events_raises(self):
        sim = Simulator()

        def reschedule():
            sim.call_after(1, reschedule)

        sim.call_at(0, reschedule)
        with pytest.raises(RuntimeError, match="max_events"):
            sim.run(max_events=100)

    def test_max_events_fires_exactly_that_many(self):
        sim = Simulator()
        fired = []
        for t in range(5):
            sim.call_at(t, lambda t=t: fired.append(t))
        with pytest.raises(RuntimeError, match="max_events"):
            sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_max_events_zero_with_pending_events_raises(self):
        sim = Simulator()
        sim.call_at(10, lambda: None)
        with pytest.raises(RuntimeError, match="max_events"):
            sim.run(max_events=0)

    def test_max_events_stop_then_resume_fires_rest(self):
        sim = Simulator()
        fired = []
        sim.call_at(10, lambda: fired.append(10))
        sim.call_at(100, lambda: fired.append(100))
        with pytest.raises(RuntimeError, match="max_events"):
            sim.run(max_events=1)
        assert fired == [10]
        sim.run()
        assert fired == [10, 100]

    def test_max_events_leaves_clock_at_last_fired_event(self):
        sim = Simulator()
        for t in range(5):
            sim.call_at(t, lambda: None)
        with pytest.raises(RuntimeError, match="max_events"):
            sim.run(max_events=2)
        assert sim.now == 1  # last fired event, not the next pending one
        with pytest.raises(ValueError):
            sim.call_at(0, lambda: None)

    def test_max_events_stop_mid_cycle_keeps_cycle_order(self):
        def trace(sim):
            fired = []
            for tag in range(6):
                sim.call_at(50, fired.append, tag)
            sim.call_at(51, fired.append, "next")
            with pytest.raises(RuntimeError, match="max_events"):
                sim.run(max_events=3)
            stopped = (list(fired), sim.now, sim.pending_events)
            sim.run()
            return stopped, fired

        stopped, fired = trace(Simulator())
        assert stopped == ([0, 1, 2], 50, 4)
        assert fired == [0, 1, 2, 3, 4, 5, "next"]
        assert (stopped, fired) == trace(ReferenceHeapSimulator())

    def test_schedule_between_runs_is_seamless(self):
        sim = Simulator()
        fired = []
        sim.call_at(10, lambda: fired.append(10))
        sim.call_at(100, lambda: fired.append(100))
        with pytest.raises(RuntimeError, match="max_events"):
            sim.run(max_events=1)
        sim.call_at(60, lambda: fired.append(60))
        sim.run()
        assert fired == [10, 60, 100]

    def test_run_returns_event_count(self):
        sim = Simulator()
        for t in range(5):
            sim.call_at(t, lambda: None)
        assert sim.run() == 5

    def test_run_on_empty_queue(self):
        sim = Simulator()
        assert sim.run() == 0
        assert sim.now == 0

    def test_drained_run_keeps_clock_on_empty_rerun(self):
        sim = Simulator()
        sim.call_at(30, lambda: None)
        sim.run()
        assert sim.run() == 0
        assert sim.now == 30
        with pytest.raises(ValueError):
            sim.call_at(29, lambda: None)
