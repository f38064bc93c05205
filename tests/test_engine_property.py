"""Property-style differential test of the hybrid scheduler.

Drives random interleavings of ``schedule_at`` / ``schedule_after`` /
``call_after`` / ``cancel`` / ``run(until=...)`` through the production
bucket-wheel+heap :class:`~repro.sim.engine.Simulator` and through the
pure-heap :class:`~repro.sim.engine.ReferenceHeapSimulator`, asserting
identical firing order, ``now`` evolution and ``pending_events`` counts —
including cancel storms big enough to trip both compaction paths.

The op script is generated once per seed and replayed against both
engines, so any divergence is a scheduler bug, not test nondeterminism.
A second family of cases schedules and cancels from *inside* firing
callbacks (same-cycle appends to the bucket being drained, overflow
pushes, cancels of pending entries) and stops on a ``max_events``
budget mid-cycle, then resumes.
"""

import random

import pytest

from repro.sim.engine import ReferenceHeapSimulator, Simulator

#: Spread of schedule deltas: mostly small (wheel), some same-cycle,
#: some far beyond the wheel window (overflow heap).
_DELTAS = (0, 0, 1, 1, 2, 3, 7, 28, 140, 421, 900, 1023, 1024, 1500, 4095, 9000)


def _make_script(seed, length):
    rng = random.Random(seed)
    script = []
    for _ in range(length):
        roll = rng.random()
        if roll < 0.30:
            script.append(("at", rng.choice(_DELTAS), rng.randrange(1000)))
        elif roll < 0.55:
            script.append(("after", rng.choice(_DELTAS), rng.randrange(1000)))
        elif roll < 0.70:
            # Hot-path API: no handle, (callback, arg) dispatch.
            script.append(("call", rng.choice(_DELTAS), rng.randrange(1000)))
        elif roll < 0.82:
            script.append(("cancel", rng.randrange(1 << 30)))
        elif roll < 0.90:
            script.append(("run_until", rng.choice(_DELTAS)))
        elif roll < 0.95:
            script.append(("run_all",))
        else:
            # Cancel storm: a burst of doomed events plus survivors.
            script.append(("storm", 8 + rng.randrange(200), rng.choice(_DELTAS)))
    script.append(("run_all",))
    return script


def _apply(sim, script):
    """Replay ``script`` on ``sim``; return the firing log and checkpoints."""
    log = []
    checkpoints = []
    handles = []  # every cancellable handle ever created

    def fire(tag):
        log.append((tag, sim.now))

    def firing(tag):  # a distinct callable per event, shared shape
        return lambda: fire(tag)

    for op in script:
        kind = op[0]
        if kind == "at":
            _, delta, tag = op
            handles.append(sim.schedule_at(sim.now + delta, firing(tag)))
        elif kind == "after":
            _, delta, tag = op
            handles.append(sim.schedule_after(delta, firing(tag)))
        elif kind == "call":
            _, delta, tag = op
            sim.call_after(delta, fire, ("call", tag))
        elif kind == "cancel":
            if handles:
                handles[op[1] % len(handles)].cancel()
        elif kind == "run_until":
            fired = sim.run(until=sim.now + op[1])
            checkpoints.append(("until", fired, sim.now, sim.pending_events))
        elif kind == "run_all":
            fired = sim.run()
            checkpoints.append(("all", fired, sim.now, sim.pending_events))
        elif kind == "storm":
            _, count, delta = op
            doomed = [
                sim.schedule_at(sim.now + delta + (i % 7), lambda: fire("doomed"))
                for i in range(count)
            ]
            survivor_tag = ("survivor", count)
            handles.append(sim.schedule_after(delta + 3, firing(survivor_tag)))
            for event in doomed:
                event.cancel()
        checkpoints.append((sim.now, sim.pending_events))
    return log, checkpoints


@pytest.mark.parametrize("seed", range(12))
def test_hybrid_matches_reference_heap(seed):
    # The reference subclass keeps everything in the heap, so its run
    # loop fires every event alone as a heap-only frontier — exercising
    # both the batched drain (hybrid) and the heap path (reference)
    # against each other.
    script = _make_script(seed, 120)
    log_h, checks_h = _apply(Simulator(), script)
    log_r, checks_r = _apply(ReferenceHeapSimulator(), script)
    assert checks_h == checks_r
    assert log_h == log_r


def _reentrant(sim, seed, budget=None):
    """Self-scheduling random workload; return the log and checkpoints.

    Each engine gets its own ``Random(seed)``, consumed in firing order,
    so the two engines make identical choices exactly as long as they
    fire in identical order.  With ``budget``, the run stops on
    ``max_events`` (recording the message and clock), then resumes.
    """
    rng = random.Random(seed)
    log = []
    handles = []
    counter = [0]

    def fire(tag):
        log.append((tag, sim.now))
        for _ in range(rng.choice((0, 1, 2, 2, 3))):
            if counter[0] >= 600:
                break
            counter[0] += 1
            child = counter[0]
            roll = rng.random()
            delta = rng.choice(_DELTAS)
            if roll < 0.45:
                sim.call_after(delta, fire, child)
            elif roll < 0.75:
                handles.append(
                    sim.schedule_after(delta, lambda c=child: fire(c))
                )
            elif roll < 0.90 and handles:
                handles[rng.randrange(len(handles))].cancel()
            else:
                sim.call_at(sim.now, fire, child)  # same cycle, mid-drain

    for tag in range(-8, 0):
        sim.call_at(rng.choice(_DELTAS), fire, tag)
    checkpoints = []
    if budget is not None:
        with pytest.raises(RuntimeError) as info:
            sim.run(max_events=budget)
        checkpoints.append((str(info.value), sim.now, sim.pending_events))
    checkpoints.append((sim.run(), sim.now, sim.pending_events))
    return log, checkpoints


@pytest.mark.parametrize("seed", range(12))
def test_reentrant_scheduling_matches_reference_heap(seed):
    log_h, checks_h = _reentrant(Simulator(), seed)
    log_r, checks_r = _reentrant(ReferenceHeapSimulator(), seed)
    assert len(log_h) > 100
    assert checks_h == checks_r
    assert log_h == log_r


@pytest.mark.parametrize("seed", range(12))
def test_max_events_stop_matches_reference_heap(seed):
    """A budget stop (usually mid-cycle) raises at the same event.

    Nothing past the budget fires, the clock stays at the last fired
    event, and resuming fires the rest in the same order.
    """
    budget = 40 + 7 * seed
    log_h, checks_h = _reentrant(Simulator(), seed, budget)
    log_r, checks_r = _reentrant(ReferenceHeapSimulator(), seed, budget)
    assert checks_h == checks_r
    assert log_h == log_r
    assert checks_h[0][1] == log_h[budget - 1][1]


def test_mid_epoch_cross_core_message_forces_fallback_in_order():
    """Re-breaking test for the epoch loop's heap check.

    A self-rescheduling local chain keeps the wheel busy; early on it
    sends a "cross-core message" 2000 cycles out, which lands in the
    overflow heap with a *smaller* sequence number than the wheel entry
    later scheduled for the same cycle.  When the frontier reaches that
    cycle the engine must abandon the batched drain (a "heap-due"
    fallback) and fire the message first — removing the per-cycle heap
    check, or firing whole buckets without it, reorders the log and
    fails this test.
    """
    sim = Simulator()
    log = []

    def local(step):
        log.append(("local", sim.now))
        if step < 2500:
            sim.call_after(1, local, step + 1)
        if step == 5:
            # In-flight cross-core message: due exactly when the local
            # chain's own entry for cycle 2005 exists, but scheduled
            # (and therefore sequenced) 2000 cycles earlier.
            sim.call_after(2000, message, None)

    def message(_):
        log.append(("message", sim.now))

    sim.call_after(0, local, 0)
    sim.run()

    due = 5 + 2000
    assert ("message", due) in log
    position = log.index(("message", due))
    # The message outranks that cycle's local event (smaller seq).
    assert log[position + 1] == ("local", due)
    assert sim.epoch_stats["fallbacks"].get("heap-due", 0) >= 1
    assert sim.epoch_stats["epochs"] > 0

    # And the pure-heap reference produces the identical interleaving.
    ref = ReferenceHeapSimulator()
    ref_log = []

    def ref_local(step):
        ref_log.append(("local", ref.now))
        if step < 2500:
            ref.call_after(1, ref_local, step + 1)
        if step == 5:
            ref.call_after(2000, ref_message, None)

    def ref_message(_):
        ref_log.append(("message", ref.now))

    ref.call_after(0, ref_local, 0)
    ref.run()
    assert ref_log == log


def test_reference_heap_never_uses_wheel():
    sim = ReferenceHeapSimulator()
    sim.schedule_at(5, lambda: None)
    sim.call_after(2, lambda: None)
    assert sim._wheel_live == 0
    assert sim._heap_live == 2
    assert sim.run() == 2


def test_cancel_storm_compacts_both_sides():
    sim = Simulator()
    near = [sim.schedule_at(100 + i, lambda: None) for i in range(200)]
    far = [
        sim.schedule_at(sim.WHEEL_SIZE * 3 + i, lambda: None) for i in range(200)
    ]
    keep_near = sim.schedule_at(50, lambda: None)
    keep_far = sim.schedule_at(sim.WHEEL_SIZE * 5, lambda: None)
    for event in near + far:
        event.cancel()
    assert sim.pending_events == 2
    # Tombstones must not be retained wholesale once cancels dominate
    # (each side may keep up to just-under-one-trigger's worth).
    assert sim._retained_entries() <= 2 * sim.COMPACT_MIN_SIZE
    assert sim.run() == 2
    assert not keep_near.cancelled and not keep_far.cancelled


def test_free_list_recycles_internal_entries_only():
    sim = Simulator()
    fired = []
    public = sim.schedule_at(3, lambda: fired.append("public"))
    for i in range(16):
        sim.call_after(i, fired.append, i)
    sim.run()
    assert fired == [0, 1, 2, "public", 3] + list(range(4, 16))
    # Internal entries were recycled; the public entry's storage was not
    # (its handle keeps reporting post-fire state).
    assert len(sim._free) >= 1
    assert all(entry[5] & 1 for entry in sim._free)
    assert not public.cancelled
    public.cancel()  # post-fire cancel is a no-op
    assert not public.cancelled
    assert sim.pending_events == 0
