"""Property-style differential test of the hybrid scheduler.

Drives random interleavings of ``call_at`` / ``call_after`` / ``run``
through the production bucket-wheel+heap
:class:`~repro.sim.engine.Simulator` and through the pure-heap
:class:`~repro.sim.engine.ReferenceHeapSimulator`, asserting identical
firing order, ``now`` evolution and ``pending_events`` counts.

The op script is generated once per seed and replayed against both
engines, so any divergence is a scheduler bug, not test nondeterminism.
A second family of cases schedules from *inside* firing callbacks
(same-cycle appends to the bucket being drained, overflow pushes) and
stops on a ``max_events`` budget mid-cycle, or on a raising callback,
then resumes.
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
        if roll < 0.40:
            script.append(("at", rng.choice(_DELTAS), rng.randrange(1000)))
        elif roll < 0.70:
            script.append(("after", rng.choice(_DELTAS), rng.randrange(1000)))
        elif roll < 0.95:
            # (callback, arg) dispatch instead of a no-argument closure.
            script.append(("call", rng.choice(_DELTAS), rng.randrange(1000)))
        else:
            script.append(("run_all",))
    script.append(("run_all",))
    return script


def _apply(sim, script):
    """Replay ``script`` on ``sim``; return the firing log and checkpoints."""
    log = []
    checkpoints = []

    def fire(tag):
        log.append((tag, sim.now))

    def firing(tag):  # a distinct callable per event, shared shape
        return lambda: fire(tag)

    for op in script:
        kind = op[0]
        if kind == "at":
            _, delta, tag = op
            sim.call_at(sim.now + delta, firing(tag))
        elif kind == "after":
            _, delta, tag = op
            sim.call_after(delta, firing(tag))
        elif kind == "call":
            _, delta, tag = op
            sim.call_after(delta, fire, ("call", tag))
        elif kind == "run_all":
            fired = sim.run()
            checkpoints.append(("all", fired, sim.now, sim.pending_events))
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
            elif roll < 0.90:
                sim.call_after(delta, lambda c=child: fire(c))
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
    sim.call_at(5, lambda: None)
    sim.call_after(2, lambda: None)
    assert sim._occ == 0
    assert len(sim._heap) == 2
    assert sim.run() == 2


def test_drained_run_leaves_no_entries_behind():
    """Every bucket is cleared once its cycle drains, and every fired
    entry (wheel or heap) is back on the free list."""
    sim = Simulator()
    fired = []
    deltas = (0, 0, 1, 3, 3, 700, 1023, 1024, 1500, 4095)
    for i, delta in enumerate(deltas):
        sim.call_after(delta, fired.append, i)
    assert sim.run() == len(deltas)
    assert len(fired) == len(deltas)
    assert sim._occ == 0
    assert not any(sim._wheel)
    assert not sim._heap
    assert sim._drain_pos == 0
    assert sim.pending_events == 0
    assert len({id(entry) for entry in sim._free}) == len(deltas)
    assert all(entry[2] is None and entry[3] is None for entry in sim._free)


def _raise_on_last_entry_then_resume(sim, raiser):
    """Stop a run on the last entry of cycle 5, then resume it."""
    log = []

    def fire(tag):
        log.append((tag, sim.now))

    def boom(tag):
        fire(tag)
        raise ValueError("boom")

    class StopWatchdog:
        check_interval = 3

        def check(self):
            raise ValueError("watchdog stop")

    sim.call_at(5, fire, "a")
    sim.call_at(9, fire, "c")
    sim.call_at(5, fire, "b")
    sim.call_at(5000, fire, "far")  # overflow heap
    if raiser == "callback":
        sim.call_at(5, boom, "last")
    else:
        sim.call_at(5, fire, "last")
        sim.watchdog = StopWatchdog()
    sim.call_at(9, fire, "d")
    with pytest.raises(ValueError):
        sim.run()
    sim.watchdog = None
    checkpoints = [(sim.now, sim.pending_events, sim._drain_pos)]
    sim.call_at(sim.now, fire, "same-cycle")
    sim.call_after(1, fire, "next")
    checkpoints.append((sim.run(), sim.now, sim.pending_events))
    return log, checkpoints


@pytest.mark.parametrize("raiser", ["callback", "watchdog"])
def test_raise_on_last_entry_of_cycle_leaves_engine_resumable(raiser):
    sim = Simulator()
    log_h, checks_h = _raise_on_last_entry_then_resume(sim, raiser)
    log_r, checks_r = _raise_on_last_entry_then_resume(
        ReferenceHeapSimulator(), raiser
    )
    assert checks_h == checks_r
    assert log_h == log_r
    assert log_h[2] == ("last", 5) and log_h[3] == ("same-cycle", 5)
    # The stop cleared the drained bucket, as a finished drain does.
    assert checks_h[0] == (5, 3, 0)
    assert sim._occ == 0 and not any(sim._wheel)
