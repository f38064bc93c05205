"""Discrete-event simulation engine.

All simulated activity is ordered through a single logical event queue
keyed by (cycle, sequence-number).  The sequence number makes the
simulation fully deterministic: two events scheduled for the same cycle
fire in the order they were scheduled.

Internally the queue is a hybrid of two structures (the determinism
contract above is independent of which structure an event lands in):

* a **bucket wheel** of ``WHEEL_SIZE`` per-cycle buckets for events within
  the near-future window ``[now, now + WHEEL_SIZE)``, where almost every
  event lands (operation latencies are small bounded integers).  Insert
  is an O(1) list append; finding the next occupied cycle is a couple of
  big-int bit operations on an occupancy bitmap instead of a bucket scan.
* a **binary heap** for the rare far-out events (multi-thousand-cycle
  hardware backoffs, watchdog horizons).  Heap entries are plain lists
  ``[time, seq, ...]`` so ``heapq`` compares them at C speed; (time, seq)
  is unique, so a comparison never reaches the non-ordered fields.

Hot-path scheduling goes through :meth:`Simulator.call_at` /
:meth:`Simulator.call_after`, which take a prebound ``(callback, arg)``
pair, return no handle, and recycle entry storage through a free list —
zero allocations per event in steady state.  :meth:`Simulator.schedule_at`
/ :meth:`Simulator.schedule_after` return a cancellable :class:`Event`
handle instead, for the callers that need to cancel.

:meth:`Simulator.run` is the one run loop: it drains each uncontended
wheel cycle in place (an *epoch*) and fires an overflow-heap entry on its
own whenever one is the frontier.

Free-list lifetime rules: only entries created by ``call_at`` /
``call_after`` are recyclable.  They are never handed out (no handle →
no cancel → no external alias), so an entry can be recycled as soon as
the engine drops its last internal reference: immediately after firing
for heap entries, and at bucket-clear time for wheel entries.  Entries
backing a public :class:`Event` are never recycled — the handle may
outlive the firing.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from collections.abc import Callable

#: Sentinel ``arg`` meaning "invoke the callback with no argument".
_NO_ARG = object()

# Entry layout (a plain list; index constants below):
#   [0] time          absolute firing cycle
#   [1] seq           global schedule order (ties within a cycle)
#   [2] callback      None once fired or cancelled (the liveness test)
#   [3] arg           _NO_ARG, or the single positional argument
#   [4] scheduled_at  cycle the entry was created (for error notes)
#   [5] flags         _F_RECYCLABLE and/or _F_IN_HEAP
_F_RECYCLABLE = 1  # internal call_at/call_after entry: may enter the free list
_F_IN_HEAP = 2  # lives in the heap, not the wheel (cancel bookkeeping)


class Event:
    """A handle for a scheduled callback (cancellation + introspection).

    ``cancel()`` is idempotent; cancelling an event that already fired is
    a no-op.  The handle stays valid after the event fires.
    """

    __slots__ = ("_entry", "_sim", "_cancelled")

    def __init__(self, entry: list, sim: "Simulator"):
        self._entry = entry
        self._sim = sim
        self._cancelled = False

    @property
    def time(self) -> int:
        return self._entry[0]

    @property
    def seq(self) -> int:
        return self._entry[1]

    @property
    def scheduled_at(self) -> int:
        return self._entry[4]

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self) -> None:
        if self._cancelled:
            return
        entry = self._entry
        if entry[2] is None:  # already fired
            return
        self._cancelled = True
        entry[2] = None
        self._sim._event_cancelled(entry)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self._cancelled else (
            "fired" if self._entry[2] is None else "pending"
        )
        return f"Event(time={self._entry[0]}, seq={self._entry[1]}, {state})"


class Simulator:
    """A minimal deterministic discrete-event simulator.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule_at(10, lambda: fired.append(sim.now))
    >>> sim.run()
    1
    >>> fired
    [10]
    """

    #: Cycles covered by the bucket wheel; events further out go to the
    #: heap.  Must be a power of two (bucket index is ``time & mask``).
    WHEEL_SIZE = 1024

    #: Compact a queue side once it holds at least this many entries and
    #: cancelled entries outnumber live ones (see :meth:`_event_cancelled`).
    COMPACT_MIN_SIZE = 64

    def __init__(self) -> None:
        size = self.WHEEL_SIZE
        # Instance copy of the class constant: the scheduling hot path
        # reads it every call, and an instance attribute resolves without
        # the failed-instance-then-type lookup.
        self._wsize = size
        self._wheel: list[list] = [[] for _ in range(size)]
        self._wheel_mask = size - 1
        self._occ = 0  # bitmap: bit i set when bucket i is non-empty
        self._occ_full = (1 << size) - 1
        self._wheel_live = 0  # live (non-cancelled, unfired) wheel entries
        self._wheel_dead = 0  # cancelled wheel entries not yet reclaimed
        self._heap: list[list] = []
        self._heap_live = 0
        self._seq = 0
        self._free: list[list] = []  # recycled internal entries
        # The bucket currently being drained: entries at index <
        # _drain_pos of bucket (_drain_time & mask) are dead (fired or
        # cancelled) and are skipped without re-inspection.
        self._drain_time = -1
        self._drain_pos = 0
        self.now = 0
        #: Cycle of the most recent *architectural* progress.  Cores stamp
        #: this every time an operation retires; the liveness watchdog
        #: (:mod:`repro.sim.watchdog`) compares it against ``now`` to
        #: detect livelock (events firing, clock advancing, nothing
        #: retiring).
        self.progress_cycle = 0
        #: Optional :class:`~repro.sim.watchdog.Watchdog`; when set,
        #: :meth:`run` polls it every ``watchdog.check_interval`` events.
        self.watchdog = None
        #: Optional :class:`~repro.mc.controller.ScheduleController`.  When
        #: set, every :class:`~repro.cpu.core.Core` *gates* at each visible
        #: memory-operation boundary: instead of issuing the operation it
        #: parks a continuation with the controller and waits to be
        #: released.  The model checker uses this to serialize and choose
        #: the interleaving of visible operations; normal runs leave it
        #: None and pay one attribute test per operation.
        self.controller = None
        # Epoch-execution counters (see run / epoch_stats).
        # _epoch_spin_elided is bumped by cores when a spin fast-forward
        # lease replaces a full spin probe with a closed-form tick.
        self._epoch_epochs = 0
        self._epoch_batched = 0
        self._epoch_spin_elided = 0
        self._epoch_fallbacks: dict[str, int] = {}

    # -- scheduling ---------------------------------------------------------

    def schedule_at(self, time: int, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at absolute cycle ``time``; returns a handle."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past ({time} < {self.now})")
        seq = self._seq
        self._seq = seq + 1
        entry = [time, seq, callback, _NO_ARG, self.now, 0]
        self._insert(entry, time)
        return Event(entry, self)

    def schedule_after(self, delay: int, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to fire ``delay`` cycles from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        return self.schedule_at(self.now + delay, callback)

    def call_at(self, time: int, callback: Callable, arg=_NO_ARG) -> None:
        """Hot-path schedule: no handle, no allocation in steady state.

        ``callback`` fires as ``callback(arg)`` (or ``callback()`` when
        ``arg`` is omitted).  The entry storage is recycled through a
        free list; there is no way to cancel.
        """
        now = self.now
        if time < now:
            raise ValueError(f"cannot schedule in the past ({time} < {now})")
        seq = self._seq
        self._seq = seq + 1
        free = self._free
        if free:
            entry = free.pop()
            entry[0] = time
            entry[1] = seq
            entry[2] = callback
            entry[3] = arg
            entry[4] = now
            entry[5] = _F_RECYCLABLE
        else:
            entry = [time, seq, callback, arg, now, _F_RECYCLABLE]
        if time - now < self._wsize:
            idx = time & self._wheel_mask
            bucket = self._wheel[idx]
            if not bucket:
                # A non-empty bucket already has its bit set (bits clear
                # only when a bucket is emptied), so the WHEEL_SIZE-bit
                # bitmap OR is paid once per bucket activation, not once
                # per insert.
                self._occ |= 1 << idx
            bucket.append(entry)
            self._wheel_live += 1
        else:
            entry[5] = _F_RECYCLABLE | _F_IN_HEAP
            heappush(self._heap, entry)
            self._heap_live += 1

    def call_after(self, delay: int, callback: Callable, arg=_NO_ARG) -> None:
        """Hot-path relative schedule; see :meth:`call_at`.

        The :meth:`call_at` body is inlined (minus the cannot-schedule-
        in-the-past check, subsumed by the delay sign check): cores
        schedule nearly every event through here, and the extra frame
        was measurable.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        now = self.now
        time = now + delay
        seq = self._seq
        self._seq = seq + 1
        free = self._free
        if free:
            entry = free.pop()
            entry[0] = time
            entry[1] = seq
            entry[2] = callback
            entry[3] = arg
            entry[4] = now
            entry[5] = _F_RECYCLABLE
        else:
            entry = [time, seq, callback, arg, now, _F_RECYCLABLE]
        if delay < self._wsize:
            idx = time & self._wheel_mask
            bucket = self._wheel[idx]
            if not bucket:
                self._occ |= 1 << idx
            bucket.append(entry)
            self._wheel_live += 1
        else:
            entry[5] = _F_RECYCLABLE | _F_IN_HEAP
            heappush(self._heap, entry)
            self._heap_live += 1

    def _insert(self, entry: list, time: int) -> None:
        """Place a fresh entry in the wheel or the overflow heap."""
        if time - self.now < self._wsize:
            idx = time & self._wheel_mask
            bucket = self._wheel[idx]
            if not bucket:
                self._occ |= 1 << idx
            bucket.append(entry)
            self._wheel_live += 1
        else:
            entry[5] |= _F_IN_HEAP
            heappush(self._heap, entry)
            self._heap_live += 1

    # -- cancellation -------------------------------------------------------

    def _event_cancelled(self, entry: list) -> None:
        """Maintain live counters on cancel; compact mostly-dead storage.

        The exploration driver cancels heavily, so each side is rebuilt
        from the survivors once cancelled entries outnumber live ones
        (amortized O(1) per cancel).
        """
        if entry[5] & _F_IN_HEAP:
            self._heap_live -= 1
            heap = self._heap
            if len(heap) >= self.COMPACT_MIN_SIZE and self._heap_live * 2 < len(heap):
                self._heap = [e for e in heap if e[2] is not None]
                heapify(self._heap)
        else:
            self._wheel_live -= 1
            self._wheel_dead += 1
            if (
                self._wheel_live + self._wheel_dead >= self.COMPACT_MIN_SIZE
                and self._wheel_live < self._wheel_dead
            ):
                self._compact_wheel()

    def _compact_wheel(self) -> None:
        """Drop every dead entry from every bucket; rebuild the bitmap."""
        occ = 0
        free = self._free
        for idx, bucket in enumerate(self._wheel):
            if not bucket:
                continue
            live = [e for e in bucket if e[2] is not None]
            for e in bucket:
                if e[2] is None and e[5] & _F_RECYCLABLE:
                    free.append(e)
            if live:
                bucket[:] = live
                occ |= 1 << idx
            else:
                bucket.clear()
        self._occ = occ
        self._wheel_dead = 0
        # Dead prefixes are gone; restart the drain bucket (only live
        # entries of the drained cycle, if any, remain, now at index 0).
        self._drain_pos = 0

    def _reclaim_bucket(self, idx: int, bucket: list) -> None:
        """Clear a bucket containing only dead entries."""
        free = self._free
        dead = 0
        for e in bucket:
            if e[5] & _F_RECYCLABLE:
                free.append(e)
            else:
                dead += 1
        # Cancelled (public) tombstones leave with the bucket; keep the
        # compaction trigger roughly honest.
        if dead and self._wheel_dead:
            self._wheel_dead = max(0, self._wheel_dead - dead)
        bucket.clear()
        self._occ &= ~(1 << idx)
        if idx == (self._drain_time & self._wheel_mask):
            self._drain_time = -1
            self._drain_pos = 0

    # -- execution ----------------------------------------------------------

    def run(self, until: int | None = None, max_events: int | None = None) -> int:
        """Run events until the queue drains (or limits hit); return event count.

        ``until`` stops the simulation once the next event lies beyond that
        cycle — events scheduled exactly *at* ``until`` still fire — and then
        advances ``now`` to ``until`` (i.e. to ``min(until, next-event
        time)``), so callers interleaving ``run(until=t)`` with
        ``schedule_at`` cannot accidentally schedule before ``t``; a
        ``schedule_at(t - k)`` afterwards raises like any other
        in-the-past schedule.  A stale ``until`` (``until < now``) fires
        nothing and leaves the clock alone.  ``max_events`` bounds the
        number of fired events (a safety net against livelocked workloads)
        and raises — only when a fireable event remains — without touching
        the clock.  With a :attr:`watchdog`, it is polled every
        ``check_interval`` fired events.

        Each iteration locates the frontier and fires it.  Usually the
        frontier is an *epoch*: a whole occupied wheel cycle whose events
        no overflow-heap event can interleave, drained in place.  The
        proof rests on two structural invariants:

        * every live wheel entry lies in ``[now, now + WHEEL_SIZE)``, so
          a bucket holds live entries of exactly one cycle and the next
          occupied bucket pins the next event time ``t``;
        * heap entries at a time ``t`` were necessarily scheduled while
          ``t - now >= WHEEL_SIZE`` — i.e. strictly before any wheel
          entry at ``t`` was scheduled — so their seqs are all smaller,
          and anything pushed *during* the drain lands at
          ``>= t + WHEEL_SIZE``.  Once the heap head is past ``t`` the
          whole cycle belongs to the wheel.

        When the heap head is the frontier instead, it is popped and
        fired alone through the same fire block, and the cause is
        counted: ``heap-due`` (an overflow event — backoff expiry,
        watchdog horizon — precedes the next wheel entry) or
        ``heap-only`` (nothing live in the wheel; the steady state of
        :class:`ReferenceHeapSimulator`).  Either way events fire in
        exactly the canonical (cycle, seq) order.

        An exception escaping a callback propagates unchanged (same type,
        same traceback) but carries a PEP 678 note with
        the event's firing cycle, sequence number, and the cycle at which
        it was scheduled, so a protocol bug deep in a callback can be
        attributed to its scheduling site.
        """
        fired = 0
        batched = 0
        epochs = 0
        watchdog = self.watchdog
        check_interval = countdown = 0
        if watchdog is not None:
            check_interval = watchdog.check_interval
            if check_interval < 1:
                raise ValueError(
                    f"watchdog check_interval must be >= 1, got {check_interval!r}"
                )
            countdown = check_interval
        free = self._free
        heap = self._heap
        wheel = self._wheel
        mask = self._wheel_mask
        fallbacks = self._epoch_fallbacks
        try:
            while True:
                while heap and heap[0][2] is None:
                    e = heappop(heap)
                    if e[5] & _F_RECYCLABLE:  # pragma: no cover - internal entries
                        free.append(e)  # cannot be cancelled; defensive only
                # Locate the next occupied wheel cycle t and the position
                # of its first live entry.
                t = -1
                bucket = None
                pos = 0
                if self._wheel_live:
                    now = self.now
                    while True:
                        occ = self._occ
                        if occ == 0:
                            break
                        base = now & mask
                        # Any live wheel entry lies in [now, now + size),
                        # so the next candidate bucket is the lowest
                        # occupied index >= base, else (wrapping) the
                        # lowest occupied index overall.  Splitting
                        # high/low avoids materializing a rotated copy of
                        # the (WHEEL_SIZE-bit) bitmap.
                        high = occ >> base
                        if high:
                            cand = now + ((high & -high).bit_length() - 1)
                        else:
                            cand = (
                                now + self._wsize - base
                                + ((occ & -occ).bit_length() - 1)
                            )
                        idx = cand & mask
                        bucket = wheel[idx]
                        pos = self._drain_pos if cand == self._drain_time else 0
                        n = len(bucket)
                        while pos < n:
                            if bucket[pos][2] is not None:
                                break
                            pos += 1
                        else:
                            # Nothing live in this bucket: reclaim it (dead
                            # tombstones, possibly from cycles long past)
                            # and drop its occupancy bit, then look again.
                            self._reclaim_bucket(idx, bucket)
                            continue
                        t = cand
                        break
                if heap and (
                    t < 0
                    or heap[0][0] < t
                    or (heap[0][0] == t and heap[0][1] < bucket[pos][1])
                ):
                    e = heap[0]
                    bucket = None
                    frontier = e[0]
                elif t < 0:
                    break
                else:
                    frontier = t
                if until is not None and frontier > until:
                    break
                if max_events is not None and fired >= max_events:
                    # A fireable entry remains; raise before the clock
                    # moves (max_events never touches the clock).
                    raise RuntimeError(
                        f"simulation exceeded max_events={max_events}"
                        f" at cycle {self.now}"
                    )
                if bucket is None:
                    cause = "heap-only" if t < 0 else "heap-due"
                    fallbacks[cause] = fallbacks.get(cause, 0) + 1
                    heappop(heap)
                    self._heap_live -= 1
                    self.now = frontier
                else:
                    # Consumed wheel entries stay in their bucket as
                    # tombstones; the bucket is reclaimed lazily by the
                    # scan once it next lands there and finds nothing
                    # live.  Eager clearing would be wrong: a bucket can
                    # hold a *live* entry for a later wheel rotation
                    # (time = t + k * WHEEL_SIZE, scheduled after a
                    # ``run(until=...)`` clock jump) alongside dead ones.
                    epochs += 1
                    self.now = t
                    self._drain_time = t
                    self._drain_pos = pos
                while True:
                    if bucket is not None:
                        # Next live entry of cycle t.  The cursor and the
                        # length are re-read after every callback: a
                        # cancel inside one can trigger _compact_wheel,
                        # which rewrites the bucket in place and resets
                        # the cursor.
                        pos = self._drain_pos
                        n = len(bucket)
                        while pos < n:
                            e = bucket[pos]
                            if e[2] is not None:
                                break
                            pos += 1
                        else:
                            self._drain_pos = pos
                            break
                        if max_events is not None and fired >= max_events:
                            # Out of budget mid-cycle: the next pass
                            # finds this entry as the frontier and raises.
                            self._drain_pos = pos
                            break
                        self._drain_pos = pos + 1
                        self._wheel_live -= 1
                    callback = e[2]
                    arg = e[3]
                    e[2] = None
                    e[3] = None
                    try:
                        if arg is _NO_ARG:
                            callback()
                        else:
                            callback(arg)
                    except Exception as exc:
                        exc.add_note(
                            f"[sim] while firing event seq={e[1]} at cycle "
                            f"{e[0]} (scheduled at cycle {e[4]})"
                        )
                        raise
                    fired += 1
                    if watchdog is not None:
                        countdown -= 1
                        if countdown == 0:
                            watchdog.check()
                            countdown = check_interval
                    if bucket is None:
                        # A heap entry fires alone; its storage is free
                        # once fired (wheel entries wait for the bucket).
                        if e[5] == (_F_RECYCLABLE | _F_IN_HEAP):
                            free.append(e)
                        break
                    batched += 1
        finally:
            self._epoch_epochs += epochs
            self._epoch_batched += batched
        if until is not None and until > self.now:
            self.now = until
        return fired

    @property
    def epoch_stats(self) -> dict:
        """Epoch-execution counters, accumulated across :meth:`run` calls.

        ``epochs`` — batched cycle drains entered; ``events_batched`` —
        events fired inside them (the remainder of the fired total were
        heap entries fired one at a time); ``spin_polls_elided`` — spin
        probes replaced by closed-form lease ticks (see
        :meth:`repro.protocols.base.CoherenceProtocol.spin_poll_lease`);
        ``fallbacks`` — cause → count of heap entries fired alone.
        """
        return {
            "epochs": self._epoch_epochs,
            "events_batched": self._epoch_batched,
            "spin_polls_elided": self._epoch_spin_elided,
            "fallbacks": dict(sorted(self._epoch_fallbacks.items())),
        }

    @property
    def pending_events(self) -> int:
        """Number of live (not fired, not cancelled) events — O(1)."""
        return self._wheel_live + self._heap_live

    def _retained_entries(self) -> int:
        """Entries physically held by the queue, dead tombstones included.

        Test/debug introspection: compaction keeps this from growing
        unboundedly under cancel storms.
        """
        return len(self._heap) + sum(len(b) for b in self._wheel)


class ReferenceHeapSimulator(Simulator):
    """Pure-heap reference scheduler.

    Routes every event to the overflow heap, bypassing the bucket wheel,
    so :meth:`Simulator.run` fires each event alone through its heap
    path.  The (time, seq) determinism contract makes it produce
    *exactly* the same firing order as the hybrid :class:`Simulator`;
    the golden-run, property, chaos, mc and formal-oracle tests exploit
    that to cross-check the wheel and its batched drain against a
    trivially correct reference.
    """

    def _insert(self, entry: list, time: int) -> None:
        entry[5] |= _F_IN_HEAP
        heappush(self._heap, entry)
        self._heap_live += 1

    def call_at(self, time: int, callback: Callable, arg=_NO_ARG) -> None:
        now = self.now
        if time < now:
            raise ValueError(f"cannot schedule in the past ({time} < {now})")
        seq = self._seq
        self._seq = seq + 1
        free = self._free
        if free:
            entry = free.pop()
            entry[0] = time
            entry[1] = seq
            entry[2] = callback
            entry[3] = arg
            entry[4] = now
            entry[5] = _F_RECYCLABLE | _F_IN_HEAP
        else:
            entry = [time, seq, callback, arg, now, _F_RECYCLABLE | _F_IN_HEAP]
        heappush(self._heap, entry)
        self._heap_live += 1

    def call_after(self, delay: int, callback: Callable, arg=_NO_ARG) -> None:
        # The base class inlines its wheel insert here; route back through
        # the heap-only call_at.
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.call_at(self.now + delay, callback, arg)
