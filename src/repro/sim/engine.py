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

Scheduling goes through :meth:`Simulator.call_at` /
:meth:`Simulator.call_after`, which take a prebound ``(callback, arg)``
pair, return no handle, and recycle entry storage through a free list —
zero allocations per event in steady state.

:meth:`Simulator.run` is the one run loop: it drains each uncontended
wheel cycle in place (an *epoch*) and fires an overflow-heap entry on its
own whenever one is the frontier.

Free-list lifetime rule: no entry is ever handed out (no handle → no
external alias), so an entry is recycled as soon as the engine drops its
last internal reference: immediately after firing for heap entries, and
once its cycle is fully drained for wheel entries.
"""

from __future__ import annotations

from heapq import heappop, heappush
from collections.abc import Callable

#: Sentinel ``arg`` meaning "invoke the callback with no argument".
_NO_ARG = object()

# Entry layout (a plain list):
#   [0] time          absolute firing cycle
#   [1] seq           global schedule order (ties within a cycle)
#   [2] callback      None once fired (drops the reference early)
#   [3] arg           _NO_ARG, or the single positional argument
#   [4] scheduled_at  cycle the entry was created (for error notes)


class Simulator:
    """A minimal deterministic discrete-event simulator.

    >>> sim = Simulator()
    >>> fired = []
    >>> sim.call_at(10, lambda: fired.append(sim.now))
    >>> sim.run()
    1
    >>> fired
    [10]
    """

    #: Cycles covered by the bucket wheel; events further out go to the
    #: heap.  Must be a power of two (bucket index is ``time & mask``).
    WHEEL_SIZE = 1024

    def __init__(self) -> None:
        size = self.WHEEL_SIZE
        # Instance copy of the class constant: the scheduling hot path
        # reads it every call, and an instance attribute resolves without
        # the failed-instance-then-type lookup.
        self._wsize = size
        self._wheel: list[list] = [[] for _ in range(size)]
        self._wheel_mask = size - 1
        self._occ = 0  # bitmap: bit i set when bucket i is non-empty
        self._heap: list[list] = []
        self._seq = 0
        self._free: list[list] = []  # recycled entries
        # Entries already fired from the bucket of cycle ``now``.  Non-zero
        # only while that cycle is being drained, or after a run stopped
        # part-way through it (max_events, or an exception); every other
        # bucket holds only unfired entries.
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

    def call_at(self, time: int, callback: Callable, arg=_NO_ARG) -> None:
        """Schedule ``callback`` at absolute cycle ``time``; no handle.

        ``callback`` fires as ``callback(arg)`` (or ``callback()`` when
        ``arg`` is omitted).  The entry storage is recycled through a
        free list, so steady-state scheduling allocates nothing.
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
        else:
            entry = [time, seq, callback, arg, now]
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
        else:
            heappush(self._heap, entry)

    def call_after(self, delay: int, callback: Callable, arg=_NO_ARG) -> None:
        """Schedule ``callback`` ``delay`` cycles from now; see :meth:`call_at`.

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
        else:
            entry = [time, seq, callback, arg, now]
        if delay < self._wsize:
            idx = time & self._wheel_mask
            bucket = self._wheel[idx]
            if not bucket:
                self._occ |= 1 << idx
            bucket.append(entry)
        else:
            heappush(self._heap, entry)

    def _clear_drained(self, idx: int) -> None:
        """Recycle the fired entries of drained bucket ``idx`` and free it."""
        bucket = self._wheel[idx]
        self._free.extend(bucket)
        bucket.clear()
        self._occ &= ~(1 << idx)
        self._drain_pos = 0

    # -- execution ----------------------------------------------------------

    def run(self, max_events: int | None = None) -> int:
        """Run events until the queue drains; return the fired-event count.

        ``max_events`` bounds the number of fired events (a safety net
        against livelocked workloads) and raises — only when a fireable
        event remains — without touching the clock.  With a
        :attr:`watchdog`, it is polled every ``check_interval`` fired
        events.

        Each iteration locates the frontier and fires it.  Usually the
        frontier is an *epoch*: a whole occupied wheel cycle whose events
        no overflow-heap event can interleave, drained in place.  The
        proof rests on two structural invariants:

        * every wheel entry lies in ``[now, now + WHEEL_SIZE)``, so a
          bucket holds entries of exactly one cycle and the next
          occupied bucket pins the next event time ``t``;
        * heap entries at a time ``t`` were necessarily scheduled while
          ``t - now >= WHEEL_SIZE`` — i.e. strictly before any wheel
          entry at ``t`` was scheduled — so their seqs are all smaller,
          and anything pushed *during* the drain lands at
          ``>= t + WHEEL_SIZE``.  Once the heap head is past ``t`` the
          whole cycle belongs to the wheel.

        The bucket of cycle ``t`` is therefore cleared (its entries
        recycled, its occupancy bit dropped) the moment it is fully
        drained: nothing in it can belong to a later cycle.

        When the heap head is the frontier instead, it is popped and
        fired alone through the same fire block, and the cause is
        counted: ``heap-due`` (an overflow event — backoff expiry,
        watchdog horizon — precedes the next wheel entry) or
        ``heap-only`` (the wheel is empty; the steady state of
        :class:`ReferenceHeapSimulator`).  Either way events fire in
        exactly the canonical (cycle, seq) order.

        An exception escaping a callback propagates unchanged (same type,
        same traceback) but carries a PEP 678 note with
        the event's firing cycle, sequence number, and the cycle at which
        it was scheduled, so a protocol bug deep in a callback can be
        attributed to its scheduling site.  The engine stays resumable:
        a later :meth:`run` fires the remaining events in order.
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
                # Locate the next occupied wheel cycle t.  Every wheel
                # entry lies in [now, now + size), so its bucket is the
                # lowest occupied index >= now's, else (wrapping) the
                # lowest occupied index overall.  Splitting high/low
                # avoids materializing a rotated copy of the
                # (WHEEL_SIZE-bit) bitmap.  Only the bucket of cycle now
                # can hold fired entries, and it is the one found first.
                t = -1
                bucket = None
                occ = self._occ
                if occ:
                    now = self.now
                    base = now & mask
                    high = occ >> base
                    if high:
                        t = now + ((high & -high).bit_length() - 1)
                    else:
                        t = now + self._wsize - base + ((occ & -occ).bit_length() - 1)
                    bucket = wheel[t & mask]
                if heap and (
                    t < 0
                    or heap[0][0] < t
                    or (heap[0][0] == t and heap[0][1] < bucket[self._drain_pos][1])
                ):
                    bucket = None
                elif t < 0:
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
                    e = heappop(heap)
                    self.now = e[0]
                else:
                    epochs += 1
                    self.now = t
                    pos = self._drain_pos
                while True:
                    if bucket is not None:
                        # Next entry of cycle t.  The length is re-read
                        # after every callback: a same-cycle schedule
                        # appends to this bucket.
                        if pos == len(bucket):
                            self._clear_drained(t & mask)
                            break
                        if max_events is not None and fired >= max_events:
                            # Out of budget mid-cycle: the next pass
                            # finds this entry as the frontier and raises.
                            break
                        e = bucket[pos]
                        pos += 1
                        self._drain_pos = pos
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
                        # once fired.
                        free.append(e)
                        break
                    batched += 1
        finally:
            self._epoch_epochs += epochs
            self._epoch_batched += batched
            idx = self.now & mask
            if self._drain_pos and self._drain_pos == len(wheel[idx]):
                # A callback or the watchdog raised on the last entry of
                # cycle now: clear its bucket as a finished drain would.
                self._clear_drained(idx)
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
        """Number of scheduled events not yet fired (read by hang dumps)."""
        return len(self._heap) + sum(map(len, self._wheel)) - self._drain_pos


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
        else:
            entry = [time, seq, callback, arg, now]
        heappush(self._heap, entry)

    def call_after(self, delay: int, callback: Callable, arg=_NO_ARG) -> None:
        # The base class inlines its wheel insert here; route back through
        # the heap-only call_at.
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.call_at(self.now + delay, callback, arg)
