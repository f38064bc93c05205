"""Host-speed gauge: a fixed reference computation timed alongside the
measured work.

A shared machine changes speed by tens of percent over minutes as other
tenants' load comes and goes, so the same code reads that much slower or
faster from one run to the next.  Process CPU time does not help: steal
time is under 1% of it on such a host, and CPU time tracks wall time.
So every timed phase runs short chunks of a reference computation
alongside its work -- on the in-process workloads a chunk every 90 ms
from a timer, in the middle of a cell if need be; between a service
run's rounds and between set-up repeats, in the gaps -- and scales its
host seconds to the reference speed::

    scaled_s = host_s * REF_CHUNK_S / (host seconds per chunk, same phase)

The reference computation belongs to the benchmark and never changes
with the simulator.  It mixes the two kinds of work the simulator's host
time is made of: updates scattered over a dict of 100k ints (memory
latency beyond the private caches) and a miniature event-driven cache
model (a heap, method calls, small objects, dicts and sets).  Chunks run
with the cycle collector paused, so the reading does not depend on how
many objects the measured cells keep alive, and the reference data holds
no object the collector tracks, so it adds nothing to the cells' own
collections.  On a 2-vCPU Xeon VM, over the 30-34 passes of ten runs of
each in-process workload, log pass time followed log chunk time with
slope 1.1-1.4 and correlation 0.96-0.97.
"""

from __future__ import annotations

import contextlib
import gc
import heapq
import random
import signal
import time

#: Host seconds one chunk takes at the reference speed, about the median
#: of 200 chunks on a 2-vCPU Xeon VM, Python 3.11.  A fixed constant, so
#: scaled times of different runs compare directly.
REF_CHUNK_S = 0.0090
#: Chunks take about this share of the measured time.
SHARE = 0.1
#: Host seconds between timer-driven chunks: one chunk per
#: ``REF_CHUNK_S / SHARE`` of measured time.
PERIOD_S = REF_CHUNK_S / SHARE
#: Fewest chunks behind a speed reading.
MIN_CHUNKS = 24


class _Line:
    __slots__ = ("tag", "valid")

    def __init__(self, tag: int) -> None:
        self.tag = tag
        self.valid = True


class _Cache:
    """A 64-set, 4-way cache of line tags, FIFO replacement."""

    def __init__(self) -> None:
        self.sets = [{} for _ in range(64)]
        self.hits = self.misses = 0

    def lookup(self, tag: int) -> bool:
        line = self.sets[tag & 63].get(tag)
        if line is not None and line.valid:
            self.hits += 1
            return True
        self.misses += 1
        return False

    def fill(self, tag: int) -> None:
        ways = self.sets[tag & 63]
        if len(ways) >= 4:
            ways.pop(next(iter(ways)))
        ways[tag] = _Line(tag)

    def invalidate(self, tag: int) -> None:
        line = self.sets[tag & 63].get(tag)
        if line is not None:
            line.valid = False


class _Reference:
    """The reference computation; its state stays bounded, so every
    chunk after the first does the same kind of work."""

    CORES = 16
    EVENTS = 1250  # per chunk
    LOOKUPS = 2000  # per chunk

    def __init__(self) -> None:
        rng = random.Random(1)
        keys = list(range(100_000))
        rng.shuffle(keys)
        self.items = {k: k * 3 for k in keys}
        self.keys = tuple(keys)
        self.pos = 0
        self.rng = random.Random(7)
        self.caches = [_Cache() for _ in range(self.CORES)]
        self.sharers: dict[int, set] = {}
        self.queue: list = []
        self.seq = self.now = 0
        for core in range(self.CORES):
            self._schedule(core, core)
        self.chunk()  # warm

    def _schedule(self, delay: int, core: int) -> None:
        self.seq += 1
        heapq.heappush(self.queue, (self.now + delay, self.seq, core))

    def _access(self, core: int) -> int:
        tag = self.rng.randrange(1024)
        cache = self.caches[core]
        if cache.lookup(tag):
            return 1
        sharers = self.sharers.setdefault(tag, set())
        if self.rng.random() < 0.3:
            for other in sorted(sharers):
                if other != core:
                    self.caches[other].invalidate(tag)
            sharers.clear()
        sharers.add(core)
        cache.fill(tag)
        return 20

    def chunk(self) -> int:
        keys, items, n = self.keys, self.items, len(self.keys)
        total, top = 0, []
        for i in range(self.LOOKUPS):
            key = keys[(self.pos + i * 7919) % n]
            value = items[key] + 1
            items[key] = value
            total += key
            heapq.heappush(top, (value, i))
            if len(top) > 64:
                heapq.heappop(top)
        self.pos = (self.pos + self.LOOKUPS) % n
        for _ in range(self.EVENTS):
            self.now, _, core = heapq.heappop(self.queue)
            self._schedule(self._access(core), core)
        return total


_REFERENCE: list[_Reference] = []


def _reference() -> _Reference:
    if not _REFERENCE:
        _REFERENCE.append(_Reference())
    return _REFERENCE[0]


class Gauge:
    """Reads the host's speed over one timed phase.

    Two ways to sample it: inside :meth:`sampling`, a wall-clock timer
    runs one reference chunk every :data:`PERIOD_S` seconds, in the
    middle of whatever the measured code is doing, so long cells are
    sampled while they run; :meth:`keep_up` instead runs chunks between
    pieces of measured work (for work done by a child process, which a
    chunk in this process would compete with).  Either way chunk time is
    never measured time: :meth:`clock` stops while a chunk runs.
    """

    def __init__(self) -> None:
        self.reference = _reference()
        self.chunk_s = 0.0
        self.chunks = 0
        self._busy = False

    def _one(self, *_signal) -> None:
        if self._busy:  # the timer fired during a chunk: skip, never nest
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        self.reference.chunk()
        self.chunk_s += time.perf_counter() - start
        if collecting:
            gc.enable()
        self.chunks += 1
        self._busy = False

    def clock(self) -> float:
        """Host seconds, less the time chunks have taken."""
        while True:
            before = self.chunk_s
            now = time.perf_counter()
            if self.chunk_s == before:  # no chunk ran in between
                return now - before

    @contextlib.contextmanager
    def sampling(self):
        """Run a chunk every :data:`PERIOD_S` host seconds while the block
        runs (in the main thread, between the measured code's bytecodes)."""
        previous = signal.signal(signal.SIGALRM, self._one)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def keep_up(self, measured_s: float) -> None:
        """Run chunks until they have taken :data:`SHARE` of
        ``measured_s``, the host seconds measured so far."""
        while self.chunk_s < SHARE * measured_s:
            self._one()

    def speed(self) -> float:
        """Reference seconds per host second over the phase (above 1 when
        the host runs faster than the reference)."""
        while self.chunks < MIN_CHUNKS:
            self._one()
        return REF_CHUNK_S * self.chunks / self.chunk_s
