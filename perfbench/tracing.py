"""Per-layer tracing taken from outside the program.

Everything here wraps public entry points of the simulator's packages from
the benchmark's side; no file under ``src/`` knows it is being traced.

* :class:`Recorder` keeps spans in memory: coarse spans (one per cell,
  workload build, simulator run, service request, verification cell) are
  kept individually with their parent; fine-grained boundaries that fire
  millions of times (protocol entry points, L1 methods) are aggregated
  per boundary into a call count, inclusive time and the time their
  child spans covered, so self time is inclusive minus children.
* :func:`instrumented_runner` patches the names ``run_workload`` looks up
  (``make_protocol``, ``Simulator``) and the workload materializer, for
  the duration of a ``with`` block, so that each cell's protocol
  *instance*, its L1 instances, its simulator instance and its workload
  instance get wrapped methods.  Instances, not classes: ``Core``
  compares ``type(protocol)`` attributes to pick its fast paths, and
  those answers must not change under tracing.
* :func:`profile_shares` runs a callable under cProfile and groups self
  time by ``repro/<package>/`` -- the split that public boundaries cannot
  give (scheduler vs core dispatch, the noc/stats code protocols inline).
"""

from __future__ import annotations

import contextlib
import cProfile
import itertools
import pstats
import re
import threading
import time
from collections import defaultdict

#: Protocol entry points the cores call; each is wrapped per instance.
PROTOCOL_ENTRIES = (
    "load",
    "store",
    "rmw",
    "self_invalidate",
    "on_acquire",
    "sync_read_backoff",
    "subscribe_line_change",
)

#: Packages reported by the profiled pass (``repro/<pkg>/``); ``trace``
#: is the access recorder the sanitizer runs on.
PACKAGES = (
    "sim", "cpu", "protocols", "mem", "noc", "stats", "workloads",
    "synclib", "harness", "mc", "formal", "sanitize", "trace",
)

_now = time.perf_counter_ns


class Recorder:
    """In-memory span store, written out once when the run ends."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._local = threading.local()  # per-thread stack of open spans
        # boundary -> [calls, inclusive ns, child ns]
        self.calls: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        self._child_ns: list[int] = []  # child-time accumulators of open calls
        self._ids = itertools.count()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """A coarse span: name, start, end, and the span that caused it."""
        stack = self._local.__dict__.setdefault("open", [])
        record = {
            "name": name,
            "parent": stack[-1]["id"] if stack else None,
            "start_ns": _now(),
            **attrs,
        }
        # list.append is atomic, so threads may share the span list; ids
        # come from a lock-free counter for the same reason.
        record["id"] = next(self._ids)
        self.spans.append(record)
        stack.append(record)
        try:
            yield record
        finally:
            record["end_ns"] = _now()
            stack.pop()

    def wrap(self, name: str, fn):
        """``fn`` timed as one aggregated boundary ``name``.  For
        single-threaded callers: nesting is tracked on one shared stack."""
        stats = self.calls[name]
        child_stack = self._child_ns

        def timed(*args, **kwargs):
            child_stack.append(0)
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _now() - start
                children = child_stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += children
                if child_stack:
                    child_stack[-1] += elapsed

        return timed

    def durations(self, name: str) -> list[float]:
        """Seconds of every finished span called ``name``."""
        return [
            (s["end_ns"] - s["start_ns"]) / 1e9
            for s in self.spans if s["name"] == name and "end_ns" in s
        ]

    def span_seconds(self, name: str) -> float:
        return sum(self.durations(name))

    def as_dict(self) -> dict:
        return {
            "spans": self.spans,
            "calls": {
                name: {"calls": c, "inclusive_ns": inc, "child_ns": child}
                for name, (c, inc, child) in sorted(self.calls.items())
            },
        }


def _wrap_instance_methods(recorder: Recorder, obj, prefix: str, names) -> None:
    for name in names:
        method = getattr(obj, name, None)
        if callable(method):
            setattr(obj, name, recorder.wrap(f"{prefix}.{name}", method))


def _public_methods(obj) -> list[str]:
    cls = type(obj)
    return [
        name for name in dir(cls)
        if not name.startswith("_") and callable(getattr(cls, name, None))
        and not isinstance(getattr(cls, name), type)
    ]


def wrap_protocol(recorder: Recorder, protocol) -> None:
    """Wrap one protocol instance's entry points and its L1s' public
    methods (instance attributes shadow the class functions)."""
    _wrap_instance_methods(recorder, protocol, "protocols", PROTOCOL_ENTRIES)
    for l1 in getattr(protocol, "l1s", ()) or ():
        _wrap_instance_methods(recorder, l1, "mem", _public_methods(l1))


@contextlib.contextmanager
def instrumented_runner(recorder: Recorder, events: list):
    """Trace every cell run through ``repro.harness.parallel.execute_spec``
    inside the block.  ``events`` receives each ``Simulator.run`` return
    value (events fired), in cell order."""
    from repro.harness import parallel, runner

    real_make_protocol = runner.make_protocol
    real_simulator = runner.Simulator
    real_materialize = parallel.materialize_workload

    def make_protocol(*args, **kwargs):
        protocol = real_make_protocol(*args, **kwargs)
        wrap_protocol(recorder, protocol)
        return protocol

    def simulator():
        sim = real_simulator()
        run = sim.run

        def traced_run(*args, **kwargs):
            with recorder.span("sim.run"):
                fired = run(*args, **kwargs)
            events.append(fired)
            return fired

        sim.run = traced_run
        return sim

    def materialize(descriptor):
        workload = real_materialize(descriptor)
        build = workload.build

        def traced_build(*args, **kwargs):
            with recorder.span("workloads.build"):
                return build(*args, **kwargs)

        workload.build = traced_build
        return workload

    runner.make_protocol = make_protocol
    runner.Simulator = simulator
    parallel.materialize_workload = materialize
    try:
        yield
    finally:
        runner.make_protocol = real_make_protocol
        runner.Simulator = real_simulator
        parallel.materialize_workload = real_materialize


_PKG_RE = re.compile(r"repro[/\\]([A-Za-z_]+)[/\\]")


def profile_shares(fn):
    """Run ``fn()`` under cProfile; return ``(fn's result, {package: share
    of total self time})`` for every package in :data:`PACKAGES`."""
    profiler = cProfile.Profile()
    result = profiler.runcall(fn)
    stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
    by_pkg: dict[str, float] = defaultdict(float)
    total = 0.0
    for (filename, _line, _func), (_cc, _nc, tottime, _ct, _callers) in stats.items():
        total += tottime
        match = _PKG_RE.search(filename)
        by_pkg[match.group(1) if match else "other"] += tottime
    shares = {pkg: (by_pkg.get(pkg, 0.0) / total if total else 0.0) for pkg in PACKAGES}
    return result, shares
