"""Shared pieces of the benchmark: failure accounting, statistics, timed
passes over a fixed cell set, result records, the host fingerprint and
set-up timing.  Timed phases read the host's speed with a
:class:`~perfbench.hostspeed.Gauge`; the end-to-end times are host
seconds scaled to the reference speed."""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

from perfbench.hostspeed import Gauge

ROOT = Path(__file__).resolve().parent.parent
EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
OUT_DIR = ROOT / ".perfbench_out"


# -- failure accounting ---------------------------------------------------------


@dataclass
class Tally:
    """Attempted and failed operations of one run.

    Every cell, job or verification item is one operation.  A failure is
    recorded with a reason and never dropped: ``failed`` feeds the result
    line's ``failed`` count and ``correct`` flag.
    """

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def ok(self) -> None:
        with self._lock:
            self.attempted += 1

    def fail(self, reason: str) -> None:
        with self._lock:
            self.attempted += 1
            self.failures.append(reason)

    def flag(self, reason: str) -> None:
        """Mark an already-counted operation as failed (a later check of
        an output that was first counted as a success); at most once per
        operation, so ``failed`` never exceeds ``attempted``."""
        with self._lock:
            self.failures.append(reason)


# -- statistics -------------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


def tail_percentile(samples, q: float, min_beyond: int = 10) -> float:
    """The ``q``-th percentile (0 < q < 100) of ``samples``, nearest-rank.

    Raises ``ValueError`` unless at least ``min_beyond`` samples lie
    strictly beyond the rank the percentile picks: a p90 needs at least
    100 samples, so that the tail it summarizes is itself measured.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    rank = max(1, -(-n * q // 100))  # ceil(n * q / 100), 1-based
    rank = int(rank)
    if n - rank < min_beyond:
        raise ValueError(
            f"p{q:g} of {n} samples has only {n - rank} beyond it "
            f"(need {min_beyond})"
        )
    return float(ordered[rank - 1])


def seeded_order(items: list, seed: int) -> list:
    """``items`` in a seed-determined order (the same seed, the same order)."""
    shuffled = list(items)
    random.Random(seed).shuffle(shuffled)
    return shuffled


# -- timed passes -------------------------------------------------------------------

#: Fewest passes a timed run makes, so that ``pass_s`` is a median.
MIN_PASSES = 3


class CellFailed(Exception):
    """A cell ran to completion but its outcome reports a failure (an mc
    violation, a formal error finding, a sanitize finding)."""


@dataclass
class PassResult:
    """One pass over a cell set."""

    #: host seconds of the pass's cells (run and checked), the gauge's
    #: reference chunks excluded
    wall_s: float = 0.0
    #: reference seconds per host second over the pass (1.0 when ungauged)
    speed: float = 1.0
    #: host seconds of every attempted cell, failed ones included
    cell_s: dict = field(default_factory=dict)
    #: cell id -> digest of its checked record, for cells that succeeded
    digests: dict = field(default_factory=dict)
    outcomes: dict = field(default_factory=dict)
    #: cell id -> what a later pass of the same run must repeat exactly
    repeats: dict = field(default_factory=dict)


def run_pass(
    cells: list,
    tally: Tally,
    expected: dict | None,
    execute: Callable,
    check: Callable,
    reference: PassResult | None = None,
    gauge: Gauge | None = None,
) -> PassResult:
    """Run every cell (anything with a ``cell_id``) once; each is one
    operation.  With a ``gauge``, reference chunks run from a timer while
    the cells run, no chunk time is counted, and the pass records the
    host's speed.

    ``execute(cell)`` returns the cell's outcome.  ``check(cell, outcome)``
    returns ``(record, extra)``: ``record`` is compared, as a digest, with
    the recorded one in ``expected``; the digest and ``extra`` must equal
    those of ``reference`` (an earlier pass of the same run).  It raises
    :class:`CellFailed` for an outcome that reports a failure.  A cell
    that raises is timed and counted as failed, never dropped.
    """
    out = PassResult()
    if gauge is None:
        _run_cells(cells, out, tally, expected, execute, check, reference, time.perf_counter)
        return out
    with gauge.sampling():
        _run_cells(cells, out, tally, expected, execute, check, reference, gauge.clock)
    out.speed = gauge.speed()
    return out


def _run_cells(cells, out: PassResult, tally: Tally, expected, execute, check, reference,
               clock: Callable) -> None:
    for cell in cells:
        start = clock()
        _run_cell(cell, out, tally, expected, execute, check, reference, clock)
        out.wall_s += clock() - start


def _run_cell(cell, out: PassResult, tally: Tally, expected, execute, check, reference,
              clock: Callable) -> None:
    cell_id = cell.cell_id
    t0 = clock()
    try:
        outcome = execute(cell)
    except Exception as exc:  # every cell error is a counted failure
        out.cell_s[cell_id] = clock() - t0
        tally.fail(f"{cell_id}: {type(exc).__name__}: {exc}")
        return
    out.cell_s[cell_id] = clock() - t0
    try:
        record, extra = check(cell, outcome)
    except CellFailed as exc:
        tally.fail(f"{cell_id}: {exc}")
        return
    tally.ok()
    value = digest(record)
    out.digests[cell_id] = value
    out.outcomes[cell_id] = outcome
    out.repeats[cell_id] = (value, extra)
    problem = expected_problem(expected, cell_id, value)
    if problem is None and reference is not None and cell_id in reference.repeats:
        if reference.repeats[cell_id] != (value, extra):
            problem = f"{cell_id}: outcome changed between passes"
    if problem is not None:
        tally.flag(problem)


@contextlib.contextmanager
def frozen_heap():
    """Move every object alive now -- imported modules, the cell list,
    recorded summaries -- out of the cycle collector's reach while the
    block runs, as a server does after start-up.  A full collection then
    costs what the cells' own objects cost, not what the benchmark holds,
    and one landing in a millisecond cell no longer multiplies its time."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def timed_passes(
    one_pass: Callable, cells: list, seed: int, seconds: float
) -> list[PassResult]:
    """Call ``one_pass(order, reference, gauge)`` with a fresh
    :class:`Gauge` until another pass would overrun ``seconds``: at least
    :data:`MIN_PASSES` passes, and enough that the pooled per-cell times
    hold 100 samples.  Each pass runs ``cells`` in another order, drawn
    from ``seed``, so that what one cell leaves behind for the next (heap,
    caches) is averaged over several orders in every run.  ``reference``
    is the first pass, which every later one must repeat.  A timed pass
    keeps no outcomes, so every pass runs on a heap of the same size."""
    min_passes = max(MIN_PASSES, -(-100 // len(cells)))
    rng = random.Random(seed)
    passes: list[PassResult] = []
    with frozen_heap():
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            order = rng.sample(cells, len(cells))
            passes.append(one_pass(order, passes[0] if passes else None, Gauge()))
            passes[-1].outcomes.clear()
            now = time.perf_counter()
            if len(passes) >= min_passes and (now - start) + (now - t0) > seconds:
                return passes


def end_to_end(n_cells: int, passes: list[PassResult], setup_s: float) -> dict:
    """The end-to-end metrics of one timed run of a fixed cell set: host
    times scaled by each pass's speed reading."""
    pass_s = median([p.wall_s * p.speed for p in passes])
    cell_s = [t * p.speed for p in passes for t in p.cell_s.values()]
    return {
        "pass_s": pass_s,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "cells_per_s": n_cells / pass_s,
        "job_s_p50": median(cell_s),
        "job_s_p90": tail_percentile(cell_s, 90),
    }


def pass_detail(passes: list[PassResult], sim_seed: int) -> dict:
    """What a timed run writes beside its metrics: raw host seconds and
    the speed reading of every pass."""
    return {
        "host_pass_s": [p.wall_s for p in passes],
        "speed": [p.speed for p in passes],
        "sim_seed": sim_seed,
    }


# -- simulated-result records -----------------------------------------------------


def result_record(result) -> dict:
    """The simulated summary a cell must reproduce exactly: cycles, time
    and traffic breakdowns, and every protocol counter."""
    record = result.summary()
    record["counters"] = dict(sorted(result.counters.as_dict().items()))
    return json.loads(json.dumps(record))


def digest(record) -> str:
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:20]


def expected_path(workload: str, seed: int) -> Path:
    return EXPECTED_DIR / f"{workload}-seed{seed}.json"


def load_expected(workload: str, seed: int) -> dict:
    """Recorded ``{cell id: digest}`` for this workload and simulation
    seed.  Every seed a run can use has a recording; ``--record`` makes
    one."""
    path = expected_path(workload, seed)
    if not path.exists():
        raise FileNotFoundError(
            f"no recorded summaries for {workload} at simulation seed {seed}: "
            f"{path} (make them with --record)"
        )
    return json.loads(path.read_text())["cells"]


def write_expected(workload: str, seed: int, cells: dict) -> Path:
    path = expected_path(workload, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"workload": workload, "seed": seed, "cells": dict(sorted(cells.items()))}
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path


def expected_problem(expected: dict | None, cell_id: str, value: str) -> str | None:
    """Why a cell's digest disagrees with the recorded one, or None."""
    if expected is None:
        return None
    want = expected.get(cell_id)
    if want is None:
        return f"{cell_id}: no recorded summary"
    if want != value:
        return f"{cell_id}: summary {value} != recorded {want}"
    return None


# -- host ----------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def fingerprint(seed: int) -> dict:
    """Host fingerprint recorded beside every result."""
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "commit": _commit(),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def src_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def time_imports(modules: list[str], repeats: int = 11) -> float:
    """Median seconds for a fresh interpreter to import ``modules``: the
    set-up a user of the batch workloads pays on every invocation, scaled
    to the reference speed."""
    code = "; ".join(f"import {name}" for name in modules)
    env = src_env()
    gauge = Gauge()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        # No timeout: with one, the wait polls with sleeps of up to 50 ms,
        # which would quantize the measurement.
        subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
            stdout=subprocess.DEVNULL,
        )
        samples.append(time.perf_counter() - start)
        gauge.keep_up(sum(samples))
    return median(samples) * gauge.speed()


def write_out(name: str, payload: dict) -> Path:
    """Write a run's detail record (fingerprint, spans) under the
    checkout's ignored output directory."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / name
    path.write_text(json.dumps(payload, indent=1, sort_keys=True, default=str) + "\n")
    return path
