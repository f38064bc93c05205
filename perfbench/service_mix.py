"""The ``service_mix`` workload: the sweep job server under a closed loop.

A ``serve`` subprocess runs with at most ``nproc`` workers and a fresh
cache directory.  This process drives it the way the repo's own client,
the ``submit`` target, does: every job is one kernel-family sweep built by
that target's ``_submit_cells`` -- what ``submit --sweep-family F --names
A B`` posts: two kernels of a family x the default protocols, 16 cores,
one kernel iteration (ten cells).  :data:`CLIENTS` client
threads run a closed loop in rounds; in each round every thread submits
one job, polls it at a fixed interval until it settles, and waits for the
others.  Rounds follow :data:`ROUND_PLAN`:

* ``fresh``: every thread submits the same never-submitted sweep at once.
  The server resolves a whole submission at a time, so the first one to
  arrive simulates every cell (source ``run``) and the others attach to
  it (``dedupe``), or hit the cache for cells that have already finished.
* ``resubmit``: every thread submits a sweep an earlier round of this
  run completed, so every cell is served by the cache (``cache``).

The fresh sweeps come from a fixed pool (every family's kernels, two at a
time, at :data:`POOL_SEEDS` simulation seeds) whose summaries are recorded in
``perfbench/expected/``; ``--seed`` sets the order in which the pool is
used and which sweeps are resubmitted.  Each cell costs milliseconds, so
HTTP, pickling, the worker pool, the supervisor and the result cache
carry most of the host time.

Pass times and job latencies are scaled to the reference host speed by
one reading of the host-speed gauge (:mod:`perfbench.hostspeed`) for the
whole run, taken between rounds while the server is idle.  Not one per
pass: a job spends much of its latency waiting (status polls, HTTP round
trips, hand-offs between processes), so from pass to pass its time
follows the gauge only in part (over 25 passes on a 2-vCPU Xeon VM, log
pass time rose 0.43 per unit of log gauge slowdown, against 1.1-1.4 on
the in-process workloads).  The drift between runs, over minutes, shows
in both: over eight runs the raw median pass time spread by 0.10 between
quartiles and the scaled one by 0.05.  The set-up -- interpreter start,
imports, pool spawn -- is scaled like every other workload's.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from argparse import Namespace
from dataclasses import dataclass, field

from perfbench import tracing
from perfbench.batch import KERNEL_FAMILIES
from perfbench.common import (
    OUT_DIR,
    ROOT,
    Tally,
    digest,
    expected_problem,
    frozen_heap,
    load_expected,
    median,
    peak_rss_mb,
    seeded_order,
    src_env,
    tail_percentile,
    write_expected,
)
from perfbench.hostspeed import Gauge

#: Two threads, whatever ``nproc``: a duplicate needs a second submitter.
CLIENTS = 2
#: One cycle of rounds; a pass repeats it :data:`CYCLES_PER_PASS` times.
ROUND_PLAN = ("fresh", "fresh", "resubmit")
CYCLES_PER_PASS = 6
JOBS_PER_PASS = CLIENTS * len(ROUND_PLAN) * CYCLES_PER_PASS
#: A run's job latencies hold at least this many samples, so that a p90
#: has ten samples beyond it.
MIN_JOBS = 100
#: Share of jobs per kind: the first submitter of a fresh sweep
#: (``run``), the other submitters of it (``dedupe``, or ``cache`` for a
#: cell that finished before they arrived), and resubmitted sweeps
#: (``cache``).
STATED_MIX = {
    "run": ROUND_PLAN.count("fresh") / len(ROUND_PLAN) / CLIENTS,
    "duplicate": ROUND_PLAN.count("fresh") / len(ROUND_PLAN) * (CLIENTS - 1) / CLIENTS,
    "resubmit": ROUND_PLAN.count("resubmit") / len(ROUND_PLAN),
}
SOURCES = ("run", "dedupe", "cache")
POLL_S = 0.01  # fixed status-poll interval (no backoff: it would quantize latency)
SWEEP_KERNELS = 2
CELL_CORES = 16
CELL_SCALE = 0.01
#: Simulation seeds of the pool's sweeps (the held-out pool: ``--sim-seed 2``).
POOL_SEEDS = 8
DEFAULT_SIM_SEED = 1
SETUP_REPEATS = 3
SETUP_POLL_S = 0.002  # finer than POLL_S: set-up is timed to its end


def _workers() -> int:
    return max(1, min(2, os.cpu_count() or 1))


@dataclass(frozen=True)
class Sweep:
    family: str
    names: tuple[str, ...]
    seed: int

    def cells(self) -> list[tuple[str, object]]:
        """(cell id, RunSpec) of every cell, built as ``submit`` builds
        them."""
        from repro.harness.cli import _submit_cells

        args = Namespace(
            sweep_family=self.family, names=list(self.names), protocols=None,
            cores=[CELL_CORES], scale=CELL_SCALE, seed=self.seed,
        )
        return [
            (f"{self.family}/{spec.workload[2]}x{spec.protocol}#{self.seed}", spec)
            for spec in _submit_cells(args)
        ]


def _kernel_pairs(family: str) -> list[tuple[str, ...]]:
    from repro.workloads.registry import kernel_names

    names = kernel_names(family)
    return [tuple(names[i:i + SWEEP_KERNELS]) for i in range(0, len(names), SWEEP_KERNELS)]


def pool(sim_seed: int) -> list[Sweep]:
    """The recorded fresh sweeps of one simulation seed."""
    return [
        Sweep(family, names, sim_seed * 1000 + k)
        for k in range(1, POOL_SEEDS + 1)
        for family in KERNEL_FAMILIES
        for names in _kernel_pairs(family)
    ]


def warm_sweep(sim_seed: int, attempt: int) -> Sweep:
    """A sweep outside the pool, so set-up never caches a pool cell."""
    family = KERNEL_FAMILIES[0]
    return Sweep(family, _kernel_pairs(family)[0], sim_seed * 1000 + 900 + attempt)


# -- the server -------------------------------------------------------------------


class Server:
    """One ``serve`` subprocess with a fresh cache directory."""

    def __init__(self, tag: str) -> None:
        self.cache_dir = OUT_DIR / f"service-cache-{os.getpid()}-{tag}"
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.cache_dir.mkdir(parents=True)
        self.log = open(self.cache_dir.with_suffix(".log"), "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.harness.cli", "serve", "--port", "0",
             "--workers", str(_workers()), "--cache-dir", str(self.cache_dir)],
            cwd=ROOT, env=src_env(), stdout=subprocess.PIPE, stderr=self.log,
            text=True,
        )
        line = self.proc.stdout.readline()
        match = re.search(r"http://([\d.]+):(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))

    def client(self):
        from repro.service.client import ServiceClient

        return ServiceClient(self.host, self.port, timeout=60.0)

    def rss_mb(self) -> float:
        """Peak resident set of the server and its worker processes."""
        pids = [self.proc.pid]
        try:
            for task in os.listdir(f"/proc/{self.proc.pid}/task"):
                with open(f"/proc/{self.proc.pid}/task/{task}/children") as fh:
                    pids += [int(p) for p in fh.read().split()]
        except OSError:
            pass
        total_kib = 0
        for pid in pids:
            try:
                with open(f"/proc/{pid}/status") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            total_kib += int(line.split()[1])
            except OSError:
                continue
        return total_kib / 1024.0

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.stdout.close()
        self.log.close()
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.cache_dir.with_suffix(".log").unlink(missing_ok=True)


# -- the load generator -----------------------------------------------------------


@dataclass
class Observed:
    """Everything the client saw, booked once each round has settled."""

    job_s: list = field(default_factory=list)  # every attempted job, failed too
    jobs: dict = field(default_factory=lambda: {k: 0 for k in STATED_MIX})
    cell_s: dict = field(default_factory=lambda: {s: [] for s in SOURCES})
    sources: dict = field(default_factory=lambda: {s: 0 for s in SOURCES})


class LoadGenerator:
    """The closed-loop client: :data:`CLIENTS` threads submitting one
    sweep each per round, in the order the benchmark's seed sets."""

    def __init__(self, sweeps: list[Sweep], seed: int, tally: Tally, expected: dict) -> None:
        self.fresh = list(sweeps)  # pool sweeps not yet submitted, in run order
        self.rng = random.Random(seed)
        self.tally = tally
        self.expected = expected
        #: set for a traced pass: client requests then become spans
        self.recorder: tracing.Recorder | None = None
        self.obs = Observed()
        self.completed: list[Sweep] = []  # fresh sweeps this run completed
        self.measured_s = 0.0  # host seconds of every round so far

    def can_run_pass(self) -> bool:
        return len(self.fresh) >= ROUND_PLAN.count("fresh") * CYCLES_PER_PASS

    def _request(self, name: str, fn, *args):
        """One client request; a span when this pass is traced."""
        if self.recorder is None:
            return fn(*args)
        with self.recorder.span(name):
            return fn(*args)

    def submit_and_wait(self, client, cells: list[tuple]) -> tuple[float, object, dict]:
        """One closed-loop job: (latency, the final status or the error
        that ended the job, cell index -> seconds until it settled)."""
        from repro.service.client import ServiceError

        start = time.perf_counter()
        seen: dict[int, float] = {}
        try:
            accepted = self._request(
                "service.post", client.submit_specs, [spec for _, spec in cells]
            )
            while True:
                status = self._request("service.get", client.job, accepted["job"])
                now = time.perf_counter() - start
                for detail in status["cell_details"]:
                    if detail["status"] in ("done", "failed"):
                        seen.setdefault(detail["index"], now)
                if status["status"] in ("done", "failed"):
                    break
                time.sleep(POLL_S)
        except (ServiceError, OSError, KeyError, ValueError) as exc:
            return time.perf_counter() - start, exc, seen
        return time.perf_counter() - start, status, seen

    def _settle(self, kind: str, cells, latency: float, status, seen) -> str | None:
        """Check one job; returns how it was served ("run" when every cell
        simulated, "repeat" when none did), or None when it failed or
        mixed the two.  A failed job's latency is kept too."""
        self.obs.job_s.append(latency)
        if isinstance(status, Exception):
            for cell_id, _ in cells:
                self.tally.fail(f"{cell_id}: request failed: {status}")
            return None
        served = set()
        for detail in status["cell_details"]:
            index = detail["index"]
            cell_id = cells[index][0]
            if detail["status"] != "done":
                self.tally.fail(f"{cell_id}: {detail['error']}")
                continue
            self.tally.ok()
            source = detail["source"]
            served.add(source)
            self.obs.sources[source] += 1
            self.obs.cell_s[source].append(seen[index])
            problem = expected_problem(self.expected, cell_id, digest(detail["summary"]))
            if problem is None and kind == "resubmit" and source != "cache":
                problem = f"{cell_id}: resubmitted cell served by {source}"
            if problem is not None:
                self.tally.flag(problem)
        if served == {"run"}:
            return "run"
        if served and "run" not in served:
            return "repeat"
        return None

    def _round(self, kind: str, sweeps: list[Sweep], clients: list) -> None:
        """One round: every thread submits its sweep at the same moment."""
        barrier = threading.Barrier(len(clients))
        results: list = [None] * len(clients)
        cells = [sweep.cells() for sweep in sweeps]

        def submit(slot: int) -> None:
            try:
                barrier.wait(timeout=60)
            except threading.BrokenBarrierError as exc:
                results[slot] = (0.0, exc, {})
                return
            results[slot] = self.submit_and_wait(clients[slot], cells[slot])

        threads = [threading.Thread(target=submit, args=(slot,), daemon=True)
                   for slot in range(len(clients))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            if thread.is_alive():
                raise RuntimeError("load generator thread did not finish")
        served = [
            self._settle(kind, cells[slot], *results[slot]) for slot in range(len(clients))
        ]
        if kind == "fresh":
            self.obs.jobs["run"] += served.count("run")
            self.obs.jobs["duplicate"] += served.count("repeat")
            if served.count("run") == 1 and served.count("repeat") == len(clients) - 1:
                self.tally.ok()
                self.completed.append(sweeps[0])
            else:
                self.tally.fail(
                    f"{sweeps[0]}: fresh round served as {served}, "
                    f"not one simulating job and {len(clients) - 1} repeats"
                )
        else:
            self.obs.jobs["resubmit"] += served.count("repeat")

    def run_pass(self, clients: list, gauge: Gauge | None = None) -> float:
        """:data:`CYCLES_PER_PASS` cycles of :data:`ROUND_PLAN`; returns
        the pass's host seconds.  With a ``gauge``, its reference chunks
        run between rounds, while the server is idle, and are not
        counted."""
        pass_s = 0.0
        for _ in range(CYCLES_PER_PASS):
            for kind in ROUND_PLAN:
                if gauge is not None:
                    gauge.keep_up(self.measured_s + pass_s)
                start = time.perf_counter()
                if kind == "fresh":
                    sweep = self.fresh.pop(0)
                    self._round(kind, [sweep] * len(clients), clients)
                elif self.completed:  # empty only after failed fresh rounds
                    picks = [self.rng.choice(self.completed) for _ in clients]
                    self._round(kind, picks, clients)
                pass_s += time.perf_counter() - start
        self.measured_s += pass_s
        return pass_s


_METRIC_RE = re.compile(r"^repro_(\w+) ([0-9.eE+-]+)$", re.M)


def scrape(client) -> dict[str, float]:
    return {k: float(v) for k, v in _METRIC_RE.findall(client.metrics())}


def start_with_setup_time(sim_seed: int) -> tuple[Server, float]:
    """Start the server :data:`SETUP_REPEATS` times, each until every
    worker has simulated a cell; keep the last one.  Returns it with the
    median set-up time, scaled to the reference speed."""
    gauge = Gauge()
    samples = []
    for attempt in range(SETUP_REPEATS):
        start = time.perf_counter()
        server = Server(str(attempt))
        try:
            client = server.client()
            warm = warm_sweep(sim_seed, attempt).cells()[: _workers()]
            accepted = client.submit_specs([spec for _, spec in warm])
            while True:
                status = client.job(accepted["job"])
                if status["status"] in ("done", "failed"):
                    break
                time.sleep(SETUP_POLL_S)
            if status["status"] != "done":
                raise RuntimeError(f"set-up cells failed: {status['cell_details']}")
        except BaseException:
            server.stop()
            raise
        samples.append(time.perf_counter() - start)
        if attempt < SETUP_REPEATS - 1:
            server.stop()
        gauge.keep_up(sum(samples))
    return server, median(samples) * gauge.speed()


def record(sim_seed: int) -> Tally:
    """Record the serial in-process summary of every pool cell: the
    service must serve exactly these."""
    from repro.harness.parallel import execute_spec

    tally = Tally()
    cells = {}
    for sweep in pool(sim_seed):
        for cell_id, spec in sweep.cells():
            cells[cell_id] = digest(summary_record(execute_spec(spec).summary()))
            tally.ok()
    write_expected("service_mix", sim_seed, cells)
    return tally


def summary_record(summary: dict) -> dict:
    """A summary as it crosses the wire (JSON-normalized)."""
    return json.loads(json.dumps(summary))


def run(ctx) -> tuple[Tally, dict, dict]:
    sim_seed = DEFAULT_SIM_SEED if ctx.sim_seed is None else ctx.sim_seed
    if ctx.record:
        return record(sim_seed), {}, {}
    tally = Tally()
    expected = load_expected("service_mix", sim_seed)
    server, setup_s = start_with_setup_time(sim_seed)
    try:
        gen = LoadGenerator(seeded_order(pool(sim_seed), ctx.seed), ctx.seed, tally, expected)
        clients = [server.client() for _ in range(CLIENTS)]
        if ctx.trace:
            return _traced(gen, clients, tally)
        pass_s = []
        gauge = Gauge()
        with frozen_heap():
            start = time.perf_counter()
            while gen.can_run_pass():
                t0 = time.perf_counter()
                pass_s.append(gen.run_pass(clients, gauge))
                enough = len(pass_s) >= 3 and len(gen.obs.job_s) >= MIN_JOBS
                now = time.perf_counter()
                if enough and (now - start) + (now - t0) > ctx.seconds:
                    break
        rss = peak_rss_mb() + server.rss_mb()
    finally:
        server.stop()
    obs = gen.obs
    speed = gauge.speed()
    metrics = {
        "pass_s": median(pass_s) * speed,
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        "cells_per_s": sum(obs.sources.values()) / (sum(pass_s) * speed),
        "job_s_p50": median(obs.job_s) * speed,
        "job_s_p90": tail_percentile(obs.job_s, 90) * speed,
    }
    detail = {"host_pass_s": pass_s, "speed": [speed], "jobs": obs.jobs,
              "sources": obs.sources, "stated_mix": STATED_MIX, "sim_seed": sim_seed,
              "host_job_s_p50": median(obs.job_s)}
    return tally, metrics, detail


def _traced(gen: LoadGenerator, clients: list, tally: Tally):
    """An untraced pass, then a traced pass whose client requests are
    spans; per-source shares and latencies come from the traced pass."""
    before = scrape(clients[0])
    untraced_s = gen.run_pass(clients)
    gen.recorder = recorder = tracing.Recorder()
    gen.obs = Observed()
    traced_s = gen.run_pass(clients)
    after = scrape(clients[0])
    obs = gen.obs
    cells = sum(obs.sources.values())
    metrics = {
        f"service.source.{s}": obs.sources[s] / cells if cells else 0.0 for s in SOURCES
    }
    for source, samples in obs.cell_s.items():
        if samples:
            metrics[f"service.job_s_p50.{source}"] = median(samples)
    metrics["service.post_s_p50"] = median(recorder.durations("service.post"))
    metrics["service.get_s_p50"] = median(recorder.durations("service.get"))
    for name, counter in (("retried", "cells_retried_total"),
                          ("recycled", "workers_recycled_total"),
                          ("rejected", "rejected_total")):
        metrics[f"service.{name}"] = after.get(counter, 0) - before.get(counter, 0)
    metrics["tracing.overhead"] = traced_s / untraced_s
    return tally, metrics, recorder.as_dict()
