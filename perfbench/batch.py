"""The two batch workloads: ``sync_kernels`` and ``apps``.

Both run a fixed cell set serially in this process, with no result cache,
through ``repro.harness.parallel.execute_spec`` -- the same entry point a
figure sweep uses for each cell.  The simulated inputs are the figures'
own (their default seed; ``--sim-seed`` selects another, e.g. the held-out
seed), so every run is checked cell by cell against the summaries recorded
in ``perfbench/expected/``.  The benchmark's ``--seed`` sets the orders in
which the cells run, a new one in every pass.  Every cell starts with
empty modelled caches.
"""

from __future__ import annotations

from dataclasses import dataclass

from perfbench import tracing
from perfbench.common import (
    PassResult,
    Tally,
    end_to_end,
    load_expected,
    pass_detail,
    result_record,
    seeded_order,
    time_imports,
    timed_passes,
    write_expected,
)
from perfbench.common import run_pass as common_run_pass

#: The four kernel families of Figures 3-6, at the paper's core counts:
#: every kernel at 16 cores, and each family's first kernel at 64 cores.
#: All 24 kernels at 64 cores would take a whole run for one pass (17 of
#: the 19 s a pass takes on a 2-vCPU Xeon), leaving no passes to take a
#: median over.
KERNEL_FAMILIES = ("tatas", "array", "nonblocking", "barrier")
KERNEL_CORES = (16, 64)
FULL_CORES = 16
#: One of the paper's 100 kernel iterations: the smallest scale that still
#: runs every kernel's full synchronization pattern on every core.
KERNEL_SCALE = 0.01
#: The figures' default seeds; the held-out seeds are one higher.
KERNEL_SEED = 1
#: Half of one app phase's accesses: at 0.01 a pass takes 10 s (ocean
#: alone 4.7 s), too long for several passes in a run.
APP_SCALE = 0.005
APP_SEED = 2

#: Paper averages of DeNovoSync relative to MESI (time, traffic): the
#: abstract's 48 kernel cases (-22% time, -58% traffic) and Figure 7's
#: application average (-4% time, -24% traffic).
PAPER_REFERENCE = {"sync_kernels": (0.78, 0.42), "apps": (0.96, 0.76)}

#: Modules a user of the batch workloads imports before the first cell.
SETUP_IMPORTS = ["repro.harness.experiments", "repro.harness.parallel"]


@dataclass(frozen=True)
class Cell:
    cell_id: str
    row: tuple  # the figure row it belongs to: ([family,] workload, cores)
    spec: object  # repro.harness.parallel.RunSpec
    order: int  # position in the figure sweep's own cell order


def kernel_cells(sim_seed: int) -> list[Cell]:
    from repro.config import config_for_cores
    from repro.harness.experiments import KERNEL_PROTOCOLS
    from repro.harness.parallel import RunSpec, kernel_cell
    from repro.workloads.base import KernelSpec
    from repro.workloads.registry import kernel_names

    cells = []
    for family in KERNEL_FAMILIES:
        for cores in KERNEL_CORES:
            config = config_for_cores(cores)
            names = kernel_names(family)
            for name in names if cores == FULL_CORES else names[:1]:
                for protocol in KERNEL_PROTOCOLS:
                    spec = RunSpec(
                        kernel_cell(family, name, spec=KernelSpec(scale=KERNEL_SCALE)),
                        protocol, config, seed=sim_seed,
                    )
                    cells.append(Cell(
                        f"{family}/{name}@{cores}x{protocol}",
                        (family, name, cores), spec, len(cells),
                    ))
    return cells


def app_cells(sim_seed: int) -> list[Cell]:
    from repro.config import config_for_cores
    from repro.harness.experiments import APP_PROTOCOLS
    from repro.harness.parallel import RunSpec, app_cell
    from repro.workloads.apps import APP_NAMES, app_core_count

    cells = []
    for name in APP_NAMES:
        cores = app_core_count(name)
        config = config_for_cores(cores)
        for protocol in APP_PROTOCOLS:
            spec = RunSpec(app_cell(name, scale=APP_SCALE), protocol, config, seed=sim_seed)
            cells.append(Cell(f"{name}@{cores}x{protocol}", (name, cores), spec, len(cells)))
    return cells


def events_fired(epoch: dict) -> int:
    """Events a run fired, from its epoch counters: every event fires
    either inside a batched drain or as one per-event fallback step."""
    return epoch["events_batched"] + sum(epoch["fallbacks"].values())


def _check(cell: Cell, result) -> tuple[dict, dict]:
    # The summary is recorded; the epoch counters must repeat within a run.
    return result_record(result), result.meta["epoch"]


def run_pass(
    cells: list[Cell],
    tally: Tally,
    expected: dict | None,
    reference: PassResult | None = None,
    recorder: tracing.Recorder | None = None,
    gauge=None,
) -> PassResult:
    """Run every cell once through ``execute_spec``; with a ``recorder``,
    each cell is a span.  A cell fails when it raises (including the
    watchdog's ``HangError``), when its summary differs from the recorded
    one, or when its summary or epoch counters differ from ``reference``."""
    from repro.harness.parallel import execute_spec

    def execute(cell: Cell):
        if recorder is None:
            return execute_spec(cell.spec)
        with recorder.span("cell", cell=cell.cell_id):
            return execute_spec(cell.spec)

    return common_run_pass(cells, tally, expected, execute, _check, reference, gauge)


def ds_gaps(cells: list[Cell], results: dict, reference: tuple[float, float]) -> tuple:
    """|mean DeNovoSync/MESI ratio - paper| for time and traffic, averaged
    by ``headline_summary`` over the rows in the figure sweep's order (so
    the float sums match a figure sweep bit for bit)."""
    from repro.harness.experiments import FigureResult, FigureRow, headline_summary

    rows: dict[tuple, FigureRow] = {}
    for cell in sorted(cells, key=lambda c: c.order):
        row = rows.setdefault(
            cell.row, FigureRow(workload=cell.row[-2], num_cores=cell.row[-1])
        )
        if cell.cell_id in results:
            row.results[cell.spec.protocol] = results[cell.cell_id]
    summary = headline_summary([FigureResult("benchmark", list(rows.values()), 0.0)])
    ds = summary["DeNovoSync"]
    return (
        abs(ds["avg_rel_time"] - reference[0]),
        abs(ds["avg_rel_traffic"] - reference[1]),
    )


def _modelled(cells: list[Cell], first: PassResult, name: str) -> dict:
    from repro.stats.timeparts import TimeComponent

    components = {
        "compute": TimeComponent.COMPUTE,
        "memory_stall": TimeComponent.MEMORY_STALL,
        "hw_backoff": TimeComponent.HW_BACKOFF,
        "sw_backoff": TimeComponent.SW_BACKOFF,
        "barrier": TimeComponent.BARRIER_STALL,
        "non_sync": TimeComponent.NON_SYNCH,
    }
    results = list(first.outcomes.values())
    metrics = {
        f"cpu.cycles.{key}": sum(r.component_cycles(comp) for r in results)
        for key, comp in components.items()
    }
    counters: dict[str, int] = {}
    for result in results:
        for key, value in result.counters.as_dict().items():
            counters[key] = counters.get(key, 0) + value
    hits, misses = counters.get("l1_hits", 0), counters.get("l1_misses", 0)
    metrics["protocols.l1_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    for key in (
        "invalidations_sent", "registration_transfers",
        "read_registration_steals", "hw_backoff_events",
    ):
        metrics[f"protocols.{key}"] = counters.get(key, 0)
    metrics["noc.flit_crossings"] = sum(r.total_traffic for r in results)
    metrics["noc.messages"] = sum(r.traffic.message_count() for r in results)
    epochs = [r.meta["epoch"] for r in results]
    total_epochs = sum(e["epochs"] for e in epochs)
    metrics["sim.events"] = sum(events_fired(e) for e in epochs)
    metrics["sim.events_per_epoch"] = (
        sum(e["events_batched"] for e in epochs) / total_epochs if total_epochs else 0.0
    )
    metrics["sim.epoch_fallbacks"] = sum(sum(e["fallbacks"].values()) for e in epochs)
    metrics["sim.spin_polls_elided"] = sum(e["spin_polls_elided"] for e in epochs)
    metrics["sim.ns_per_event"] = first.wall_s * 1e9 / max(1, metrics["sim.events"])
    time_gap, traffic_gap = ds_gaps(cells, first.outcomes, PAPER_REFERENCE[name])
    metrics["ds_time_gap"] = time_gap
    metrics["ds_traffic_gap"] = traffic_gap
    return metrics


def traced(cells: list[Cell], tally: Tally, expected: dict | None, name: str):
    """The per-layer run: an untraced pass, a traced pass and a profiled
    pass over the same cells.  The traced and profiled passes must
    reproduce the untraced pass exactly (summaries, events, epoch
    counters); tracing overhead is traced wall over untraced wall."""
    first = run_pass(cells, tally, expected)
    recorder = tracing.Recorder()
    fired: list[int] = []
    with tracing.instrumented_runner(recorder, fired):
        second = run_pass(cells, tally, expected, reference=first, recorder=recorder)
    derived = [
        events_fired(second.outcomes[c.cell_id].meta["epoch"])
        for c in cells if c.cell_id in second.outcomes
    ]
    if derived == fired:  # one more checked output: events fired under tracing
        tally.ok()
    else:
        tally.fail("traced events fired differ from the untraced epoch counters")
    _, shares = tracing.profile_shares(
        lambda: run_pass(cells, tally, expected, reference=first)
    )

    metrics = _modelled(cells, first, name)
    metrics["tracing.overhead"] = second.wall_s / first.wall_s
    metrics["workloads.build_s"] = recorder.span_seconds("workloads.build")
    for pkg, share in shares.items():
        metrics[f"{pkg}.self_share"] = share
    proto_calls = proto_ns = 0
    for entry in tracing.PROTOCOL_ENTRIES:
        calls, inclusive, _child = recorder.calls.get(f"protocols.{entry}", (0, 0, 0))
        metrics[f"protocols.calls.{entry}"] = calls
        proto_calls += calls
        proto_ns += inclusive
    metrics["protocols.ns_per_call"] = proto_ns / proto_calls if proto_calls else 0.0
    mem = [v for k, v in recorder.calls.items() if k.startswith("mem.")]
    mem_calls = sum(v[0] for v in mem)
    metrics["mem.calls"] = mem_calls
    metrics["mem.ns_per_call"] = sum(v[1] for v in mem) / mem_calls if mem_calls else 0.0
    return metrics, recorder


def run(name: str, ctx) -> tuple[Tally, dict, dict]:
    """One benchmark run of ``sync_kernels`` or ``apps``."""
    default_seed, make_cells = {
        "sync_kernels": (KERNEL_SEED, kernel_cells),
        "apps": (APP_SEED, app_cells),
    }[name]
    sim_seed = default_seed if ctx.sim_seed is None else ctx.sim_seed
    cells = make_cells(sim_seed)
    tally = Tally()
    if ctx.record:
        recorded = run_pass(cells, tally, None)
        write_expected(name, sim_seed, recorded.digests)
        return tally, {}, {}
    expected = load_expected(name, sim_seed)
    if ctx.trace:
        metrics, recorder = traced(seeded_order(cells, ctx.seed), tally, expected, name)
        return tally, metrics, recorder.as_dict()
    setup_s = time_imports(SETUP_IMPORTS)
    passes = timed_passes(
        lambda order, reference, gauge: run_pass(order, tally, expected, reference, gauge=gauge),
        cells, ctx.seed, ctx.seconds,
    )
    metrics = end_to_end(len(cells), passes, setup_s)
    return tally, metrics, pass_detail(passes, sim_seed)
