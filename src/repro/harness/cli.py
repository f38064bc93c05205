"""Command-line entry point: regenerate any of the paper's figures.

Usage (installed as ``denovosync-bench``)::

    denovosync-bench fig3 --cores 16 64 --scale 0.1
    denovosync-bench fig7 --app-scale 0.5
    denovosync-bench ablation-padding
    denovosync-bench all --scale 0.05 --out results/

Every target is a subcommand that accepts only the flags it reads, with
its own defaults: ``denovosync-bench <target> --help`` lists them.
``--scale 1.0`` runs the paper's full iteration counts (slow in pure
Python); the default keeps a laptop run in minutes while preserving the
figure shapes.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.harness.experiments import (
    run_apps_figure,
    run_eqcheck_ablation,
    run_kernel_figure,
    run_padding_ablation,
    run_selfinv_ablation,
    run_sw_backoff_ablation,
)
from repro.harness.export import write_figure_csv, write_figure_json
from repro.harness.parallel import default_cache
from repro.harness.plots import render_figure
from repro.harness.report import print_figure
from repro.protocols.registry import (
    default_comparison_set,
    formal_model_set,
    protocol_names,
    sanitize_comparison_set,
)

FIGURE_FAMILIES = {
    "fig3": "tatas",
    "fig4": "array",
    "fig5": "nonblocking",
    "fig6": "barrier",
}

#: Ablation target -> (runner, the argument that scales its inputs).
ABLATIONS = {
    "ablation-padding": (run_padding_ablation, "scale"),
    "ablation-swbackoff": (run_sw_backoff_ablation, "scale"),
    "ablation-eqchecks": (run_eqcheck_ablation, "scale"),
    "ablation-selfinv": (run_selfinv_ablation, "app_scale"),
}

ALL_TARGETS = [*FIGURE_FAMILIES, "fig7", *ABLATIONS]


def _open_out(out_dir: str | None, name: str):
    if out_dir is None:
        return sys.stdout
    os.makedirs(out_dir, exist_ok=True)
    return open(os.path.join(out_dir, f"{name}.txt"), "w")


def _emit(result, out, args) -> None:
    if args.format == "csv":
        write_figure_csv(result, out)
    elif args.format == "json":
        write_figure_json(result, out)
    elif args.format == "plot":
        render_figure(result, out)
        print(file=out)
    else:
        print_figure(result, out)


def _sweep_options(args) -> dict:
    """Parallelism/caching options shared by every figure sweep."""
    cache = None if args.no_cache else default_cache(args.cache_dir)
    return {"jobs": args.jobs, "cache": cache}


def _run_one(target: str, args) -> None:
    out = _open_out(args.out, target)
    sweep = _sweep_options(args)
    try:
        if target in FIGURE_FAMILIES:
            result = run_kernel_figure(
                FIGURE_FAMILIES[target],
                core_counts=tuple(args.cores),
                scale=args.scale,
                seed=args.seed,
                **sweep,
            )
            _emit(result, out, args)
        elif target == "fig7":
            result = run_apps_figure(scale=args.app_scale, seed=args.seed, **sweep)
            _emit(result, out, args)
        else:
            runner, scale_arg = ABLATIONS[target]
            for label, result in runner(
                scale=getattr(args, scale_arg), **sweep
            ).items():
                print(f"-- {label} --", file=out)
                _emit(result, out, args)
    finally:
        if out is not sys.stdout:
            out.close()


def _run_figures(args) -> int:
    """The figure and ablation targets, and ``all`` (every one in turn)."""
    for target in args.targets:
        _run_one(target, args)
    return 0


# -- verification sweeps ------------------------------------------------------


def _print_cells(outcomes: list, each=None) -> int:
    """Print each verification cell's ``describe()`` line, then call
    ``each(outcome)`` if given; return how many cells are not ``ok``.

    mc, sanitize and formal get their outcomes from one ``run_tasks``
    fan-out; chaos from the serial ``run_chaos_sweep``, which shares one
    unperturbed baseline across the fault seeds.
    """
    for outcome in outcomes:
        print(outcome.describe())
        if each is not None:
            each(outcome)
    return sum(not outcome.ok for outcome in outcomes)


def _write_report(report, path: str) -> None:
    """Write a findings report as JSON to ``path`` (empty: write none)."""
    if not path:
        return
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(report.to_json())
        fh.write("\n")
    print(f"report: {path}")


def _litmus_names(requested: list[str] | None) -> list[str]:
    """The requested litmus tests (default: the whole corpus).

    Checked here rather than through ``choices=`` so that building the
    parser does not import the corpus.
    """
    from repro.mc.litmus import CORPUS

    names = requested or sorted(CORPUS)
    unknown = [name for name in names if name not in CORPUS]
    if unknown:
        raise SystemExit(
            f"unknown litmus test(s) {unknown}; available: {sorted(CORPUS)}"
        )
    return names


def _fault_plan_from_args(args):
    """Build a :class:`~repro.noc.faults.FaultPlan` from CLI flags, or
    None when no fault flag was given."""
    from repro.noc.faults import FaultPlan

    plan = FaultPlan(
        seed=args.fault_seed,
        delay_jitter=args.fault_jitter,
        reorder_prob=args.fault_reorder,
        evict_period=args.fault_evict_period,
        evict_lines=args.fault_evict_lines,
    )
    return plan if plan.active else None


def _run_chaos(args) -> int:
    """The ``chaos`` target: seeded fault-injection differential sweep."""
    from repro.harness.chaos import run_chaos_sweep

    cells = run_chaos_sweep(
        protocols=tuple(args.protocols),
        seeds=tuple(args.seeds),
        num_cores=args.cores,
        scale=args.scale,
        invariant_level=args.invariant_level,
    )
    failures = _print_cells(cells)
    print(
        f"chaos sweep: {len(cells) - failures}/{len(cells)} cells converged "
        f"(seeds {list(args.seeds)}, {args.cores} cores)"
    )
    return 1 if failures else 0


def _run_mc(args) -> int:
    """The ``mc`` target: exhaustive interleaving exploration (DPOR +
    preemption bounding) of the litmus corpus, or counterexample replay."""
    from repro.harness.parallel import run_tasks
    from repro.mc.cells import McCell, run_cell

    if args.replay is not None:
        from repro.mc.artifact import replay_counterexample

        payload, report = replay_counterexample(args.replay)
        violation = payload["violation"]
        print(
            f"replaying {payload['test']} under {payload['protocol']} "
            f"({len(payload['schedule'])} choices): "
            f"[{violation['kind']}] {violation['message']}"
        )
        print(f"  {report.describe()}")
        return 0 if (report.reproduced and report.trace_identical) else 1

    names = _litmus_names(args.litmus)
    cells = [
        McCell(
            test_name=name,
            protocol=protocol,
            bound=args.bound,
            max_schedules=args.max_schedules,
            out_dir=args.mc_out,
        )
        for name in names
        for protocol in args.protocols
    ]
    outcomes = run_tasks(run_cell, cells, jobs=args.jobs)
    violations = _print_cells(outcomes)
    print(
        f"mc: {len(outcomes) - violations}/{len(outcomes)} cells clean "
        f"(preemption bound {args.bound}, "
        f"{len(names)} tests x {len(args.protocols)} protocols)"
    )
    return 1 if violations else 0


def _run_sanitize(args) -> int:
    """The ``sanitize`` target: the static lint pass over the synclib and
    workloads sources, plus the dynamic happens-before / self-invalidation
    analysis of every kernel under every requested protocol."""
    from repro.harness.parallel import run_tasks
    from repro.sanitize.cells import SanitizeCell, run_cell
    from repro.sanitize.findings import Report
    from repro.sanitize.lint import (
        SIMULATOR_RULES,
        default_lint_targets,
        lint_paths,
        simulator_lint_targets,
    )
    from repro.workloads.registry import all_kernel_ids

    report = Report()
    lint_findings, linted = lint_paths(default_lint_targets())
    sim_findings, sim_linted = lint_paths(
        simulator_lint_targets(), rules=SIMULATOR_RULES
    )
    lint_findings = lint_findings + sim_findings
    linted = linted + sim_linted
    report.extend(lint_findings)
    report.lint_files = linted

    cells = [
        SanitizeCell(
            family=family,
            kernel=kernel,
            protocol=protocol,
            cores=args.cores,
            scale=args.scale,
            seed=args.seed,
        )
        for family, kernel in all_kernel_ids()
        for protocol in args.protocols
    ]

    def add_cell(outcome) -> None:
        report.extend(outcome.findings)
        report.cells.append(
            {
                "cell": outcome.cell_id,
                "cores": outcome.cores,
                "records": outcome.records,
                "racy_unannotated_pairs": outcome.racy_unannotated_pairs,
                "stale_read_hazards": outcome.stale_read_hazards,
            }
        )

    outcomes = run_tasks(run_cell, cells, jobs=args.jobs)
    dirty = _print_cells(outcomes, add_cell)

    for finding in report.findings:
        if finding.severity == "error" and not finding.details.get("cell"):
            print(f"lint error [{finding.kind}] {finding.site}: {finding.message}")
    lint_errors = sum(
        1 for f in lint_findings if f.severity == "error"
    )
    print(
        f"sanitize: {len(outcomes) - dirty}/{len(outcomes)} dynamic cells clean "
        f"({len(all_kernel_ids())} kernels x {len(args.protocols)} protocols, "
        f"{args.cores} cores, scale {args.scale}); lint: {lint_errors} "
        f"error(s), {sum(1 for f in lint_findings if f.severity == 'warning')} "
        f"warning(s) over {len(linted)} files"
    )
    _write_report(report, args.sanitize_out)
    return 0 if report.clean else 1


def _run_formal(args) -> int:
    """The ``formal`` target: verify each modelled protocol against its
    guarded-action model — static conformance of the implementation,
    small-scope exhaustive exploration of the model's invariants, the
    litmus divergence oracle, and TLA+ module export."""
    from repro.formal.cells import FormalCell, run_cell
    from repro.harness.parallel import run_tasks
    from repro.sanitize.findings import Report

    _litmus_names(args.litmus)
    cells = [
        FormalCell(
            protocol=protocol,
            divergence_bound=args.divergence_bound,
            divergence_schedules=args.divergence_schedules,
            litmus=tuple(args.litmus or ()),
        )
        for protocol in args.protocols
    ]
    report = Report()

    def add_cell(outcome) -> None:
        report.extend(outcome.findings)
        report.cells.append(
            {
                "cell": f"{outcome.protocol} x {outcome.model}",
                "protocol": outcome.protocol,
                "model": outcome.model,
                "coverage": outcome.coverage,
                "exploration": outcome.explore_stats,
                "divergence": outcome.oracle_stats,
                "tla_module": outcome.tla_module,
            }
        )
        if args.tla_out:
            os.makedirs(args.tla_out, exist_ok=True)
            path = os.path.join(args.tla_out, f"{outcome.tla_module}.tla")
            with open(path, "w") as fh:
                fh.write(outcome.tla_text)
            print(f"  tla: {path}")

    outcomes = run_tasks(run_cell, cells, jobs=args.jobs)
    dirty = _print_cells(outcomes, add_cell)
    for finding in report.findings:
        if finding.severity == "error":
            print(f"formal error [{finding.kind}] {finding.site}: "
                  f"{finding.message}")
    print(
        f"formal: {len(outcomes) - dirty}/{len(outcomes)} protocols verified "
        f"({len(report.errors)} error finding(s), "
        f"{len(report.warnings)} warning(s); divergence bound "
        f"{args.divergence_bound}, {args.divergence_schedules} schedules/test)"
    )
    _write_report(report, args.formal_out)
    return 1 if dirty else 0


# -- sweep service ------------------------------------------------------------


def _run_serve(args) -> int:
    """The ``serve`` target: run the sweep job server until interrupted."""
    from repro.service import run_server

    cache = None if args.no_cache else default_cache(args.cache_dir)
    run_server(
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache=cache,
        max_queued=args.max_queued,
        cell_deadline=args.cell_deadline,
        max_retries=args.max_retries,
        drain_timeout=args.drain_timeout,
    )
    return 0


def _run_chaos_service(args) -> int:
    """The ``chaos-service`` target: attack a live sweep server (worker
    SIGKILLs, poisoned cells, deadline overruns) and verify it self-heals."""
    from repro.service.chaos import ChaosConfig, run_service_chaos

    config = ChaosConfig(
        workers=args.workers,
        kills=args.kills,
        kill_interval=args.kill_interval,
        cores=args.cores,
        scale=args.scale,
        seed=args.seed,
        cell_deadline=args.cell_deadline,
        max_retries=args.max_retries,
        wait_timeout=args.wait_timeout,
        cache_dir=args.cache_dir,
    )
    report = run_service_chaos(config)
    print(report.describe())
    return 0 if report.ok else 1


def _submit_cells(args) -> list:
    """Build the RunSpec cells of a ``submit`` sweep: every requested
    kernel x protocol x core count, mirroring :func:`run_kernel_figure`.
    ``args.protocols=None`` sweeps the registry's default comparison set."""
    from repro.config import config_for_cores
    from repro.harness.parallel import RunSpec, kernel_cell
    from repro.workloads.base import KernelSpec
    from repro.workloads.registry import kernel_names

    names = args.names or kernel_names(args.sweep_family)
    protocols = (
        tuple(args.protocols) if args.protocols else default_comparison_set()
    )
    specs = []
    for cores in args.cores:
        config = config_for_cores(cores)
        for name in names:
            for protocol in protocols:
                specs.append(
                    RunSpec(
                        kernel_cell(
                            args.sweep_family, name, spec=KernelSpec(scale=args.scale)
                        ),
                        protocol,
                        config,
                        seed=args.seed,
                    )
                )
    return specs


def _print_job_detail(status: dict) -> None:
    counts = status["counts"]
    print(
        f"job {status['job']}: {status['status']} "
        f"({counts['done']} done, {counts['failed']} failed, "
        f"{counts['running']} running, {counts['queued']} queued)"
    )
    for cell in status.get("cell_details", []):
        line = (
            f"  [{cell['index']:3d}] {cell['workload']:24s} "
            f"{cell['protocol']:12s} {cell['cores']:4d} cores  "
            f"{cell['status']:7s} ({cell['source']})"
        )
        if cell["status"] == "done" and cell["summary"]:
            line += f"  {cell['summary']['cycles']} cycles"
        elif cell["status"] == "failed" and cell["error"]:
            line += f"  {cell['error']['kind']}: {cell['error']['message']}"
        print(line)


def _run_submit(args) -> int:
    """The ``submit`` target: POST a kernel sweep to a running server."""
    from repro.service import ServiceClient

    client = ServiceClient(args.host, args.port)
    specs = _submit_cells(args)
    accepted = client.submit_specs(specs)
    print(
        f"submitted {accepted['cells']} cells as job {accepted['job']} "
        f"(poll with: status --job {accepted['job']} --port {args.port})"
    )
    if not args.wait:
        return 0
    status = client.wait(accepted["job"], timeout=args.wait_timeout)
    _print_job_detail(status)
    return 0 if status["status"] == "done" else 1


def _run_status(args) -> int:
    """The ``status`` target: server health + job list, or one job's detail."""
    from repro.service import ServiceClient

    client = ServiceClient(args.host, args.port)
    if args.job:
        _print_job_detail(client.job(args.job))
        return 0
    health = client.healthz()
    workers = health["workers"]
    print(
        f"service {health['status']}: uptime {health['uptime_seconds']}s, "
        f"{workers['alive']}/{workers['configured']} workers alive, "
        f"queue depth {health['queue_depth']}, "
        f"cache hit rate {health['cache_hit_rate']:.0%}, "
        f"{health['cells_per_second']:.2f} cells/s"
    )
    jobs = client.jobs()["jobs"]
    if not jobs:
        print("no jobs submitted")
    for job in jobs:
        counts = job["counts"]
        print(
            f"  {job['job']}: {job['status']} — {counts['done']}/{job['cells']} done, "
            f"{counts['failed']} failed, {counts['running']} running, "
            f"{counts['queued']} queued"
        )
    return 0


# -- single runs --------------------------------------------------------------


def _build_workload(args):
    """Resolve ``--workload family/name`` into (workload, core count).

    Without ``--cores`` an app runs on the paper's core count for it and
    every other workload on 16 cores.
    """
    from repro.workloads.base import KernelSpec

    spec = args.workload
    if "/" not in spec:
        raise SystemExit(
            f"--workload must be family/name (e.g. tatas/counter, app/LU, "
            f"micro/pingpong), got {spec!r}"
        )
    family, name = spec.split("/", 1)
    cores = 16
    if family == "app":
        from repro.workloads.apps import app_core_count, make_app

        workload = make_app(name, scale=args.app_scale)
        cores = app_core_count(name)
    elif family == "micro":
        from repro.workloads.micro import MICROBENCHES

        workload = MICROBENCHES[f"micro.{name}"]()
    else:
        from repro.workloads.registry import make_kernel

        workload = make_kernel(family, name, spec=KernelSpec(scale=args.scale))
    return workload, cores if args.cores is None else args.cores


def _run_profile(args) -> int:
    """The ``profile`` target: cProfile one run, print hot functions.

    Profiles exactly what ``run`` executes (workload build excluded, so
    the numbers are all simulation) and prints the top functions by
    cumulative time — the first place to look before optimizing, and the
    quickest way to confirm a change moved the needle.
    """
    import cProfile
    import pstats

    from repro.config import config_for_cores
    from repro.harness.runner import run_workload

    workload, cores = _build_workload(args)
    config = config_for_cores(cores, invariant_level=args.invariant_level)

    profiler = cProfile.Profile()
    profiler.enable()
    result = run_workload(workload, args.protocol, config, seed=args.seed)
    profiler.disable()

    print(
        f"{result.workload} under {result.protocol} on {cores} cores: "
        f"{result.cycles} cycles"
    )
    _print_epoch_block(result)
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats("cumulative").print_stats(args.top)
    if args.profile_out:
        stats.dump_stats(args.profile_out)
        print(f"raw profile -> {args.profile_out} (pstats/snakeviz readable)")
    return 0


def _print_epoch_block(result) -> None:
    """Print the epoch-execution counters of one run (profile/run targets).

    Perf-only observability: these live in ``result.meta`` so they never
    reach summaries or stat JSON (the byte-identity surfaces).
    """
    epoch = result.meta.get("epoch")
    if not epoch:
        return
    print("  epoch execution:")
    print(f"    epochs entered     {epoch['epochs']:12d}")
    print(f"    events batched     {epoch['events_batched']:12d}")
    print(f"    spin polls elided  {epoch['spin_polls_elided']:12d}")
    fallbacks = epoch["fallbacks"] or {}
    rendered = (
        ", ".join(f"{k}={v}" for k, v in fallbacks.items())
        if fallbacks
        else "none"
    )
    print(f"    fallbacks          {rendered:>12s}")


def _run_single(args) -> int:
    """The ``run`` target: one workload, one protocol, full detail."""
    from repro.config import config_for_cores
    from repro.harness.runner import run_workload
    from repro.sim.watchdog import HangError
    from repro.stats.energy import EnergyModel

    workload, cores = _build_workload(args)
    config = config_for_cores(cores, invariant_level=args.invariant_level)
    try:
        result = run_workload(
            workload,
            args.protocol,
            config,
            seed=args.seed,
            trace=args.trace is not None,
            fault_plan=_fault_plan_from_args(args),
            max_cycles=args.max_cycles,
        )
    except HangError as exc:
        # The message already carries the watchdog's rendered dump.
        print(f"simulation aborted: {exc}", file=sys.stderr)
        return 2
    print(f"{result.workload} under {result.protocol} on {cores} cores:")
    print(f"  cycles        {result.cycles}")
    print(f"  total traffic {result.total_traffic} flit-crossings")
    print("  time breakdown:")
    for component, cycles in result.avg_time_breakdown.items():
        if cycles:
            print(f"    {component:14s} {cycles:12.1f}")
    print("  traffic breakdown:")
    for klass, flits in result.traffic_breakdown().items():
        if flits:
            print(f"    {klass:14s} {flits:12d}")
    model = EnergyModel()
    print("  dynamic energy (pJ):")
    for part, pj in model.breakdown(result).items():
        print(f"    {part:14s} {pj:12.0f}")
    notable = {
        k: v
        for k, v in sorted(result.counters.as_dict().items())
        if v and not k.startswith("l1_")
    }
    print("  counters:")
    for key, value in notable.items():
        print(f"    {key:32s} {value:10d}")
    _print_epoch_block(result)
    if args.trace is not None:
        from repro.trace.events import write_trace

        count = write_trace(result.meta["trace"], args.trace)
        print(f"  trace: {count} records -> {args.trace}")
    return 0


def _run_protocols(args) -> int:
    """The ``protocols`` target: print the protocol plugin registry.

    With ``--check-doc PATH...`` also verify each file still embeds the
    registry-generated markdown table verbatim — CI runs this so the
    README/architecture protocol tables can never drift from the code.
    ``--format json`` emits the capability descriptors as JSON and
    ``--format csv``/``plot`` fall back to the markdown table (the form
    meant for embedding); the default is the aligned text table.
    """
    import json as _json

    from repro.protocols.registry import (
        iter_protocols,
        registry_markdown_table,
        registry_table,
    )

    if args.format == "json":
        infos = [
            {
                key: getattr(info, key)
                for key in (
                    "name", "label", "paper", "summary", "tracking",
                    "invalidation", "backoff", "requires_annotations",
                    "default_comparison", "app_comparison",
                )
            }
            for info in iter_protocols()
        ]
        print(_json.dumps(infos, indent=2))
    elif args.format in ("csv", "plot"):
        print(registry_markdown_table())
    else:
        print(registry_table())

    failures = 0
    expected = registry_markdown_table()
    for path in args.check_doc or []:
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            print(f"{path}: unreadable ({exc})")
            failures += 1
            continue
        if expected in text:
            print(f"{path}: protocol table in sync with the registry")
        else:
            print(
                f"{path}: protocol table is OUT OF SYNC with the registry "
                f"— re-embed the output of "
                f"'denovosync-bench protocols --format csv'"
            )
            failures += 1
    return 1 if failures else 0


# -- the parser ---------------------------------------------------------------


FORMATS = ["table", "csv", "json", "plot"]
INVARIANT_LEVELS = ["off", "sampled", "full"]
SCALE_HELP = "fraction of the paper's kernel iteration counts"


def _bound(text: str) -> int | None:
    """``mc --bound``: a negative preemption bound means unbounded."""
    bound = int(text)
    return None if bound < 0 else bound


def _add_protocols(parser, default, choices=None) -> None:
    choices = list(choices or protocol_names())
    parser.add_argument(
        "--protocols", nargs="+", default=default, choices=choices, metavar="NAME",
        help="protocols to sweep, out of " + ", ".join(choices),
    )


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="denovosync-bench",
        description="Regenerate the DeNovoSync (ASPLOS'15) evaluation figures.",
        epilog="'denovosync-bench <target> --help' lists a target's flags.",
    )
    subparsers = parser.add_subparsers(dest="target", required=True, metavar="target")

    def target(name, func, summary, parents=(), **defaults):
        sub = subparsers.add_parser(
            name, help=summary, description=summary, parents=list(parents),
            formatter_class=argparse.ArgumentDefaultsHelpFormatter,
        )
        sub.set_defaults(func=func, **defaults)
        return sub

    def parent(*parents):
        return argparse.ArgumentParser(add_help=False, parents=list(parents))

    jobs = parent()
    jobs.add_argument("--jobs", type=int, default=1,
                      help="worker processes (0: all host cores); any value gives "
                      "identical results")
    cache = parent()
    cache.add_argument("--no-cache", action="store_true",
                       help="disable the on-disk result cache (every cell re-simulates)")
    cache.add_argument("--cache-dir",
                       help="result-cache directory (None: $REPRO_CACHE_DIR or "
                       "results/.runcache); entries auto-invalidate when any source "
                       "file under src/repro changes")
    figure = parent(jobs, cache)
    figure.add_argument("--cores", type=int, nargs="+", default=[16, 64],
                        help="core counts of the kernel figures")
    figure.add_argument("--scale", type=float, default=0.1, help=SCALE_HELP)
    figure.add_argument("--app-scale", type=float, default=0.5,
                        help="input scale of the Figure 7 application models")
    figure.add_argument("--seed", type=int, default=1, help="simulation seed")
    figure.add_argument("--out", help="directory for per-figure .txt reports (None: stdout)")
    figure.add_argument("--format", choices=FORMATS, default="table",
                        help="aligned tables, CSV, JSON, or ASCII stacked bars")
    address = parent()
    address.add_argument("--host", default="127.0.0.1", help="service address")
    address.add_argument("--port", type=int, default=8642,
                         help="service port (serve: 0 picks an ephemeral port)")

    for name in ALL_TARGETS:
        target(name, _run_figures, f"regenerate {name}", [figure], targets=[name])
    target("all", _run_figures, "regenerate every figure and ablation", [figure],
           targets=ALL_TARGETS)

    single = parent()
    single.add_argument("--workload", required=True,
                        help="family/name, e.g. tatas/counter, nonblocking/'M-S queue', "
                        "app/LU, micro/pingpong")
    single.add_argument("--protocol", default="DeNovoSync", choices=protocol_names(),
                        metavar="NAME", help="one of " + ", ".join(protocol_names()))
    single.add_argument("--cores", type=int,
                        help="core count (None: 16, or the paper's count for an app/)")
    single.add_argument("--scale", type=float, default=0.1, help=SCALE_HELP)
    single.add_argument("--app-scale", type=float, default=0.5,
                        help="input scale of an app/ workload")
    single.add_argument("--seed", type=int, default=1, help="simulation seed")
    single.add_argument("--invariant-level", choices=INVARIANT_LEVELS, default="off",
                        help="runtime coherence invariant checking")

    run = target("run", _run_single, "one workload, one protocol, full detail", [single])
    run.add_argument("--trace", help="write a JSONL access trace to this path")
    run.add_argument("--max-cycles", type=int,
                     help="abort with a watchdog dump once the simulated clock passes "
                     "this cycle")
    run.add_argument("--fault-seed", type=int, default=0,
                     help="seed of the fault-injection RNG")
    run.add_argument("--fault-jitter", type=int, default=0,
                     help="max extra cycles of per-access delay jitter")
    run.add_argument("--fault-reorder", type=float, default=0.0,
                     help="probability of deferring (reordering) an access")
    run.add_argument("--fault-evict-period", type=int, default=0,
                     help="cycles between forced L1 eviction storms (0: off)")
    run.add_argument("--fault-evict-lines", type=int, default=1,
                     help="random evictions attempted per storm")

    profile = target("profile", _run_profile, "cProfile one run, print hot functions",
                     [single])
    profile.add_argument("--top", type=int, default=25, help="functions to print")
    profile.add_argument("--profile-out",
                         help="also dump the raw cProfile stats to this path")

    chaos = target("chaos", _run_chaos, "seeded fault-injection differential sweep")
    _add_protocols(chaos, default_comparison_set())
    chaos.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3],
                       help="fault seeds to sweep")
    chaos.add_argument("--cores", type=int, default=16, help="core count")
    chaos.add_argument("--scale", type=float, default=0.1, help=SCALE_HELP)
    chaos.add_argument("--invariant-level", choices=INVARIANT_LEVELS, default="full",
                       help="runtime coherence invariant checking")

    mc = target("mc", _run_mc, "model-check the litmus corpus, or replay a "
                "counterexample", [jobs])
    mc.add_argument("--litmus", nargs="+",
                    help="litmus tests to explore (None: the whole corpus)")
    _add_protocols(mc, default_comparison_set())
    mc.add_argument("--bound", type=_bound, default=2,
                    help="preemption bound (CHESS-style; -1: unbounded)")
    mc.add_argument("--max-schedules", type=int, default=20_000,
                    help="truncate a cell's exploration after this many schedules")
    mc.add_argument("--replay",
                    help="replay a counterexample artifact (.json) and verify it "
                    "reproduces deterministically")
    mc.add_argument("--mc-out", default=os.path.join("results", "mc"),
                    help="directory for counterexample artifacts")

    sanitize = target("sanitize", _run_sanitize, "lint the sources and sweep every "
                      "kernel for races and stale reads", [jobs])
    _add_protocols(sanitize, sanitize_comparison_set())
    sanitize.add_argument("--cores", type=int, default=16, help="core count")
    sanitize.add_argument("--scale", type=float, default=0.05, help=SCALE_HELP)
    sanitize.add_argument("--seed", type=int, default=1, help="simulation seed")
    sanitize.add_argument("--sanitize-out", default=os.path.join("results", "sanitize.json"),
                          help="JSON findings report ('': none)")

    formal = target("formal", _run_formal, "verify each modelled protocol against "
                    "its formal model", [jobs])
    formal.add_argument("--litmus", nargs="+",
                        help="divergence-oracle litmus tests (None: the whole corpus)")
    _add_protocols(formal, formal_model_set(), choices=formal_model_set())
    formal.add_argument("--formal-out", default=os.path.join("results", "formal.json"),
                        help="JSON findings report ('': none)")
    formal.add_argument("--tla-out", default=os.path.join("results", "formal"),
                        help="directory for exported TLA+ modules ('': none)")
    formal.add_argument("--divergence-bound", type=int, default=1,
                        help="preemption bound of the divergence oracle")
    formal.add_argument("--divergence-schedules", type=int, default=300,
                        help="schedules the divergence oracle replays per litmus test")

    serve = target("serve", _run_serve, "run the sweep job server", [address, cache])
    serve.add_argument("--workers", type=int, default=0,
                       help="persistent worker processes (0: all host cores)")
    serve.add_argument("--max-queued", type=int, default=4096,
                       help="reject submissions with HTTP 503 + Retry-After once this "
                       "many cells are queued or running")
    serve.add_argument("--cell-deadline", type=float,
                       help="per-cell wall-clock budget in seconds (None: no limit); "
                       "an overrunning cell fails with deadline_exceeded and its "
                       "worker is recycled")
    serve.add_argument("--max-retries", type=int, default=3,
                       help="execution attempts per cell before it settles as failed")
    serve.add_argument("--drain-timeout", type=float, default=30.0,
                       help="on SIGTERM/SIGINT, seconds to wait for in-flight cells")

    submit = target("submit", _run_submit, "POST a kernel sweep to a running server",
                    [address])
    submit.add_argument("--sweep-family", default="tatas",
                        choices=["tatas", "array", "nonblocking", "barrier"],
                        help="kernel family of the sweep")
    submit.add_argument("--names", nargs="+",
                        help="kernel bar names to sweep (None: the whole family)")
    _add_protocols(submit, default_comparison_set())
    submit.add_argument("--cores", type=int, nargs="+", default=[16, 64],
                        help="core counts to sweep")
    submit.add_argument("--scale", type=float, default=0.1, help=SCALE_HELP)
    submit.add_argument("--seed", type=int, default=1, help="simulation seed")
    submit.add_argument("--wait", action="store_true",
                        help="poll until the job settles and print per-cell outcomes "
                        "(exit 1 if any cell failed)")
    submit.add_argument("--wait-timeout", type=float, default=600.0,
                        help="with --wait: give up after this many seconds")

    status = target("status", _run_status, "server health and job list, or one job's "
                    "detail", [address])
    status.add_argument("--job", help="show this job's per-cell detail")

    chaos_service = target("chaos-service", _run_chaos_service, "SIGKILL the workers of "
                           "a live sweep server and verify it self-heals")
    chaos_service.add_argument("--workers", type=int, default=2,
                               help="worker processes of the server")
    chaos_service.add_argument("--kills", type=int, default=2,
                               help="workers to SIGKILL mid-cell")
    chaos_service.add_argument("--kill-interval", type=float, default=0.3,
                               help="seconds between seeing a running cell and a kill")
    chaos_service.add_argument("--cores", type=int, default=16, help="core count")
    chaos_service.add_argument("--scale", type=float, default=0.3,
                               help="scale of the healthy cells")
    chaos_service.add_argument("--seed", type=int, default=1, help="simulation seed")
    chaos_service.add_argument("--cell-deadline", type=float, default=5.0,
                               help="per-cell wall-clock budget in seconds")
    chaos_service.add_argument("--max-retries", type=int, default=3,
                               help="execution attempts per cell before it fails")
    chaos_service.add_argument("--wait-timeout", type=float, default=600.0,
                               help="give up on the sweep after this many seconds")
    chaos_service.add_argument("--cache-dir",
                               help="result-cache directory (None: a fresh temporary one)")

    protocols = target("protocols", _run_protocols, "print the protocol plugin registry")
    protocols.add_argument("--format", choices=FORMATS, default="table",
                           help="aligned table, JSON descriptors, or the markdown table "
                           "(csv/plot)")
    protocols.add_argument("--check-doc", nargs="+", metavar="PATH",
                           help="verify each file embeds the registry's markdown table "
                           "verbatim (exit 1 on drift)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
