"""The ``verify_cells`` workload: the verification subsystems' own cells.

Each pass runs, in a new ``--seed``-determined order and each through its
package's public ``run_cell``:

* the model checker: every litmus test of the corpus under every
  default-comparison protocol, at preemption bound 1 (bound 2, the ``mc``
  target's default, takes 6 s of a pass on its own);
* the formal pipeline: every protocol that declares a formal model
  (conformance, exhaustive exploration, divergence oracle, TLA+ export);
* the sanitizer: each kernel family's first kernel under every
  self-invalidation protocol at 16 cores and one kernel iteration, traced
  and analyzed.

These are hundreds of tiny controller-gated simulations, breadth-first
state exploration and trace recording: construction, not steady-state
simulation, dominates.  A cell fails when it raises, when it reports a
violation or an error finding, or when its outcome statistics differ from
the recorded ones or from an earlier pass.
"""

from __future__ import annotations

from dataclasses import dataclass

from perfbench import tracing
from perfbench.batch import KERNEL_FAMILIES
from perfbench.common import (
    CellFailed,
    PassResult,
    Tally,
    end_to_end,
    load_expected,
    pass_detail,
    seeded_order,
    time_imports,
    timed_passes,
    write_expected,
)
from perfbench.common import run_pass as common_run_pass

MC_BOUND = 1
SANITIZE_CORES = 16
SANITIZE_SCALE = 0.01
SANITIZE_SEED = 1  # the sanitize target's default; held-out: 2
SETUP_IMPORTS = ["repro.mc.cells", "repro.formal.cells", "repro.sanitize.cells"]


@dataclass(frozen=True)
class VerifyCell:
    cell_id: str
    kind: str  # "mc" | "formal" | "sanitize"
    cell: object


def make_cells(sim_seed: int) -> list[VerifyCell]:
    from repro.formal.cells import FormalCell
    from repro.mc.cells import McCell
    from repro.mc.litmus import CORPUS
    from repro.protocols.registry import (
        default_comparison_set,
        formal_model_set,
        sanitize_comparison_set,
    )
    from repro.sanitize.cells import SanitizeCell
    from repro.workloads.registry import kernel_names

    cells = [
        VerifyCell(f"mc/{test}x{protocol}", "mc", McCell(test, protocol, bound=MC_BOUND))
        for test in sorted(CORPUS)
        for protocol in default_comparison_set()
    ]
    cells += [
        VerifyCell(f"formal/{protocol}", "formal", FormalCell(protocol))
        for protocol in formal_model_set()
    ]
    cells += [
        VerifyCell(
            f"sanitize/{family}/{kernel}x{protocol}", "sanitize",
            SanitizeCell(family, kernel, protocol, cores=SANITIZE_CORES,
                         scale=SANITIZE_SCALE, seed=sim_seed),
        )
        for family in KERNEL_FAMILIES
        for kernel in kernel_names(family)[:1]
        for protocol in sanitize_comparison_set()
    ]
    return cells


def _runners() -> dict:
    from repro.formal import cells as formal_cells
    from repro.mc import cells as mc_cells
    from repro.sanitize import cells as sanitize_cells

    return {
        "mc": mc_cells.run_cell,
        "formal": formal_cells.run_cell,
        "sanitize": sanitize_cells.run_cell,
    }


def outcome_stats(kind: str, outcome) -> dict:
    """The deterministic part of an outcome, checked against the record."""
    if kind == "mc":
        return {
            "executions": outcome.executions,
            "naive_estimate": outcome.naive_estimate,
            "sleep_cuts": outcome.sleep_cuts,
            "bound_pruned": outcome.bound_pruned,
            "max_depth": outcome.max_depth,
            "truncated": outcome.truncated,
        }
    if kind == "formal":
        return {
            "explore": outcome.explore_stats,
            "oracle": outcome.oracle_stats,
            "findings": len(outcome.findings),
        }
    return {
        "records": outcome.records,
        "racy_unannotated_pairs": outcome.racy_unannotated_pairs,
        "stale_read_hazards": outcome.stale_read_hazards,
    }


def work_units(kind: str, outcome) -> int:
    """Executions explored, model states visited, or trace records."""
    if kind == "mc":
        return outcome.executions
    if kind == "formal":
        return outcome.explore_stats.get("states", 0)
    return outcome.records


def _check(item: VerifyCell, outcome) -> tuple[dict, None]:
    if not outcome.ok:
        raise CellFailed(outcome.describe())
    return outcome_stats(item.kind, outcome), None


def run_pass(cells, tally: Tally, expected, recorder=None, reference=None,
             gauge=None) -> PassResult:
    """One pass through each cell's ``run_cell``; with a ``recorder``, each
    cell is a span named after its package."""
    runners = _runners()

    def execute(item: VerifyCell):
        if recorder is None:
            return runners[item.kind](item.cell)
        with recorder.span(f"{item.kind}.run_cell", cell=item.cell_id):
            return runners[item.kind](item.cell)

    return common_run_pass(cells, tally, expected, execute, _check, reference, gauge)


def run(ctx) -> tuple[Tally, dict, dict]:
    sim_seed = SANITIZE_SEED if ctx.sim_seed is None else ctx.sim_seed
    cells = make_cells(sim_seed)
    tally = Tally()
    if ctx.record:
        write_expected("verify_cells", sim_seed, run_pass(cells, tally, None).digests)
        return tally, {}, {}
    expected = load_expected("verify_cells", sim_seed)
    if ctx.trace:
        return _traced(seeded_order(cells, ctx.seed), tally, expected)
    setup_s = time_imports(SETUP_IMPORTS)
    passes = timed_passes(
        lambda order, reference, gauge: run_pass(order, tally, expected, reference=reference,
                                                 gauge=gauge),
        cells, ctx.seed, ctx.seconds,
    )
    metrics = end_to_end(len(cells), passes, setup_s)
    return tally, metrics, pass_detail(passes, sim_seed)


def _traced(cells, tally: Tally, expected):
    first = run_pass(cells, tally, expected)
    recorder = tracing.Recorder()
    second = run_pass(cells, tally, expected, recorder, reference=first)
    _, shares = tracing.profile_shares(
        lambda: run_pass(cells, tally, expected, reference=first)
    )
    metrics = {f"{pkg}.self_share": share for pkg, share in shares.items()}
    metrics["tracing.overhead"] = second.wall_s / first.wall_s
    units = {
        cid: work_units(item.kind, first.outcomes[cid])
        for item in cells if (cid := item.cell_id) in first.outcomes
    }
    for kind, unit_name in (("mc", "executions"), ("formal", "states"),
                            ("sanitize", "records")):
        total = sum(n for cid, n in units.items() if cid.startswith(kind + "/"))
        seconds = recorder.span_seconds(f"{kind}.run_cell")
        metrics[f"{kind}.{unit_name}"] = total
        metrics[f"{kind}.s_per_{unit_name[:-1]}"] = seconds / total if total else 0.0
    return tally, metrics, recorder.as_dict()
