"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sync_kernels --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  ``BENCHMARK.json`` lists the workloads
and metrics; ``perfbench/README.md`` says what each measures.  With
``--trace 0`` the run measures the end-to-end metrics with tracing off;
with ``--trace 1`` it reports the per-layer metrics instead.  The last
line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The line before it carries the host fingerprint; the run's spans and
detail are written under ``.perfbench_out/``.  ``--record`` re-records
the expected summaries in ``perfbench/expected/`` for the run's seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sync_kernels", "apps", "service_mix", "verify_cells")


@dataclass(frozen=True)
class Context:
    workload: str
    seed: int
    seconds: float
    trace: bool
    sim_seed: int | None
    record: bool


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--sim-seed", type=int, default=None,
        help="simulation seed of the batch and verify workloads "
        "(default: the figures' own seed; the held-out seed is one higher)",
    )
    parser.add_argument("--record", action="store_true",
                        help="re-record perfbench/expected/ for this seed")
    return parser.parse_args(argv)


def _metric_specs(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import common

    ctx = Context(args.workload, args.seed, args.seconds, bool(args.trace),
                  args.sim_seed, args.record)
    if ctx.workload in ("sync_kernels", "apps"):
        from perfbench import batch

        tally, metrics, detail = batch.run(ctx.workload, ctx)
    elif ctx.workload == "service_mix":
        from perfbench import service_mix

        tally, metrics, detail = service_mix.run(ctx)
    else:
        from perfbench import verify_cells

        tally, metrics, detail = verify_cells.run(ctx)

    host = common.fingerprint(ctx.seed)
    from repro.harness.parallel import code_version

    host["source_sha256"] = code_version()
    common.write_out(
        f"{ctx.workload}-seed{ctx.seed}-trace{int(ctx.trace)}.json",
        {"host": host, "failures": tally.failures, "metrics": metrics, "detail": detail},
    )
    for reason in tally.failures[:20]:
        print(f"FAILED {reason}", file=sys.stderr)
    if ctx.record:
        print(f"recorded {tally.attempted} cells ({tally.failed} failed)")
        return 1 if tally.failed else 0
    specs = _metric_specs(ctx.trace)
    unknown = set(metrics) - {spec["name"] for spec in specs}
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    out = {}
    for spec in specs:
        # Every end-to-end metric applies to every workload; a per-layer
        # metric of a layer the workload never enters reads 0.
        value = metrics.get(spec["name"], 0) if ctx.trace else metrics[spec["name"]]
        out[spec["name"]] = {"value": value, "unit": spec["unit"]}
    print(json.dumps({"host": host}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
