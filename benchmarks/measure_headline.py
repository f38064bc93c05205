"""Measure the headline kernel-figure sweep (4 families x {16,64} cores).

Standalone timing harness for the committed headline block in
results/bench_baseline.json::

    PYTHONPATH=src python benchmarks/measure_headline.py

Runs the exact sweep the baseline records — every kernel of the tatas,
array, nonblocking and barrier families at 16 and 64 cores, scale 0.05,
all registry comparison protocols, serial, no cache — and prints the
wall-clock total.  For a before/after pair, run it back-to-back in a
checkout of each commit on one quiet host.
"""

from __future__ import annotations

import argparse
import sys
from time import perf_counter

from repro.harness.experiments import run_kernel_figure

FAMILIES = ("tatas", "array", "nonblocking", "barrier")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--cores", type=int, nargs="+", default=[16, 64])
    args = parser.parse_args(argv)

    total = 0.0
    for family in FAMILIES:
        start = perf_counter()
        run_kernel_figure(
            family,
            core_counts=tuple(args.cores),
            scale=args.scale,
        )
        elapsed = perf_counter() - start
        total += elapsed
        print(f"{family:12s} {elapsed:8.3f}s", flush=True)
    print(f"TOTAL {total:8.3f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
