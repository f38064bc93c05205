"""The repository's benchmark: four workloads that each stress a different
layer of the simulator and its tooling.  Entry point: ``perfbench/run.py``;
the metric and workload list lives in ``BENCHMARK.json`` at the repo root,
and ``perfbench/README.md`` maps each per-layer metric to the end-to-end
metric it should move."""
