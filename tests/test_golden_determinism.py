"""Golden-run determinism under the hybrid scheduler.

The engine's bucket-wheel + heap hybrid, its free list, its batched
epoch drain and the spin fast-forward leases must be invisible to
results: every consumer of the simulator — figures, chaos differential
runs, model checking, trace capture — relies on the deterministic
(cycle, seq) firing order.  These tests pin that down:

* the same workload run twice produces byte-identical stats JSON and
  byte-identical trace files;
* the hybrid scheduler produces byte-identical results to
  :class:`~repro.sim.engine.ReferenceHeapSimulator`, a pure binary-heap
  subclass that bypasses the bucket wheel entirely — proving neither the
  wheel nor the epoch drain changes the schedule *order* of anything —
  across every registry protocol, traced and untraced (untraced runs
  are the ones that take spin leases);
* the spin fast-forward path is byte-identical to plain polling (Neat
  grants leases untraced; the tracing wrapper turns them off, and so
  does restoring the base class's declining ``spin_poll_lease``).
"""

import hashlib
import json

import pytest

import repro.harness.runner as runner_mod
from repro.config import config_for_cores
from repro.harness.runner import run_workload
from repro.protocols.base import CoherenceProtocol
from repro.protocols.registry import get_info, protocol_names
from repro.sim.engine import ReferenceHeapSimulator
from repro.trace.events import write_trace
from repro.workloads.base import KernelSpec
from repro.workloads.registry import make_kernel

CELLS = [
    ("tatas", "counter"),  # lock kernel
    ("barrier", "central"),  # barrier kernel
    ("nonblocking", "M-S queue"),  # non-blocking kernel
]
# Every protocol the plugin registry knows about, not just the figure set:
# the epoch drain and the quiescence/lease contract must hold for all of
# them.
PROTOCOLS = list(protocol_names())


def _golden(family, name, protocol, tmp_path, tag):
    """(stats JSON bytes, trace SHA-256) for one traced run."""
    workload = make_kernel(family, name, spec=KernelSpec(scale=0.02))
    result = run_workload(
        workload,
        protocol,
        config_for_cores(4),
        seed=1,
        trace=True,
    )
    path = tmp_path / f"{tag}.jsonl"
    write_trace(result.meta["trace"], path)
    stats = json.dumps(result.summary(), sort_keys=True).encode()
    return stats, hashlib.sha256(path.read_bytes()).hexdigest()


def _untraced(family, name, protocol):
    """(summary JSON, epoch counters) for one untraced run."""
    workload = make_kernel(family, name, spec=KernelSpec(scale=0.02))
    result = run_workload(workload, protocol, config_for_cores(4), seed=1)
    return json.dumps(result.summary(), sort_keys=True), result.meta["epoch"]


@pytest.mark.parametrize("family,name", CELLS)
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_repeat_runs_are_byte_identical(family, name, protocol, tmp_path):
    first = _golden(family, name, protocol, tmp_path, "first")
    second = _golden(family, name, protocol, tmp_path, "second")
    assert first == second


@pytest.mark.parametrize("family,name", CELLS)
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_hybrid_matches_reference_heap_schedule(
    family, name, protocol, tmp_path, monkeypatch
):
    hybrid = _golden(family, name, protocol, tmp_path, "hybrid")
    monkeypatch.setattr(runner_mod, "Simulator", ReferenceHeapSimulator)
    reference = _golden(family, name, protocol, tmp_path, "reference")
    assert hybrid == reference


@pytest.mark.parametrize("family,name", CELLS)
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_untraced_repeat_runs_are_identical(family, name, protocol):
    """Summaries *and* the epoch counters repeat exactly run to run."""
    assert _untraced(family, name, protocol) == _untraced(
        family, name, protocol
    )


@pytest.mark.parametrize("family,name", CELLS)
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_untraced_hybrid_matches_reference_heap_schedule(
    family, name, protocol, monkeypatch
):
    """The lease path under the wheel drain matches the pure heap.

    The traced reference test above runs with leases off; untraced,
    lease ticks are scheduled through the same queue, so they must keep
    their (cycle, seq) slots on both engines.  Event and fallback counts
    differ by construction; the polls elided may not.
    """
    hybrid, hybrid_epoch = _untraced(family, name, protocol)
    monkeypatch.setattr(runner_mod, "Simulator", ReferenceHeapSimulator)
    reference, reference_epoch = _untraced(family, name, protocol)
    assert hybrid == reference
    assert hybrid_epoch["spin_polls_elided"] == (
        reference_epoch["spin_polls_elided"]
    )
    assert reference_epoch["epochs"] == 0


@pytest.mark.parametrize("family,name", CELLS)
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_leases_off_matches_untraced_run(family, name, protocol, monkeypatch):
    """Every registry protocol, with its lease hook forced to decline.

    Restoring the base class's ``spin_poll_lease`` makes every core poll
    through the protocol; the summary must not change.
    """
    leased, _ = _untraced(family, name, protocol)
    monkeypatch.setattr(
        get_info(protocol).cls,
        "spin_poll_lease",
        CoherenceProtocol.spin_poll_lease,
    )
    polled, polled_epoch = _untraced(family, name, protocol)
    assert polled_epoch["spin_polls_elided"] == 0
    assert leased == polled


@pytest.mark.parametrize("family,name", [("tatas", "counter"),
                                         ("barrier", "central")])
def test_spin_lease_path_is_byte_identical(family, name):
    """The spin fast-forward must actually engage and still match.

    Under Neat — the one registry protocol whose failed polls are
    stateless — an untraced run elides polls via lease ticks.  Tracing
    wraps the protocol, which turns leasing off, so the traced run polls
    every time; both must produce byte-identical summaries.
    """
    def run(trace):
        workload = make_kernel(family, name, spec=KernelSpec(scale=0.02))
        return run_workload(
            workload, "Neat", config_for_cores(16), seed=1, trace=trace
        )

    leased, polled = run(False), run(True)
    assert leased.meta["epoch"]["spin_polls_elided"] > 0
    assert polled.meta["epoch"]["spin_polls_elided"] == 0
    assert json.dumps(leased.summary(), sort_keys=True) == json.dumps(
        polled.summary(), sort_keys=True
    )
