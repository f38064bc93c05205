"""The batch workloads' checks: the accuracy gap, failure accounting and
tracing that leaves every simulated result unchanged."""

from perfbench import batch, tracing
from perfbench.common import Tally

SCALE = batch.KERNEL_SCALE


def _tatas16(seed=1):
    return [c for c in batch.kernel_cells(seed) if c.cell_id.startswith("tatas/")
            and "@16x" in c.cell_id]


def test_gap_matches_headline_summary():
    from repro.harness.experiments import headline_summary, run_kernel_figure

    figure = run_kernel_figure("tatas", core_counts=(16,), scale=SCALE, seed=1)
    ds = headline_summary([figure])["DeNovoSync"]
    cells = batch.seeded_order(_tatas16(), 5)  # a benchmark run order
    tally = Tally()
    done = batch.run_pass(cells, tally, None)
    assert tally.failed == 0
    time_gap, traffic_gap = batch.ds_gaps(cells, done.outcomes, (0.78, 0.42))
    assert time_gap == abs(ds["avg_rel_time"] - 0.78)
    assert traffic_gap == abs(ds["avg_rel_traffic"] - 0.42)


def test_injected_failing_cell_is_counted_not_dropped():
    from dataclasses import replace

    good = _tatas16()[0]
    bad = replace(good, cell_id="injected",
                  spec=replace(good.spec, protocol="NoSuchProtocol"))
    tally = Tally()
    done = batch.run_pass([good, bad], tally, None)
    assert tally.attempted == 2
    assert tally.failed == 1
    assert tally.failures[0].startswith("injected: ")
    assert "injected" in done.cell_s and "injected" not in done.outcomes


def test_summary_mismatch_is_a_failure():
    good = _tatas16()[0]
    tally = Tally()
    batch.run_pass([good], tally, {good.cell_id: "0" * 20})
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "recorded" in tally.failures[0]


def test_recorded_summaries_match_this_commit():
    from perfbench.common import load_expected

    expected = load_expected("sync_kernels", batch.KERNEL_SEED)
    cells = _tatas16()
    tally = Tally()
    batch.run_pass(cells, tally, expected)
    assert tally.failed == 0, tally.failures


def test_tracing_leaves_results_and_fast_paths_unchanged():
    # Neat grants spin leases only while Core's type-identity checks see
    # an unwrapped protocol class; wrapping instances must keep them.
    cells = [c for c in _tatas16() if c.spec.protocol in ("Neat", "DeNovoSync")][:4]
    tally = Tally()
    plain = batch.run_pass(cells, tally, None)
    recorder = tracing.Recorder()
    fired = []
    with tracing.instrumented_runner(recorder, fired):
        traced = batch.run_pass(cells, tally, None, reference=plain)
    assert tally.failed == 0, tally.failures
    assert traced.digests == plain.digests
    assert fired == [batch.events_fired(plain.outcomes[c.cell_id].meta["epoch"])
                     for c in cells]
    elided = sum(r.meta["epoch"]["spin_polls_elided"] for r in traced.outcomes.values())
    assert elided > 0
    assert recorder.calls["protocols.load"][0] > 0
    assert any(name.startswith("mem.") for name in recorder.calls)
    assert len(recorder.durations("sim.run")) == len(cells)
    # the patched names are restored
    from repro.harness import parallel, runner
    from repro.protocols import make_protocol
    from repro.sim.engine import Simulator

    assert runner.make_protocol is make_protocol and runner.Simulator is Simulator
    assert parallel.materialize_workload.__module__ == "repro.harness.parallel"


def test_recorder_self_time_excludes_children():
    recorder = tracing.Recorder()
    inner = recorder.wrap("inner", lambda: sum(range(1000)))
    outer = recorder.wrap("outer", lambda: inner() + inner())
    outer()
    calls, inclusive, child = recorder.calls["outer"]
    assert calls == 1 and recorder.calls["inner"][0] == 2
    assert child == recorder.calls["inner"][1] <= inclusive
