"""verify_cells counts a cell that raises or reports a finding as a
failed operation, and keeps its time."""

from dataclasses import dataclass

from perfbench import verify_cells
from perfbench.common import Tally, end_to_end, run_pass, timed_passes


@dataclass(frozen=True)
class _Broken:
    test_name: str = "no such litmus test"


def test_failing_cells_are_counted_and_timed():
    good = next(c for c in verify_cells.make_cells(1) if c.kind == "mc")
    raises = verify_cells.VerifyCell("raises", "mc", _Broken())
    tally = Tally()
    done = verify_cells.run_pass([good, raises], tally, None)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.failures[0].startswith("raises: ")
    assert set(done.cell_s) == {good.cell_id, "raises"}
    assert set(done.outcomes) == {good.cell_id}


def test_outcome_with_a_finding_is_a_failure():
    class Finding:
        ok = False

        def describe(self):
            return "1 violation"

    tally = Tally()
    cell = verify_cells.VerifyCell("found", "mc", None)
    done = run_pass([cell], tally, None, lambda item: Finding(), verify_cells._check)
    assert tally.failures == ["found: 1 violation"]
    assert "found" in done.cell_s


def test_failed_cells_leave_the_percentiles_computable():
    # 120 cells that all raise: each still leaves a time sample.
    cells = [verify_cells.VerifyCell(f"c{i}", "mc", _Broken()) for i in range(120)]
    tally = Tally()
    passes = timed_passes(
        lambda order, ref, gauge: verify_cells.run_pass(order, tally, None, reference=ref,
                                                        gauge=gauge),
        cells, 1, 0.0,
    )
    metrics = end_to_end(len(cells), passes, 0.1)
    assert tally.failed == tally.attempted == 120 * len(passes)
    assert metrics["job_s_p90"] >= 0 and len(passes) == 3
    assert all(p.speed > 0 for p in passes)
