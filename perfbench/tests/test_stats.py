"""The percentile rule and the ordering helpers."""

import pytest

from perfbench.common import Tally, seeded_order, tail_percentile


def test_p90_needs_ten_samples_beyond():
    samples = list(range(1, 101))  # 100 samples
    assert tail_percentile(samples, 90) == 90.0  # 10 samples lie beyond
    with pytest.raises(ValueError, match="only 9 beyond"):
        tail_percentile(samples[:99], 90)


def test_percentile_is_nearest_rank_and_order_free():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 40  # 200 samples
    assert tail_percentile(samples, 50) == 3.0
    assert tail_percentile(list(reversed(samples)), 90) == 5.0


def test_empty_samples_rejected():
    with pytest.raises(ValueError):
        tail_percentile([], 50)


def test_seeded_order_is_a_stable_permutation():
    items = list(range(50))
    assert seeded_order(items, 7) == seeded_order(items, 7)
    assert seeded_order(items, 7) != seeded_order(items, 8)
    assert sorted(seeded_order(items, 7)) == items


def test_flagged_output_counts_once_as_attempted():
    tally = Tally()
    tally.ok()
    tally.flag("cell a: summary differs")
    tally.fail("cell b: raised")
    assert (tally.attempted, tally.failed) == (2, 2)
