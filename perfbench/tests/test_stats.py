"""Percentile maths and the ten-beyond guard."""

import pytest

import stats
from serve import bucket_percentile, merge_scrapes


def test_samples_beyond_is_exact_at_the_boundary():
    assert stats.samples_beyond(1000, 99) == 10
    assert stats.samples_beyond(999, 99) == 9
    assert stats.samples_beyond(100, 90) == 10
    assert stats.samples_beyond(20, 50) == 10


def test_min_samples():
    assert stats.min_samples(99) == 1000
    assert stats.min_samples(90) == 100
    assert stats.min_samples(50) == 20


def test_percentile_interpolates_between_ranks():
    values = list(range(1, 101))  # 1..100
    assert stats.percentile(values, 50) == pytest.approx(50.5)
    assert stats.percentile(values, 90) == pytest.approx(90.1)
    assert stats.percentile(list(reversed(values)), 90) == pytest.approx(90.1)


def test_percentile_refuses_without_ten_beyond():
    with pytest.raises(stats.PercentileError):
        stats.percentile([1.0] * 999, 99)
    with pytest.raises(stats.PercentileError):
        stats.percentile([1.0] * 99, 90)
    with pytest.raises(stats.PercentileError):
        stats.percentile([1.0] * 19, 50)
    assert stats.percentile([2.0] * 1000, 99) == 2.0


def test_short_run_cannot_report_its_maximum_as_p99():
    values = [1.0] * 107 + [9.0]  # a 108-batch run: "p99" would be the max
    with pytest.raises(stats.PercentileError):
        stats.percentile(values, 99)


def test_median():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert stats.median([4.0, 1.0, 2.0, 3.0]) == 2.5
    with pytest.raises(stats.PercentileError):
        stats.median([])


SCRAPE = """# TYPE repro_serve_queries counter
repro_serve_queries 7
# TYPE repro_serve_shard_fold histogram
repro_serve_shard_fold_bucket{le="0.001"} 0
repro_serve_shard_fold_bucket{le="0.002"} 10
repro_serve_shard_fold_bucket{le="0.004"} 30
repro_serve_shard_fold_bucket{le="+Inf"} 30
repro_serve_shard_fold_sum 0.05
repro_serve_shard_fold_count 30
"""


def test_scrapes_merge_and_bucket_percentiles_interpolate():
    values, buckets = merge_scrapes([SCRAPE, SCRAPE])
    assert values["repro_serve_queries"] == 14
    assert values["repro_serve_shard_fold_sum"] == pytest.approx(0.1)
    pairs = buckets["repro_serve_shard_fold"]
    assert pairs[-1] == (float("inf"), 60.0)
    # rank 30 of 60: 20 samples lie below 0.002 and 40 in (0.002, 0.004],
    # so the rank lands a quarter of the way into that bucket
    assert bucket_percentile(pairs, 50) == pytest.approx(0.0025)


def test_bucket_percentile_guard_and_idle_layer():
    assert bucket_percentile([], 50) == 0.0
    few = [(0.001, 5.0), (float("inf"), 5.0)]
    with pytest.raises(stats.PercentileError):
        bucket_percentile(few, 50)


class _Clock:
    def __init__(self):
        self.now = 0.0

    def monotonic(self):
        return self.now


@pytest.mark.parametrize("seconds, minimum, expected", [
    (30.0, 3, 3),   # a fourth 8-s repeat would end at 32 s
    (33.0, 3, 4),
    (5.0, 3, 3),    # the minimum holds even past the budget
    (100.0, 1, 6),  # the maximum caps a long budget
])
def test_repeat_within_predicts_the_next_repeat(monkeypatch, seconds, minimum, expected):
    import common

    clock = _Clock()
    monkeypatch.setattr(common.time, "monotonic", clock.monotonic)

    def step():
        clock.now += 8.0

    assert common.repeat_within(seconds, minimum, 6, step) == expected
