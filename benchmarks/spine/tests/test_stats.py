"""The statistics every reported number goes through."""

import pytest

from benchmarks.spine import stats


@pytest.mark.parametrize(
    ("count", "expected"),
    [(9, None), (19, None), (20, 50.0), (50, 75.0), (6_000, 99.0), (10_000, 99.9)],
)
def test_tail_percentile_leaves_ten_samples_beyond(count, expected):
    assert stats.tail_percentile(count) == expected


def test_tail_reports_the_supported_percentile_of_the_sample():
    values = [float(i) for i in range(1, 51)]  # n = 50 supports p75
    assert stats.tail(values) == (75.0, 38.0)
    assert stats.tail(values[:9]) == (0.0, 9.0)  # no percentile claimed: worst seen


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.percentile(values, 50.0) == 3.0
    assert stats.percentile(values, 99.0) == 5.0
    assert stats.percentile(values, 1.0) == 1.0


def test_metric_reports_median_and_quartiles_with_count():
    entry = stats.metric("ms", "lower", [4.0, 1.0, 3.0, 2.0, 5.0])
    assert (entry["value"], entry["n"]) == (3.0, 5)
    assert entry["q1"] < entry["value"] < entry["q3"]
    single = stats.metric("s", "lower", [7.5])
    assert (single["q1"], single["value"], single["q3"]) == (7.5, 7.5, 7.5)


def test_digest_separates_parts():
    assert stats.digest([b"ab", b"c"]) != stats.digest([b"a", b"bc"])
    assert stats.digest(["x", b"y"]) == stats.digest([b"x", "y"])
