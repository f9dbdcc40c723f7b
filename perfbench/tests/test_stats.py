import math

import pytest

from perfbench.stats import percentile, quartile_spread, reportable_percentile


@pytest.mark.parametrize(
    "n, expected",
    [(10000, 99.9), (1000, 99.0), (999, 95.0), (200, 95.0), (100, 90.0),
     (40, 75.0), (20, 50.0), (19, None), (0, None)],
)
def test_reportable_percentile_keeps_ten_samples_beyond(n, expected):
    assert reportable_percentile(n) == expected


def test_reportable_percentile_never_reads_off_fewer_than_ten():
    for n in range(20, 3000):
        p = reportable_percentile(n)
        rank = math.ceil(p / 100 * n)
        assert n - rank >= 10, (n, p)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([3.0], 99) == 3.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_quartile_spread_matches_the_statistics_rule():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    # statistics.quantiles(n=4), exclusive method: 2.75, 5.5, 8.25
    assert quartile_spread(values) == pytest.approx((8.25 - 2.75) / 5.5)
