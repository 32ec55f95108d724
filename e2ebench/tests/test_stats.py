"""The nearest-rank percentile helper and its reporting rule."""

import math

import pytest

import common


def test_nearest_rank_small_cases():
    assert common.nearest_rank([3.0, 1.0, 2.0], 0.5) == 2.0
    assert common.nearest_rank([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0
    assert common.nearest_rank([5.0], 0.99) == 5.0
    assert common.nearest_rank(list(range(1, 101)), 0.99) == 99


def test_p99_of_1000_leaves_ten_beyond():
    values = [float(i) for i in range(1, 1001)]
    assert common.nearest_rank(values, 0.99, min_beyond=10) == 990.0


def test_too_few_samples_beyond_is_an_error():
    values = [float(i) for i in range(1, 1000)]
    with pytest.raises(common.BenchError):
        common.nearest_rank(values, 0.99, min_beyond=10)


def test_failures_sort_last_and_count_against_the_tail():
    values = [1.0] * 985 + [math.inf] * 15
    assert common.nearest_rank(values, 0.99, min_beyond=10) == math.inf
    assert common.nearest_rank(values, 0.5) == 1.0


def test_invalid_percentiles_are_errors():
    with pytest.raises(common.BenchError):
        common.nearest_rank([], 0.5)
    with pytest.raises(common.BenchError):
        common.nearest_rank([1.0], 0.0)


def test_median():
    assert common.median([3, 1, 2]) == 2
    assert common.median([4, 1, 3, 2]) == 2.5
