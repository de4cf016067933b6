"""Unit tests for sparklite RDD transformations and actions."""

import numpy as np
import pytest

from repro.common.errors import SparkliteError
from repro.sparklite.context import SparkContext
from repro.sparklite.task import with_context


@pytest.fixture
def sc(cluster):
    return SparkContext(cluster)


def test_parallelize_collect_round_trip(sc):
    data = list(range(37))
    assert sorted(sc.parallelize(data).collect()) == data


def test_partition_sizes_balanced(sc):
    rdd = sc.parallelize(range(10), n_partitions=4)
    sizes = rdd.map_partitions(lambda it: [sum(1 for _ in it)]).collect()
    assert sum(sizes) == 10
    assert max(sizes) - min(sizes) <= 1


def test_default_partitions_match_executors(sc):
    rdd = sc.parallelize(range(8))
    assert rdd.get_num_partitions() == sc.n_executors


def test_parallelize_rejects_zero_partitions(sc):
    with pytest.raises(SparkliteError):
        sc.parallelize([1], n_partitions=0)


def test_map(sc):
    assert sorted(sc.parallelize([1, 2, 3]).map(lambda x: x * 2).collect()) \
        == [2, 4, 6]


def test_chained_transformations(sc):
    result = (
        sc.parallelize(range(20))
        .map(lambda x: x + 1)
        .map_partitions(lambda it: (x for x in it if x % 3 == 0))
        .map(lambda x: x * 10)
        .collect()
    )
    assert sorted(result) == [30, 60, 90, 120, 150, 180]


def test_count(sc):
    assert sc.parallelize(range(55)).count() == 55


def test_sum(sc):
    assert sc.parallelize(range(10)).sum() == 45.0


def test_sum_empty(sc):
    assert sc.parallelize([]).sum() == 0.0


def test_reduce(sc):
    assert sc.parallelize(range(1, 6)).reduce(lambda a, b: a * b) == 120


def test_reduce_empty_raises(sc):
    with pytest.raises(SparkliteError):
        sc.parallelize([]).reduce(lambda a, b: a + b)


def test_reduce_skips_empty_partitions(sc):
    # 2 elements over 4 partitions: two partitions are empty.
    assert sc.parallelize([3, 4], n_partitions=4).reduce(lambda a, b: a + b) == 7


def test_max_min(sc):
    rdd = sc.parallelize([5, 3, 9, 1])
    assert rdd.max() == 9
    assert rdd.min() == 1


def test_aggregate_sums_ndarrays(sc):
    rdd = sc.parallelize(range(8))
    zero = np.zeros(3)
    result = rdd.aggregate(
        zero,
        lambda acc, x: acc + np.array([x, 1.0, 0.0]),
        lambda a, b: a + b,
    )
    assert result[0] == 28.0
    assert result[1] == 8.0


def test_aggregate_zero_not_shared(sc):
    """A mutable zero must be copied per partition, not aliased."""
    rdd = sc.parallelize(range(4), n_partitions=4)

    def seq(acc, x):
        acc.append(x)
        return acc

    result = rdd.aggregate([], seq, lambda a, b: a + b)
    assert sorted(result) == [0, 1, 2, 3]


def test_sample_fraction_bounds(sc):
    with pytest.raises(SparkliteError):
        sc.parallelize(range(5)).sample(1.5)


def test_sample_deterministic_per_seed(sc):
    rdd = sc.parallelize(range(100))
    a = sorted(rdd.sample(0.3, seed=5).collect())
    b = sorted(rdd.sample(0.3, seed=5).collect())
    c = sorted(rdd.sample(0.3, seed=6).collect())
    assert a == b
    assert a != c


def test_sample_roughly_fraction(sc):
    rdd = sc.parallelize(range(2000))
    n = rdd.sample(0.25, seed=1).count()
    assert 380 < n < 620


def test_sample_zero_and_one(sc):
    rdd = sc.parallelize(range(50))
    assert rdd.sample(0.0, seed=1).count() == 0
    assert rdd.sample(1.0, seed=1).count() == 50


def test_map_partitions_with_context_gets_ctx(sc):
    executors = []

    def fn(ctx, iterator):
        executors.append(ctx.executor)
        return [sum(1 for _ in iterator)]

    total = sum(
        sc.parallelize(range(12)).map_partitions_with_context(fn).collect()
    )
    assert total == 12
    assert len(set(executors)) == sc.n_executors


def test_with_context_marker(sc):
    @with_context
    def fn(ctx, iterator):
        assert ctx is not None
        return list(iterator)

    assert sorted(sc.parallelize([1, 2]).map_partitions(fn).collect()) == [1, 2]


def test_cache_computes_once(sc):
    calls = []

    def fn(it):
        calls.append(1)
        return list(it)

    rdd = sc.parallelize(range(4), n_partitions=2).map_partitions(fn).cache()
    rdd.collect()
    first = len(calls)
    rdd.collect()
    assert len(calls) == first  # served from cache


def test_collect_charges_driver_traffic(sc):
    before = sc.cluster.metrics.bytes_for_tag("collect:result")
    sc.parallelize([np.zeros(1000)] * 4, n_partitions=4).collect()
    after = sc.cluster.metrics.bytes_for_tag("collect:result")
    assert after - before >= 4 * 8000


def test_actions_advance_virtual_time(sc):
    before = sc.elapsed()
    sc.parallelize(range(100)).map(lambda x: x).collect()
    assert sc.elapsed() > before
