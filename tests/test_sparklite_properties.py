"""Property-based tests on the sparklite engine's semantics."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import Cluster
from repro.common.rng import RngRegistry
from repro.config import ClusterConfig, FailureConfig
from repro.sparklite.context import SparkContext


def make_sc(n_executors=3, task_failure_prob=0.0, seed=0):
    config = ClusterConfig(
        n_executors=n_executors,
        n_servers=1,
        seed=seed,
        failures=FailureConfig(task_failure_prob=task_failure_prob),
    )
    return SparkContext(Cluster(config))


@given(
    data=st.lists(st.integers(min_value=-1000, max_value=1000),
                  min_size=0, max_size=60),
    n_partitions=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=50, deadline=None)
def test_collect_preserves_multiset(data, n_partitions):
    sc = make_sc()
    assert sorted(sc.parallelize(data, n_partitions=n_partitions).collect()) \
        == sorted(data)


@given(
    data=st.lists(st.integers(min_value=-100, max_value=100),
                  min_size=1, max_size=40),
    n_partitions=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=50, deadline=None)
def test_aggregate_equals_python_fold(data, n_partitions):
    sc = make_sc()
    rdd = sc.parallelize(data, n_partitions=n_partitions)
    got = rdd.aggregate(0, lambda a, x: a + x * x, lambda a, b: a + b)
    assert got == sum(x * x for x in data)


@given(
    fraction=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=40, deadline=None)
def test_sample_is_subset(fraction, seed):
    sc = make_sc()
    data = list(range(80))
    sampled = sc.parallelize(data).sample(fraction, seed=seed).collect()
    assert set(sampled) <= set(data)
    assert len(sampled) == len(set(sampled))


@given(
    size=st.integers(min_value=0, max_value=120),
    n_partitions=st.integers(min_value=1, max_value=6),
    fraction=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=60, deadline=None)
def test_sample_equals_the_per_element_rule(size, n_partitions, fraction,
                                            seed):
    # The rule the one-draw-per-partition sample must reproduce: each
    # partition's stream drawn once per element, in order.
    sc = make_sc()
    rdd = sc.parallelize(list(range(size)), n_partitions=n_partitions)
    partitions = rdd.map_partitions_with_context(
        lambda _ctx, it: [list(it)]).collect()
    expected = []
    for partition_id, partition in enumerate(partitions):
        rng = RngRegistry(seed).get("sample-%d" % partition_id)
        expected.extend(x for x in partition if rng.random() < fraction)
    assert rdd.sample(fraction, seed=seed).collect() == expected


@given(
    prob=st.sampled_from([0.0, 0.1, 0.3, 0.6]),
    seed=st.integers(min_value=0, max_value=50),
    data=st.lists(st.integers(min_value=-50, max_value=50),
                  min_size=1, max_size=30),
)
@settings(max_examples=40, deadline=None)
def test_results_invariant_under_task_failures(prob, seed, data):
    """Injected task failures never change an action's result — only time."""
    clean = make_sc(task_failure_prob=0.0, seed=seed)
    flaky = make_sc(task_failure_prob=prob, seed=seed)
    assert clean.parallelize(data).sum() == flaky.parallelize(data).sum()


@given(
    prob=st.sampled_from([0.2, 0.5]),
    seed=st.integers(min_value=0, max_value=50),
)
@settings(max_examples=20, deadline=None)
def test_deferred_effects_invariant_under_failures(prob, seed):
    """Deferred (exactly-once) side effects match the failure-free run."""

    def run(failure_prob):
        sc = make_sc(task_failure_prob=failure_prob, seed=seed)
        sink = []

        def fn(ctx, iterator):
            items = list(iterator)
            ctx.defer(lambda: sink.extend(items))
            return [len(items)]

        sc.parallelize(range(24)).map_partitions_with_context(fn).collect()
        return sorted(sink)

    assert run(0.0) == run(prob) == list(range(24))
