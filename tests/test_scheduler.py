"""Scheduler tests: retries, exactly-once commits, broadcast, task context."""

import pytest

from repro.cluster.cluster import Cluster
from repro.common.errors import JobAbortedError, TaskError
from repro.config import ClusterConfig, FailureConfig
from repro.costs import MAX_TASK_RETRIES
from repro.sparklite.broadcast import Broadcast
from repro.sparklite.context import SparkContext
from repro.sparklite.task import TaskContext


def make_sc(task_failure_prob=0.0, seed=0):
    config = ClusterConfig(
        n_executors=4,
        n_servers=1,
        seed=seed,
        failures=FailureConfig(task_failure_prob=task_failure_prob),
    )
    return SparkContext(Cluster(config))


def test_tasks_retry_and_job_completes():
    sc = make_sc(task_failure_prob=0.3, seed=5)
    result = sc.parallelize(range(40)).sum()
    assert result == sum(range(40))
    assert sc.scheduler.tasks_failed > 0


def test_retries_cost_time():
    clean = make_sc(task_failure_prob=0.0, seed=5)
    flaky = make_sc(task_failure_prob=0.4, seed=5)
    data = list(range(40))
    clean.parallelize(data).sum()
    flaky.parallelize(data).sum()
    assert flaky.elapsed() > clean.elapsed()


def test_retry_budget_exhaustion_aborts():
    sc = make_sc(task_failure_prob=1.0, seed=1)
    with pytest.raises(JobAbortedError):
        sc.parallelize(range(4)).count()
    # The first partition ran once and retried MAX_TASK_RETRIES times.
    assert sc.scheduler.tasks_failed == MAX_TASK_RETRIES + 1


def test_deferred_effects_exactly_once():
    """A retried task must not double-apply its deferred effects."""
    sc = make_sc(task_failure_prob=0.4, seed=9)
    applied = []

    def fn(ctx, iterator):
        items = list(iterator)
        ctx.defer(lambda: applied.extend(items))
        return [len(items)]

    sc.parallelize(range(30)).map_partitions_with_context(fn).collect()
    assert sorted(applied) == list(range(30))
    assert sc.scheduler.tasks_failed > 0


def test_user_exception_becomes_task_error():
    sc = make_sc()

    def boom(x):
        raise ValueError("nope")

    with pytest.raises(TaskError):
        sc.parallelize([1]).map(boom).collect()


def test_executor_assignment_round_robin():
    sc = make_sc()
    assert sc.scheduler.executor_for(0) == "executor-0"
    assert sc.scheduler.executor_for(5) == "executor-1"


def test_task_context_commit_and_abandon(cluster):
    ctx = TaskContext(cluster, "executor-0", 0, 0, 0)
    log = []
    ctx.defer(lambda: log.append("a"))
    ctx.defer(lambda: log.append("b"))
    ctx.commit()
    assert log == ["a", "b"]
    ctx.defer(lambda: log.append("c"))
    ctx.abandon()
    ctx.commit()
    assert log == ["a", "b"]


def test_task_context_charges(cluster):
    ctx = TaskContext(cluster, "executor-1", 0, 0, 0)
    ctx.charge_seconds(0.5)
    ctx.charge_flops(cluster.config.node.flops)  # one more second
    assert cluster.clock.now("executor-1") == pytest.approx(1.5)


# -- broadcast -----------------------------------------------------------------

def test_broadcast_reaches_every_executor(cluster):
    sc = SparkContext(cluster)
    before = cluster.metrics.messages_by_tag.get("broadcast", 0)
    bc = sc.broadcast([1, 2, 3], nbytes=1000)
    after = cluster.metrics.messages_by_tag["broadcast"]
    # Torrent mode: one seed chunk plus one ring transfer per executor.
    assert after - before == 2 * len(cluster.executors)
    assert bc.value == [1, 2, 3]


def test_broadcast_torrent_avoids_driver_incast(cluster):
    """The driver sends ~1 copy total, not one copy per executor."""
    bc = Broadcast(cluster, "x", nbytes=10**6)
    bc.ship()
    driver_sent = cluster.metrics.bytes_sent["driver"]
    assert driver_sent < 1.5 * 10**6


def test_broadcast_naive_mode_incasts(cluster):
    bc = Broadcast(cluster, "x", nbytes=10**6, mode="naive")
    bc.ship()
    driver_sent = cluster.metrics.bytes_sent["driver"]
    assert driver_sent >= len(cluster.executors) * 10**6


def test_broadcast_ship_is_idempotent(cluster):
    bc = Broadcast(cluster, "x", nbytes=10)
    bc.ship()
    count = cluster.metrics.messages_by_tag["broadcast"]
    bc.ship()
    assert cluster.metrics.messages_by_tag["broadcast"] == count


def test_broadcast_destroy_allows_reship(cluster):
    bc = Broadcast(cluster, "x", nbytes=10)
    bc.ship()
    bc.destroy()
    bc.ship()
    assert cluster.metrics.messages_by_tag["broadcast"] == \
        4 * len(cluster.executors)


def test_broadcast_estimates_size(cluster):
    import numpy as np

    bc = Broadcast(cluster, np.zeros(100))
    assert bc.nbytes == 800


# -- tree combine --------------------------------------------------------------

def _placed(cluster, values):
    executors = cluster.alive_executors
    return [(executors[i % len(executors)], v) for i, v in enumerate(values)]


def test_tree_combine_depth3_is_correct_and_fully_reduces():
    """At depth 3 eight partials reduce 8 -> 4 -> 2 -> 1 executor-side, so
    exactly ONE partial crosses to the driver."""
    cluster = Cluster(ClusterConfig(n_executors=4, n_servers=1, seed=42))
    scheduler = SparkContext(cluster).scheduler
    values = [1, 2, 3, 4, 5, 6, 7, 8]
    result = scheduler.tree_combine(
        _placed(cluster, values), 0, lambda a, b: a + b, depth=3
    )
    assert result == sum(values)
    # 4 + 2 + 1 executor-side merges, then one survivor ships to the driver.
    assert cluster.metrics.messages_by_tag["tree-combine"] == 8
    from repro.cluster.cluster import DRIVER

    driver_msgs = sum(
        1 for (node, _tag), n in cluster.metrics.requests_by_server_tag.items()
        if node == DRIVER
    )
    assert driver_msgs == 0  # combining is executor work, not server work


def test_tree_combine_deeper_ships_less_to_the_driver():
    from repro.cluster.cluster import DRIVER

    values = list(range(8))
    received = {}
    for depth in (2, 3):
        cluster = Cluster(ClusterConfig(n_executors=4, n_servers=1, seed=42))
        scheduler = SparkContext(cluster).scheduler
        result = scheduler.tree_combine(
            _placed(cluster, values), 0, lambda a, b: a + b, depth=depth
        )
        assert result == sum(values)
        received[depth] = cluster.metrics.bytes_received[DRIVER]
    # Depth 2 leaves two survivors for the driver merge; depth 3 leaves one.
    assert received[3] < received[2]


def test_tree_combine_odd_count_carries_leftover():
    cluster = Cluster(ClusterConfig(n_executors=4, n_servers=1, seed=42))
    scheduler = SparkContext(cluster).scheduler
    values = [10, 20, 30, 40, 50]
    result = scheduler.tree_combine(
        _placed(cluster, values), 0, lambda a, b: a + b, depth=3
    )
    assert result == sum(values)
    # 5 -> 3 (2 merges) -> 2 (1 merge) -> 1 (1 merge), + 1 driver ship.
    assert cluster.metrics.messages_by_tag["tree-combine"] == 5


# -- stage-end hooks -----------------------------------------------------------

def test_stage_end_hooks_fire_after_barrier_and_commits():
    """Hooks run once per stage, strictly after every deferred task effect
    committed and after the driver's stage barrier."""
    sc = make_sc()
    cluster = sc.cluster
    order = []
    barrier_times = []

    def hook():
        order.append("hook")
        from repro.cluster.cluster import DRIVER

        barrier_times.append(cluster.clock.now(DRIVER))

    cluster.stage_end_hooks.append(hook)

    def fn(ctx, iterator):
        items = list(iterator)
        ctx.defer(lambda: order.append("commit"))
        return [len(items)]

    sc.parallelize(range(8), 4).map_partitions_with_context(fn).collect()
    # All four commits land before the (single) hook invocation.
    assert order == ["commit"] * 4 + ["hook"]
    # The hook observed the post-barrier driver clock: no earlier than any
    # task's completion on its executor.
    executor_times = [
        cluster.clock.now(e) for e in cluster.executors
    ]
    assert barrier_times[0] >= max(executor_times)


def test_stage_end_hooks_fire_every_stage():
    sc = make_sc()
    fired = []
    sc.cluster.stage_end_hooks.append(lambda: fired.append(1))
    rdd = sc.parallelize(range(8), 4)
    rdd.collect()
    rdd.sum()
    rdd.count()
    assert len(fired) == 3
