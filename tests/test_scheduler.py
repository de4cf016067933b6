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
    assert sc.cluster.metrics.counters["task-retries"] > 0


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
    assert sc.cluster.metrics.counters["task-retries"] == MAX_TASK_RETRIES + 1


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
    assert sc.cluster.metrics.counters["task-retries"] > 0


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


def test_broadcast_ship_is_idempotent(cluster):
    bc = Broadcast(cluster, "x", nbytes=10)
    bc.ship()
    count = cluster.metrics.messages_by_tag["broadcast"]
    bc.ship()
    assert cluster.metrics.messages_by_tag["broadcast"] == count


def test_broadcast_estimates_size(cluster):
    import numpy as np

    bc = Broadcast(cluster, np.zeros(100))
    assert bc.nbytes == 800


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
