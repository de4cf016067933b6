"""Unit tests for cluster topology, cost charging and failure injection."""

import pytest

from repro.cluster.cluster import DRIVER, executor_id, server_id
from repro.cluster.failures import FailureInjector
from repro.common.errors import ConfigError, UnknownNodeError
from repro.common.rng import RngRegistry
from repro.config import ClusterConfig, FailureConfig, NetworkSpec, NodeSpec


def test_default_topology(cluster):
    assert cluster.driver.node_id == DRIVER
    assert len(cluster.executors) == 4
    assert len(cluster.servers) == 3
    assert cluster.executors[0] == executor_id(0)
    assert cluster.servers[2] == server_id(2)


def test_nodes_by_role(cluster):
    assert cluster.nodes_by_role("executor") == cluster.executors
    assert cluster.nodes_by_role("server") == cluster.servers
    assert cluster.nodes_by_role("driver") == [DRIVER]


def test_unknown_node(cluster):
    with pytest.raises(UnknownNodeError):
        cluster.node("nope")


def test_charge_flops_advances_clock(cluster):
    flops = cluster.config.node.flops  # exactly one second of work
    t = cluster.charge_flops(executor_id(0), flops)
    assert t == pytest.approx(1.0)
    assert cluster.clock.now(executor_id(1)) == 0.0


def test_charge_seconds(cluster):
    cluster.charge_seconds(DRIVER, 0.25)
    assert cluster.clock.now(DRIVER) == pytest.approx(0.25)


def test_elapsed_is_makespan(cluster):
    cluster.charge_seconds(executor_id(2), 3.0)
    assert cluster.elapsed() == pytest.approx(3.0)


def test_barrier_all_nodes(cluster):
    cluster.charge_seconds(executor_id(0), 2.0)
    cluster.barrier()
    assert cluster.clock.now(server_id(1)) == pytest.approx(2.0)


# -- config validation ---------------------------------------------------------

def test_config_rejects_bad_executors():
    with pytest.raises(ConfigError):
        ClusterConfig(n_executors=0)


def test_config_rejects_negative_servers():
    with pytest.raises(ConfigError):
        ClusterConfig(n_servers=-1)


def test_nodespec_validation():
    with pytest.raises(ConfigError):
        NodeSpec(flops=-1)
    with pytest.raises(ConfigError):
        NodeSpec(nic_bandwidth=0)


def test_networkspec_validation():
    with pytest.raises(ConfigError):
        NetworkSpec(latency=-1)
    with pytest.raises(ConfigError):
        NetworkSpec(bandwidth=0)


def test_failureconfig_validation():
    with pytest.raises(ConfigError):
        FailureConfig(task_failure_prob=1.5)
    with pytest.raises(ConfigError):
        FailureConfig(max_task_retries=-1)
    with pytest.raises(ConfigError):
        FailureConfig(max_task_retries=2.5)
    with pytest.raises(ConfigError):
        FailureConfig(max_op_retries=2.5)


def test_nodespec_compute_seconds():
    spec = NodeSpec(flops=1e9)
    assert spec.compute_seconds(5e8) == pytest.approx(0.5)


# -- failure injector ---------------------------------------------------------

def test_injector_never_fails_at_zero_prob():
    inj = FailureInjector(RngRegistry(1).get("f"), task_failure_prob=0.0)
    assert not any(inj.should_fail_task() for _ in range(1000))


def test_injector_always_fails_at_one():
    inj = FailureInjector(RngRegistry(1).get("f"), task_failure_prob=1.0)
    assert all(inj.should_fail_task() for _ in range(10))
    assert inj.injected_task_failures == 10


def test_injector_rate_is_roughly_right():
    inj = FailureInjector(RngRegistry(3).get("f"), task_failure_prob=0.2)
    failures = sum(inj.should_fail_task() for _ in range(5000))
    assert 800 < failures < 1200


def test_injector_is_deterministic():
    def run():
        inj = FailureInjector(RngRegistry(7).get("f"), task_failure_prob=0.3)
        return [inj.should_fail_task() for _ in range(50)]

    assert run() == run()


def test_injector_validates_prob():
    with pytest.raises(ConfigError):
        FailureInjector(RngRegistry(1).get("f"), task_failure_prob=2.0)


def test_server_failure_schedule():
    inj = FailureInjector(RngRegistry(1).get("f"))
    inj.schedule_server_failure("server-0", at_time=5.0)
    assert inj.due_server_failures("server-0", now=4.9) == []
    due = inj.due_server_failures("server-0", now=5.1)
    assert len(due) == 1
    # Popped: not due twice.
    assert inj.due_server_failures("server-0", now=6.0) == []


def test_server_failure_schedule_is_per_server():
    inj = FailureInjector(RngRegistry(1).get("f"))
    inj.schedule_server_failure("server-1", at_time=1.0)
    assert inj.due_server_failures("server-0", now=2.0) == []
    assert len(inj.due_server_failures("server-1", now=2.0)) == 1
