"""Unit tests for cluster topology, cost charging and failure injection."""

import pytest

from repro.cluster.cluster import DRIVER, executor_id, server_id
from repro.cluster.failures import FailureInjector
from repro.common.errors import ConfigError, UnknownNodeError
from repro.common.rng import RngRegistry
from repro.config import ClusterConfig, ElasticitySpec, FailureConfig, \
    NetworkSpec, NodeSpec


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


@pytest.mark.parametrize("knobs", [
    dict(hot_key_fraction=0.125),
    dict(replication_factor=3),
    dict(rebalance_interval=0.01),
    dict(hot_key_fraction=0.125, replication_factor=3),
    dict(staleness=1),
])
def test_config_rejects_knobs_their_mode_ignores(knobs):
    """Hot-key knobs with replication off, and a staleness bound under
    BSP, would be accepted and do nothing."""
    with pytest.raises(ConfigError):
        ClusterConfig(**knobs)


@pytest.mark.parametrize("knobs", [
    dict(replication="topk", hot_key_fraction=0.125, replication_factor=3,
         rebalance_interval=0.01),
    dict(consistency="ssp", staleness=1),
    dict(consistency="asp", staleness=1),
])
def test_config_accepts_knobs_under_their_mode(knobs):
    ClusterConfig(**knobs)


def test_config_rejects_a_chain_the_servers_cannot_hold():
    """A chain of M needs M successors besides each primary."""
    ClusterConfig(n_servers=3, chain_replicas=2)
    with pytest.raises(ConfigError, match="more than 3 servers"):
        ClusterConfig(n_servers=3, chain_replicas=3)


def test_config_rejects_a_chain_the_autoscaler_may_shrink_below():
    """Under ``elasticity="auto"`` the PS tier may shrink to
    ``min_servers``, and the chain must still fit there."""
    ClusterConfig(n_servers=4, chain_replicas=1,
                  elasticity=ElasticitySpec(mode="auto", min_servers=2))
    with pytest.raises(ConfigError, match="min_servers=2"):
        ClusterConfig(n_servers=4, chain_replicas=2,
                      elasticity=ElasticitySpec(mode="auto", min_servers=2))


@pytest.mark.parametrize("codec", ["delta", "gzip"])
def test_config_rejects_unknown_wire_codec(codec):
    with pytest.raises(ConfigError):
        ClusterConfig(wire_codec=codec)


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
