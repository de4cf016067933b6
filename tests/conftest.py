"""Shared fixtures: small deterministic clusters and PS2 contexts."""

import pytest

from repro.config import ClusterConfig, FailureConfig
from repro.cluster.cluster import Cluster
from repro.core.context import PS2Context


@pytest.fixture
def cluster():
    """A small 4-executor / 3-server cluster."""
    return Cluster(ClusterConfig(n_executors=4, n_servers=3, seed=42))


@pytest.fixture
def ps2():
    """A PS2 context over a small cluster."""
    return PS2Context(config=ClusterConfig(n_executors=4, n_servers=3, seed=42))


@pytest.fixture
def make_ps2():
    """Factory for PS2 contexts with custom shapes."""

    def factory(n_executors=4, n_servers=3, seed=42, task_failure_prob=0.0):
        config = ClusterConfig(
            n_executors=n_executors,
            n_servers=n_servers,
            seed=seed,
            failures=FailureConfig(task_failure_prob=task_failure_prob),
        )
        return PS2Context(config=config)

    return factory
