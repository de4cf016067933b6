"""Unit tests for the PS master and checkpoint manager."""

import numpy as np
import pytest

from repro.common.errors import MatrixNotFoundError
from repro.costs import STORAGE_BANDWIDTH
from repro.ps.checkpoint import CheckpointManager
from repro.ps.master import PSMaster
from repro.ps.partitioner import ColumnLayout, RowLayout


@pytest.fixture
def master(cluster):
    return PSMaster(cluster)


def test_create_matrix_default_layout(master):
    m = master.create_matrix(30, n_rows=2)
    info = master.info(m)
    assert info.dim == 30 and info.n_rows == 2
    assert isinstance(info.layout, ColumnLayout)
    for server in master.servers:
        assert server.has_shard(m, 0)
        assert server.has_shard(m, 1)


def test_create_matrix_row_layout(master):
    m = master.create_matrix(30, n_rows=3, layout=RowLayout(30, 3))
    assert master.server(0).has_shard(m, 0)
    assert not master.server(0).has_shard(m, 1)
    assert master.server(1).has_shard(m, 1)


def test_matrix_ids_are_unique(master):
    a = master.create_matrix(10)
    b = master.create_matrix(10)
    assert a != b


def test_unknown_matrix(master):
    with pytest.raises(MatrixNotFoundError):
        master.info(999)


def test_allocation_charges_control_messages(cluster):
    master = PSMaster(cluster)
    before = cluster.metrics.messages_by_tag.get("ps-allocate", 0)
    master.create_matrix(30)
    after = cluster.metrics.messages_by_tag["ps-allocate"]
    assert after - before == len(cluster.servers)


def test_random_init_independent_of_client_count(cluster):
    master = PSMaster(cluster)
    m = master.create_matrix(12, init="random", scale=1.0)
    values = np.concatenate(
        [master.server(i).shard(m, 0).values for i in range(3)]
    )
    assert np.any(values != 0)


def test_recover_without_checkpoint_reinitializes(master):
    """A crash before the first checkpoint recovers to fresh shards."""
    m = master.create_matrix(10)
    master.server(0).shard(m, 0).values[:] = 7.0
    master.server(0).crash()
    server = master.recover(0)
    assert server.is_alive()
    assert server.has_shard(m, 0)
    # The un-checkpointed updates are lost; the shard is back at its
    # deterministic initial (zero) state.
    assert np.all(server.shard(m, 0).values == 0.0)
    assert master.cluster.metrics.counters.get("recoveries", 0) == 0


def test_recover_replaces_server_object(master):
    master.create_matrix(10)
    failed = master.server(0)
    failed.crash()
    replacement = master.recover(0)
    assert replacement is not failed
    assert master.server(0) is replacement
    assert replacement.node_id == failed.node_id


def test_recover_rebuilds_post_checkpoint_matrix(master):
    """Matrices created after the last checkpoint survive a crash."""
    old = master.create_matrix(12)
    master.server(0).shard(old, 0).values[:] = 3.0
    master.checkpoint_all()
    new = master.create_matrix(8, init="random", scale=1.0)
    master.server(0).crash()
    server = master.recover(0)
    assert np.all(server.shard(old, 0).values == 3.0)  # from the snapshot
    assert server.has_shard(new, 0)  # re-initialized from metadata


def test_repair_live_server_keeps_updates(master):
    """repair() on a live server only backfills missing shards."""
    m = master.create_matrix(12)
    server = master.server(0)
    server.shard(m, 0).values[:] = 4.0
    extra = master.create_matrix(6)
    del server._store[extra]  # simulate a stale shard set
    repaired = master.repair(0)
    assert repaired is server  # no replacement process
    assert np.all(server.shard(m, 0).values == 4.0)  # live updates kept
    assert server.has_shard(extra, 0)


def test_recover_restores_latest_checkpoint(master):
    m = master.create_matrix(12)
    server = master.server(0)
    shard = server.shard(m, 0)
    shard.values[:] = 5.0
    master.checkpoint_all()
    shard.values[:] = 9.0  # updates after the checkpoint are lost
    server.crash()
    master.recover(0)
    assert np.all(master.server(0).shard(m, 0).values == 5.0)


def test_checkpoint_costs_time(cluster):
    master = PSMaster(cluster)
    master.create_matrix(100000)
    t0 = cluster.clock.now(master.server(0).node_id)
    master.checkpoint_all()
    assert cluster.clock.now(master.server(0).node_id) > t0
    assert master.cluster.metrics.counters.get("checkpoints", 0) == len(master.servers)


def test_checkpoint_manager_has_checkpoint(cluster):
    master = PSMaster(cluster)
    manager = master.checkpoints
    assert not manager.has_checkpoint(0)
    master.create_matrix(10)
    manager.checkpoint_server(master.server(0))
    assert manager.has_checkpoint(0)
    assert not manager.has_checkpoint(1)


def test_checkpoint_storage_bandwidth_scaling(cluster):
    master = PSMaster(cluster)
    master.create_matrix(300000)
    server = master.server(0)
    nbytes = server.stored_bytes()
    assert nbytes > 0
    t0 = cluster.clock.now(server.node_id)
    CheckpointManager(cluster).checkpoint_server(server)
    assert cluster.clock.now(server.node_id) \
        == t0 + nbytes / STORAGE_BANDWIDTH
