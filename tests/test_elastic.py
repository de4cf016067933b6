"""Lazy embedding tables and the elastic PS tier (live shard migration).

The two PS-layer contracts the serving tier stands on:

1. **get_or_create determinism** — a lazy row's init values come from a
   one-shot per-(matrix, row) RNG stream with no server index in its
   name, so creation, re-materialization after a crash and re-creation
   after a shard migration all produce bit-identical vectors; and the
   master's created-row registry is create-once across any number of
   racing workers.
2. **resize correctness** — ``resize_servers`` migrates every shard
   under a same-shape layout without losing a float or a version
   counter, retires ghost heat-ledger keys, invalidates stale
   checkpoints (taking a fresh sweep when checkpointing was in play),
   and fans topology-change invalidation out to every routing table and
   worker cache; a server crashing mid-migration is recovered in place
   and the sweep completes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import Cluster
from repro.common.errors import PSError
from repro.config import ClusterConfig
from repro.core.context import PS2Context
from repro.costs import FLOAT_BYTES, INDEX_BYTES, RESPONSE_HEADER_BYTES
from repro.ps import messages
from repro.ps.client import PSClient
from repro.ps.master import PSMaster


def _ctx(n_executors=2, n_servers=3, seed=42, **kwargs):
    return PS2Context(config=ClusterConfig(
        n_executors=n_executors, n_servers=n_servers, seed=seed, **kwargs))


def _client(ctx, worker=0):
    return ctx.client_for(ctx.cluster.executors[worker])


# -- lazy tables: get_or_create ----------------------------------------------


def test_pull_or_create_materializes_rows():
    ctx = _ctx()
    table = ctx.master.create_table(8, init="random", scale=0.5)
    info = ctx.master.info(table)
    assert info.lazy and info.n_rows == 0 and info.created_rows == set()
    values = _client(ctx).pull_or_create(table, [0, 5, 2])
    assert values.shape == (3, 8)
    assert np.any(values != 0.0)  # random init engaged
    assert info.created_rows == {0, 2, 5}
    assert info.n_rows == 6  # 1 + max created id
    assert ctx.metrics.counters["lazy-creates"] == 3


def test_pull_or_create_second_pull_creates_nothing():
    ctx = _ctx()
    table = ctx.master.create_table(8)
    first = _client(ctx).pull_or_create(table, [1, 3])
    again = _client(ctx).pull_or_create(table, [3, 1])
    assert np.allclose(first[0], again[1]) and np.allclose(first[1], again[0])
    assert ctx.metrics.counters["lazy-creates"] == 2  # no re-creation


@given(
    ids_a=st.lists(st.integers(min_value=0, max_value=40),
                   min_size=1, max_size=12),
    ids_b=st.lists(st.integers(min_value=0, max_value=40),
                   min_size=1, max_size=12),
)
@settings(max_examples=25, deadline=None)
def test_create_once_across_racing_workers(ids_a, ids_b):
    """Two workers racing on overlapping id sets converge on exactly one
    creation per distinct id, and both read identical values."""
    ctx = _ctx()
    table = ctx.master.create_table(4)
    a = _client(ctx, 0).pull_or_create(table, ids_a)
    b = _client(ctx, 1).pull_or_create(table, ids_b)
    distinct = set(ids_a) | set(ids_b)
    assert ctx.master.info(table).created_rows == distinct
    assert ctx.metrics.counters["lazy-creates"] == len(distinct)
    by_id = {row: a[pos] for pos, row in enumerate(ids_a)}
    for pos, row in enumerate(ids_b):
        if row in by_id:
            assert np.array_equal(by_id[row], b[pos])


@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_lazy_init_is_deterministic_across_recovery(seed):
    """Crash the owning server before any checkpoint: the re-created row
    must be bit-identical to the original creation draw."""
    ctx = _ctx(seed=seed)
    table = ctx.master.create_table(6)
    client = _client(ctx)
    before = client.pull_or_create(table, [0, 1, 2])
    for server in ctx.master.servers:
        server.crash()
        ctx.master.recover(server.server_index)
    after = client.pull_or_create(table, [0, 1, 2])
    assert np.array_equal(before, after)
    # Recovery re-materialized from the registry, not the create path.
    assert ctx.metrics.counters["lazy-creates"] == 3


def test_lazy_init_is_deterministic_across_migration():
    ctx = _ctx(n_servers=2)
    table = ctx.master.create_table(6)
    client = _client(ctx)
    before = client.pull_or_create(table, list(range(8)))
    ctx.master.resize_servers(5)  # every row changes owner
    after = client.pull_or_create(table, list(range(8)))
    assert np.array_equal(before, after)
    assert ctx.metrics.counters["lazy-creates"] == 8


def test_lazy_updates_survive_migration():
    ctx = _ctx(n_servers=2)
    table = ctx.master.create_table(4)
    client = _client(ctx)
    client.pull_or_create(table, [0, 1, 2, 3])
    client.push_add(table, 2, np.full(4, 10.0))
    expected = client.pull_or_create(table, [2])
    ctx.master.resize_servers(4)
    assert np.array_equal(client.pull_or_create(table, [2]), expected)


def test_pull_or_create_rejects_dense_matrix():
    ctx = _ctx()
    m = ctx.master.create_matrix(8, n_rows=2)
    with pytest.raises(PSError):
        _client(ctx).pull_or_create(m, [0])
    with pytest.raises(PSError):
        ctx.master.register_lazy_rows(m, [0])


def test_pull_or_create_wire_accounting():
    """Creation and plain re-read cost identical, deterministic bytes:
    the response always carries the created-marker word."""
    ctx = _ctx()
    table = ctx.master.create_table(8)
    client = _client(ctx)
    request = messages.PullOrCreateRequest(0, table, 0, 8)
    assert request.payload_bytes() == 2 * INDEX_BYTES + FLOAT_BYTES
    assert request.response_bytes() == RESPONSE_HEADER_BYTES \
        + INDEX_BYTES + 8 * FLOAT_BYTES

    before = ctx.metrics.total_bytes()
    client.pull_or_create(table, [0])
    create_cost = ctx.metrics.total_bytes() - before
    before = ctx.metrics.total_bytes()
    client.pull_or_create(table, [0])
    reread_cost = ctx.metrics.total_bytes() - before
    # The re-read skips only the one registration message to the master.
    assert create_cost > reread_cost > 0
    assert ctx.metrics.bytes_for_tag("lazy-register") > 0
    assert ctx.metrics.bytes_for_tag("pull-create:req") > 0
    assert ctx.metrics.bytes_for_tag("pull-create:resp") > 0


def test_pull_or_create_is_never_replica_routed():
    # Stand-in only: neither a replica-servable read nor a mutation (the
    # hot-key router takes READ, fan-out takes MUTATION, nothing else).
    assert messages.PullOrCreateRequest.role == messages.STANDIN_READ


# -- elastic resize: correctness ----------------------------------------------


def _dense_with_values(ctx, dim=30):
    m = ctx.master.create_matrix(dim, n_rows=2)
    client = _client(ctx)
    client.push_assign(m, 0, np.arange(float(dim)))
    client.push_assign(m, 1, np.arange(float(dim)) * 2.0)
    return m, client


def test_resize_grow_preserves_values():
    ctx = _ctx(n_servers=2)
    m, client = _dense_with_values(ctx)
    ctx.master.resize_servers(5)
    assert ctx.master.n_servers == 5
    assert len(ctx.cluster.servers) == 5
    assert ctx.master.layout(m).n_servers == 5
    assert np.allclose(client.pull_row(m, 0), np.arange(30.0))
    assert np.allclose(client.pull_row(m, 1), np.arange(30.0) * 2.0)
    assert ctx.metrics.counters["elastic-resizes"] == 1
    assert ctx.metrics.counters["migrated-shard-slices"] > 0
    assert ctx.metrics.bytes_for_tag("shard-migrate") > 0


def test_resize_shrink_preserves_values():
    ctx = _ctx(n_servers=4)
    m, client = _dense_with_values(ctx)
    ctx.master.resize_servers(2)
    assert ctx.master.n_servers == 2
    assert len(ctx.cluster.servers) == 2
    assert np.allclose(client.pull_row(m, 0), np.arange(30.0))
    assert np.allclose(client.pull_row(m, 1), np.arange(30.0) * 2.0)


def test_resize_to_one_server_and_back():
    ctx = _ctx(n_servers=3)
    m, client = _dense_with_values(ctx)
    ctx.master.resize_servers(1)
    assert np.allclose(client.pull_row(m, 0), np.arange(30.0))
    ctx.master.resize_servers(3)
    assert np.allclose(client.pull_row(m, 0), np.arange(30.0))
    with pytest.raises(PSError):
        ctx.master.resize_servers(0)


def test_resize_noop_changes_nothing():
    ctx = _ctx(n_servers=3)
    epoch = ctx.master.topology_epoch
    ctx.master.resize_servers(3)
    assert ctx.master.topology_epoch == epoch
    assert "elastic-resizes" not in ctx.metrics.counters


def test_add_remove_server_single_steps():
    ctx = _ctx(n_servers=2)
    ctx.master.add_server()
    assert ctx.master.n_servers == 3
    ctx.master.remove_server()
    assert ctx.master.n_servers == 2
    assert ctx.metrics.counters["elastic-resizes"] == 2


def test_resize_preserves_version_counters():
    """Worker-cache version tokens must never regress across migration:
    the migrated row's version is the max over contributing shards."""
    ctx = _ctx(n_servers=2)
    m, client = _dense_with_values(ctx)
    client.push_add(m, 0, np.ones(30))  # bump versions past 1
    old_version = max(
        server.versions.get((m, 0), 0) for server in ctx.master.servers
    )
    assert old_version > 0
    ctx.master.resize_servers(3)
    new_version = max(
        server.versions.get((m, 0), 0) for server in ctx.master.servers
    )
    assert new_version >= old_version


def test_resize_retires_ghost_heat():
    """Shrinking must retire heat-ledger keys of departed servers — a
    stale (matrix, server) key would otherwise keep reading as hot."""
    ctx = _ctx(n_servers=4)
    m, client = _dense_with_values(ctx)
    for _ in range(3):
        client.pull_row(m, 0)
    heat = ctx.metrics.shard_heat()
    assert any(key[1] >= 2 for key in heat)  # heat on the doomed servers
    ctx.master.resize_servers(2)
    heat = ctx.metrics.shard_heat()
    assert heat  # the survivors' ledger lives on
    assert all(key[1] < 2 for key in heat)  # no ghosts


def test_resize_invalidates_checkpoints_and_resweeps():
    """Pre-resize snapshots hold pre-migration shard ranges; the resize
    must drop them and take a fresh sweep so recovery stays safe."""
    ctx = _ctx(n_servers=2)
    m, client = _dense_with_values(ctx)
    ctx.master.checkpoint_all()
    taken_before = ctx.metrics.counters.get("checkpoints", 0)
    ctx.master.resize_servers(3)
    # A fresh sweep ran at the new topology ...
    assert ctx.metrics.counters.get("checkpoints", 0) > taken_before
    # ... and recovery from it restores post-migration state.
    ctx.master.servers[0].crash()
    ctx.master.recover(0)
    assert np.allclose(client.pull_row(m, 0), np.arange(30.0))


def test_resize_without_checkpoints_takes_no_sweep():
    ctx = _ctx(n_servers=2)
    _dense_with_values(ctx)
    ctx.master.resize_servers(3)
    assert ctx.metrics.counters.get("checkpoints", 0) == 0


def test_resize_bumps_epoch_and_notifies_topology_hooks():
    ctx = _ctx(n_servers=2)
    m, client = _dense_with_values(ctx)
    client.pull_row(m, 0)
    transport = client.transport
    assert transport._routing  # warmed by the pulls
    epoch = ctx.master.topology_epoch
    fired = []
    ctx.cluster.topology_change_hooks.append(lambda: fired.append(True))
    ctx.master.resize_servers(3)
    assert ctx.master.topology_epoch == epoch + 1
    assert fired == [True]
    assert transport._routing == {}  # routing cache invalidated
    assert ctx.metrics.bytes_for_tag("ps-resize") > 0


def test_resize_invalidates_worker_cache():
    ctx = _ctx(n_servers=2, consistency="ssp", staleness=3)
    m = ctx.master.create_matrix(12)
    client = _client(ctx)
    client.push_assign(m, 0, np.arange(12.0))
    client.pull_row(m, 0)
    assert client.cache.entries  # warmed
    ctx.master.resize_servers(3)
    assert client.cache.entries == {}
    # A fresh pull (miss) against the new topology returns the data.
    assert np.allclose(client.pull_row(m, 0), np.arange(12.0))


def test_elastic_worker_tier():
    ctx = _ctx(n_executors=2)
    cluster = ctx.cluster
    assert len(cluster.executors) == 2
    new_node = cluster.add_executor()
    assert len(cluster.executors) == 3
    assert new_node in cluster.executors
    # The new worker is immediately usable as a PS client.
    table = ctx.master.create_table(4)
    values = ctx.client_for(new_node).pull_or_create(table, [0])
    assert values.shape == (1, 4)
    cluster.remove_executor()
    assert len(cluster.executors) == 2


# -- chaos: crash mid-migration ----------------------------------------------


def test_server_crash_mid_migration_recovers_and_completes():
    """A source server dying mid-sweep is recovered in place and the
    migration completes with the checkpointed values intact."""
    ctx = _ctx(n_servers=3)
    m, client = _dense_with_values(ctx)
    table = ctx.master.create_table(4)
    client.pull_or_create(table, [0, 1, 2, 3, 4, 5])
    ctx.master.checkpoint_all()
    ctx.master.servers[1].crash()  # dead when the migration reads it
    ctx.master.resize_servers(4)
    assert ctx.metrics.counters["server-recoveries"] == 1
    assert np.allclose(client.pull_row(m, 0), np.arange(30.0))
    assert np.allclose(client.pull_row(m, 1), np.arange(30.0) * 2.0)
    # Lazy rows re-read bit-identically too (no re-creation).
    before = ctx.metrics.counters["lazy-creates"]
    client.pull_or_create(table, [0, 1, 2, 3, 4, 5])
    assert ctx.metrics.counters["lazy-creates"] == before


def test_serving_stream_survives_crash_and_resize():
    """The full serving loop: crash a server mid-stream, autoscale-style
    resizes on either side — the stream completes, writes are not lost
    (the pre-crash one, and every served row equals its lazy init plus
    its updates: no coalesced write was dropped or doubled), and the run
    stays deterministic."""
    from repro.experiments.runner import make_context
    from repro.serving import run_serving
    from repro.serving.scenario import get_scenario
    from tests.test_serving import assert_serving_matches_oracle

    def run():
        ctx = make_context(n_executors=2, n_servers=2, seed=9,
                           timeseries_window=0.25)
        cluster = ctx.cluster
        table = ctx.master.create_table(8, name="warm")
        client = _client(ctx)
        client.pull_or_create(table, [0, 1])
        client.push_add(table, 0, np.full(8, 3.0))
        ctx.master.checkpoint_all()
        ctx.master.resize_servers(3)     # grow ...
        ctx.master.servers[0].crash()    # ... die ...
        ctx.master.resize_servers(2)     # ... shrink through the crash
        result = run_serving(ctx, "smoke")
        assert_serving_matches_oracle(ctx, result, get_scenario("smoke"))
        survivor = client.pull_or_create(table, [0])
        return result, survivor, cluster.metrics.counters["server-recoveries"]

    (res_a, row_a, recoveries_a) = run()
    (res_b, row_b, recoveries_b) = run()
    assert recoveries_a == recoveries_b == 1
    assert res_a["requests"] > 0
    # The pre-crash write survived the crash + both migrations.
    assert row_a[0, 0] >= 3.0
    # Bit-identical across runs: stream, scaling history, final values.
    assert res_a == res_b
    assert np.array_equal(row_a, row_b)


# -- satellite: cache savings priced through the cost model -------------------


def _cache_saved_bytes(wire_codec):
    cluster = Cluster(ClusterConfig(
        n_executors=2, n_servers=2, seed=42,
        consistency="ssp", staleness=3, wire_codec=wire_codec,
    ))
    master = PSMaster(cluster)
    client = PSClient(cluster, master, cluster.executors[0])
    m = master.create_matrix(64)
    client.push_assign(m, 0, np.arange(64.0))
    client.pull_row(m, 0)   # miss: fills the cache
    client.pull_row(m, 0)   # hit: books saved bytes
    return cluster.metrics.cache_bytes_saved[client.node_id]


def test_cache_savings_priced_through_cost_model():
    """A cache hit under a forced half-rate codec must report roughly
    half the identity-rate savings: the hit avoided the *compressed*
    response, not the fp64 upper bound."""
    identity = _cache_saved_bytes("off")
    fp16 = _cache_saved_bytes("fp16")
    assert 0 < fp16 < identity
    # fp16 ships 2 bytes per value instead of 8; request and response
    # headers are charged identically in both regimes, so the saving gap
    # is exactly the payload derating: 64 values x 6 bytes.
    assert identity - fp16 == 64 * (FLOAT_BYTES - 2)


def test_priced_pull_response_matches_identity_when_codec_off():
    ctx = _ctx()
    client = _client(ctx)
    # By hand: a dense pull of 16 values is a bare 48-byte request header
    # out, a 32-byte response header + 16 8-byte values back.
    assert client._saved_pull_bytes(16) == 48 + (32 + 16 * 8)


# -- interaction with replication and the cost model --------------------------


def test_resize_demotes_all_replicas_first():
    """Every replica is installed against the pre-resize shard map, so a
    resize (either direction) demotes them wholesale before migrating."""
    for new_count in (4, 2):
        ctx = _ctx(n_servers=3, replication="topk",
                   hot_key_fraction=0.34, replication_factor=1)
        m = ctx.master.create_matrix(30)
        client = _client(ctx)
        client.push_assign(m, 0, np.arange(30.0))
        for _ in range(4):
            client.pull_row(m, 0, indices=np.arange(10))
        ctx.master.replicas.rebalance()
        assert ctx.master.replicas.keys("hot")
        ctx.master.resize_servers(new_count)
        assert ctx.master.replicas.keys("hot") == []
        assert np.allclose(client.pull_row(m, 0), np.arange(30.0))


def test_resize_promotes_an_undetected_dead_primary_before_teardown():
    """Chain read fail-over keeps a crashed primary undetected until a
    mutation hits it.  A resize in that window must promote it from its
    chain *before* tearing the chains down — the mid-sweep recovery
    would otherwise find no copy and re-initialize the shard."""
    ctx = _ctx(n_servers=3, chain_replicas=1)
    m = ctx.master.create_matrix(30)
    client = _client(ctx)
    client.push_assign(m, 0, np.arange(30.0))
    ctx.master.servers[0].crash()
    assert np.array_equal(client.pull_row(m, 0), np.arange(30.0))
    counters = ctx.metrics.counters
    assert counters["chain-reads"] == 1
    assert "server-recoveries" not in counters  # still undetected
    ctx.master.resize_servers(4)
    assert np.array_equal(client.pull_row(m, 0), np.arange(30.0))
    assert counters["chain-promotions"] == 1
    assert counters.get("chain-fallbacks", 0) == 0
    assert counters.get("recovery-reinit-shards", 0) == 0


def test_lazy_create_dereplicates_via_direct_write():
    """A server-side lazy creation is a write the replicas never saw:
    the create path must demote the affected matrix's replicas rather
    than let reads diverge."""
    ctx = _ctx(n_servers=3, replication="topk",
               hot_key_fraction=0.34, replication_factor=1)
    client = _client(ctx)
    table = ctx.master.create_table(6)
    client.pull_or_create(table, [0, 1, 2])
    for _ in range(4):
        client.pull_or_create(table, [0])
    ctx.master.replicas.rebalance()
    before = ctx.master.replicas.keys("hot")
    client.pull_or_create(table, [9])  # fresh id on a replicated matrix
    after = ctx.master.replicas.keys("hot")
    assert [k for k in after if k[0] == table] == [] or before == after
    assert np.array_equal(
        client.pull_or_create(table, [0, 1, 2]),
        client.pull_or_create(table, [0, 1, 2]),
    )


def test_resize_resets_costmodel_hot_shards():
    """The codec tiering's hot-shard set indexes (matrix, server) keys of
    the old topology; a resize must drop it and restart the decision
    window on post-migration traffic."""
    ctx = _ctx(n_servers=2, wire_codec="auto")
    m, client = _dense_with_values(ctx)
    costmodel = ctx.cluster.costmodel
    costmodel._hot_shards = frozenset({(m, 0)})
    costmodel._decisions = 7
    ctx.master.resize_servers(3)
    assert costmodel._hot_shards == frozenset()
    assert costmodel._decisions == 0
    assert np.allclose(client.pull_row(m, 0), np.arange(30.0))


def test_autoscaler_idle_band_is_a_no_op():
    """Backlog between the down and up thresholds: no action, and the
    evaluation does not arm the cooldown."""
    from repro.config import ElasticitySpec
    from repro.serving.autoscaler import Autoscaler

    ctx = _ctx()
    spec = ElasticitySpec(mode="auto", min_servers=1, max_servers=6,
                          min_workers=1, max_workers=6,
                          scale_up_backlog=1e9, scale_down_backlog=0.0)
    scaler = Autoscaler(ctx, spec=spec)
    assert scaler.maybe_scale(0.0) is None
    assert scaler.events == []
    assert scaler._last_action is None


# -- scale-down drain accounting ----------------------------------------------


def test_scale_down_charges_departing_drain():
    """Regression: a departing server whose NIC queue (or CPU) is still
    booked out must be drained — its clock pinned to the later of its last
    completion and both NIC horizons — BEFORE its shards migrate, so the
    migration reads state the server had actually finished producing.
    Previously the migration read the doomed server at its stale clock and
    the backlog's time vanished from the makespan."""
    ctx = _ctx(n_servers=3)
    m, client = _dense_with_values(ctx)
    network = ctx.cluster.network
    doomed = ctx.cluster.servers[2]
    while network.nic_horizon(doomed)[0] < 5e-3:
        network.transfer(doomed, ctx.cluster.servers[0], 200_000,
                         deliver=False)
    backlog_horizon = network.nic_horizon(doomed)[0]
    assert ctx.cluster.clock.now(doomed) < backlog_horizon
    ctx.master.resize_servers(2)
    assert ctx.metrics.counters["elastic-drains"] == 1
    drained = ctx.metrics.latency["elastic-drain"].summary()
    assert drained["max"] > 0.0
    # The departing clock was pinned to its booked horizon, and the whole
    # run's makespan now covers the drained backlog.
    assert ctx.cluster.clock.now(doomed) >= backlog_horizon
    assert ctx.cluster.elapsed() >= backlog_horizon
    # Values still migrated intact.
    assert np.allclose(client.pull_row(m, 0), np.arange(30.0))
    assert np.allclose(client.pull_row(m, 1), np.arange(30.0) * 2.0)


def test_scale_down_idle_departure_charges_no_drain():
    """A departing server with nothing in flight has nothing to drain:
    no counter, no histogram, identical behaviour to the pre-fix path."""
    ctx = _ctx(n_servers=3)
    m, client = _dense_with_values(ctx)
    ctx.cluster.barrier()  # everyone caught up: no booked horizons ahead
    ctx.master.resize_servers(2)
    assert "elastic-drains" not in ctx.metrics.counters
    assert "elastic-drain" not in ctx.metrics.latency
    assert np.allclose(client.pull_row(m, 0), np.arange(30.0))


def test_scale_up_never_drains():
    ctx = _ctx(n_servers=2)
    _dense_with_values(ctx)
    ctx.master.resize_servers(4)
    assert "elastic-drains" not in ctx.metrics.counters
