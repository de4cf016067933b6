"""Replication over one holder table: classify, promote/demote, route,
fan out, chain lifecycle, and hot-key and chain on one cluster.

Unit-level coverage of :mod:`repro.ps.replication` — the chaos suite
covers the crash/recovery interactions, the golden matrix locks down
off-mode obliviousness, and the ablation benchmark the performance claim.
"""

import numpy as np

from repro.cluster.cluster import DRIVER, Cluster
from repro.config import ClusterConfig
from repro.obs.report import hot_shard_table, render_report
from repro.core.context import PS2Context
from repro.costs import FLOAT_BYTES
from repro.ps import messages
from repro.ps.client import PSClient
from repro.ps.master import PSMaster
from repro.ps.server import serve_one


def _rig(**overrides):
    settings = dict(
        n_executors=2, n_servers=3, seed=42,
        replication="topk", hot_key_fraction=0.34, replication_factor=2,
    )
    settings.update(overrides)
    cluster = Cluster(ClusterConfig(**settings))
    master = PSMaster(cluster)
    client = PSClient(cluster, master, cluster.executors[0])
    return cluster, master, client


def _copy(server, matrix_id, primary_index, row):
    """The values of *server*'s copy of one row of a primary's shard."""
    return server.replica_store[(matrix_id, primary_index)].rows[row].values


def _heat_and_promote(master, client, pulls=4):
    """dim 30 over 3 servers; extra reads make shard (m, 0) the topk pick."""
    m = master.create_matrix(30)
    client.push_assign(m, 0, np.arange(30.0))
    for _ in range(pulls):
        client.pull_row(m, 0, indices=np.arange(10))
    master.replicas.rebalance()
    return m


# -- construction / off mode --------------------------------------------------


def test_off_mode_constructs_no_manager():
    cluster = Cluster(ClusterConfig(n_executors=2, n_servers=3, seed=42))
    master = PSMaster(cluster)
    assert master.replicas is None
    assert cluster.replicas is None
    assert "replica map" not in render_report(cluster)


# -- classification -----------------------------------------------------------


def test_classify_topk_ranks_by_heat_with_key_tiebreak():
    _cluster, master, _client = _rig(hot_key_fraction=0.25)
    manager = master.replicas
    delta = {(1, s): float(heat)
             for s, heat in enumerate([5.0, 9.0, 9.0, 1.0, 2.0, 3.0, 4.0, 8.0])}
    # k = round(0.25 * 8) = 2; the 9.0 tie breaks toward the lower key.
    assert manager._classify(delta) == {(1, 1), (1, 2)}
    # k never rounds below 1, and an empty window classifies nothing.
    assert len(manager._classify({(1, 0): 1.0, (1, 1): 2.0})) == 1
    assert manager._classify({}) == set()


def test_hot_shard_table_ranks_by_the_classifier_metric():
    """Regression (telemetry/policy unification): when byte volume and
    request counts disagree, BOTH the report's hot-shard table and the
    replication classifier must rank by ``shard_heat`` — byte volume —
    not raw request counts."""
    cluster, master, _client = _rig()
    metrics = cluster.metrics
    # Shard 0 is hot by REQUEST COUNT, shard 1 by BYTES.
    metrics.record_shard_access(7, 0, n_values=50, n_requests=50, nbytes=10.0)
    metrics.record_shard_access(7, 1, n_values=1, n_requests=1, nbytes=1000.0)
    metrics.record_shard_access(7, 2, n_values=1, n_requests=1, nbytes=10.0)
    hot = metrics.hot_shards(factor=1.5)
    assert [(matrix, server) for matrix, server, *_rest in hot] == [(7, 1)]
    assert "1000" in hot_shard_table(metrics)
    # The classifier consumes the same metric, so it picks the same key.
    assert master.replicas._classify(metrics.shard_heat()) == {(7, 1)}
    # Heat is bytes only: an access recorded without them adds none.
    fresh = Cluster(ClusterConfig(n_executors=2, n_servers=3, seed=1)).metrics
    fresh.record_shard_access(7, 0, n_values=5, n_requests=5)
    assert fresh.shard_heat() == {} and fresh.hot_shards() == []


# -- promote / demote ---------------------------------------------------------


def test_promotion_installs_on_all_targets_and_charges_migration():
    cluster, master, client = _rig()
    m = _heat_and_promote(master, client)
    manager = master.replicas
    assert manager.replica_set(m, 0) == [1, 2]
    assert manager.keys("hot") == [(m, 0)]
    assert cluster.metrics.counters["replica-promotions"] == 2
    # Migration paid real wire bytes under its own tag, and the copies
    # carry real state.
    assert cluster.metrics.bytes_for_tag("replica-migrate") > 0
    epoch = master.server(0).epoch
    for holder in (1, 2):
        assert master.server(holder).has_replica(m, 0, epoch)
        assert np.allclose(_copy(master.server(holder), m, 0, 0),
                           np.arange(10.0))
    assert manager.replica_bytes() >= 2 * 10 * 8


def test_promotion_prefers_the_coldest_server():
    _cluster, master, client = _rig(replication_factor=1)
    m = master.create_matrix(30)
    client.push_assign(m, 0, np.arange(30.0))
    for _ in range(4):
        client.pull_row(m, 0, indices=np.arange(10))
    # Server 1 is now warmer than server 2, so the single replica of the
    # hot (m, 0) shard must land on server 2.
    client.pull_row(m, 0, indices=np.arange(10, 20))
    master.replicas.rebalance()
    assert master.replicas.replica_set(m, 0) == [2]


def test_rebalance_demotes_cooled_keys_on_the_delta_window():
    cluster, master, client = _rig()
    m = _heat_and_promote(master, client)
    manager = master.replicas
    assert manager.replica_set(m, 0) == [1, 2]
    # New window: shard (m, 1) dominates the DELTA even though (m, 0)
    # still leads the cumulative totals.
    for _ in range(8):
        client.pull_row(m, 0, indices=np.arange(10, 20))
    manager.rebalance()
    assert manager.replica_set(m, 0) == []
    assert (m, 0) not in manager.keys("hot")
    assert manager.replica_set(m, 1) == [0, 2]
    assert cluster.metrics.counters["replica-demotions"] >= 1
    # The demoted holders actually dropped their copies.
    assert not master.server(1).has_replica(m, 0)
    assert not master.server(2).has_replica(m, 0)


def test_maybe_rebalance_stage_end_and_interval_gating():
    # interval == 0: sweeps at stage ends only.
    _cluster, master, _client = _rig()
    manager = master.replicas
    assert not manager.maybe_rebalance()
    assert manager.maybe_rebalance(at_stage_end=True)
    # interval > 0: sweeps on virtual time, re-armed past the sweep.
    cluster, master, _client = _rig(rebalance_interval=10.0)
    manager = master.replicas
    assert not manager.maybe_rebalance(at_stage_end=True)
    cluster.clock.set_at_least(DRIVER, 11.0)
    assert manager.maybe_rebalance()
    assert manager._next_sweep >= 21.0
    assert manager.rebalance_sweep_times == [cluster.clock.global_time()]


# -- read routing -------------------------------------------------------------


def test_route_read_prefers_idle_replica_and_attributes_heat_to_primary():
    cluster, master, client = _rig()
    m = _heat_and_promote(master, client)
    # Back up the primary's NIC: its horizon moves far past the replicas'.
    cluster.network.transfer(master.server(0).node_id, DRIVER, 5e6,
                             tag="backlog")
    heat_before = cluster.metrics.shard_bytes[(m, 0)]
    reads_before = cluster.metrics.counters.get("replica-reads", 0)
    got = client.pull_row(m, 0, indices=np.arange(10))
    assert np.allclose(got, np.arange(10.0))
    assert cluster.metrics.counters["replica-reads"] > reads_before
    # Rerouting must keep charging the PRIMARY shard key (else serving
    # from replicas would drain the very heat that created them).
    assert cluster.metrics.shard_bytes[(m, 0)] > heat_before


def test_route_read_leaves_mutations_and_cold_keys_alone():
    cluster, master, client = _rig()
    m = _heat_and_promote(master, client)
    # A mutation is never rerouted, even for a replicated key...
    push = messages.PushRequest(0, m, 0, np.ones(10),
                                indices=np.arange(10), mode="add")
    assert master.replicas.route([push])[0] is push
    assert push.server_index == 0 and push.replica_of is None
    # ...and a read of a non-replicated key passes through unchanged.
    read = messages.PullRowRequest(1, m, 0, 10, indices=np.arange(10, 20))
    assert master.replicas.route([read])[0] is read
    assert read.server_index == 1 and read.replica_of is None


# -- write fan-out ------------------------------------------------------------


def test_fan_out_keeps_replicas_in_lockstep():
    cluster, master, client = _rig()
    m = _heat_and_promote(master, client)
    fanouts_before = cluster.metrics.counters.get("replica-fanouts", 0)
    client.push_add(m, 0, np.ones(10), indices=list(range(10)))
    assert cluster.metrics.counters["replica-fanouts"] == fanouts_before + 2
    expected = np.arange(10.0) + 1.0
    for holder in (1, 2):
        assert np.allclose(_copy(master.server(holder), m, 0, 0),
                           expected)


def test_fan_out_skips_replicas_whose_counters_caught_up():
    cluster, master, client = _rig()
    m = _heat_and_promote(master, client)
    client.push_add(m, 0, np.ones(10), indices=list(range(10)))
    primary = master.server(0)
    counter = primary.versions[(m, 0)]
    # Replay the fan-out: the replica's recorded counter already covers
    # it, so the apply is skipped (idempotence under retry/re-install).
    inner = messages.PushRequest(1, m, 0, np.ones(10),
                                 indices=list(range(10)), mode="add")
    replay = messages.ReplicatedPushRequest(1, inner, 0, primary.epoch,
                                            {(m, 0): counter})
    skips_before = cluster.metrics.counters.get("replica-fanout-skipped", 0)
    holder = master.server(1)
    serve_one(holder, replay, cluster.clock.now(holder.node_id))
    assert cluster.metrics.counters["replica-fanout-skipped"] \
        == skips_before + 1
    assert np.allclose(_copy(master.server(1), m, 0, 0),
                       np.arange(10.0) + 1.0)


def test_kernel_fan_out_is_all_or_nothing():
    cluster, master, client = _rig(hot_key_fraction=0.34)
    manager = master.replicas
    a = master.create_matrix(30)
    b = master.create_matrix(30)
    client.push_assign(a, 0, np.arange(30.0))
    client.push_assign(b, 0, np.arange(30.0))
    # Heat both shard-0 keys equally: k = round(0.34 * 6) = 2 picks them.
    for _ in range(4):
        client.pull_row(a, 0, indices=np.arange(10))
        client.pull_row(b, 0, indices=np.arange(10))
    manager.rebalance()
    assert manager.replica_set(a, 0) == [1, 2]
    assert manager.replica_set(b, 0) == [1, 2]
    kernel = messages.KernelRequest(0, "axpy", [(a, 0), (b, 0)])
    # Identical valid replica sets: one fan-out copy per common replica.
    extras = [copy for group in manager.copies([kernel]).groups
              for copy in group]
    assert [e.server_index for e in extras] == [1, 2]
    assert all(isinstance(e, messages.ReplicatedPushRequest) for e in extras)
    # Break the symmetry: only one operand still replicated -> a replica
    # cannot apply the kernel consistently, so the keys demote instead.
    manager._demote((b, 0))
    demotions_before = cluster.metrics.counters.get(
        "replica-kernel-demotions", 0)
    assert manager.copies([kernel]).groups == []
    assert cluster.metrics.counters["replica-kernel-demotions"] \
        == demotions_before + 1
    assert (a, 0) not in manager.keys("hot")


def test_direct_write_outside_the_forward_demotes_replicas():
    cluster, master, client = _rig()
    m = _heat_and_promote(master, client)
    manager = master.replicas
    assert manager.replica_set(m, 0) == [1, 2]
    # Tooling-style write straight into the primary's storage: no forward
    # ran, so the replicas would diverge -> the writer reports it, demote.
    master.server(0).shard(m, 0).values += 1.0
    manager.on_direct_write(m, 0)
    assert cluster.metrics.counters["replica-direct-write-demotions"] == 1
    assert (m, 0) not in manager.keys("hot")
    assert not master.server(1).has_replica(m, 0)


# -- report -------------------------------------------------------------------


def test_replication_table_renders_map_and_counters():
    cluster, master, client = _rig()
    m = _heat_and_promote(master, client)
    client.push_add(m, 0, np.ones(10), indices=list(range(10)))
    text = render_report(cluster)
    assert "replication='topk'" in text
    rows = [line.split() for line in text.splitlines()]
    assert [str(m), "0", "1,2"] in rows  # the replica set of (m, 0)
    assert ["replica-promotions", "2"] in rows
    assert ["replica-fanouts", "2"] in rows
    assert "replica state bytes=%.0f" % cluster.replicas.replica_bytes() \
        in text


# -- chain replication: unit coverage -----------------------------------------
# (the chaos suite covers crash/promotion end to end; these pin the
# introspection, lifecycle and failure edges of chain placement)


def _chain_rig(**overrides):
    from repro.config import FailureConfig  # noqa: F401 (rig callers)

    settings = dict(n_executors=2, n_servers=3, seed=42, chain_replicas=1)
    settings.update(overrides)
    cluster = Cluster(ClusterConfig(**settings))
    master = PSMaster(cluster)
    client = PSClient(cluster, master, cluster.executors[0])
    return cluster, master, client


def test_chain_links_and_lag_introspection():
    cluster, master, client = _chain_rig()
    m = master.create_matrix(30)
    client.push_assign(m, 0, np.arange(30.0))
    chain = cluster.replicas
    assert chain.holders((m, 0), "chain") == [1]
    assert chain.key_lag(m, 0) == 0
    # A dead holder's copy is not consultable: it contributes no lag.
    master.servers[1].crash()
    assert chain.key_lag(m, 0) == 0


def test_chain_direct_write_resyncs_successors():
    """A storage write that bypassed the forward: the whole key is
    re-streamed so the chain converges on the new state."""
    cluster, master, client = _chain_rig()
    m = master.create_matrix(30)
    client.push_assign(m, 0, np.arange(30.0))
    master.server(0).shard(m, 0).values += 1.0
    cluster.replicas.on_direct_write(m, 0)
    assert cluster.metrics.counters["chain-direct-write-resyncs"] == 1
    assert cluster.replicas.key_lag(m, 0) == 0
    entry = master.server(1).replica_store[(m, 0)]
    assert np.array_equal(entry.rows[0].values,
                          master.server(0)._store[m][0].values)


def test_realign_reports_its_writes_to_both_policies():
    """Realignment writes its target outside the forward, so it reports
    each write itself: the chain re-streams the target's keys (its copies
    equal their primaries afterwards) and a hot replica of one is
    demoted."""
    ctx = PS2Context(config=ClusterConfig(
        n_executors=2, n_servers=3, seed=42, chain_replicas=1,
        replication="topk", hot_key_fraction=0.34))
    src = ctx.dense(30)
    src.push(np.arange(30.0))
    dst = ctx.dense(30)
    for _ in range(4):
        dst.pull()
    ctx.coordinator_client.pull_row(dst.matrix_id, dst.row, indices=np.arange(10))
    ctx.master.replicas.rebalance()
    assert ctx.master.replicas.keys("hot")
    counters = ctx.metrics.counters
    resyncs = counters.get("chain-direct-write-resyncs", 0)
    ctx.realign(src, dst)
    assert np.array_equal(dst.pull(), np.arange(30.0))
    assert counters["chain-direct-write-resyncs"] >= resyncs + 3
    assert counters["replica-direct-write-demotions"] >= 1
    assert not ctx.master.replicas.keys("hot")
    assert _assert_copies_match_primaries(ctx.master) >= 3


def test_chain_repair_resyncs_live_server():
    cluster, master, client = _chain_rig()
    m = master.create_matrix(30)
    client.push_assign(m, 0, np.arange(30.0))
    master.repair(0)
    assert cluster.metrics.counters["server-repairs"] == 1
    assert cluster.replicas.key_lag(m, 0) == 0


def test_chain_install_drops_link_when_holder_crashes():
    """A successor that dies between the ring walk and the install (its
    scheduled crash applies at first contact) must not keep a link."""
    from repro.config import FailureConfig

    cluster, master, client = _chain_rig(
        failures=FailureConfig(server_failure_times=((1, 10.0),)))
    m = master.create_matrix(30)
    client.push_assign(m, 0, np.arange(30.0))
    assert cluster.replicas.holders((m, 0), "chain") == [1]
    # The holder sails past its scheduled crash time; the ring walk still
    # sees ``alive`` (the failure applies at first contact) so the next
    # install hits the corpse and must clean up the link.
    cluster.clock.set_at_least(master.server(1).node_id, 11.0)
    cluster.replicas.sync_key(m, 0)
    assert not master.server(1).alive
    assert (m, 0) not in cluster.replicas.links


def test_chain_row_create_falls_back_when_holder_dead():
    """Incremental row sync requires a valid live holder; otherwise the
    creation falls back to a full re-sync against the current ring."""
    cluster, master, client = _chain_rig()
    table = master.create_table(6)
    client.pull_or_create(table, list(range(6)))
    layout = master.layout(table)
    owner = layout.shards_for_row(0)[0][0]
    succ = cluster.replicas.successors(owner)[0]
    master.servers[succ].crash()
    fresh = next(row for row in range(6, 24)
                 if layout.shards_for_row(row)[0][0] == owner)
    client.pull_or_create(table, [fresh])
    holders = cluster.replicas.holders((table, owner), "chain")
    assert holders and succ not in holders
    assert all(master.servers[h].alive for h in holders)


def test_chain_sync_bytes_priced_through_cost_model():
    """Chain-sync value bytes compress exactly like replication fan-out
    reads under a forced codec — never identity-rate floats."""
    identity_cluster, identity_master, identity_client = _chain_rig()
    coded_cluster, coded_master, coded_client = _chain_rig(wire_codec="fp16")
    for master, client in ((identity_master, identity_client),
                           (coded_master, coded_client)):
        m = master.create_matrix(64)
        client.push_assign(m, 0, np.arange(64.0))
    identity_bytes = identity_cluster.metrics.bytes_for_tag("chain-sync")
    coded_bytes = coded_cluster.metrics.bytes_for_tag("chain-sync")
    assert 0 < coded_bytes < identity_bytes
    assert coded_cluster.costmodel.priced_chain_value_bytes(64) == \
        64 * FLOAT_BYTES // 4
    assert coded_cluster.costmodel.priced_chain_value_bytes(0) == 0


def test_chain_report_renders_map_and_promotions():
    cluster, master, client = _chain_rig()
    m = master.create_matrix(30)
    client.push_assign(m, 0, np.arange(30.0))
    master.servers[0].crash()
    client.push_add(m, 0, np.ones(30))  # recover via promotion
    text = render_report(cluster)
    assert "chain_replicas=1" in text
    rows = [line.split() for line in text.splitlines()]
    assert ["chain-promotions", "1"] in rows
    assert "chain-sync" in text
    assert "-- chain promotions --" in text
    # With the chain off, no replica view renders.
    off_cluster, _m, _c = _chain_rig(chain_replicas=0)
    assert "chain map" not in render_report(off_cluster)


# -- coexistence: hot-key replication AND the chain on one cluster -------------
# (no other tier-1 test turns both on; these pin the contract — hot-key
# first, one copy of each mutation per shared holder, neither reason evicts
# an entry the other holds, the chain re-streams where hot-key demotes)


def _both_rig():
    """3 servers, both policies on; after the sweep key (m, 0) has hot
    holders {1, 2} and chain holder {1} — server 1 is shared."""
    cluster, master, client = _rig(chain_replicas=1)
    m = _heat_and_promote(master, client)
    assert master.replicas.replica_set(m, 0) == [1, 2]
    assert cluster.replicas.holders((m, 0), "chain") == [1]
    assert cluster.replicas.links[(m, 0)][1] == {"hot": 0, "chain": 0}
    return cluster, master, client, m


def _assert_copies_match_primaries(master):
    """Every replica-store entry at its live primary's epoch equals the
    primary's rows (what the perf ledger's ``verify_copies`` checks); a
    primary that is down has no rows to compare against.  The rows are
    read off the store, so the check applies no scheduled crash."""
    checked = 0
    for holder in master.servers:
        for (matrix_id, primary_index), entry in holder.replica_store.items():
            primary = master.server(primary_index)
            if entry.install_epoch != primary.epoch or not primary.alive:
                continue
            rows = primary._store[matrix_id]
            assert set(rows) == set(entry.rows)
            for row, shard in rows.items():
                assert np.array_equal(shard.values, entry.rows[row].values)
            checked += 1
    return checked


def test_shared_holder_gets_one_copy_of_each_mutation():
    cluster, master, client, m = _both_rig()
    counters = cluster.metrics.counters
    before = {name: counters.get(name, 0) for name in (
        "replica-fanouts", "chain-fanouts", "replica-fanout-fenced",
        "replica-fanout-skipped")}
    pushes_before = cluster.metrics.logical_messages_by_tag.get(
        "replica-push:req", 0)
    client.push_add(m, 0, np.ones(30))
    # Hot-key: key (m, 0) -> holders 1 and 2.  Chain: (m, 1) -> 2 and
    # (m, 2) -> 0; its (m, 0) -> 1 copy is already covered by hot-key.
    assert counters["replica-fanouts"] == before["replica-fanouts"] + 2
    assert counters["chain-fanouts"] == before["chain-fanouts"] + 2
    assert cluster.metrics.logical_messages_by_tag["replica-push:req"] \
        == pushes_before + 4
    # A second copy to the shared holder would have been counter-skipped.
    assert counters.get("replica-fanout-fenced", 0) \
        == before["replica-fanout-fenced"]
    assert counters.get("replica-fanout-skipped", 0) \
        == before["replica-fanout-skipped"]
    assert np.array_equal(_copy(master.server(1), m, 0, 0),
                          np.arange(10.0) + 1.0)
    assert _assert_copies_match_primaries(master) == 4


def test_single_message_send_routes_and_fans_out_like_send_all():
    cluster, master, client, m = _both_rig()
    counters = cluster.metrics.counters
    hot_before = counters["replica-fanouts"]
    chain_before = counters["chain-fanouts"]
    push = messages.PushRequest(0, m, 0, np.ones(10),
                                indices=np.arange(10), mode="add")
    client.transport.send_all([push])
    # Same contract as send_all: hot copies to 1 and 2, the chain's copy
    # to the shared holder 1 already covered.
    assert counters["replica-fanouts"] == hot_before + 2
    assert counters["chain-fanouts"] == chain_before
    assert _assert_copies_match_primaries(master) == 4
    # A read of the dead primary is rerouted by the same routing call —
    # as a retargeted copy: the caller's request stays on the primary.
    master.servers[0].crash()
    read = messages.PullRowRequest(0, m, 0, 10, indices=np.arange(10))
    def rerouted():
        return counters.get("replica-reads", 0) \
            + counters.get("chain-reads", 0)

    before = rerouted()
    (values,), _arrivals = client.transport.send_all([read])
    assert read.replica_of is None and read.server_index == 0
    assert rerouted() == before + 1
    assert np.array_equal(values, np.arange(10.0) + 1.0)


def test_hot_demotion_keeps_the_chain_copy_on_a_shared_holder():
    cluster, master, client, m = _both_rig()
    # Cool (m, 0) off: shard (m, 1) dominates the next delta window.
    for _ in range(8):
        client.pull_row(m, 0, indices=np.arange(10, 20))
    master.replicas.rebalance()
    assert (m, 0) not in master.replicas.keys("hot")
    epoch = master.server(0).epoch
    # Holder 2 was hot-only and dropped its copy; holder 1 is still the
    # chain successor, so the shared entry stays installed and current.
    assert not master.server(2).has_replica(m, 0)
    assert master.server(1).has_replica(m, 0, epoch)
    assert cluster.replicas.key_lag(m, 0) == 0
    client.push_add(m, 0, np.ones(10), indices=list(range(10)))
    assert cluster.replicas.key_lag(m, 0) == 0
    assert np.array_equal(_copy(master.server(1), m, 0, 0),
                          np.arange(10.0) + 1.0)


def test_chain_teardown_keeps_the_hot_replica_on_a_shared_holder():
    cluster, master, client, m = _both_rig()
    cluster.replicas.retire_chains()
    assert not cluster.replicas.keys("chain")
    # The hot link still holds the shared entry on server 1.
    assert master.replicas.replica_set(m, 0) == [1, 2]
    assert np.array_equal(_copy(master.server(1), m, 0, 0),
                          np.arange(10.0))
    # Server 0 held only chain copies (of key (m, 2)): physically gone.
    assert not master.server(0).has_replica(m, 2)


def _scale_kernel(arrays, factor=2.0):
    for values in arrays:
        values *= factor


def test_copies_track_primaries_through_a_mixed_mutation_stream():
    cluster, master, client, m = _both_rig()
    other = master.create_matrix(30)
    table = master.create_table(6)
    client.push_add(m, 0, np.ones(30))
    client.push_add(m, 0, np.full(4, 0.5), indices=[1, 2, 11, 25])
    client.push_add(m, 0, np.arange(10.0), indices=np.arange(5, 15))
    client.fill_row(other, 0, 3.0)
    # (m, 0) is hot-replicated, (other, 0) is not: hot placement
    # demotes on the operand mismatch while the chain fans out as usual.
    client.execute(_scale_kernel, [(m, 0), (other, 0)],
                   wait_response=False)
    assert cluster.metrics.counters["replica-kernel-demotions"] == 1
    assert (m, 0) not in master.replicas.keys("hot")
    created = client.pull_or_create(table, [0, 1, 2, 3])
    client.push_block_add(table, [0, 3], np.ones((2, 6)))
    assert _assert_copies_match_primaries(master) >= 6
    expected = np.arange(30.0) + 1.0
    expected[[1, 2, 11, 25]] += 0.5
    expected[5:15] += np.arange(10.0)
    assert np.array_equal(client.pull_row(m, 0), expected * 2.0)
    assert np.array_equal(client.pull_row(other, 0), np.full(30, 6.0))
    after = client.pull_or_create(table, [0, 1, 2, 3])
    assert np.array_equal(after[[1, 2]], created[[1, 2]])
    assert np.array_equal(after[[0, 3]], created[[0, 3]] + 1.0)
