"""Primary-forwarded replication: copies leave the primary, never the writer.

A mutation's replica copies are sent by the primary's node once the
original completed there (:meth:`repro.ps.replication.Replicas.forward`).  These
tests pin what happens when a copy cannot be delivered — the writer must
never notice:

- a **crashed holder** (a chain successor, or a hot-key replica holder)
  is recovered through the master — once per forward, after every copy
  was served, however many primaries sent it one — and re-streamed from
  its live primaries; the copy is not re-sent;
- a **partition window** on the holder delays the copy's departure
  under the cluster's retry policy until it lands after the window;
- a partition that outlasts the retry budget forgets the holder's link
  for every reason and drops the stale entry.

In every case the client op completes without a retry penalty on its
clock, and afterwards every valid copy equals its primary.  A chain
promotion retries a partitioned holder the same way, and past the
budget promotes from the holders it can reach or falls back to the
checkpoint.

A mutation the transport re-delivered after its response was lost
(a kernel, a sparse push, a block push; under the chain and under hot
copies) is applied twice by its primary, and each copy applies it
twice too: every valid copy equals its primary in values and versions,
no re-stream or demotion is spent, and a chain promotion reads back the
primary's values.  A send the retry policy gave up on leaves no copy
behind either, and a copy whose rows owe its holder different counts
raises rather than apply a wrong one.  The last test pins the replica apply's price: a copy
costs its holder what the original cost the primary.
"""

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.common.errors import PSError
from repro.config import ClusterConfig, FailureConfig
from repro.costs import MAX_OP_RETRIES, RPC_CPU_SECONDS
from repro.ps import messages
from repro.ps.client import PSClient
from repro.ps.master import PSMaster
from tests.test_replication import _copy
from tests.test_replication import \
    _assert_copies_match_primaries as _copies_match_primaries

#: dim 30 over 3 servers: server 0 owns columns [0, 10), server 2 [20, 30).
DIM = 30
ON_SERVER_0 = list(range(10))
ON_SERVER_2 = list(range(20, 30))


def _rig(**overrides):
    settings = dict(n_executors=2, n_servers=3, seed=42)
    settings.update(overrides)
    cluster = Cluster(ClusterConfig(**settings))
    master = PSMaster(cluster)
    writer = PSClient(cluster, master, cluster.executors[0])
    m = master.create_matrix(DIM)
    writer.push_assign(m, 0, np.arange(float(DIM)))
    return cluster, master, writer, m


def _hot_rig():
    """Hot-key replication only: key (m, 0) held by servers 1 and 2."""
    cluster, master, writer, m = _rig(replication="topk",
                                      hot_key_fraction=0.34,
                                      replication_factor=2)
    for _ in range(4):
        writer.pull_row(m, 0, indices=np.arange(10))
    master.replicas.rebalance()
    assert master.replicas.replica_set(m, 0) == [1, 2]
    return cluster, master, writer, m


def _write_through_primary_0(cluster, writer, m):
    """One sparse push that only server 0 serves; returns the writer's
    clock before and after the op and the counters before it."""
    counters = dict(cluster.metrics.counters)
    start = cluster.clock.now(writer.node_id)
    writer.push_add(m, 0, np.ones(len(ON_SERVER_0)), indices=ON_SERVER_0)
    return (start, cluster.clock.now(writer.node_id)), counters


def _assert_writer_paid_once(cluster, clocks, before, requests=1):
    """No retry: the writer's clock moved by one RPC charge per request."""
    start, end = clocks
    assert end == start + RPC_CPU_SECONDS * requests
    counters = cluster.metrics.counters
    assert counters.get("op-retries", 0) == before.get("op-retries", 0)
    assert counters.get("client-dropped-ops", 0) == 0


def _delta(cluster, before, name):
    return cluster.metrics.counters.get(name, 0) - before.get(name, 0)


# -- a crashed holder is recovered, not retried ------------------------------


def test_a_crashed_chain_successor_is_recovered_by_the_forward():
    cluster, master, writer, m = _rig(chain_replicas=1)
    assert cluster.replicas.successors(0) == [1]
    master.servers[1].crash()
    clocks, before = _write_through_primary_0(cluster, writer, m)
    _assert_writer_paid_once(cluster, clocks, before)
    assert _delta(cluster, before, "server-recoveries") == 1
    assert _delta(cluster, before, "replica-fanout-recoveries") == 1
    holder = master.server(1)
    assert holder.alive
    # The recovery re-streamed (m, 0) from the primary, write included.
    expected = np.arange(10.0) + 1.0
    assert np.array_equal(_copy(holder, m, 0, 0), expected)
    assert cluster.replicas.key_lag(m, 0) == 0
    assert _copies_match_primaries(master) == 3


def test_a_crashed_hot_replica_holder_is_recovered_by_the_forward():
    cluster, master, writer, m = _hot_rig()
    master.servers[2].crash()
    clocks, before = _write_through_primary_0(cluster, writer, m)
    _assert_writer_paid_once(cluster, clocks, before)
    assert _delta(cluster, before, "server-recoveries") == 1
    assert _delta(cluster, before, "replica-fanout-recoveries") == 1
    assert master.replicas.replica_set(m, 0) == [1, 2]
    expected = np.arange(10.0) + 1.0
    for holder in (1, 2):
        assert np.array_equal(_copy(master.server(holder), m, 0, 0),
                              expected)
    assert _copies_match_primaries(master) == 2


def test_a_scheduled_holder_crash_fires_at_the_forward_not_the_writer():
    """The holder's crash is due by the time the copy reaches it: the
    forward meets it, the writer's op never does."""
    cluster, master, writer, m = _rig(
        chain_replicas=1,
        failures=FailureConfig(server_failure_times=((1, 1.0),)))
    holder_node = master.server(1).node_id
    cluster.clock.set_at_least(holder_node, 2.0)
    clocks, before = _write_through_primary_0(cluster, writer, m)
    _assert_writer_paid_once(cluster, clocks, before)
    assert _delta(cluster, before, "server-crashes") == 1
    assert _delta(cluster, before, "replica-fanout-recoveries") == 1
    assert cluster.replicas.key_lag(m, 0) == 0
    assert _copies_match_primaries(master) == 3


def test_a_due_holder_two_primaries_forward_to_is_recovered_once(
        monkeypatch):
    """Chain M=2 over three servers: a write served by primaries 0 and 2
    forwards an envelope from each to server 1, whose scheduled crash is
    due.  The lane serves both envelopes in one pass, both fail, and the
    forward recovers the holder once, after the pass."""
    cluster, master, writer, m = _rig(
        chain_replicas=2,
        failures=FailureConfig(server_failure_times=((1, 1.0),)))
    assert cluster.replicas.successors(0) == [1, 2]
    assert cluster.replicas.successors(2) == [0, 1]
    recovered = []
    recover = PSMaster.recover

    def counting(self, server_index):
        recovered.append(server_index)
        return recover(self, server_index)

    monkeypatch.setattr(PSMaster, "recover", counting)
    cluster.clock.set_at_least(master.server(1).node_id, 2.0)
    before = dict(cluster.metrics.counters)
    start = cluster.clock.now(writer.node_id)
    columns = ON_SERVER_0 + ON_SERVER_2
    writer.push_add(m, 0, np.ones(len(columns)), indices=columns)
    end = cluster.clock.now(writer.node_id)
    _assert_writer_paid_once(cluster, (start, end), before, requests=2)
    assert _delta(cluster, before, "server-crashes") == 1
    assert _delta(cluster, before, "replica-fanout-recoveries") == 1
    assert recovered == [1]
    # Neither envelope reached the replacement: the recovery came after
    # both, and its re-streams already carry the write.
    assert _delta(cluster, before, "replica-fanout-skipped") == 0
    for primary in (0, 2):
        assert cluster.replicas.key_lag(m, primary) == 0
    assert _copies_match_primaries(master) == 6


# -- a partitioned holder delays the departure, never a client ---------------


def _partitioned_rig(window, chain_replicas=1):
    cluster, master, writer, m = _rig(chain_replicas=chain_replicas)
    start = cluster.clock.global_time()
    cluster.clock.set_at_least(writer.node_id, start)
    holder_node = master.server(1).node_id
    cluster.failures.schedule_partition(holder_node, start, start + window)
    cluster.tracer.enable()
    return cluster, master, writer, m, start + window


def test_a_partitioned_holder_gets_the_copy_after_the_window():
    # Default policy: penalties of 2 ms then 3 ms push the departure past
    # a 2.5 ms window on the second retry.
    cluster, master, writer, m, window_end = _partitioned_rig(2.5e-3)
    clocks, before = _write_through_primary_0(cluster, writer, m)
    _assert_writer_paid_once(cluster, clocks, before)
    assert _delta(cluster, before, "replica-fanout-retries") == 2
    assert _delta(cluster, before, "replica-fanout-abandoned") == 0
    assert _delta(cluster, before, "partition-drops") == 2
    sends = cluster.tracer.spans_for(cat="nic-send",
                                     op="net:replica-push:req")
    assert len(sends) == 1
    assert sends[0].node == master.server(0).node_id
    assert sends[0].start >= window_end
    (apply,) = cluster.tracer.spans_for(cat="cpu", op="ps-replica")
    assert apply.node == master.server(1).node_id
    assert apply.start > window_end
    assert cluster.replicas.key_lag(m, 0) == 0
    assert _copies_match_primaries(master) == 3


def test_a_holder_partitioned_past_the_retry_budget_is_forgotten():
    cluster, master, writer, m, window_end = _partitioned_rig(1.0)
    clocks, before = _write_through_primary_0(cluster, writer, m)
    _assert_writer_paid_once(cluster, clocks, before)
    assert _delta(cluster, before, "replica-fanout-retries") == MAX_OP_RETRIES
    assert _delta(cluster, before, "replica-fanout-abandoned") == 1
    assert not cluster.tracer.spans_for(op="ps-replica")
    # The stale copy is unlinked and gone: nothing can route to it or
    # promote from it, and the other keys' copies are untouched.
    assert 1 not in cluster.replicas.holders((m, 0), "chain")
    assert not master.server(1).has_replica(m, 0)
    assert _copies_match_primaries(master) == 2
    # Once the window is over, a crash of the primary falls back to the
    # checkpoint path for the key instead of promoting the stale copy.
    for node in cluster.clock.nodes():
        cluster.clock.set_at_least(node, window_end)
    master.servers[0].crash()
    master.recover(0)
    assert cluster.metrics.counters["chain-fallbacks"] == 1


# -- a partitioned holder cannot break a promotion ---------------------------


def _promote_behind_a_partition(window, chain_replicas=1):
    """Server 1 (a chain successor of primary 0) is partitioned away when
    primary 0 crashes; the next write to server 0's columns recovers it.
    Returns the rig and the counters before the write."""
    cluster, master, writer, m, _end = _partitioned_rig(window,
                                                        chain_replicas)
    master.servers[0].crash()
    before = dict(cluster.metrics.counters)
    writer.push_add(m, 0, np.ones(len(ON_SERVER_0)), indices=ON_SERVER_0)
    return cluster, master, writer, m, before


#: The row after the write: ``arange`` plus one on server 0's columns.
PROMOTED = np.arange(float(DIM)) + np.isin(np.arange(DIM), ON_SERVER_0)


def test_a_promotion_retries_past_a_partitioned_holder():
    cluster, master, writer, m, before = _promote_behind_a_partition(2.5e-3)
    assert _delta(cluster, before, "server-recoveries") == 1
    assert _delta(cluster, before, "chain-promotions") == 1
    assert _delta(cluster, before, "chain-fallbacks") == 0
    assert _delta(cluster, before, "replica-fanout-retries") >= 2
    assert _delta(cluster, before, "replica-fanout-abandoned") == 0
    assert cluster.metrics.bytes_for_tag("chain-promote") > 0
    assert np.array_equal(writer.pull_row(m, 0), PROMOTED)
    assert _copies_match_primaries(master) == 3


def test_a_promotion_skips_a_holder_partitioned_past_the_budget():
    """M = 2: the unreachable successor is abandoned and the merge is
    redone over the other one, which holds the row intact."""
    cluster, master, writer, m, before = _promote_behind_a_partition(
        1.0, chain_replicas=2)
    assert _delta(cluster, before, "chain-promotions") == 1
    assert _delta(cluster, before, "chain-fallbacks") == 0
    assert _delta(cluster, before, "replica-fanout-abandoned") >= 1
    (_time, primary, sources, _matrices) = cluster.replicas.promotions[-1]
    assert (primary, sources) == (0, [2])
    # Server 1 is still partitioned: read back server 0's columns only.
    assert np.array_equal(writer.pull_row(m, 0, indices=np.arange(10)), PROMOTED[:10])


def test_a_promotion_with_no_reachable_holder_falls_back_to_the_checkpoint():
    cluster, master, writer, m, before = _promote_behind_a_partition(1.0)
    assert _delta(cluster, before, "server-recoveries") == 1
    assert _delta(cluster, before, "chain-promotions") == 0
    assert _delta(cluster, before, "chain-fallbacks") == 1
    assert cluster.metrics.counters.get("client-dropped-ops", 0) == 0


# -- a re-delivered mutation: copies apply what their primary applied -------


def _lose_the_next_responses(cluster, writer):
    """Cut the writer off from just after its next requests leave until
    before its first retry: every response of its next send is lost, so
    the transport re-sends each wire message whole, and every primary
    applies what the message carries twice."""
    t0 = cluster.clock.now(writer.node_id)
    cluster.failures.schedule_partition(writer.node_id, t0 + 3e-5,
                                        t0 + 5.3e-4)


def _assert_copies_equal_primaries(master):
    """Every valid copy equals its primary in values and in versions."""
    for holder in master.servers:
        for (m, primary_index), entry in holder.replica_store.items():
            primary = master.server(primary_index)
            assert entry.install_epoch == primary.epoch
            for row in primary._store[m]:
                assert entry.versions.get((m, row), 0) == \
                    primary.versions.get((m, row), 0)
    return _copies_match_primaries(master)


def _add_and_sum(arrays):
    arrays[0] += arrays[1]
    return float(arrays[0].sum())


def test_a_redelivered_kernel_leaves_no_copy_behind_and_promotes_intact():
    """A partition that drops only the kernel's responses makes the
    transport re-send it: each primary applies ``w += o`` twice, bumping
    ``w``'s counter twice, while each copy carries the kernel once.  The
    copy applies it twice too, so no re-stream is spent and a promotion
    reads back what the primary held."""
    cluster = Cluster(ClusterConfig(n_executors=2, n_servers=2, seed=1,
                                    chain_replicas=1))
    master = PSMaster(cluster)
    writer = PSClient(cluster, master, cluster.executors[0])
    m = master.create_matrix(8, n_rows=2)
    writer.push_assign(m, 0, np.arange(8.0))
    writer.push_assign(m, 1, np.ones(8))
    before = dict(cluster.metrics.counters)
    _lose_the_next_responses(cluster, writer)
    writer.execute(_add_and_sum, [(m, 0), (m, 1)])
    assert _delta(cluster, before, "op-retries") == 2
    assert _assert_copies_equal_primaries(master) == 2
    assert _delta(cluster, before, "chain-syncs") == 0
    # Delivery is at-least-once: the primaries applied the kernel twice.
    held = writer.pull_row(m, 0)
    assert np.array_equal(held, np.arange(8.0) + 2.0)
    master.servers[0].crash()
    master.recover(0)
    assert _delta(cluster, before, "chain-promotions") == 1
    assert np.array_equal(writer.pull_row(m, 0), held)


#: Columns of a sparse write: on servers 0 and 2 for the chain, on
#: server 0 alone (the hot key) for hot-key replication.
_REDELIVERED_COLUMNS = {"chain": [2, 5, 21, 27], "hot": [2, 5, 7]}


def _redelivery_rig(reason):
    """A two-row matrix *m* under chain M=1, or under hot-key replication
    with key (m, 0) held by servers 1 and 2; returns the rig and the
    one-row matrix :func:`_rig` made, whose keys no hot copy holds."""
    if reason == "chain":
        cluster, master, writer, other = _rig(chain_replicas=1)
    else:
        cluster, master, writer, other = _rig(replication="topk",
                                              hot_key_fraction=0.34,
                                              replication_factor=2)
    m = master.create_matrix(DIM, n_rows=2)
    writer.push_assign(m, 0, np.arange(float(DIM)))
    writer.push_assign(m, 1, np.ones(DIM))
    if reason == "hot":
        for _ in range(4):
            writer.pull_row(m, 0, indices=np.arange(10))
        master.replicas.rebalance()
        assert master.replicas.replica_set(m, 0) == [1, 2]
    return cluster, master, writer, m, other


def _add_with_a_read(writer, m, rows, columns, other):
    """Add ones to *rows* of *m* at *columns*, sparse — one push per
    (row, server) like ``push_add`` (one row) or ``push_block_add``
    (several) — sent with a pull of matrix *other*'s row 0 at the same
    columns, so each server's wire message carries a reply: a push is
    fire-and-forget, so without one there is no response to lose.  No
    hot copy holds *other*, so the pull is not rerouted."""
    requests = []
    for server, start, stop in writer.transport.layout(m).shards_for_row(0):
        here = np.array([c for c in columns if start <= c < stop],
                        dtype=np.int64)
        if not here.size:
            continue
        requests += [messages.PushRequest(server, m, row, np.ones(here.size),
                                          indices=here, mode="add")
                     for row in rows]
        requests.append(messages.PullRowRequest(server, other, 0, here.size,
                                                indices=here))
    writer.transport.send_all(requests)


@pytest.mark.parametrize("rows", [[0], [0, 1]], ids=["push", "block"])
@pytest.mark.parametrize("reason", ["chain", "hot"])
def test_a_redelivered_push_leaves_no_copy_behind(reason, rows):
    """The pushes' wire messages are re-sent after their responses were
    lost, so each primary adds twice: every copy adds twice too, no
    re-stream or demotion is spent, and a chain promotion reads back
    the primary's values."""
    cluster, master, writer, m, other = _redelivery_rig(reason)
    columns = _REDELIVERED_COLUMNS[reason]
    expected = {row: writer.pull_row(m, row) for row in rows}
    for row in rows:
        expected[row][columns] += 2.0
    before = dict(cluster.metrics.counters)
    slots = dict(cluster.metrics.compute_counts)
    _lose_the_next_responses(cluster, writer)
    _add_with_a_read(writer, m, rows, columns, other)
    servers = {column // 10 for column in columns}
    assert _delta(cluster, before, "op-retries") == len(servers)
    # Each holder books every application as its own slot, as the
    # primary did: two per push, on one chain successor or two hot
    # holders.
    applied = {tag: cluster.metrics.compute_counts.get(tag, 0)
               - slots.get(tag, 0) for tag in ("ps-add", "ps-replica")}
    assert applied["ps-add"] == 2 * len(rows) * len(servers)
    assert applied["ps-replica"] == \
        applied["ps-add"] * (1 if reason == "chain" else 2)
    assert _assert_copies_equal_primaries(master) > 0
    assert _delta(cluster, before, "chain-syncs") == 0
    assert _delta(cluster, before, "replica-demotions") == 0
    for row in rows:
        assert np.array_equal(writer.pull_row(m, row), expected[row])
    if reason == "hot":
        assert master.replicas.replica_set(m, 0) == [1, 2]
        return
    master.servers[0].crash()
    master.recover(0)
    assert _delta(cluster, before, "chain-promotions") == 1
    for row in rows:
        assert np.array_equal(writer.pull_row(m, row), expected[row])


@pytest.mark.parametrize("reason", ["chain", "hot"])
def test_a_send_the_retry_policy_gave_up_on_leaves_no_copy_behind(reason):
    """The writer is cut off for a second right after its requests leave:
    the primaries apply the pushes, every response is lost and every
    retry dropped, so the op raises and no forward runs.  The mutated
    keys react as to a direct write — the chain re-streams them, hot
    copies are demoted — so no copy misses the applied pushes, and a
    later write's copies apply it once."""
    cluster, master, writer, m, other = _redelivery_rig(reason)
    columns = _REDELIVERED_COLUMNS[reason]
    t0 = cluster.clock.now(writer.node_id)
    cluster.failures.schedule_partition(writer.node_id, t0 + 3e-5, t0 + 1.0)
    with pytest.raises(PSError):
        _add_with_a_read(writer, m, [0], columns, other)
    assert cluster.metrics.counters["op-retries-exhausted"] == 1
    _assert_copies_equal_primaries(master)
    for node in cluster.clock.nodes():
        cluster.clock.set_at_least(node, t0 + 1.0)
    writer.push_add(m, 0, np.ones(len(columns)), indices=columns)
    _assert_copies_equal_primaries(master)
    if reason == "chain":
        assert cluster.replicas.key_lag(m, 0) == 0


def test_a_creation_the_retry_policy_gave_up_on_still_reaches_the_chain():
    """A lazy row created by a read whose every response and retry is
    lost: the chain successor still gets the row."""
    cluster, master, writer, _m = _rig(chain_replicas=1)
    table = master.create_table(8)
    writer.pull_or_create(table, [0, 1, 2])
    t0 = cluster.clock.now(writer.node_id)
    cluster.failures.schedule_partition(writer.node_id, t0 + 3e-5, t0 + 1.0)
    with pytest.raises(PSError):
        writer.pull_or_create(table, [3])
    assert not any(server.created for server in master.servers)
    assert _assert_copies_equal_primaries(master) == 6


def test_a_copy_whose_rows_owe_different_counts_raises_and_applies_nothing():
    """Every row of a copy owes its holder the same number of
    applications.  Hand-built copies that break this — rows owing two
    and one, a covered row beside one owing one, a row the holder lacks
    — mean the holder missed an update its primary made: the holder
    raises and changes nothing, where a consistent copy applies."""
    cluster, master, _writer, m, _other = _redelivery_rig("chain")
    (h,) = cluster.replicas.successors(0)
    holder = master.server(h)
    entry = holder.replica_store[(m, 0)]
    versions = dict(entry.versions)
    values = {row: shard.values.copy() for row, shard in entry.rows.items()}
    kernel = messages.KernelRequest(0, _add_and_sum, [(m, 0), (m, 1)],
                                    wait_response=False)

    def copy(inner, owed):
        return messages.ReplicatedPushRequest(
            h, inner, 0, master.server(0).epoch,
            {key: versions.get(key, 0) + n for key, n in owed.items()})

    for broken in (copy(kernel, {(m, 0): 2, (m, 1): 1}),
                   copy(kernel, {(m, 0): 0, (m, 1): 1}),
                   copy(messages.FillRequest(0, m, 7, 0.5), {(m, 7): 1})):
        with pytest.raises(AssertionError):
            holder._serve_replicated_push(broken)
        assert entry.versions == versions
        for row, shard in entry.rows.items():
            assert np.array_equal(shard.values, values[row])
    holder._serve_replicated_push(copy(kernel, {(m, 0): 1, (m, 1): 1}))
    assert np.array_equal(entry.rows[0].values, values[0] + values[1])


# -- a copy costs its holder what the original cost the primary --------------


def test_a_replica_apply_is_charged_the_primarys_price_in_both_modes():
    """Observed where the server lane books: its CPU spans (node, charge
    tag and duration, in booking order)."""
    cluster, master, writer, m = _rig(chain_replicas=1)
    cluster.tracer.enable()
    primary, holder = master.server(0).node_id, master.server(1).node_id
    for push, tag in ((writer.push_assign, "ps-assign"),
                      (writer.push_add, "ps-add")):
        before = len(cluster.tracer.spans_for(cat="cpu"))
        push(m, 0, np.full(len(ON_SERVER_0), 2.0), indices=ON_SERVER_0)
        served = [(span.node, span.op, span.duration)
                  for span in cluster.tracer.spans_for(cat="cpu")[before:]]
        assert [charge[:2] for charge in served] == \
            [(primary, tag), (holder, "ps-replica")]
        assert served[0][2] == served[1][2] > 0
    assert _copies_match_primaries(master) == 3
