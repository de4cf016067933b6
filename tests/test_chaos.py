"""Chaos harness: seeded failures against the recovery/retry path.

Covers the hardened failure story end to end: crash before the first
checkpoint, crash after a post-checkpoint ``create_matrix``, routing
re-resolution (with re-sent request bytes) on retry, backoff charged to the
virtual clock, transient network partitions, scheduled executor crashes,
periodic checkpoint sweeps, row-layout block routing, and a full chaos
training run asserting convergence and run-to-run determinism.
"""

import types

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.common.errors import ConfigError
from repro.config import ClusterConfig, FailureConfig
from repro.costs import MESSAGE_OVERHEAD_BYTES, REQUEST_HEADER_BYTES, \
    SUBREQUEST_HEADER_BYTES, backoff_for, penalty_for
from repro.experiments import run_fault_tolerance
from repro.experiments.runner import make_context
from repro.ml import train_logistic_regression
from repro.data import sparse_classification
from repro.ps.client import PSClient
from repro.ps.master import PSMaster
from repro.ps.partitioner import RowLayout
from repro.ps.server import serve_one
from tests.test_fast_lane import interleaved


def _chaos_cluster(**failure_kwargs):
    config = ClusterConfig(
        n_executors=4, n_servers=3, seed=42,
        failures=FailureConfig(**failure_kwargs),
    )
    return Cluster(config)


# -- recovery correctness ----------------------------------------------------


def test_crash_before_first_checkpoint_pull_recovers(ps2):
    """Regression: a crash with ZERO checkpoints taken must recover to
    freshly re-initialized shards instead of raising."""
    w = ps2.dense(12)
    w.push(np.arange(12.0))
    ps2.master.server(0).crash()
    pulled = w.pull()  # must not raise
    layout = w.layout
    for server_index, start, stop in layout.shards_for_row(w.row):
        if server_index == 0:
            # Lost with the server; re-initialized to the zero init.
            assert np.all(pulled[start:stop] == 0.0)
        else:
            assert np.allclose(pulled[start:stop], np.arange(12.0)[start:stop])
    assert ps2.metrics.counters["server-recoveries"] == 1
    # No snapshot existed, so this was a metadata rebuild, not a restore.
    assert ps2.master.checkpoints.recoveries == 0
    assert ps2.metrics.counters["recovery-reinit-shards"] >= 1


def test_post_checkpoint_matrix_survives_crash(ps2):
    """Regression: a matrix created after the last checkpoint must not
    vanish on recovery (MatrixNotFoundError used to escape the client)."""
    a = ps2.dense(12)
    a.fill(3.0)
    ps2.checkpoint()
    b = ps2.dense(20)
    b.push(np.arange(20.0))
    ps2.master.server(1).crash()
    got_b = b.pull()  # must not raise: b is rebuilt from metadata
    for server_index, start, stop in b.layout.shards_for_row(b.row):
        if server_index == 1:
            assert np.all(got_b[start:stop] == 0.0)
        else:
            assert np.allclose(got_b[start:stop],
                               np.arange(20.0)[start:stop])
    # a was in the snapshot and is fully restored.
    assert np.allclose(a.pull(), 3.0)
    assert ps2.master.checkpoints.recoveries == 1


def test_retry_reresolves_routing_and_resends_bytes(cluster):
    """A retried op must talk to the REPLACEMENT server object and pay the
    request bytes again — a retry is a full new RPC."""
    master = PSMaster(cluster)
    client = PSClient(cluster, master, cluster.executors[0])
    m = master.create_matrix(30)
    client.push_assign(m, 0, np.arange(30.0))
    master.checkpoint_all()
    failed = master.server(1)
    failed.crash()
    requests_before = cluster.metrics.messages_by_tag["pull:req"]
    routing_before = cluster.metrics.messages_by_tag["routing:req"]
    got = client.pull_row(m, 0)
    assert np.allclose(got, np.arange(30.0))
    # 3 shards -> 3 requests, plus one re-sent request for the retry.
    assert cluster.metrics.messages_by_tag["pull:req"] == requests_before + 4
    # The retry dropped the routing cache and re-resolved via the master.
    assert cluster.metrics.messages_by_tag["routing:req"] == routing_before + 1
    # And it reached a new server process, not the dead object.
    assert master.server(1) is not failed
    assert cluster.metrics.counters["op-retries"] == 1


def test_coalesced_batch_retry_reresolves_and_resends_envelope(
        cluster, monkeypatch):
    """A coalesced batch that hits a dead server must be retried as a
    WHOLE envelope: routing re-resolved through the master, the
    replacement server object served, and the full envelope's bytes paid
    again on the wire.  The re-send is a fan-out of one on the lane: the
    envelope is served unit by unit, never handed to a server whole."""
    from repro.ps import messages, transport

    master = PSMaster(cluster)
    client = PSClient(cluster, master, cluster.executors[0])
    m = master.create_matrix(30, n_rows=4)
    expected = np.arange(120.0).reshape(4, 30)
    for row in range(4):
        client.push_assign(m, row, expected[row])
    master.checkpoint_all()
    failed = master.server(1)
    failed.crash()
    metrics = cluster.metrics
    req_before = metrics.messages_by_tag["pull-block:req"]
    bytes_before = metrics.bytes_by_tag["pull-block:req"]
    logical_before = metrics.logical_messages_by_tag["pull-block:req"]
    routing_before = metrics.messages_by_tag["routing:req"]
    batches_before = metrics.counters["coalesced-batches"]
    served = []
    kinds = set()
    lane = transport.serve_fast_fanout

    def spy_lane(cluster, fan_servers, fan_messages, fan_arrivals):
        served.append(len(fan_messages))
        kinds.update(map(type, fan_messages))
        return lane(cluster, fan_servers, fan_messages, fan_arrivals)

    monkeypatch.setattr(transport, "serve_fast_fanout", spy_lane)

    block = client.pull_block(m, [0, 1, 2, 3])
    assert np.array_equal(block, expected)  # server-1 restored and re-read
    # 3 servers -> 3 envelopes, plus ONE re-sent envelope for the retry.
    assert metrics.messages_by_tag["pull-block:req"] == req_before + 4
    assert metrics.logical_messages_by_tag["pull-block:req"] \
        == logical_before + 16
    # The retried attempt paid the whole envelope's bytes again.
    envelope = (REQUEST_HEADER_BYTES + 4 * SUBREQUEST_HEADER_BYTES
                + MESSAGE_OVERHEAD_BYTES)
    assert metrics.bytes_by_tag["pull-block:req"] \
        == bytes_before + 4 * envelope
    # Routing was dropped and re-resolved through the master...
    assert metrics.messages_by_tag["routing:req"] == routing_before + 1
    # ...and the re-send reached the replacement server process.
    assert master.server(1) is not failed
    assert metrics.counters["op-retries"] == 1
    # Three envelopes were FORMED (one per server); the retry re-sends an
    # existing envelope rather than building a fourth, so the wire count
    # (+4 above) exceeds the batch count by exactly the resend.
    assert metrics.counters["coalesced-batches"] == batches_before + 3
    assert metrics.counters["coalesced-requests"] == 12
    # The lane served 16 units: the 12 first attempts, then the retried
    # envelope's 4 as a fan-out of one — and no server was handed an
    # envelope.
    assert served == [12, 4]
    assert kinds == {messages.PullRowRequest}


def _heat_after(op, crash):
    """Every shard's requests, values and bytes after set-up and one
    ``op``, with server-1 crashed just before it (*crash*) or not (the
    unfailed twin)."""
    cluster = Cluster(ClusterConfig(n_executors=4, n_servers=3, seed=42))
    master = PSMaster(cluster)
    client = PSClient(cluster, master, cluster.executors[0])
    m = master.create_matrix(30, n_rows=4)
    for row in range(4):
        client.push_assign(m, row, np.arange(30.0) + row)
    master.checkpoint_all()
    if crash:
        master.server(1).crash()
    if op == "pull_row":
        client.pull_row(m, 0)
    else:
        client.pull_block(m, [0, 1, 2, 3])
    metrics = cluster.metrics
    assert metrics.counters.get("op-retries", 0) == (1 if crash else 0)
    return (dict(metrics.shard_requests), dict(metrics.shard_values),
            dict(metrics.shard_bytes))


@pytest.mark.parametrize("op", ["pull_row", "pull_block"])
def test_a_retry_records_no_shard_heat(op):
    """Shard heat is a first-attempt fact: every shard's requests, values
    and bytes after a crash-and-retry equal the unfailed twin's — the
    re-sent message is not counted twice."""
    assert _heat_after(op, crash=True) == _heat_after(op, crash=False)


def _clocks_and_nics(cluster):
    """Every node's virtual clock and NIC busy totals: what a traced and
    an untraced run of one script must agree on."""
    nodes = cluster.clock.nodes()
    return ({node: cluster.clock.now(node) for node in nodes},
            {node: cluster.network.nic_utilization(node) for node in nodes})


def _drifted_shard_run(op, traced):
    """A live server whose shard set drifted, hit by one client op.

    Untraced, the op's fan-out takes the phased schedule (which never
    asks about shards or liveness up front); traced, the per-message
    one, pinned on the client's transport (``_transmit_bulk`` is the
    interleaved reference, for first attempts and retries).  Returns
    what the caller saw, the final state, the cluster's counters and its
    clocks and NIC totals.
    """
    cluster = Cluster(ClusterConfig(n_executors=4, n_servers=3, seed=42))
    master = PSMaster(cluster)
    client = PSClient(cluster, master, cluster.executors[0])
    if traced:
        cluster.tracer.enable()
        client.transport._transmit_bulk = types.MethodType(
            interleaved, client.transport)
    m = master.create_matrix(30, n_rows=2)
    for row in range(2):
        client.push_add(m, row, np.arange(30.0) + row)
    if op == "push_block_add":
        # Row 1 only: sub-request 0 of server-1's envelope still applies
        # before sub-request 1 finds its shard missing.
        del master.server(1)._store[m][1]
        got = client.push_block_add(m, [0, 1], np.ones((2, 30)))
    else:
        master.server(1).drop_matrix(m)
        if op == "pull_row":
            got = client.pull_row(m, 0)
        else:
            got = client.pull_block(m, [0, 1])
    final = client.pull_block(m, [0, 1])
    return got, final, cluster.metrics.counters, _clocks_and_nics(cluster)


@pytest.mark.parametrize("op", ["pull_row", "pull_block", "push_block_add"])
def test_drifted_shard_in_a_bulk_fanout_reaches_the_retry_policy(op):
    """Regression: a retryable error met while serving a bulk fan-out used
    to escape the client (``MatrixNotFoundError``) — the bulk schedule had
    no retry loop — while the traced, per-message run of the same script
    repaired and returned.  Neither tracing nor the schedule may change
    the outcome: the failed wire message (a whole envelope) goes to the retry
    policy after the rest of the fan-out went out, on both schedules, so
    the two runs also end on identical clocks and NIC totals (the
    per-message schedule used to retry inline, before the next server's
    request left)."""
    got, final, counters, wire = _drifted_shard_run(op, traced=False)
    traced_got, traced_final, traced_counters, traced_wire = \
        _drifted_shard_run(op, traced=True)
    if got is None:
        assert traced_got is None
    else:
        assert np.array_equal(got, traced_got)
    assert np.array_equal(final, traced_final)
    assert wire == traced_wire
    for name in ("op-retries", "routing-invalidations", "server-repairs",
                 "coalesced-batches", "coalesced-requests"):
        assert counters[name] == traced_counters[name], name
    assert counters["op-retries"] == 1
    assert counters["routing-invalidations"] == 1
    assert counters["op-retries-exhausted"] == 0
    # Server 1 owns columns 10..19.  Its dropped shards come back at the
    # zero init; the shards the other servers hold were never disturbed.
    expected = np.stack([np.arange(30.0), np.arange(30.0) + 1.0])
    if op == "push_block_add":
        expected += 1.0
        # The envelope was retried whole, as the per-message schedule
        # retries it: sub-request 0 applied twice, the repaired row once.
        expected[0, 10:20] += 1.0
        expected[1, 10:20] = 1.0
    else:
        expected[:, 10:20] = 0.0
    assert np.array_equal(final, expected)


def test_backoff_is_charged_to_virtual_clock(cluster):
    master = PSMaster(cluster)
    client = PSClient(cluster, master, cluster.executors[0])
    m = master.create_matrix(12)
    master.checkpoint_all()
    master.server(0).crash()
    before = cluster.clock.now(client.node_id)
    client.pull_row(m, 0)
    elapsed = cluster.clock.now(client.node_id) - before
    # One failed attempt: at least timeout + first backoff of virtual time.
    assert elapsed >= penalty_for(1)


def test_retry_prices():
    """A 1 ms detection timeout, then a backoff from 1 ms doubling per
    retry."""
    assert backoff_for(1) == pytest.approx(1e-3)
    assert backoff_for(3) == pytest.approx(1e-3 * 4.0)
    assert penalty_for(2) == pytest.approx(1e-3 + 2e-3)
    with pytest.raises(ConfigError):
        backoff_for(0)


# -- network partitions ------------------------------------------------------


def test_partition_window_is_retried_until_it_passes():
    # The window opens just after the (driver-side) matrix allocation and
    # swallows the client's first pull attempts into server-1.
    cluster = _chaos_cluster(partition_windows=(("server-1", 1e-5, 4e-3),))
    master = PSMaster(cluster)
    client = PSClient(cluster, master, cluster.executors[0])
    m = master.create_matrix(30)
    # The pull's request into server-1 departs inside the window: the
    # attempt drops, the client backs off (advancing its virtual clock)
    # and a later attempt outlasts the partition.
    got = client.pull_row(m, 0)
    assert got.shape == (30,)
    assert cluster.metrics.counters["partition-drops"] >= 1
    assert cluster.metrics.counters["op-retries"] >= 1
    # The partition did not kill the server: no recovery was needed.
    assert cluster.metrics.counters.get("server-recoveries", 0) == 0
    assert cluster.clock.now(client.node_id) >= 4e-3


def test_permanent_partition_exhausts_retries():
    from repro.common.errors import PSError

    cluster = _chaos_cluster(partition_windows=(("server-1", 1e-5, 1e6),))
    master = PSMaster(cluster)
    client = PSClient(cluster, master, cluster.executors[0])
    m = master.create_matrix(30)
    with pytest.raises(PSError):
        client.pull_row(m, 0)
    assert cluster.metrics.counters["op-retries-exhausted"] == 1


def test_partition_on_the_routing_rpc_is_retried():
    """Regression: the routing RPC of a client's first touch sat outside
    every retry loop, so a window over the client's node raised
    ``NetworkPartitionedError`` (not a ``PSError``) out of the op, and
    ``client-dropped-ops`` never counted it.  The fetch is now retried
    under the client's policy: the op returns once the window passed."""
    cluster = _chaos_cluster(partition_windows=(("executor-0", 0.0, 4e-3),))
    master = PSMaster(cluster)
    client = PSClient(cluster, master, cluster.executors[0])
    m = master.create_matrix(30)
    got = client.pull_row(m, 0)
    assert np.array_equal(got, np.zeros(30))
    counters = cluster.metrics.counters
    assert counters["partition-drops"] >= 1
    assert counters["op-retries"] >= 1
    assert counters.get("client-dropped-ops", 0) == 0
    # The penalties were charged to the client's clock, past the window.
    assert cluster.clock.now(client.node_id) >= 4e-3


def test_partition_on_the_routing_rpc_exhausts_into_a_dropped_op():
    from repro.common.errors import PSError

    cluster = _chaos_cluster(partition_windows=(("executor-0", 0.0, 1e6),))
    master = PSMaster(cluster)
    client = PSClient(cluster, master, cluster.executors[0])
    m = master.create_matrix(30)
    with pytest.raises(PSError):
        client.pull_row(m, 0)
    counters = cluster.metrics.counters
    assert counters["op-retries-exhausted"] == 1
    assert counters["client-dropped-ops"] == 1


def _dropped_response_run(traced):
    """A warm client whose node is partitioned from 0.1 ms to 5 ms from
    now: its pull's requests leave before the window, the responses depart
    inside it.  Returns the pulled row, the counters, clocks and NICs."""
    cluster = _chaos_cluster()
    master = PSMaster(cluster)
    client = PSClient(cluster, master, cluster.executors[0])
    if traced:  # ... and on the per-message schedule
        cluster.tracer.enable()
        client.transport._transmit_bulk = types.MethodType(
            interleaved, client.transport)
    m = master.create_matrix(30)
    client.push_assign(m, 0, np.arange(30.0))  # warms routing
    now = cluster.clock.now(client.node_id)
    cluster.failures.schedule_partition(client.node_id, now + 1e-4, now + 5e-3)
    got = client.pull_row(m, 0)
    return got, cluster.metrics.counters, _clocks_and_nics(cluster)


def test_a_lost_create_response_still_registers_the_row():
    """Regression: a lazy row was registered with the master only when its
    reply said ``created``.  A window that swallows the create's response
    makes the retry find the row and answer ``False``, so the row never
    entered the registry, and a resize — which migrates the registry's
    rows only — dropped it with every update it had taken."""
    ctx = make_context(n_executors=2, n_servers=3, seed=23)
    cluster = ctx.cluster
    client = ctx.client_for(cluster.executors[0])
    table = ctx.master.create_table(8)
    client.pull_or_create(table, [0])  # warms routing
    now = cluster.clock.now(client.node_id)
    # The request leaves before the window opens, the response inside it.
    cluster.failures.schedule_partition(client.node_id, now + 2e-5,
                                        now + 2e-3)
    (initial,) = client.pull_or_create(table, [4])
    counters = cluster.metrics.counters
    assert counters["partition-drops"] == 1 and counters["op-retries"] == 1
    assert counters["lazy-creates"] == 2  # the retry created nothing
    assert sorted(ctx.master.info(table).created_rows) == [0, 4]
    client.push_add(table, 4, np.arange(8.0))
    ctx.master.resize_servers(4)
    (migrated,) = client.pull_or_create(table, [4])
    assert np.array_equal(migrated, initial + np.arange(8.0))


def test_partition_on_a_response_is_retried_on_both_schedules():
    """Regression: a window that swallowed an RPC *response* escaped the
    op as ``NetworkPartitionedError`` on both schedules.  A lost response
    now fails its attempt like a lost request, and the message is re-sent
    whole (at-least-once delivery: the server served it twice).  The
    untraced run takes the bulk schedule, the traced one is pinned to the
    per-message one; they end on identical clocks and NIC totals."""
    got, counters, wire = _dropped_response_run(traced=False)
    traced_got, traced_counters, traced_wire = _dropped_response_run(
        traced=True)
    assert np.array_equal(got, np.arange(30.0))
    assert np.array_equal(traced_got, got)
    assert counters["op-retries"] >= 1
    assert counters["partition-drops"] >= 1
    assert counters.get("client-dropped-ops", 0) == 0
    for name in ("op-retries", "partition-drops", "routing-invalidations"):
        assert counters.get(name, 0) == traced_counters.get(name, 0), name
    assert wire == traced_wire


# -- scheduled crashes -------------------------------------------------------


def test_scheduled_server_crash_recovers_during_training():
    failures = FailureConfig(server_failure_times=((0, 1e-3),))
    ctx = make_context(n_executors=4, n_servers=3, seed=9, failures=failures)
    rows, _ = sparse_classification(120, 600, 10, seed=9)
    result = train_logistic_regression(
        ctx, rows, 600, optimizer="sgd", n_iterations=6,
        batch_fraction=0.5, seed=9,
    )
    assert result.iterations == 6
    assert ctx.metrics.counters["server-crashes"] >= 1
    assert ctx.metrics.counters["server-recoveries"] >= 1
    assert result.final_loss < result.history[0][1]


def test_scheduled_executor_crash_redistributes_partitions():
    failures = FailureConfig(executor_failure_times=((0, 1e-3),))
    ctx = make_context(n_executors=4, n_servers=3, seed=9, failures=failures)
    rows, _ = sparse_classification(120, 600, 10, seed=9)
    result = train_logistic_regression(
        ctx, rows, 600, optimizer="sgd", n_iterations=6,
        batch_fraction=0.5, seed=9,
    )
    assert result.iterations == 6
    assert ctx.cluster.failures.injected_executor_failures == 1
    assert ctx.metrics.counters["executor-failures"] == 1
    # The dead executor's partitions moved and reloaded their input.
    assert ctx.metrics.counters["partition-reloads"] >= 1
    assert "executor-0" not in ctx.cluster.alive_executors


# -- periodic checkpoint sweeps ---------------------------------------------


def test_periodic_sweeps_run_on_schedule():
    failures = FailureConfig(checkpoint_interval=2e-3)
    ctx = make_context(n_executors=4, n_servers=3, seed=9, failures=failures)
    rows, _ = sparse_classification(120, 600, 10, seed=9)
    train_logistic_regression(
        ctx, rows, 600, optimizer="sgd", n_iterations=6,
        batch_fraction=0.5, seed=9,
    )
    sweeps = ctx.metrics.counters["checkpoint-sweeps"]
    assert sweeps >= 1
    times = ctx.master.checkpoint_sweep_times
    assert len(times) == sweeps
    assert times == sorted(times)
    # Re-armed relative to the post-sweep clock: no sweep storms.
    assert all(b - a >= 2e-3 for a, b in zip(times, times[1:]))
    assert ctx.master.checkpoints.checkpoints_taken >= 3  # >= one full sweep


def test_sweep_skips_dead_server_and_covers_survivors(cluster):
    master = PSMaster(cluster)
    master.create_matrix(12)
    master.server(1).crash()
    master.checkpoint_all()  # must not raise
    assert cluster.metrics.counters["checkpoint-skips-dead-server"] == 1
    assert master.checkpoints.has_checkpoint(0)
    assert not master.checkpoints.has_checkpoint(1)
    assert master.checkpoints.has_checkpoint(2)


# -- row-layout block routing ------------------------------------------------


def test_pull_block_routes_per_row_under_row_layout(cluster):
    master = PSMaster(cluster)
    client = PSClient(cluster, master, cluster.executors[0])
    m = master.create_matrix(8, n_rows=6, layout=RowLayout(8, 3))
    expected = np.arange(48.0).reshape(6, 8)
    for row in range(6):
        client.push_assign(m, row, expected[row])
    # Rows 0..5 live on servers 0,1,2,0,1,2 — one request per OWNING
    # server, never everything to rows[0]'s server.
    block = client.pull_block(m, list(range(6)))
    assert np.array_equal(block, expected)
    sparse = client.pull_block(m, [1, 2, 5], indices=[7, 0, 3])
    assert np.array_equal(sparse, expected[[1, 2, 5]][:, [7, 0, 3]])


def test_push_block_add_routes_per_row_under_row_layout(cluster):
    master = PSMaster(cluster)
    client = PSClient(cluster, master, cluster.executors[0])
    m = master.create_matrix(8, n_rows=6, layout=RowLayout(8, 3))
    delta = np.arange(48.0).reshape(6, 8)
    client.push_block_add(m, list(range(6)), delta)
    assert np.array_equal(client.pull_block(m, list(range(6))), delta)
    client.push_block_add(m, [0, 4], np.ones((2, 3)), indices=[1, 4, 6])
    expected = delta.copy()
    for row in (0, 4):
        expected[row, [1, 4, 6]] += 1.0
    assert np.array_equal(client.pull_block(m, list(range(6))), expected)


# -- full chaos scenario -----------------------------------------------------


def _chaos_failures():
    return FailureConfig(
        server_failure_times=((1, 1.5e-3), (2, 4e-3)),
        executor_failure_times=((3, 2e-3),),
        partition_windows=(("server-0", 2.5e-3, 3e-3),),
        checkpoint_interval=1e-3,
    )


def _chaos_run():
    ctx = make_context(n_executors=4, n_servers=3, seed=13,
                       failures=_chaos_failures())
    rows, _ = sparse_classification(150, 800, 12, seed=13)
    result = train_logistic_regression(
        ctx, rows, 800, optimizer="sgd", n_iterations=8,
        batch_fraction=0.4, seed=13,
    )
    weights = result.extras["weight"].pull()
    return ctx, result, weights


def test_chaos_training_converges_and_is_deterministic():
    ctx_a, result_a, weights_a = _chaos_run()
    ctx_b, result_b, weights_b = _chaos_run()
    # The chaos actually happened.
    assert ctx_a.metrics.counters["server-recoveries"] >= 1
    assert ctx_a.cluster.failures.injected_executor_failures == 1
    assert ctx_a.metrics.counters["checkpoint-sweeps"] >= 1
    # Training converged through it.
    assert result_a.iterations == 8
    assert result_a.final_loss < result_a.history[0][1]
    # And the whole run — losses, virtual times, final weights, failure
    # bookkeeping — is a deterministic function of the seed.
    assert result_a.history == result_b.history
    assert np.array_equal(weights_a, weights_b)
    assert ctx_a.elapsed() == ctx_b.elapsed()
    assert (ctx_a.metrics.counters["server-recoveries"]
            == ctx_b.metrics.counters["server-recoveries"])


def test_fault_tolerance_experiment_bounds_regression():
    """Small-scale Figure-12 check: the post-crash loss peak stays within
    the loss recorded at the last pre-crash checkpoint sweep."""
    summary = run_fault_tolerance(seed=5, n_iterations=10, n_rows=150,
                                  dim=800)
    assert summary["recoveries"] == 1
    assert summary["sweeps"] >= 1
    assert summary["regression_bounded"]
    assert summary["chaos"].final_loss < summary["chaos"].history[0][1]


# -- relaxed consistency under failures ---------------------------------------


def test_ssp_server_crash_fences_stale_cache_entries():
    """Crash a server mid-SSP-epoch: the recovered server's bumped epoch
    must fence every cached row it backed, so no read ever serves state
    from before the crash as if it were merely *staleness*-bounded stale.
    (The PR-2 failure-model guarantee restated for the worker cache.)"""
    cluster = Cluster(ClusterConfig(
        n_executors=4, n_servers=3, seed=42,
        consistency="ssp", staleness=3,
    ))
    master = PSMaster(cluster)
    client = PSClient(cluster, master, cluster.executors[0])
    m = master.create_matrix(30)
    client.push_assign(m, 0, np.arange(30.0))
    master.checkpoint_all()

    cached = client.pull_row(m, 0)  # miss: fills the cache at clock 0
    assert np.allclose(cached, np.arange(30.0))
    assert client.cache.lookup(m, 0) is not None

    failed = master.server(1)
    failed.crash()

    # The worker's clock tick triggers the version-vector exchange; the
    # renewal RPC to the dead server is retried, which recovers it with a
    # bumped epoch -- and the epoch mismatch drops the cached row even
    # though its clock-age (1 <= staleness 3) would still permit hits.
    cluster.consistency.advance(cluster, client.node_id)
    assert master.server(1) is not failed
    assert client.cache.lookup(m, 0) is None
    assert cluster.metrics.counters["cache-epoch-fences"] >= 1
    assert cluster.metrics.counters["server-recoveries"] == 1

    # The next pull is a miss that re-reads the *recovered* (checkpointed)
    # state -- never a stale hit from the pre-crash cache.
    misses_before = cluster.metrics.cache_misses[client.node_id]
    fresh = client.pull_row(m, 0)
    assert cluster.metrics.cache_misses[client.node_id] == misses_before + 1
    assert np.allclose(fresh, np.arange(30.0))


# -- hot-key replication under failures ---------------------------------------


def _replicated_rig():
    """A 3-server cluster with shard (m, 0) promoted to replicas [1, 2].

    dim 30 over 3 servers -> shards [0,10), [10,20), [20,30).  The extra
    ``pull_range`` reads heat shard (m, 0) past its siblings, so the topk
    sweep (k = round(0.34 * 3) = 1) picks exactly that key, and
    ``replication_factor=2`` installs copies on both other servers.
    """
    cluster = Cluster(ClusterConfig(
        n_executors=2, n_servers=3, seed=42,
        replication="topk", hot_key_fraction=0.34, replication_factor=2,
    ))
    master = PSMaster(cluster)
    client = PSClient(cluster, master, cluster.executors[0])
    m = master.create_matrix(30)
    client.push_assign(m, 0, np.arange(30.0))
    for _ in range(4):
        client.pull_range(m, 0, 0, 10)
    master.replicas.rebalance()
    assert master.replicas.replica_set(m, 0) == [1, 2]
    return cluster, master, client, m


def test_replica_holder_crash_recovery_restores_replica_set():
    """Crash a server HOSTING hot-key replicas mid-epoch: the dead holder
    must drop out of the valid replica set immediately (no read may route
    to it), and recovery must re-install its copy from the live primary."""
    cluster, master, client, m = _replicated_rig()
    manager = master.replicas
    master.checkpoint_all()
    reinstalls_before = cluster.metrics.counters.get("replica-reinstalls", 0)

    master.server(1).crash()
    # The crash wiped server-1's replica store; routing candidates shrink
    # to the surviving holder at once.
    assert manager.replica_set(m, 0) == [2]

    master.recover(1)
    # Recovery re-installed the (m, 0) copy onto the replacement process
    # (plus restored its own primary shard from the checkpoint).
    assert cluster.metrics.counters["replica-reinstalls"] > reinstalls_before
    assert manager.replica_set(m, 0) == [1, 2]
    assert master.server(1).has_replica(m, 0, master.server(0).epoch)
    assert np.allclose(client.pull_row(m, 0), np.arange(30.0))


def test_primary_crash_epoch_bump_fences_stale_replicas():
    """Crash the PRIMARY of a replicated hot key after a post-checkpoint
    mutation: the epoch bump must fence every replica installed at the old
    epoch (they carry the rolled-back update), recovery must re-install
    the replica set at the new epoch, and a stale fan-out that raced the
    crash must be rejected, not applied."""
    from repro.ps import messages

    cluster, master, client, m = _replicated_rig()
    manager = master.replicas
    master.checkpoint_all()
    # Post-checkpoint mutation: fans out to both replicas, then is LOST
    # with the crash below (the primary rolls back to the checkpoint).
    client.push_add(m, 0, np.ones(10), indices=list(range(10)))
    assert cluster.metrics.counters["replica-fanouts"] >= 2
    old_epoch = master.server(0).epoch

    master.server(0).crash()
    master.recover(0)
    new_primary = master.server(0)
    assert new_primary.epoch == old_epoch + 1
    # The old-epoch copies (holding the rolled-back +1) are gone: the
    # holders were re-installed at the new epoch from the recovered state.
    for holder in (1, 2):
        assert not master.server(holder).has_replica(m, 0, old_epoch)
        assert master.server(holder).has_replica(m, 0, new_primary.epoch)
    assert manager.replica_set(m, 0) == [1, 2]

    # Reads — wherever routed — see exactly the checkpointed state.
    got = client.pull_row(m, 0)
    assert np.allclose(got, np.arange(30.0))

    # A stale fan-out from before the crash (old epoch, inflated counter)
    # arriving late must be fenced by the apply path, never applied.
    fenced_before = cluster.metrics.counters.get("replica-fanout-fenced", 0)
    inner = messages.PushRequest(1, m, 0, np.ones(10),
                                 indices=list(range(10)), mode="add")
    stale = messages.ReplicatedPushRequest(1, inner, 0, old_epoch,
                                           {(m, 0): 999})
    holder = master.server(1)
    serve_one(holder, stale, cluster.clock.now(holder.node_id))
    assert cluster.metrics.counters["replica-fanout-fenced"] \
        == fenced_before + 1
    assert np.allclose(client.pull_row(m, 0), np.arange(30.0))


def test_ssp_training_survives_scheduled_server_crash():
    """End-to-end: SSP training through a mid-run server crash still
    completes, recovers the server, and stays within the staleness
    contract (every cache hit's age <= the bound)."""
    rows, _ = sparse_classification(120, 48, 10, seed=7)
    ctx = make_context(
        n_executors=4, n_servers=3, seed=42,
        consistency="ssp", staleness=2,
        failures=FailureConfig(
            server_failure_times=((1, 1e-4),), checkpoint_interval=5e-5,
        ),
    )
    result = train_logistic_regression(ctx, rows, 48, n_iterations=6,
                                       optimizer="sgd", seed=1)
    metrics = ctx.cluster.metrics
    assert result.iterations == 6
    assert metrics.counters["server-recoveries"] >= 1
    hist = metrics.latency.get("staleness-clocks")
    if hist is not None:
        assert hist.summary()["max"] <= 2.0


# -- partition timing: fate decided at the booked departure ------------------


def _backlogged_sender(horizon_target=6e-3):
    """A cluster whose executor-0 send NIC is booked out past *horizon_target*
    while its virtual clock still reads ~0 (deliver=False books only NICs)."""
    cluster = _chaos_cluster()
    network = cluster.network
    src = cluster.executors[0]
    sink = cluster.servers[0]
    while network.nic_horizon(src)[0] < horizon_target:
        network.transfer(src, sink, 200_000, deliver=False)
    assert cluster.clock.now(src) == 0.0
    return cluster, network, src


def test_backlog_pushes_transfer_into_partition_window():
    """Regression (PR 7): the partition check applies at the booked
    post-queue ``depart``, not the pre-queue arrival.  A window that opens
    only AFTER the message entered the NIC queue — but covers its true
    departure — must still drop it."""
    from repro.common.errors import NetworkPartitionedError

    cluster, network, src = _backlogged_sender()
    dst = cluster.executors[1]
    depart = network.nic_horizon(src)[0]
    # Inactive at the pre-queue arrival (t=0), active at the departure.
    cluster.failures.schedule_partition(dst, depart - 1e-4, depart + 1e-2)
    assert not cluster.failures.partition_active(dst, 0.0)
    with pytest.raises(NetworkPartitionedError):
        network.transfer(src, dst, 100, deliver=False)
    assert cluster.metrics.counters["partition-drops"] == 1
    # The dropped attempt consumed no send-side NIC capacity.
    assert network.nic_horizon(src)[0] == depart


def test_backlog_pushes_transfer_past_healed_window():
    """The mirror image: a window active when the message entered the
    queue, but healed by the time the backlog lets it depart, must NOT
    drop the transfer."""
    cluster, network, src = _backlogged_sender()
    dst = cluster.executors[1]
    depart = network.nic_horizon(src)[0]
    # Active at the pre-queue arrival (t=0), healed before the departure.
    cluster.failures.schedule_partition(dst, 0.0, depart - 1e-4)
    assert cluster.failures.partition_active(dst, 0.0)
    recv_done = network.transfer(src, dst, 100, deliver=False)
    assert recv_done > depart
    assert cluster.metrics.counters.get("partition-drops", 0) == 0


# -- chain replication under failures ----------------------------------------


def _chain_stream(crash):
    """A read-only serving stream over a lazy table with ``chain_replicas=1``.

    Phase A materializes rows, then (*crash* only) the middle server dies;
    phase B reads a pre-crash row owned by the dead server — served by its
    chain successor with no recovery; phase C streams brand-new ids, the
    first of which to land on the dead server triggers recover + promotion.
    Returns the final pulled vectors so the crashed run can be compared
    bit-for-bit against its uncrashed twin.
    """
    ctx = make_context(n_executors=2, n_servers=3, seed=13, chain_replicas=1)
    cluster = ctx.cluster
    metrics = cluster.metrics
    table = ctx.master.create_table(8, name="serve")
    clients = [ctx.client_for(node) for node in cluster.executors]
    ids = np.random.default_rng(7).integers(0, 48, size=(30, 2))
    served = 0
    for step, request_ids in enumerate(ids):
        clients[step % 2].pull_or_create(table, [int(i) for i in request_ids])
        served += 1
    layout = ctx.master.layout(table)
    created = sorted(ctx.master.info(table).created_rows)
    victim_row = next(r for r in created
                      if layout.shards_for_row(r)[0][0] == 1)
    if crash:
        ctx.master.servers[1].crash()
        # Zero-downtime read: the successor serves the copy, no recovery.
        clients[0].pull_or_create(table, [victim_row])
        assert metrics.counters.get("chain-reads", 0) >= 1
        assert metrics.counters.get("server-recoveries", 0) == 0
    else:
        clients[0].pull_or_create(table, [victim_row])
    fresh = np.random.default_rng(11).integers(48, 96, size=(30, 2))
    for step, request_ids in enumerate(fresh):
        clients[step % 2].pull_or_create(table, [int(i) for i in request_ids])
        served += 1
    rows = sorted(ctx.master.info(table).created_rows)
    vectors = clients[0].pull_or_create(table, rows)
    return ctx, served, rows, vectors


def test_chain_serving_crash_promotes_with_zero_drops():
    """Tentpole acceptance: a mid-stream crash under chain replication
    drops zero requests, recovers by successor promotion (never the
    checkpoint path — none exists), and every lazy-init vector the stream
    created reads back bit-identical to the uncrashed twin run."""
    ctx, served, rows, vectors = _chain_stream(crash=True)
    ctx_twin, served_twin, rows_twin, vectors_twin = _chain_stream(crash=False)
    metrics = ctx.metrics
    assert served == served_twin == 60
    # No request was dropped: every client op completed (retries included).
    assert metrics.counters.get("client-dropped-ops", 0) == 0
    # Recovery went through promotion, not checkpoint fallback.
    assert metrics.counters["chain-promotions"] >= 1
    assert metrics.counters.get("chain-fallbacks", 0) == 0
    assert ctx.master.checkpoints.recoveries == 0
    assert metrics.counters["server-recoveries"] == 1
    assert metrics.bytes_for_tag("chain-promote") > 0
    # Post-crash state is bit-identical to the run where nothing died.
    assert rows == rows_twin
    assert np.array_equal(vectors, vectors_twin)
    # The uncrashed twin never touched any failure machinery.
    assert "server-recoveries" not in ctx_twin.metrics.counters
    assert "chain-reads" not in ctx_twin.metrics.counters


def test_chain_serving_crash_is_deterministic():
    ctx_a, _served_a, rows_a, vectors_a = _chain_stream(crash=True)
    ctx_b, _served_b, rows_b, vectors_b = _chain_stream(crash=True)
    assert rows_a == rows_b
    assert np.array_equal(vectors_a, vectors_b)
    assert ctx_a.elapsed() == ctx_b.elapsed()
    assert ctx_a.metrics.counters == ctx_b.metrics.counters


def test_chain_double_crash_falls_back_to_checkpoint():
    """Primary AND its only successor die: promotion finds no valid holder
    and recovery falls back to the checkpoint — rolling back the
    post-checkpoint delta on the doubly-lost shard only.  Shards whose
    chain survived keep the delta, and the successor's later recovery goes
    through promotion as usual."""
    ctx = make_context(n_executors=2, n_servers=3, seed=17, chain_replicas=1)
    ctx.cluster.tracer.enable()  # retry/recovery spans recorded too
    client = ctx.client_for(ctx.cluster.executors[0])
    m = ctx.master.create_matrix(30)
    client.push_assign(m, 0, np.arange(30.0))
    ctx.master.checkpoint_all()
    client.push_add(m, 0, np.ones(30))  # post-checkpoint, unsnapshotted
    ctx.master.servers[0].crash()
    ctx.master.servers[1].crash()  # successor of 0: every holder now dead
    pulled = client.pull_row(m, 0)
    for server_index, start, stop in ctx.master.layout(m).shards_for_row(0):
        base = np.arange(30.0)[start:stop]
        if server_index == 0:
            # All M+1 holders died: checkpoint restore, delta rolled back.
            assert np.allclose(pulled[start:stop], base)
        else:
            # Server 1's shard is served by ITS surviving successor (or
            # its own store): the delta outlived the double crash.
            assert np.allclose(pulled[start:stop], base + 1.0)
    assert ctx.metrics.counters["chain-fallbacks"] == 1
    assert ctx.master.checkpoints.recoveries == 1
    # A mutation wakes the dead successor: ITS chain survived on server 2,
    # so this recovery is a promotion — no second fallback.
    client.push_add(m, 0, np.ones(30))
    assert ctx.metrics.counters["chain-promotions"] >= 1
    assert ctx.metrics.counters["chain-fallbacks"] == 1
    pulled = client.pull_row(m, 0)
    for server_index, start, stop in ctx.master.layout(m).shards_for_row(0):
        base = np.arange(30.0)[start:stop]
        expected = base + (1.0 if server_index == 0 else 2.0)
        assert np.allclose(pulled[start:stop], expected)


def test_chain_crash_during_resize_reforms():
    """A server dying mid-migration, after the resize tore the chains down
    but before they re-formed: the in-place recovery cannot promote (no
    links exist) and takes the checkpoint path; the sweep completes and
    the chain re-forms over the new topology."""
    ctx = make_context(n_executors=2, n_servers=3, seed=19, chain_replicas=1)
    client = ctx.client_for(ctx.cluster.executors[0])
    m = ctx.master.create_matrix(30)
    client.push_assign(m, 0, np.arange(30.0))
    ctx.master.checkpoint_all()
    assert ctx.cluster.replicas.keys("chain")
    ctx.master.servers[1].crash()  # dead when the migration reads it
    ctx.master.resize_servers(4)
    assert ctx.metrics.counters["server-recoveries"] == 1
    assert ctx.metrics.counters["chain-fallbacks"] >= 1
    assert "chain-promotions" not in ctx.metrics.counters
    assert ctx.metrics.counters["chain-reforms"] == 1
    # The chain map re-formed against the post-resize ring.
    chain = ctx.cluster.replicas
    assert chain.keys("chain")
    for _matrix_id, primary in chain.keys("chain"):
        assert chain.holders((_matrix_id, primary), "chain") \
            == chain.successors(primary)
        assert chain.key_lag(_matrix_id, primary) == 0
    assert np.allclose(client.pull_row(m, 0), np.arange(30.0))
