"""The phased schedule and the lane equal the interleaved reference, bit for bit.

``Transport.send_all`` tries every wire message of a fan-out once in three
phases (``_transmit_bulk``: every request, every service through
``serve_fast_fanout``, every response), then retries the failed ones in
wire order through ``_transmit``.  Given no error, ``_transmit`` is itself
a first attempt — request, service (``begin`` + ``dispatch``), response,
next message: the interleaved schedule, which the phased one must be
indistinguishable from.

Two rigs are built from one seed, identical except that every transport
of the *per-message* one has ``_transmit_bulk`` replaced on the instance
by :func:`unattempted` (a test-only lever, not a knob), which hands every
wire message back untried, and that the lane serving its forwarded
replica copies is :func:`_dispatch_every_unit`.  The same stream of
client ops must then leave the same returned values, metrics, clocks,
server CPU timelines, version vectors and NIC busy totals on both — also
when a server crash and a partition window, scheduled after set-up, fire
mid-stream: then the raised error types must match too.

The client's fan-out plan pool is held to the same standard: it reuses
request objects (and what the transport derived from them) across ops and
clients, so a rig whose ``PSClient._plan_pool`` returns ``None`` — every
op builds its messages from scratch — must be indistinguishable from the
pooled one, under BSP and under SSP (where the worker caches' miss path
pulls through the pool too).

With chain replication (M=1) and hot-key replication (``topk``, sweeps
only where the stream asks) on, reads are rerouted, copies and lazy-row
syncs are forwarded from the primaries and the copies served on the
lane, and the phased rig, the per-message one and the unpooled rig must
still agree on all of the above plus every replica copy and holder map —
across rebalance sweeps, and with failures fired.  The lane's copy arm is
also held against :func:`_dispatch_every_unit` directly, on hand-built
copies of every kind, fenced and already-covered ones included.

Tracing and cold routing do not change what runs: a traced rig serves
every unit on the lane, a send whose matrix no routing entry covers yet
pays the routing RPC before the first attempts, and the traced phased
rig, the traced per-message rig and an untraced one agree on all of the
above — the two traced ones also on every span (node, op, category,
interval, args and the parent's identity) and on the critical-path
breakdown.

Nor does a cost model: with ``wire_codec`` "auto" (or a forced codec) on
the slow NICs where codecs engage, the phased rig serves its units on
the lane — encoded ones through ``dispatch`` — and agrees with the
per-message rig on all of the above, codec decisions and bytes saved
included.
"""

import contextlib
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import Cluster
from repro.common.errors import MatrixNotFoundError, NetworkPartitionedError, \
    ReproError, ServerDownError
from repro.config import ClusterConfig, NetworkSpec, NodeSpec
from repro.obs import critical_path
from repro.ps import messages, transport
from repro.ps.client import PSClient
from repro.ps.master import PSMaster
from repro.ps.partitioner import RowLayout
from repro.ps.server import PSServer
from tests.test_replication import \
    _assert_copies_match_primaries as _copies_match_primaries

DIM = 30
N_ROWS = 4
N_CLIENTS = 3
TABLE_DIM = 8
N_IDS = 12

#: The byte-dominated hardware of the serving benchmarks: slow NICs make a
#: primary's syncs and copies overlap the fan-out's own requests and
#: responses, so booking order shows, and make the cost model compress.
SLOW_NICS = dict(node=NodeSpec(flops=2e11, nic_bandwidth=4e6),
                 network=NetworkSpec(latency=1e-5, bandwidth=4e6))

#: Chain M=1 plus hot-key replication whose sweeps run only where the
#: stream asks (``rebalance_interval`` 0 sweeps at stage ends, and these
#: streams have none), on the slow NICs.
REPLICATED = dict(chain_replicas=1, replication="topk",
                  hot_key_fraction=0.34, rebalance_interval=0.0, **SLOW_NICS)

#: Every ``wire_codec`` that constructs a cost model.
CODECS = ("auto", "fp16", "int8", "topk", "delta")


def unattempted(outgoing, *_phased_args):
    """A ``Transport._transmit_bulk`` stand-in (a test-only lever, not a
    knob): it books nothing and hands every wire message back untried, so
    ``send_all`` runs each first attempt through ``_transmit`` — the
    interleaved schedule the phased one must equal."""
    return [(entry, None) for entry in outgoing]


def _dispatch_every_unit(cluster, fan_servers, fan_messages, fan_arrivals):
    """A ``serve_fast_fanout`` stand-in with the lane's contract and no
    inline arm: every unit through ``begin`` + ``dispatch``, a chained
    unit at its server's ``_arrival``, a failure stopping its envelope."""
    values, completions = [], []
    failed = None
    for server, message, arrival in zip(fan_servers, fan_messages,
                                        fan_arrivals):
        if arrival is None:
            arrival = server._arrival
        elif isinstance(arrival, NetworkPartitionedError):
            failed = arrival
        else:
            failed = None
        if failed is None:
            server.begin(arrival)
            try:
                values.append(server.dispatch(message))
                completions.append(server.last_completion)
                continue
            except (ServerDownError, MatrixNotFoundError) as error:
                failed = error
        values.append(failed)
        completions.append(None)
    return values, completions


@contextlib.contextmanager
def _reference_lanes(rigs):
    """While open, the per-message rigs among *rigs* serve through
    :func:`_dispatch_every_unit` — with every first attempt interleaved,
    what still reaches their lane is the forwarded copies."""
    reference = {id(rig.cluster) for rig in rigs if rig.per_message}
    lane = transport.serve_fast_fanout

    def serve(cluster, *units):
        if id(cluster) in reference:
            return _dispatch_every_unit(cluster, *units)
        return lane(cluster, *units)

    with mock.patch.object(transport, "serve_fast_fanout", serve):
        yield


class _Rig:
    """One small cluster with a column-layout and a row-layout matrix,
    plus a lazy table."""

    def __init__(self, per_message=False, pooled=True, consistency="bsp",
                 replicated=False, traced=False, codec="off"):
        knobs = dict(REPLICATED) if replicated else {}
        if codec != "off":
            knobs.update(SLOW_NICS, wire_codec=codec)
        self.cluster = Cluster(ClusterConfig(
            n_executors=N_CLIENTS, n_servers=3, seed=11,
            consistency=consistency, staleness=1, **knobs,
        ))
        if traced:
            self.cluster.tracer.enable()
        self.per_message = per_message
        self.master = PSMaster(self.cluster)
        self.clients = [
            PSClient(self.cluster, self.master, node_id)
            for node_id in self.cluster.executors
        ]
        for client in self.clients:
            if per_message:
                client.transport._transmit_bulk = unattempted
            if not pooled:
                client._plan_pool = lambda layout: None
        self.matrices = (
            self.master.create_matrix(DIM, n_rows=N_ROWS),
            self.master.create_matrix(DIM, n_rows=N_ROWS,
                                      layout=RowLayout(DIM, 3)),
        )
        self.table = self.master.create_table(TABLE_DIM)
        #: Index arrays reused *by identity* across ops: the client's
        #: pooled sparse plans (and the transport's cached groupings)
        #: key on the array object.
        self.shared = (
            np.array([1, 4, 9, 12, 17, 22, 29], dtype=np.int64),
            np.array([28, 3, 15, 0, 11], dtype=np.int64),
        )

    def indices(self, spec):
        """``None`` (dense), a shared array's slot, or a private list."""
        if spec is None:
            return None
        if isinstance(spec, int):
            return self.shared[spec]
        return np.array(spec, dtype=np.int64)

    def pooled_plans(self):
        return sum(len(self.master.layout(matrix).op_plans)
                   for matrix in self.matrices)

    def cut(self, slot, delay, length):
        """A partition window on client *slot*'s node, from *delay* past
        its own clock."""
        node = self.clients[slot].node_id
        start = self.cluster.clock.now(node) + delay
        self.cluster.failures.schedule_partition(node, start, start + length)

    def arm(self, crash, window):
        """Schedule a server crash and a partition window *after* set-up.

        ``crash`` is ``(server slot, delay)``, ``window`` is ``(node slot,
        delay, length)``; delays count from the latest clock, so both
        land inside the stream that follows rather than before it.
        """
        cluster = self.cluster
        now = max(cluster.clock.now(node) for node in cluster.clock.nodes())
        slot, delay = crash
        cluster.failures.schedule_server_failure(cluster.servers[slot],
                                                 now + delay)
        slot, delay, length = window
        nodes = cluster.executors + cluster.servers
        cluster.failures.schedule_partition(nodes[slot], now + delay,
                                            now + delay + length)

    def state(self):
        cluster = self.cluster
        network = cluster.network
        servers = self.master.servers
        return {
            "metrics": cluster.metrics.snapshot(),
            "clocks": {node_id: cluster.clock.now(node_id)
                       for node_id in cluster.clock.nodes()},
            "cpu": [(list(server.cpu._starts), list(server.cpu._ends))
                    for server in servers],
            "versions": [dict(server.versions) for server in servers],
            "nic": {node_id: network.nic_utilization(node_id)
                    for node_id in cluster.clock.nodes()},
            "copies": [sorted(
                (key, entry.install_epoch, sorted(entry.versions.items()),
                 sorted((row, shard.values.tolist())
                        for row, shard in entry.rows.items()))
                for key, entry in server.replica_store.items())
                for server in servers],
            "holders": [policy.holders for policy in
                        (cluster.replication, cluster.chain)
                        if policy is not None],
        }


def _values(seed, *shape):
    return np.random.default_rng(seed).normal(size=shape)


def _halve(arrays):
    arrays[0] *= 0.5


def _sum(arrays):
    return float(arrays[0].sum())


def _apply(rig, op):
    """Run one op of the stream on *rig*; returns what the caller saw."""
    kind, client_slot, args = op[0], op[1], op[2:]
    client = rig.clients[client_slot]
    if kind == "push":
        which, row, mode, spec, seed = args
        indices = rig.indices(spec)
        n = DIM if indices is None else len(indices)
        push = client.push_add if mode == "add" else client.push_assign
        return push(rig.matrices[which], row, _values(seed, n), indices)
    if kind == "pull":
        which, row, spec = args
        return client.pull_row(rig.matrices[which], row, rig.indices(spec))
    if kind == "pull_block":
        which, rows, spec = args
        return client.pull_block(rig.matrices[which], rows,
                                 rig.indices(spec))
    if kind == "push_block":
        which, rows, spec, seed = args
        indices = rig.indices(spec)
        n = DIM if indices is None else len(indices)
        return client.push_block_add(rig.matrices[which], rows,
                                     _values(seed, len(rows), n), indices)
    if kind == "range":
        which, row, lo, width, seed = args
        hi = min(DIM, lo + width)
        client.push_range(rig.matrices[which], row, lo, hi,
                          _values(seed, hi - lo), mode="add")
        return client.pull_range(rig.matrices[which], row, lo, hi)
    if kind == "aggregate":
        which, row, agg = args
        return client.aggregate_row(rig.matrices[which], row, agg)
    if kind == "execute":
        row, mutate = args
        operands = [(rig.matrices[0], row)]
        if mutate:
            return client.execute(_halve, operands, wait_response=False)
        return client.execute(_sum, operands)
    if kind == "create":
        return client.pull_or_create(rig.table, args[0])
    if kind == "rebalance":
        manager = rig.master.replication
        return None if manager is None else manager.rebalance()
    if kind == "cut":
        return rig.cut(client_slot, *args)
    if kind == "tick":
        # A logical-clock tick: a no-op under BSP; under SSP it renews the
        # worker's cache and, one tick later, ages its rows out — so the
        # stream keeps taking the miss path (a full dense pull).
        return rig.cluster.consistency.advance(rig.cluster, client.node_id)
    if kind == "mutate":
        # In-place edit of a shared index array: same object, same size,
        # new contents — a pooled sparse plan keyed on it must notice.
        slot, shift = args
        rig.shared[slot][:] = (rig.shared[slot] + shift) % DIM
        return None
    assert kind == "mixed"
    # A hand-built heterogeneous send: every server gets one envelope of
    # pull + push + aggregate + fill + pull, so inline-servable and
    # dispatch-only sub-requests chain on one CPU in both orders.
    row, seed = args
    matrix = rig.matrices[0]
    values = _values(seed, DIM)
    requests = []
    for server, start, stop in rig.master.layout(matrix).shards_for_row(row):
        other = (row + 1) % N_ROWS
        requests += [
            messages.PullRowRequest(server, matrix, row, stop - start),
            messages.PushRequest(server, matrix, row, values[start:stop],
                                 mode="add"),
            messages.AggregateRequest(server, matrix, row, "sum",
                                      n_values=stop - start),
            messages.FillRequest(server, matrix, other, 0.25,
                                 n_values=stop - start),
            messages.PullRowRequest(server, matrix, other, stop - start),
        ]
    return client.transport.send_all(requests)


def _same(left, right):
    """Bit-identity over nested lists/tuples of arrays and scalars."""
    if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
        return (isinstance(left, np.ndarray) and isinstance(right, np.ndarray)
                and left.dtype == right.dtype
                and np.array_equal(left, right))
    if isinstance(left, (list, tuple)):
        return (type(left) is type(right) and len(left) == len(right)
                and all(_same(a, b) for a, b in zip(left, right)))
    return left == right


def _outcome(rig, op):
    """What the caller saw: the op's value, or the type of what it raised
    (a spent retry budget, or a failure escaping a recovery)."""
    try:
        return _apply(rig, op)
    except ReproError as error:
        return type(error)


def _run_same(stream, reference, *others, run=_apply):
    """Run *stream* on every rig; all must end up where *reference* does."""
    with _reference_lanes((reference,) + others):
        for op in stream:
            expected = run(reference, op)
            for rig in others:
                assert _same(expected, run(rig, op)), op
    left = reference.state()
    for rig in others:
        right = rig.state()
        for section in left:
            assert left[section] == right[section], section


def _run_both(stream):
    """Phased schedule == per-message schedule == phased without a plan
    pool."""
    bulk, per_message, unpooled = \
        _Rig(), _Rig(per_message=True), _Rig(pooled=False)
    _run_same(stream, bulk, per_message, unpooled)
    return bulk, per_message, unpooled


def _run_failing(stream, crash, window, replicated=False):
    """Both schedules, with a crash and a partition window armed after
    set-up: failures fire mid-stream and must not tell them apart."""
    bulk = _Rig(replicated=replicated)
    per_message = _Rig(per_message=True, replicated=replicated)
    for rig in (bulk, per_message):
        rig.arm(crash, window)
    _run_same(stream, bulk, per_message, run=_outcome)
    return bulk, per_message


def _run_replicated(stream):
    """Both schedules and the unpooled rig, both policies on; afterwards
    every valid copy equals its primary."""
    rigs = (_Rig(replicated=True), _Rig(replicated=True, per_message=True),
            _Rig(replicated=True, pooled=False))
    _run_same(stream, *rigs)
    for rig in rigs:
        _copies_match_primaries(rig.master)
    return rigs


def _run_ssp(stream):
    """Worker caches on: pooled == unpooled (misses pull through the pool)."""
    pooled, unpooled = \
        _Rig(consistency="ssp"), _Rig(consistency="ssp", pooled=False)
    _run_same(stream, pooled, unpooled)
    return pooled, unpooled


def _run_codec(stream, codec):
    """A cost model on slow NICs, with both replication policies on:
    both schedules agree, codec decisions and bytes saved included."""
    phased = _Rig(replicated=True, codec=codec)
    per_message = _Rig(replicated=True, codec=codec, per_message=True)
    _run_same(stream, phased, per_message)
    return phased, per_message


# -- the op stream ------------------------------------------------------------

_clients = st.integers(0, N_CLIENTS - 1)
_matrices = st.integers(0, 1)
_rows = st.integers(0, N_ROWS - 1)
_row_sets = st.lists(_rows, min_size=2, max_size=N_ROWS, unique=True)
_seeds = st.integers(0, 2 ** 16)
_indices = st.one_of(
    st.none(),
    st.integers(0, 1),
    st.lists(st.integers(0, DIM - 1), max_size=12, unique=True),
)
_ops = st.one_of(
    st.tuples(st.just("push"), _clients, _matrices, _rows,
              st.sampled_from(["add", "assign"]), _indices, _seeds),
    st.tuples(st.just("pull"), _clients, _matrices, _rows, _indices),
    st.tuples(st.just("pull_block"), _clients, _matrices, _row_sets,
              _indices),
    st.tuples(st.just("push_block"), _clients, _matrices, _row_sets,
              _indices, _seeds),
    st.tuples(st.just("range"), _clients, _matrices, _rows,
              st.integers(0, DIM - 1), st.integers(1, DIM), _seeds),
    st.tuples(st.just("aggregate"), _clients, _matrices, _rows,
              st.sampled_from(["sum", "nnz", "max"])),
    st.tuples(st.just("execute"), _clients, _rows, st.booleans()),
    st.tuples(st.just("mixed"), _clients, _rows, _seeds),
    st.tuples(st.just("create"), _clients,
              st.lists(st.integers(0, N_IDS - 1), min_size=1, max_size=8)),
    st.tuples(st.just("rebalance"), _clients),
    st.tuples(st.just("tick"), _clients),
    st.tuples(st.just("mutate"), _clients, st.integers(0, 1),
              st.integers(1, DIM - 1)),
)

#: Every op kind, on a warm routing cache, repeated so pooled plans hit.
_FIXED_STREAM = [
    ("pull", 0, 0, 0, None),
    ("pull", 0, 1, 0, None),
    ("push", 0, 0, 1, "add", None, 1),
    ("push", 0, 0, 1, "assign", 0, 2),
    ("push", 0, 1, 2, "add", [5, 2, 21], 3),
    ("pull", 0, 0, 1, 0),
    ("pull", 0, 1, 2, [7, 8, 25]),
    ("pull", 0, 0, 3, []),
    ("pull_block", 0, 0, [0, 1, 3], None),
    ("pull_block", 0, 0, [2, 1], 1),
    ("pull_block", 0, 1, [0, 1, 2, 3], None),
    ("pull_block", 0, 1, [3, 0], [4, 19]),
    ("push_block", 0, 0, [0, 1, 3], None, 4),
    ("push_block", 0, 0, [2, 1], 1, 5),
    ("push_block", 0, 1, [0, 1, 2, 3], None, 6),
    ("push_block", 0, 1, [3, 0], [4, 19], 7),
    ("range", 0, 0, 2, 5, 20, 8),
    ("aggregate", 0, 0, 1, "sum"),
    ("aggregate", 0, 1, 3, "max"),
    ("execute", 0, 1, False),
    ("execute", 0, 2, True),
    ("mixed", 0, 1, 9),
    ("tick", 0),
] * 2 + [
    # The shared arrays change under the plans keyed on them, then every
    # sparse kind runs again (twice: a rebuild, then a hit on the rebuild).
    ("mutate", 0, 0, 3),
    ("mutate", 0, 1, 7),
] + [
    ("push", 0, 0, 1, "assign", 0, 10),
    ("pull", 0, 0, 1, 0),
    ("pull", 0, 1, 2, 1),
    ("push", 0, 1, 2, "add", 1, 11),
    ("pull_block", 0, 0, [2, 1], 1),
    ("push_block", 0, 0, [2, 1], 1, 12),
    ("tick", 0),
] * 2


#: A send creating rows on every server, after one that warmed the
#: table's routing.  While lazy-create upkeep was booked from inside
#: dispatch, its chain syncs interleaved with the fan-out's own bookings
#: in a different order on each schedule, and the replicated rigs' NICs
#: told them apart.
_CREATE_STREAM = [("create", 0, [0, 1, 2]),
                  ("create", 0, [3, 4, 5, 6, 7, 8])]

#: The fixed stream under replication: lazy rows created on every server,
#: sweeps that promote (so reads reroute) and demote, and creations of
#: seen and unseen ids after them.
_REPLICATED_STREAM = (
    _CREATE_STREAM + [("create", 1, [0, 3])] * 8 + _FIXED_STREAM[:23]
    + [("rebalance", 0)] + _FIXED_STREAM
    + [("create", 1, [3, 8, 9, 0, 11]), ("rebalance", 0),
       ("create", 2, [10, 4, 1])] + _FIXED_STREAM[:23]
)


def _lane_users(monkeypatch):
    """``(cluster, units)`` of every fan-out served through the lane."""
    served = []
    lane = transport.serve_fast_fanout

    def counting(cluster, fan_servers, fan_messages, fan_arrivals):
        served.append((cluster, len(fan_messages)))
        return lane(cluster, fan_servers, fan_messages, fan_arrivals)

    monkeypatch.setattr(transport, "serve_fast_fanout", counting)
    return served


def _senders(monkeypatch):
    """``(cluster, units)`` of every ``Transport.send_all`` call."""
    sent = []
    send_all = transport.Transport.send_all

    def counting(self, requests, plan=None):
        sent.append((self.cluster, len(requests)))
        return send_all(self, requests, plan)

    monkeypatch.setattr(transport.Transport, "send_all", counting)
    return sent


def _units(calls, rig):
    return sum(units for cluster, units in calls if cluster is rig.cluster)


def _assert_only_bulk_took_the_lane(served, bulk, per_message, stream):
    # The comparison is only worth something if the rigs really differ in
    # schedule: the phased one goes through the lane, the pinned one
    # never (its copies, if any, go to the dispatch reference).
    assert sum(cluster is bulk.cluster for cluster, _n in served) \
        >= len(stream) // 2
    assert not any(cluster is per_message.cluster for cluster, _n in served)


def test_a_fixed_stream_of_every_op_kind_matches_and_takes_both_schedules(
        monkeypatch):
    served = _lane_users(monkeypatch)
    bulk, per_message, unpooled = _run_both(_FIXED_STREAM)
    _assert_only_bulk_took_the_lane(served, bulk, per_message, _FIXED_STREAM)
    # ... and in pooling: one rig reuses plans, the other holds none.
    assert bulk.pooled_plans() and not unpooled.pooled_plans()


def test_the_replicated_fixed_stream_matches_and_takes_the_lane(monkeypatch):
    served = _lane_users(monkeypatch)
    bulk, per_message, unpooled = _run_replicated(_REPLICATED_STREAM)
    # Replication does not keep the bulk rig off the lane.
    _assert_only_bulk_took_the_lane(served, bulk, per_message,
                                    _REPLICATED_STREAM)
    assert bulk.pooled_plans() and not unpooled.pooled_plans()
    # ... and it was at work: sweeps promoted, reads went to replicas,
    # copies and lazy-row syncs were forwarded, a creation demoted.
    counters = bulk.cluster.metrics.counters
    for name in ("replica-promotions", "replica-reads", "replica-fanouts",
                 "chain-fanouts", "chain-row-syncs", "lazy-creates",
                 "replica-direct-write-demotions"):
        assert counters.get(name, 0) > 0, name


def test_the_fixed_stream_matches_with_and_without_the_pool_under_ssp():
    pooled, unpooled = _run_ssp(_FIXED_STREAM)
    assert pooled.pooled_plans() and not unpooled.pooled_plans()
    # Worker caches really were in play, on both sides of the bound.
    assert pooled.clients[0].cache is not None
    assert pooled.cluster.metrics.cache_hits
    assert pooled.cluster.metrics.cache_misses


#: Found by an unseeded run: a row-layout block op used to put the
#: caller's own index array into its messages, so after the in-place edit
#: the rebuilt plan carried the same object, the servers' per-array
#: offset memo hit, and the bulk schedule pushed at the *previous* op's
#: columns while the per-message schedule pushed at the new ones.
_STALE_COLUMNS_STREAM = [
    ("push", 0, 0, 0, "add", None, 0),
    ("pull_block", 0, 1, [0, 1], 0),
    ("mutate", 0, 0, 1),
    ("push_block", 0, 1, [0, 1], 0, 0),
    ("pull", 0, 1, 0, None),
]


@given(stream=st.lists(_ops, min_size=1, max_size=24))
@example(stream=_STALE_COLUMNS_STREAM)
@settings(max_examples=40, deadline=None)
def test_any_op_stream_is_bit_identical_on_both_schedules(stream):
    _run_both(stream)


@given(stream=st.lists(_ops, min_size=1, max_size=24))
@settings(max_examples=25, deadline=None)
def test_any_op_stream_is_bit_identical_with_and_without_the_pool_under_ssp(
        stream):
    _run_ssp(stream)


# -- fired failures: one retry order on both schedules ------------------------

#: ``(server slot, delay)`` and ``(node slot, delay, length)`` for
#: :meth:`_Rig.arm`; node slots cover every executor and server.
_crashes = st.tuples(st.integers(0, 2), st.floats(0.0, 2e-3))
_windows = st.tuples(st.integers(0, N_CLIENTS + 2), st.floats(0.0, 2e-3),
                     st.floats(1e-5, 3e-3))


def _assert_failures_fired_and_only_bulk_took_the_lane(
        monkeypatch, stream, replicated):
    served = _lane_users(monkeypatch)
    # server-1 dies 1 ms in; executor-0 is cut off from 0.5 to 1.5 ms.
    bulk, per_message = _run_failing(stream, (1, 1e-3), (0, 5e-4, 1e-3),
                                     replicated)
    for rig in (bulk, per_message):
        counters = rig.cluster.metrics.counters
        assert counters["server-crashes"] > 0
        assert counters["partition-drops"] > 0
        assert counters["server-recoveries"] > 0
        assert counters["op-retries"] > 0
    # Armed and firing failures no longer keep the bulk rig off the lane.
    _assert_only_bulk_took_the_lane(served, bulk, per_message, stream)


def test_the_fixed_stream_with_fired_failures_matches_and_takes_the_lane(
        monkeypatch):
    _assert_failures_fired_and_only_bulk_took_the_lane(
        monkeypatch, _FIXED_STREAM, replicated=False)


def test_the_replicated_fixed_stream_with_fired_failures_matches(
        monkeypatch):
    _assert_failures_fired_and_only_bulk_took_the_lane(
        monkeypatch, _REPLICATED_STREAM, replicated=True)


@given(stream=st.lists(_ops, min_size=1, max_size=24), crash=_crashes,
       window=_windows)
# One block pull where server-1's envelope fails in service (phase 2) and
# server-0's response is lost (phase 3): the retries still go in wire
# order, server-0 first, as the per-message schedule queues them.
@example(stream=[("pull_block", 0, 0, [0, 1, 2, 3], None)], crash=(1, 0.0),
         window=(N_CLIENTS, 1.5e-4, 1e-3))
@settings(max_examples=40, deadline=None)
def test_any_op_stream_with_fired_failures_is_bit_identical_on_both_schedules(
        stream, crash, window):
    _run_failing(stream, crash, window)


# -- replication: one schedule condition fewer -------------------------------


@given(stream=st.lists(_ops, min_size=1, max_size=16))
@example(stream=_CREATE_STREAM)
@settings(max_examples=30, deadline=None)
def test_any_op_stream_is_bit_identical_on_both_schedules_under_replication(
        stream):
    _run_replicated(stream)


@given(stream=st.lists(_ops, min_size=1, max_size=16), crash=_crashes,
       window=_windows)
@settings(max_examples=25, deadline=None)
def test_any_op_stream_with_fired_failures_matches_under_replication(
        stream, crash, window):
    _run_failing(stream, crash, window, replicated=True)


#: Rows created, then their responses lost to a partition on the reader:
#: the retry finds the rows and reports ``created=False``.
_LOST_CREATE_STREAM = [("create", 0, [0]), ("cut", 0, 2e-5, 2e-3),
                       ("create", 0, [1, 2, 3, 4, 5, 6])]


def test_a_creation_whose_response_is_lost_still_reaches_the_chain():
    bulk, per_message = \
        _Rig(replicated=True), _Rig(replicated=True, per_message=True)
    _run_same(_LOST_CREATE_STREAM, bulk, per_message, run=_outcome)
    for rig in (bulk, per_message):
        counters = rig.cluster.metrics.counters
        assert counters["partition-drops"] > 0 and counters["op-retries"] > 0
        assert counters["lazy-creates"] == 7
        # The primaries recorded the creations, so the forward synced
        # every row to its successor anyway.
        chain = rig.cluster.chain
        for row in range(7):
            owner = row % 3
            (successor,) = chain.successors(owner)
            entry = rig.master.server(successor).replica_store[
                (rig.table, owner)]
            assert row in entry.rows
        assert _copies_match_primaries(rig.master)


# -- tracing and cold routing: no schedule conditions ------------------------


def _canonical_spans(rig):
    """Every span as (node, op, cat, start, end, args, parent's (node, op,
    cat)): what must not depend on the schedule.  Span ids follow
    recording order, which does, so parents are named by identity."""
    spans = rig.cluster.tracer.spans
    by_id = {span.span_id: span for span in spans}

    def kind(span):
        return None if span is None else (span.node, span.op, span.cat)

    return Counter(
        (span.node, span.op, span.cat, span.start, span.end,
         tuple(sorted(span.args.items())), kind(by_id.get(span.parent_id)))
        for span in spans)


def _run_traced(stream, failures=None):
    """Traced on the lane == traced per-message == untraced; the traced
    two also record the same spans and the same critical path.
    *failures*, if given, is :meth:`_Rig.arm`'s ``(crash, window)``."""
    rigs = (_Rig(traced=True), _Rig(traced=True, per_message=True), _Rig())
    if failures is not None:
        for rig in rigs:
            rig.arm(*failures)
    _run_same(stream, *rigs, run=_apply if failures is None else _outcome)
    lane, per_message, untraced = rigs
    assert lane.cluster.tracer.spans and not untraced.cluster.tracer.spans
    assert _canonical_spans(lane) == _canonical_spans(per_message)
    assert critical_path.analyze(lane.cluster.tracer).categories \
        == critical_path.analyze(per_message.cluster.tracer).categories
    return rigs


#: The fixed stream behind a hand-built send from a client whose routing
#: for the matrix is cold.
_COLD_FIXED_STREAM = [("mixed", 1, 1, 9)] + _FIXED_STREAM


def test_a_traced_fixed_stream_and_a_cold_send_serve_every_unit_on_the_lane(
        monkeypatch):
    served = _lane_users(monkeypatch)
    sent = _senders(monkeypatch)
    lane, per_message, untraced = _run_traced(_COLD_FIXED_STREAM)
    for rig in (lane, untraced):
        assert _units(served, rig) == _units(sent, rig) > 0
    assert _units(served, per_message) == 0
    # The cold send paid its routing RPC, on every rig alike.
    routing = lane.cluster.metrics.messages_by_tag["routing:req"]
    assert routing == untraced.cluster.metrics.messages_by_tag["routing:req"]
    assert routing >= 2


def test_the_traced_fixed_stream_with_fired_failures_matches():
    lane, _per_message, _untraced = _run_traced(
        _COLD_FIXED_STREAM, ((1, 1e-3), (0, 5e-4, 1e-3)))
    counters = lane.cluster.metrics.counters
    for name in ("server-crashes", "partition-drops", "op-retries"):
        assert counters[name] > 0, name
    assert lane.cluster.tracer.spans_for(op="retry-backoff")


@given(stream=st.lists(_ops, min_size=1, max_size=20))
@example(stream=[("mixed", 2, 0, 1), ("pull_block", 2, 0, [0, 1, 3], None)])
@settings(max_examples=30, deadline=None)
def test_any_traced_op_stream_is_bit_identical_on_both_schedules(stream):
    _run_traced(stream)


@given(stream=st.lists(_ops, min_size=1, max_size=16), crash=_crashes,
       window=_windows)
@settings(max_examples=20, deadline=None)
def test_any_traced_op_stream_with_fired_failures_matches(
        stream, crash, window):
    _run_traced(stream, (crash, window))


# -- a cost model: no schedule condition either ------------------------------

#: The replicated stream plus dense assign pushes from every client, the
#: only payloads ``delta`` encodes (a stream's first ships whole, the
#: next as changed entries).
_CODEC_STREAM = _REPLICATED_STREAM + [
    ("push", client, 0, row, "assign", None, seed)
    for seed in (14, 15) for client in range(N_CLIENTS) for row in (0, 3)
]


@pytest.mark.parametrize("codec", CODECS)
def test_the_fixed_stream_under_a_cost_model_matches_and_takes_the_lane(
        monkeypatch, codec):
    served = _lane_users(monkeypatch)
    phased, per_message = _run_codec(_CODEC_STREAM, codec)
    _assert_only_bulk_took_the_lane(served, phased, per_message,
                                    _CODEC_STREAM)
    # ... and the model was at work: it compressed somewhere.
    decisions = phased.cluster.metrics.codec_decisions
    assert any(name != "identity" for _tag, name in decisions), decisions
    for rig in (phased, per_message):
        assert _copies_match_primaries(rig.master)


@given(stream=st.lists(_ops, min_size=1, max_size=16),
       codec=st.sampled_from(CODECS))
@settings(max_examples=25, deadline=None)
def test_any_op_stream_is_bit_identical_on_both_schedules_under_a_cost_model(
        stream, codec):
    _run_codec(stream, codec)


# -- the lane's copy arm == dispatch -----------------------------------------


def _hand_built_copies(rig):
    """One envelope of copies onto each column-layout primary's chain
    successor, every kind of copy in it: pushes the lane applies inline
    (dense add, sparse assign, and again after dispatched ones), one the
    holder's counters already cover, one stamped with a stale epoch, and
    a fill, a push-range and a kernel copy.  Returns the lane's unit
    lists."""
    master = rig.master
    m = rig.matrices[0]
    arrive = max(rig.cluster.clock.now(node)
                 for node in rig.cluster.clock.nodes())
    servers, units, arrivals = [], [], []
    for primary in master.servers:
        p = primary.server_index
        (h,) = rig.cluster.chain.successors(p)
        entry = master.server(h).replica_store[(m, p)]
        shard = entry.rows[0]
        width = len(shard)
        columns = np.arange(shard.start, shard.stop, 2, dtype=np.int64)

        def copy(inner, rows, ahead, epoch=primary.epoch):
            return messages.ReplicatedPushRequest(
                h, inner, p, epoch,
                {(m, row): entry.versions.get((m, row), 0) + ahead
                 for row in rows})

        envelope = [
            copy(messages.PushRequest(p, m, 0, _values(p, width)), [0], 1),
            copy(messages.PushRequest(p, m, 1, _values(p + 3, len(columns)),
                                      indices=columns, mode="assign"),
                 [1], 1),
            copy(messages.PushRequest(p, m, 2, _values(p + 6, width)), [2], 0),
            copy(messages.PushRequest(p, m, 3, _values(p + 9, width)), [3], 1,
                 epoch=primary.epoch + 1),
            copy(messages.FillRequest(p, m, 2, 0.25), [2], 1),
            copy(messages.PushRangeRequest(p, m, 3, shard.start,
                                           shard.start + 3, _values(p, 3),
                                           mode="add"), [3], 1),
            copy(messages.KernelRequest(p, _halve, [(m, 0), (m, 1)],
                                        wait_response=False), [0, 1], 2),
            copy(messages.PushRequest(p, m, 0, _values(p + 12, width),
                                      mode="assign"), [0], 3),
        ]
        servers += [master.server(h)] * len(envelope)
        units += envelope
        arrivals += [arrive + 1e-4 * (p + 1)] + [None] * (len(envelope) - 1)
    return servers, units, arrivals


def test_the_lane_serves_copies_as_dispatch_does_fenced_and_skipped_included(
        monkeypatch):
    dispatched = Counter()
    dispatch = PSServer.dispatch

    def counting(server, request):
        if type(request) is messages.ReplicatedPushRequest:
            dispatched[id(server.cluster)] += 1
        return dispatch(server, request)

    monkeypatch.setattr(PSServer, "dispatch", counting)
    lane, reference = _Rig(replicated=True), _Rig(replicated=True)
    _run_same(_CREATE_STREAM + _FIXED_STREAM[:23], lane, reference)
    counters = lane.cluster.metrics.counters
    before = Counter(counters)
    dispatched.clear()
    got = transport.serve_fast_fanout(lane.cluster,
                                      *_hand_built_copies(lane))
    expected = _dispatch_every_unit(reference.cluster,
                                    *_hand_built_copies(reference))
    assert _same(got, expected)
    assert None not in got[1]
    left, right = lane.state(), reference.state()
    for section in left:
        assert left[section] == right[section], section
    # Every arm was exercised: three of each envelope's eight copies were
    # applied inline, the other five (fenced and covered ones included)
    # through dispatch.
    for name in ("replica-fanout-fenced", "replica-fanout-skipped"):
        assert counters[name] - before[name] == 3, name
    assert dispatched[id(lane.cluster)] == 5 * 3
    assert dispatched[id(reference.cluster)] == 8 * 3
