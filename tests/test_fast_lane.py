"""The phased schedule and the lane equal the interleaved reference, bit for bit.

``Transport.send_all`` tries every wire message of a fan-out once in three
phases (``_transmit_bulk``: every request, every service through
``serve_fast_fanout``, every response), then retries the failed ones in
wire order, each as a one-message fan-out through ``_transmit_bulk``
again.  The reference it must be indistinguishable from lives here:
:func:`interleaved` — request, service (the wire message's units through
the lane), response, next message.

Two rigs are built from one seed, identical except that every transport
of the *per-message* one has ``_transmit_bulk`` replaced on the instance
by :func:`interleaved` (a test-only lever, not a knob) — for its first
attempts and its retries alike.  The same stream of client ops must then
leave the same returned values, metrics, clocks, server CPU timelines,
version vectors and NIC busy totals on both — also when a server crash
and a partition window, scheduled after set-up, fire mid-stream: then the
raised error types must match too.

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
across rebalance sweeps, and with failures fired.  The lane's service of
hand-built copies of every kind (fenced and already-covered ones
included) and of pull-or-create units (present rows beside creations,
chain stand-ins and a due crash) is pinned by digest, taken while it was
still held against dispatching every unit one by one.

Serving is defined once: every handler is a pure storage step that
names its charges, and the lane books them.  That is a law too — no
handler reserves CPU, records a span or moves a clock — and so is the
liveness rule: a crash falling due between a creating unit's two charges
takes effect at the next unit.

Tracing and cold routing do not change what runs: a traced rig serves
every unit on the lane, a send whose matrix no routing entry covers yet
pays the routing RPC before the first attempts, and the traced phased
rig, the traced per-message rig and an untraced one agree on all of the
above — the two traced ones also on every span (node, op, category,
interval, args and the parent's identity) and on the critical-path
breakdown.

Nor does a cost model: with ``wire_codec`` "auto" (or a forced codec) on
the slow NICs where codecs engage, the phased rig serves its units on
the lane — encoded ones decoded there first — and agrees with the
per-message rig on all of the above, codec decisions and bytes saved
included.  Under "auto" the pool stays on for plans whose every
decision is identity whatever the regime (the model records them in one
call instead of preparing each message), and the pooled rig agrees with
the unpooled one — which prepares every message — on fast NICs (every
plan pooled) and on NICs whose knee splits dense shards (compressed,
never pooled) from sparse ops (pooled): codec decisions, bytes saved and
the hot-shard set at every refresh included, across several refresh
points, and no pooled request ever holds a codec.

Nor does retiring timeline intervals behind the clock floor: a storm of
pushes, pulls, creations and sweeps with chain and hot-key replication
on leaves the same values, metrics, clocks, busy totals and horizons
whether every timeline keeps all its intervals or retires them.
"""

import contextlib
import hashlib
import types
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import resource
from repro.cluster.cluster import Cluster
from repro.cluster.resource import TimelineResource
from repro.common.errors import MatrixNotFoundError, NetworkPartitionedError, \
    ReproError, ServerDownError
from repro.config import ClusterConfig, NetworkSpec, NodeSpec
from repro.costs import ELEMENTWISE_FLOPS, FLOAT_BYTES
from repro.obs import critical_path
from repro.ps import costmodel, messages, transport
from repro.ps import server as server_module
from repro.ps.client import PSClient
from repro.ps.master import PSMaster
from repro.ps.partitioner import RowLayout
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
CODECS = ("auto", "fp16", "int8", "topk")

#: Default-speed NICs: every payload of these rigs sits far under the cost
#: model's fp16 knee, so ``"auto"`` decides identity on every message.
FAST_NICS = dict(node=NodeSpec(), network=NetworkSpec())

#: NICs whose fp16 knee (58 payload bytes) splits the rigs' payloads: a
#: dense shard sits above it (10 values on the column layout: tier 1; a
#: whole 30-value row on the row layout: tier 2), the shared sparse index
#: sets (at most 7 values per server) below it.
KNEE_NICS = dict(node=NodeSpec(flops=2e11, nic_bandwidth=5.8e6),
                 network=NetworkSpec(latency=1e-5, bandwidth=5.8e6))


def interleaved(transport, outgoing, _bulk, values, arrivals, completions,
                trace_parent=None):
    """A ``Transport._transmit_bulk`` stand-in (a test-only lever, not a
    knob; bind it to the transport): the interleaved schedule the phased
    one must equal.  Per wire message, in wire order: the request
    transfer, its units through the lane (an envelope's subs chained
    behind its first), the response transfer, then the next message.
    Fills the same slots and returns the failed messages, with their
    errors, in wire order."""
    cluster = transport.cluster
    network = cluster.network
    failed = []
    for entry in outgoing:
        message, positions = entry
        server = transport.master.server(message.server_index)
        units = message.requests \
            if type(message) is messages.BatchRequest else [message]
        count = message.message_count()
        try:
            arrival = network.transfer(
                transport.node_id, server.node_id, message.wire_bytes(),
                tag=message.tag + ":req", deliver=False, messages=count,
                trace_parent=trace_parent)
            unit_values, unit_completions = server_module.serve_fast_fanout(
                cluster, [server] * len(units), units,
                [arrival] + [None] * (len(units) - 1))
            completion = unit_completions[-1]
            if completion is None:
                raise unit_values[-1]
            for p, value in zip(positions, unit_values):
                values[p] = value
                completions[p] = completion
            if message.response_bytes() is not None:
                arrival = network.transfer(
                    server.node_id, transport.node_id,
                    message.response_bytes(), tag=message.tag + ":resp",
                    deliver=False, depart_at=completion, messages=count,
                    trace_parent=trace_parent)
                for p in positions:
                    arrivals[p] = arrival
        except (ServerDownError, MatrixNotFoundError,
                NetworkPartitionedError) as error:
            failed.append((entry, error))
    return failed


class _Rig:
    """One small cluster with a column-layout and a row-layout matrix,
    plus a lazy table."""

    def __init__(self, per_message=False, pooled=True, consistency="bsp",
                 replicated=False, traced=False, codec="off", nics=SLOW_NICS):
        knobs = dict(REPLICATED) if replicated else {}
        if codec != "off":
            knobs.update(nics, wire_codec=codec)
        self.cluster = Cluster(ClusterConfig(
            n_executors=N_CLIENTS, n_servers=3, seed=11,
            consistency=consistency,
            staleness=0 if consistency == "bsp" else 1, **knobs,
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
                client.transport._transmit_bulk = types.MethodType(
                    interleaved, client.transport)
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

    def pool(self):
        """``(key, plan)`` of every plan the matrices' pools hold."""
        return [(key, plan) for matrix in self.matrices
                for key, plan in self.master.layout(matrix).op_plans.items()
                if type(plan) is transport.FanoutPlan]

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
            "cpu": [server.cpu.intervals() for server in servers],
            "versions": [dict(server.versions) for server in servers],
            "nic": {node_id: network.nic_utilization(node_id)
                    for node_id in cluster.clock.nodes()},
            "copies": [sorted(
                (key, entry.install_epoch, sorted(entry.versions.items()),
                 sorted((row, shard.values.tolist())
                        for row, shard in entry.rows.items()))
                for key, entry in server.replica_store.items())
                for server in servers],
            "holders": _holder_maps(cluster.replicas),
        }


def _holder_maps(replicas):
    """The link table as one ``{key: {holder: install_epoch}}`` map per
    live reason, hot first (the form the pinned law digests hash)."""
    if replicas is None:
        return []
    return [{key: {holder: replicas.links[key][holder][reason]
                   for holder in replicas.holders(key, reason)}
             for key in replicas.keys(reason)}
            for reason in replicas.reasons]


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
        manager = rig.master.replicas
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
    # pull + push + aggregate + fill + pull, so sub-requests of four
    # kinds chain on one CPU in both orders.
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


def _canonical(value):
    """*value* as nested plain data with a fixed order: dict and set
    entries sorted, floats in hex, arrays as dtype, shape and bytes,
    errors by type."""
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes().hex())
    if isinstance(value, dict):
        return ("dict", sorted((repr(_canonical(key)), _canonical(item))
                               for key, item in value.items()))
    if isinstance(value, (set, frozenset)):
        return ("set", sorted(repr(_canonical(item)) for item in value))
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [_canonical(item) for item in value])
    if isinstance(value, BaseException):
        return ("error", type(value).__name__)
    if isinstance(value, float):
        return float(value).hex()
    if isinstance(value, np.integer):
        return int(value)
    return repr(value)


def _digest(*parts):
    """A short sha256 of *parts* in :func:`_canonical` form — what a law
    pinned before its reference was deleted compares against."""
    text = repr(_canonical(parts)).encode()
    return hashlib.sha256(text).hexdigest()[:16]


def _outcome(rig, op):
    """What the caller saw: the op's value, or the type of what it raised
    (a spent retry budget, or a failure escaping a recovery)."""
    try:
        return _apply(rig, op)
    except ReproError as error:
        return type(error)


def _run_same(stream, reference, *others, run=_apply):
    """Run *stream* on every rig; all must end up where *reference* does."""
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
#: a server's service, its chain syncs interleaved with the fan-out's own bookings
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
    """``(cluster, units, copies only)`` of every fan-out the transport
    served through the lane — attempts and forwarded replica copies."""
    served = []
    lane = transport.serve_fast_fanout

    def counting(cluster, fan_servers, fan_messages, fan_arrivals):
        served.append((cluster, len(fan_messages), all(
            type(unit) is messages.ReplicatedPushRequest
            for unit in fan_messages)))
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
    return sum(call[1] for call in calls if call[0] is rig.cluster)


def _assert_only_bulk_took_the_lane(served, bulk, per_message, stream):
    # The comparison is only worth something if the rigs really differ in
    # schedule: the phased one sends its attempts through the transport's
    # lane, the pinned one only its forwarded copies (its attempts are
    # served wire message by wire message inside the reference).
    assert sum(call[0] is bulk.cluster for call in served) \
        >= len(stream) // 2
    assert all(copies for cluster, _n, copies in served
               if cluster is per_message.cluster)


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
        chain = rig.cluster.replicas
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


def _hot_sets(rig):
    """The cost model's hot-shard set after every refresh, in order."""
    model = rig.cluster.costmodel
    refresh = model._refresh_hot_shards
    seen = []

    def capturing():
        refresh()
        seen.append(model._hot_shards)

    model._refresh_hot_shards = capturing
    return seen


def _assert_pool_holds_no_codec(rig):
    """Every pooled plan is all tier 0 and none of its requests carries
    codec state."""
    model = rig.cluster.costmodel
    for _key, plan in rig.pool():
        assert plan.identity_tags is not None
        for request in plan.requests:
            assert request.codec is None
            assert getattr(request, "encoded", None) is None
            if request.codec_side is not None:
                assert model._tier(request.n_values * FLOAT_BYTES,
                                   None) == 0


def _run_auto_pools(stream, nics):
    """``wire_codec="auto"`` with both replication policies on: the pooled
    rig (identity plans recorded whole) == the unpooled one (every message
    prepared) on values, state, codec decisions and bytes saved, and the
    hot-shard set at every refresh; no pooled request ever holds a
    codec."""
    pooled = _Rig(replicated=True, codec="auto", nics=nics)
    unpooled = _Rig(replicated=True, codec="auto", nics=nics, pooled=False)
    hot = [_hot_sets(rig) for rig in (pooled, unpooled)]

    def run(rig, op):
        outcome = _apply(rig, op)
        _assert_pool_holds_no_codec(rig)
        return outcome

    _run_same(stream, pooled, unpooled, run=run)
    assert hot[0] == hot[1]
    # The stream crossed at least three refresh points after the first.
    assert pooled.cluster.costmodel._decisions \
        > 3 * costmodel.HEAT_REFRESH_DECISIONS
    assert len(hot[0]) >= 4
    assert pooled.pooled_plans() and not unpooled.pooled_plans()
    return pooled, unpooled, hot[0]


#: Dense add pushes at row 0 of the row-layout matrix: they heat its
#: shard, and on the knee NICs they sit in tier 2, where a push reads the
#: hot-shard set (top-k on a hot shard, int8 elsewhere).
_HEAT_ROW_0 = [("push", client, 1, 0, "add", None, seed)
               for seed in range(16) for client in range(N_CLIENTS)]

#: Long enough to cross three 256-decision refresh points, with row 0's
#: shard turning hot in between.
_AUTO_STREAM = (_REPLICATED_STREAM + _HEAT_ROW_0 + _REPLICATED_STREAM
                + _HEAT_ROW_0 + _FIXED_STREAM)


def test_auto_on_fast_nics_pools_identity_plans_and_matches_unpooled():
    pooled, _unpooled, _hot_shards = _run_auto_pools(_AUTO_STREAM, FAST_NICS)
    decisions = pooled.cluster.metrics.codec_decisions
    assert decisions and all(name == "identity" for _tag, name in decisions)
    # Every dense op kind's plan engaged the pool, not only sparse ones.
    kinds = {key[0] for key, _plan in pooled.pool()}
    assert {"pull-dense", "push-dense", "pull-block-dense",
            "push-block-dense"} <= kinds, kinds


def test_auto_on_the_knee_pools_only_tier_zero_plans_and_matches_unpooled():
    pooled, _unpooled, hot_shards = _run_auto_pools(_AUTO_STREAM, KNEE_NICS)
    decisions = pooled.cluster.metrics.codec_decisions
    # Dense shards compressed — top-k where the hot set said so, int8 or
    # fp16 elsewhere — while sparse ops stayed identity.
    names = {name for _tag, name in decisions}
    assert {"identity", "fp16", "int8", "topk"} <= names, decisions
    assert (pooled.matrices[1], 0) in hot_shards[-1]
    # A plan with one tier >= 1 message is never pooled: only sparse
    # plans (keyed on a shared index array) are.
    kinds = {key[0] for key, _plan in pooled.pool()}
    assert kinds and kinds <= {"pull-sparse", "push-sparse"}, kinds


# -- the lane's service of copies and lazy reads, pinned ----------------------


#: :func:`_digest` of the copy law's lane result and rig state, pinned
#: while the lane was still checked against dispatching every unit.
COPY_LAW_DIGEST = "59515e9a34a1e52f"


def _hand_built_copies(rig):
    """One envelope of copies onto each column-layout primary's chain
    successor, every kind of copy in it: pushes (dense add, sparse
    assign, and a dense assign last), one the holder's counters already
    cover, one stamped with a stale epoch, and a fill, a push-range and a
    kernel copy.  Returns the lane's unit lists."""
    master = rig.master
    m = rig.matrices[0]
    arrive = max(rig.cluster.clock.now(node)
                 for node in rig.cluster.clock.nodes())
    servers, units, arrivals = [], [], []
    for primary in master.servers:
        p = primary.server_index
        (h,) = rig.cluster.replicas.successors(p)
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


def test_the_lane_serves_copies_as_pinned_fenced_and_skipped_included():
    rig = _Rig(replicated=True)
    _run_same(_CREATE_STREAM + _FIXED_STREAM[:23], rig)
    counters = rig.cluster.metrics.counters
    before = Counter(counters)
    got = transport.serve_fast_fanout(rig.cluster, *_hand_built_copies(rig))
    assert None not in got[1]
    assert _digest(got, rig.state()) == COPY_LAW_DIGEST
    # One fenced and one covered copy per envelope, the rest applied.
    for name in ("replica-fanout-fenced", "replica-fanout-skipped"):
        assert counters[name] - before[name] == 3, name


#: The same for the lazy-read law's two fan-outs.
LAZY_LAW_DIGESTS = ("e4375577f509eb9e", "53a4fc2a10878dc3")


def _hand_built_lazy_reads(rig):
    """Pull-or-create units after :data:`_CREATE_STREAM` (rows 0-8 exist,
    row ``r`` on server ``r % 3``) with server 1 crashed: an envelope on
    server 0 and one on server 2, each mixing present rows with an unseen
    id (a creation), then two stand-alone stand-ins for server 1's rows
    on its chain successor.  Returns the lane's unit lists."""
    master = rig.master
    (successor,) = rig.cluster.replicas.successors(1)
    master.server(1).crash()
    arrive = max(rig.cluster.clock.now(node)
                 for node in rig.cluster.clock.nodes())

    def lazy(row, server_index=None):
        request = messages.PullOrCreateRequest(row % 3, rig.table, row,
                                               TABLE_DIM)
        if server_index is None:
            return request
        return request.retargeted(server_index)

    servers, units, arrivals = [], [], []
    for primary, rows in ((0, (0, 9, 3, 6)), (2, (2, 5, 11, 8))):
        servers += [master.server(primary)] * len(rows)
        units += [lazy(row) for row in rows]
        arrivals += [arrive + 1e-4 * (primary + 1)] + [None] * (len(rows) - 1)
    for row in (1, 4):
        servers.append(master.server(successor))
        units.append(lazy(row, successor))
        arrivals.append(arrive + 2e-4 + 1e-5 * row)
    return servers, units, arrivals


def _errors_as_types(result):
    values, completions = result
    return ([type(value) if isinstance(value, Exception) else value
             for value in values], completions)


def test_the_lane_serves_lazy_reads_as_pinned():
    rig = _Rig(replicated=True)
    _run_same(_CREATE_STREAM, rig)

    def serve(units, pinned):
        got = transport.serve_fast_fanout(rig.cluster, *units)
        assert _digest(_errors_as_types(got), rig.state()) == pinned
        return got

    creates = rig.cluster.metrics.counters["lazy-creates"]
    values, completions = serve(_hand_built_lazy_reads(rig),
                                LAZY_LAW_DIGESTS[0])
    # Present rows and stand-ins reply ``created=False``.
    assert len(values) == 10 and None not in completions
    assert [created for _values, created in values] == \
        [False, True, False, False, False, False, True, False, False, False]
    assert rig.cluster.metrics.counters["lazy-creates"] == creates + 2
    # Server 2's crash is due at its own clock: a present row fails, and
    # so stops its envelope.
    server = rig.master.server(2)
    rig.cluster.failures.schedule_server_failure(
        server.node_id, rig.cluster.clock.now(server.node_id))
    units = [messages.PullOrCreateRequest(2, rig.table, row, TABLE_DIM)
             for row in (2, 5)]
    arrive = rig.cluster.clock.now(server.node_id) + 1e-4
    values, completions = serve(([server] * 2, units, [arrive, None]),
                                LAZY_LAW_DIGESTS[1])
    assert completions == [None, None]
    assert all(isinstance(value, ServerDownError) for value in values)


# -- one service definition: handlers price, the lane books -------------------


def _one_of_every_kind(rig):
    """``(server, request)`` pairs that take every handler and every
    branch of it: dense and sparse pulls and pushes, ranges, an aggregate,
    kernels, a fill, a clock advance, a lazy read that creates and one
    that finds its row, a chain stand-in, and applied, covered and fenced
    copies of every mutation kind."""
    master = rig.master
    m, table = rig.matrices[0], rig.table
    primary = master.server(0)
    (h,) = rig.cluster.replicas.successors(0)
    entry = master.server(h).replica_store[(m, 0)]
    shard = primary.shard(m, 0)
    width, lo = len(shard), shard.start
    columns = np.arange(lo, shard.stop, 2, dtype=np.int64)

    def copy(inner, rows, ahead, epoch=primary.epoch):
        return master.server(h), messages.ReplicatedPushRequest(
            h, inner, 0, epoch,
            {(m, row): entry.versions.get((m, row), 0) + ahead
             for row in rows})

    mutations = [
        messages.PushRequest(0, m, 0, _values(1, width)),
        messages.PushRequest(0, m, 1, _values(2, len(columns)),
                             indices=columns, mode="assign"),
        messages.PushRangeRequest(0, m, 2, lo, lo + 3, _values(3, 3)),
        messages.FillRequest(0, m, 3, 0.5),
        messages.KernelRequest(0, _halve, [(m, 0), (m, 1)],
                               wait_response=False),
    ]
    standin = messages.PullOrCreateRequest(1, table, 1, TABLE_DIM) \
        .retargeted(rig.cluster.replicas.successors(1)[0])
    return [
        (primary, messages.PullRowRequest(0, m, 0, width)),
        (primary, messages.PullRowRequest(0, m, 1, len(columns),
                                          indices=columns)),
        (primary, messages.PullRangeRequest(0, m, 2, lo, lo + 4)),
        (primary, messages.AggregateRequest(0, m, 3, "sumsq")),
        (primary, messages.KernelRequest(0, _sum, [(m, 0)])),
        (primary, messages.ClockAdvanceRequest(0, [(m, 0), (m, 1)], 1)),
        (primary, messages.PullOrCreateRequest(0, table, 0, TABLE_DIM)),
        (primary, messages.PullOrCreateRequest(0, table, 30, TABLE_DIM)),
        (master.server(standin.server_index), standin),
    ] + [(primary, inner) for inner in mutations] + [
        copy(inner, rows, 1)
        for inner, rows in zip(mutations, ([0], [1], [2], [3], [0, 1]))
    ] + [copy(mutations[0], [0], 0),
         copy(mutations[0], [0], 1, epoch=primary.epoch + 1)]


def test_handlers_never_book():
    """Every handler is a pure storage step: called with every booking
    entry point rigged to raise, it still returns its reply and charges,
    and leaves every clock where it was."""
    rig = _Rig(replicated=True)
    _run_same(_CREATE_STREAM + _FIXED_STREAM[:23], rig)
    cases = _one_of_every_kind(rig)
    assert {type(request) for _server, request in cases} \
        == set(server_module._HANDLERS)

    def booking(*_args, **_kwargs):
        raise AssertionError("a handler booked")

    clock = rig.cluster.clock
    metrics = type(rig.cluster.metrics)
    patches = [mock.patch.object(TimelineResource, name, booking)
               for name in ("reserve", "reserve_many", "commit")]
    patches += [mock.patch.object(type(rig.cluster.tracer), name, booking)
                for name in ("record", "span")]
    patches += [mock.patch.object(type(clock), name, booking)
                for name in ("advance", "set_at_least", "barrier")]
    patches += [mock.patch.object(metrics, name, booking)
                for name in ("record_compute", "record_request", "observe",
                             "record_service_bulk")]
    before = dict(clock._times)
    kinds = Counter()
    with contextlib.ExitStack() as stack:
        for patch in patches:
            stack.enter_context(patch)
        for server, request in cases:
            _value, charges = server_module._HANDLERS[type(request)](
                server, request)
            assert charges and all(
                flops > 0 and tag.startswith("ps-") for flops, tag in charges)
            kinds[tuple(tag for _flops, tag in charges)] += 1
    assert dict(clock._times) == before
    # Both sides of every branch were taken: a creation charges twice.
    assert kinds[("ps-create", "ps-read")] == 1
    assert kinds[("ps-replica",)] == 7


def test_a_crash_due_between_a_creations_charges_takes_the_next_unit():
    """Liveness is decided once per unit: a crash that falls due after a
    creating unit starts — between its ``ps-create`` and ``ps-read`` —
    lets that unit finish and fails the next one."""
    rig = _Rig(replicated=True)
    _run_same(_CREATE_STREAM, rig)
    server = rig.master.server(0)
    arrive = rig.cluster.clock.now(server.node_id) + 1e-4
    create = TABLE_DIM * ELEMENTWISE_FLOPS \
        / rig.cluster.node(server.node_id).spec.flops
    rig.cluster.failures.schedule_server_failure(server.node_id,
                                                 arrive + create / 2)
    units = [messages.PullOrCreateRequest(0, rig.table, row, TABLE_DIM)
             for row in (30, 33)]
    values, completions = transport.serve_fast_fanout(
        rig.cluster, [server] * 2, units, [arrive, None])
    created_values, created = values[0]
    assert created and created_values.shape == (TABLE_DIM,)
    assert completions[0] > arrive + create
    assert isinstance(values[1], ServerDownError) and completions[1] is None
    assert not server.alive


# -- retiring timeline intervals changes nothing -------------------------------


def _storm_stream(n_rounds=60):
    """Storm-shaped ops: per round, every client pushes one row and pulls
    another, over both matrices, half of them sparse; every few rounds a
    lazy-table creation and a hot-key sweep; a barrier closes each round
    (the only thing that lifts the driver's clock, hence the floor)."""
    rng = np.random.default_rng(35)
    stream = []
    for round_ in range(n_rounds):
        for client in range(N_CLIENTS):
            which, row = int(rng.integers(2)), int(rng.integers(N_ROWS))
            spec = None if rng.random() < 0.5 else int(rng.integers(2))
            stream.append(("push", client, which, row, "add", spec,
                           int(rng.integers(2 ** 16))))
            which, row = int(rng.integers(2)), int(rng.integers(N_ROWS))
            stream.append(("pull", client, which, row, spec))
        if round_ % 4 == 0:
            ids = sorted(set(rng.integers(N_IDS, size=3).tolist()))
            stream.append(("create", round_ % N_CLIENTS, ids))
        if round_ % 10 == 9:
            stream.append(("rebalance", 0))
        stream.append("barrier")
    return stream


def _run_storm(stream, retire_at):
    with mock.patch.object(resource, "_RETIRE_AT", retire_at):
        rig = _Rig(replicated=True)
        seen = []
        for op in stream:
            if op == "barrier":
                rig.cluster.barrier()
            else:
                seen.append(_apply(rig, op))
    network = rig.cluster.network
    nodes = rig.cluster.clock.nodes()
    timelines = [server.cpu for server in rig.master.servers] \
        + [network._nic_send[node] for node in nodes] \
        + [network._nic_recv[node] for node in nodes]
    return rig, seen, timelines


def test_retiring_timelines_changes_nothing_on_a_replicated_storm():
    stream = _storm_stream()
    assert len(stream) > 300
    kept, kept_seen, kept_timelines = _run_storm(stream, 2 ** 62)
    retired, retired_seen, retired_timelines = _run_storm(stream, 8)
    assert _same(retired_seen, kept_seen)
    left, right = retired.state(), kept.state()
    for section in left:
        if section != "cpu":
            assert left[section] == right[section], section
    for ours, theirs in zip(retired_timelines, kept_timelines):
        assert ours.busy_seconds() == theirs.busy_seconds()
        assert ours.horizon() == theirs.horizon()
    assert any(len(ours) < len(theirs) for ours, theirs
               in zip(retired_timelines, kept_timelines))
