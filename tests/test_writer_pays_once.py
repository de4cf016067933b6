"""The writer pays once: replication costs the writer nothing.

A mutation's replica copies are forwarded by its primary
(:meth:`repro.ps.replication.Replicas.forward`), so a write on a replicated
cluster must cost the *writer* exactly what the same write costs on an
unreplicated one.  Two clusters are built from one seed — one with chain
replication (``chain_replicas`` 1 or 2) and optionally hot-key
replication, one with neither — and driven through the same Hypothesis
stream of dense and sparse ``push_add`` / ``push_assign``,
``push_block_add``, ``push_range`` and co-located kernel ops.  Before
each op the writer's clock is moved past every booking on both clusters,
so what the op leaves behind is the op's own cost.  After every op:

- the writer's clock, send-NIC busy seconds and CPU charge (``rpc-cpu``
  count included) are bit-equal across the two clusters;
- every ``replica-push`` transfer left a node whose primary served an
  original of that op, never the writer's, and departed no earlier than
  that original completed there — so no copy applies early;
- every valid copy equals its primary.

The same law holds for the *reader* of a lazy table: a ``pull_or_create``
whose rows the primaries create (or already hold) leaves the reader's
clock, its reply arrivals and the primaries' send-NIC response bookings
bit-equal to the unreplicated read's — the chain syncs of the new rows
leave the primary after the creating message completed, behind its
response, never in front of it — and every copy equals its primary.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import Cluster
from repro.config import ClusterConfig
from repro.ps.client import PSClient
from repro.ps.master import PSMaster
from tests.test_replication import \
    _assert_copies_match_primaries as _copies_match_primaries

DIM = 30
N_ROWS = 4
TABLE_DIM = 8
N_IDS = 12

#: CPU tags of the originals a write op applies on its primaries.
ORIGINAL_TAGS = ("ps-add", "ps-assign", "ps-kernel")


class _Rig:
    """Two same-dim matrices (co-located: one layout, one rotation)."""

    def __init__(self, chain_replicas=0, replication="off"):
        hot_knobs = {} if replication == "off" else dict(
            hot_key_fraction=0.34, replication_factor=2)
        self.cluster = Cluster(ClusterConfig(
            n_executors=2, n_servers=3, seed=7,
            chain_replicas=chain_replicas, replication=replication,
            **hot_knobs,
        ))
        self.master = PSMaster(self.cluster)
        self.writer, self.other = (
            PSClient(self.cluster, self.master, node_id)
            for node_id in self.cluster.executors
        )
        self.matrices = tuple(self.master.create_matrix(DIM, n_rows=N_ROWS)
                              for _ in range(2))
        self.table = self.master.create_table(TABLE_DIM)
        for matrix in self.matrices:
            for row in range(N_ROWS):
                self.other.push_assign(matrix, row,
                                       np.arange(DIM, dtype=float) + row)
        # Heat the first shard of both matrices; under hot-key replication
        # the sweep replicates them onto servers 1 and 2.
        for _ in range(4):
            for matrix in self.matrices:
                self.other.pull_range(matrix, 0, 0, 10)
        if self.master.replicas is not None:
            self.master.replicas.rebalance()
        # Warm the writer's routing cache: a cold entry's routing RPC waits
        # on the coordinator's NIC, which replication traffic also uses.
        for matrix in self.matrices:
            self.writer.pull_row(matrix, 0)
        self.writer.pull_or_create(self.table, [0])
        self.cluster.tracer.enable()

    def writer_state(self):
        cluster = self.cluster
        node = self.writer.node_id
        return (cluster.clock.now(node),
                cluster.network.nic_utilization(node)[0],
                cluster.metrics.compute_seconds[node],
                cluster.metrics.compute_counts["rpc-cpu"])


def _double(arrays):
    for values in arrays:
        values *= 2.0


def _apply(rig, op):
    kind, args = op[0], op[1:]
    client = rig.writer
    a, b = rig.matrices
    if kind == "push":
        row, mode, indices, seed = args
        n = DIM if indices is None else len(indices)
        push = client.push_add if mode == "add" else client.push_assign
        push(a, row, _values(seed, n), indices)
    elif kind == "push_block":
        rows, indices, seed = args
        n = DIM if indices is None else len(indices)
        client.push_block_add(b, rows, _values(seed, len(rows), n), indices)
    elif kind == "range":
        row, lo, width, mode, seed = args
        hi = min(DIM, lo + width)
        client.push_range(a, row, lo, hi, _values(seed, hi - lo), mode=mode)
    else:
        row, wait = args
        client.execute(_double, [(a, row), (b, row)], wait_response=wait)


def _values(seed, *shape):
    return np.random.default_rng(seed).normal(size=shape)


def _check_forwards(rig, spans):
    """Every copy of this op left a primary after its original completed."""
    done = {}
    for span in spans:
        if span.cat == "cpu" and span.op in ORIGINAL_TAGS:
            done[span.node] = max(done.get(span.node, span.end), span.end)
    sends = [span for span in spans if span.cat == "nic-send"
             and span.op == "net:replica-push:req"]
    for span in sends:
        assert span.node != rig.writer.node_id
        assert span.node in done, span
        assert span.start >= done[span.node], span
    return len(sends)


_indices = st.one_of(
    st.none(),
    st.lists(st.integers(0, DIM - 1), min_size=1, max_size=12, unique=True),
)
_seeds = st.integers(0, 2 ** 16)
_rows = st.integers(0, N_ROWS - 1)
_ops = st.one_of(
    st.tuples(st.just("push"), _rows, st.sampled_from(["add", "assign"]),
              _indices, _seeds),
    st.tuples(st.just("push_block"),
              st.lists(_rows, min_size=1, max_size=N_ROWS, unique=True),
              _indices, _seeds),
    st.tuples(st.just("range"), _rows, st.integers(0, DIM - 1),
              st.integers(1, DIM), st.sampled_from(["add", "assign"]),
              _seeds),
    st.tuples(st.just("kernel"), _rows, st.booleans()),
)


@pytest.mark.parametrize("replication", ["off", "topk"])
@pytest.mark.parametrize("chain_replicas", [1, 2])
@given(stream=st.lists(_ops, min_size=1, max_size=8))
@settings(max_examples=25, deadline=None)
def test_a_replicated_write_costs_the_writer_what_a_bare_one_does(
        chain_replicas, replication, stream):
    replicated = _Rig(chain_replicas, replication)
    bare = _Rig()
    forwarded = 0
    for op in stream:
        start = max(replicated.cluster.clock.global_time(),
                    bare.cluster.clock.global_time()) + 1.0
        first_span = len(replicated.cluster.tracer.spans)
        for rig in (replicated, bare):
            rig.cluster.clock.set_at_least(rig.writer.node_id, start)
            _apply(rig, op)
        assert replicated.writer_state() == bare.writer_state(), op
        forwarded += _check_forwards(
            replicated, replicated.cluster.tracer.spans[first_span:])
        _copies_match_primaries(replicated.master)
    # Every op writes row data that some holder copies.
    assert forwarded >= len(stream)


# -- the reader of a lazy table pays once too ---------------------------------


def _reader_state(rig, spans):
    """The reader's clock, its reply arrivals and the primaries' response
    bookings (send NIC), for one op's *spans*."""
    node = rig.writer.node_id
    replies = [span for span in spans if span.op == "net:pull-create:resp"]
    return (rig.cluster.clock.now(node),
            sorted((span.start, span.end) for span in replies
                   if span.cat == "nic-recv" and span.node == node),
            sorted((span.node, span.start, span.end) for span in replies
                   if span.cat == "nic-send"))


def _check_syncs(spans):
    """Every chain sync of this op left a primary after the op's message
    there completed."""
    done = {}
    for span in spans:
        if span.cat == "cpu" and span.op in ("ps-create", "ps-read"):
            done[span.node] = max(done.get(span.node, span.end), span.end)
    syncs = [span for span in spans if span.cat == "nic-send"
             and span.op == "net:chain-sync"]
    for span in syncs:
        assert span.start >= done[span.node], span
    return len(syncs)


@pytest.mark.parametrize("replication", ["off", "topk"])
@pytest.mark.parametrize("chain_replicas", [1, 2])
@given(stream=st.lists(
    st.lists(st.integers(0, N_IDS - 1), min_size=1, max_size=6),
    min_size=1, max_size=6))
@settings(max_examples=20, deadline=None)
def test_a_replicated_lazy_read_costs_the_reader_what_a_bare_one_does(
        chain_replicas, replication, stream):
    replicated = _Rig(chain_replicas, replication)
    bare = _Rig()
    synced = 0
    for rows in stream:
        start = max(replicated.cluster.clock.global_time(),
                    bare.cluster.clock.global_time()) + 1.0
        values, spans = [], []
        for rig in (replicated, bare):
            first_span = len(rig.cluster.tracer.spans)
            rig.cluster.clock.set_at_least(rig.writer.node_id, start)
            values.append(rig.writer.pull_or_create(rig.table, rows))
            spans.append(rig.cluster.tracer.spans[first_span:])
        assert np.array_equal(values[0], values[1])
        assert _reader_state(replicated, spans[0]) == \
            _reader_state(bare, spans[1]), rows
        synced += _check_syncs(spans[0])
        _copies_match_primaries(replicated.master)
    # Unseen ids were created, and their chains were fed.
    if set().union(*stream) - {0}:
        assert synced > 0
