"""Wire-accounting regression suite for the typed transport layer.

Two kinds of guarantees:

1. Every client op transfers exactly the bytes its message objects predict
   (message ``wire_bytes()``/``response_bytes()`` plus the per-transfer NIC
   envelope), for every op type, batch envelopes included.
2. The refactor is behavior-preserving where it claims to be: an LR epoch
   is byte- and makespan-identical to the pre-refactor closure-based path
   (golden numbers captured before the transport landed), on both transmit
   schedules — row ops issue one message per server either way.
"""

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.common.sizeof import FLOAT_BYTES, INDEX_BYTES, \
    MESSAGE_OVERHEAD_BYTES
from repro.config import ClusterConfig
from repro.data import sparse_classification
from repro.experiments.runner import make_context
from repro.ml import train_logistic_regression
from repro.ps import messages
from repro.ps.client import PSClient
from repro.ps.master import PSMaster
from repro.ps.transport import Transport
from tests.test_fast_lane import unattempted


def _rig(n_servers=3):
    config = ClusterConfig(n_executors=2, n_servers=n_servers, seed=3)
    cluster = Cluster(config)
    master = PSMaster(cluster)
    client = PSClient(cluster, master, cluster.executors[0])
    return cluster, master, client


def _tag(cluster, tag):
    """(bytes, wire_messages, logical_messages) accounted under *tag*."""
    m = cluster.metrics
    return (m.bytes_by_tag.get(tag, 0.0), m.messages_by_tag.get(tag, 0),
            m.logical_messages_by_tag.get(tag, 0))


def _on_wire(payloads):
    """Total bytes a list of message payload sizes costs on the wire."""
    return float(sum(p + MESSAGE_OVERHEAD_BYTES for p in payloads))


# -- per-op wire accounting ---------------------------------------------------


def test_dense_pull_row_bytes_match_messages():
    cluster, master, client = _rig()
    m = master.create_matrix(30)
    client.pull_row(m, 0)
    shards = master.layout(m).shards_for_row(0)
    req = [messages.PullRowRequest(s, m, 0, stop - start)
           for s, start, stop in shards]
    assert _tag(cluster, "pull:req") == (
        _on_wire([r.wire_bytes() for r in req]), len(req), len(req))
    assert _tag(cluster, "pull:resp") == (
        _on_wire([r.response_bytes() for r in req]), len(req), len(req))


def test_sparse_pull_row_bytes_match_messages():
    cluster, master, client = _rig()
    m = master.create_matrix(30)
    idx = np.array([0, 7, 13, 22, 29])
    client.pull_row(m, 0, indices=idx)
    groups = master.layout(m).split_indices(np.sort(idx))
    req = [messages.PullRowRequest(s, m, 0, g.size, indices=g)
           for s, g in groups.items()]
    assert _tag(cluster, "pull:req") == (
        _on_wire([r.wire_bytes() for r in req]), len(req), len(req))
    assert _tag(cluster, "pull:resp") == (
        _on_wire([r.response_bytes() for r in req]), len(req), len(req))
    # Sanity, by hand: a 48-byte request header + one 8-byte key per column.
    for r in req:
        assert r.wire_bytes() == 48 + 8 * len(r.indices)


def test_push_bytes_match_messages():
    cluster, master, client = _rig()
    m = master.create_matrix(30)
    client.push_add(m, 0, np.ones(30))
    shards = master.layout(m).shards_for_row(0)
    # By hand: 48-byte header + 8 bytes per value ...
    dense = _on_wire([48 + 8 * (stop - start)
                      for _s, start, stop in shards])
    assert _tag(cluster, "push:req") == (dense, len(shards), len(shards))

    idx = np.array([1, 8, 20])
    client.push_assign(m, 0, np.ones(3), indices=idx)
    groups = master.layout(m).split_indices(np.sort(idx))
    # ... and a sparse push adds an 8-byte key per entry.
    sparse = _on_wire([48 + (8 + 8) * g.size for g in groups.values()])
    n = len(shards) + len(groups)
    assert _tag(cluster, "push:req") == (dense + sparse, n, n)
    # Pushes are fire-and-forget: no response traffic at all.
    assert _tag(cluster, "push:resp") == (0.0, 0, 0)


def test_range_ops_bytes_match_messages():
    cluster, master, client = _rig()
    m = master.create_matrix(30)
    client.pull_range(m, 0, 5, 25)
    overlaps = client._range_shards(master.layout(m), 0, 5, 25)
    req = [messages.PullRangeRequest(s, m, 0, lo, hi)
           for s, lo, hi in overlaps]
    # Range ops share the pull/push wire tags (the server sees a pull).
    assert _tag(cluster, "pull:req") == (
        _on_wire([r.wire_bytes() for r in req]), len(req), len(req))
    assert _tag(cluster, "pull:resp") == (
        _on_wire([r.response_bytes() for r in req]), len(req), len(req))

    client.push_range(m, 0, 5, 25, np.ones(20))
    wreq = [messages.PushRangeRequest(s, m, 0, lo, hi,
                                      np.ones(hi - lo))
            for s, lo, hi in overlaps]
    assert _tag(cluster, "push:req") == (
        _on_wire([r.wire_bytes() for r in wreq]), len(wreq), len(wreq))
    assert _tag(cluster, "push:resp") == (0.0, 0, 0)


def test_aggregate_kernel_fill_bytes_match_messages():
    cluster, master, client = _rig()
    m = master.create_matrix(30)
    client.push_assign(m, 0, np.arange(30.0))
    n_shards = len(master.layout(m).shards_for_row(0))

    total = client.aggregate_row(m, 0, "sum")
    assert total == pytest.approx(np.arange(30.0).sum())
    # By hand: 48-byte header + one 8-byte operand reference out, 32-byte
    # response header + one 8-byte scalar back.
    assert _tag(cluster, "rowagg:req") == (
        _on_wire([48 + 8] * n_shards), n_shards, n_shards)
    assert _tag(cluster, "rowagg:resp") == (
        _on_wire([32 + 8] * n_shards), n_shards, n_shards)

    client.execute(lambda arrays: float(arrays[0].sum()), [(m, 0), (m, 0)])
    assert _tag(cluster, "kernel:req") == (
        _on_wire([48 + 2 * 8] * n_shards), n_shards, n_shards)
    assert _tag(cluster, "kernel:resp") == (
        _on_wire([32 + 8] * n_shards), n_shards, n_shards)

    client.fill_row(m, 0, 2.5)
    assert _tag(cluster, "fill:req") == (
        _on_wire([messages.REQUEST_HEADER_BYTES + FLOAT_BYTES] * n_shards),
        n_shards, n_shards)
    assert _tag(cluster, "fill:resp") == (0.0, 0, 0)


def test_routing_bytes_use_central_formula():
    cluster, master, client = _rig()
    m = master.create_matrix(30)
    client.pull_row(m, 0)
    n_servers = master.layout(m).n_servers
    assert _tag(cluster, "routing:req") == (
        _on_wire([messages.REQUEST_HEADER_BYTES]), 1, 1)
    assert _tag(cluster, "routing:resp") == (
        _on_wire([messages.routing_response_bytes(n_servers)]), 1, 1)


# -- coalescing ---------------------------------------------------------------


def test_pull_block_coalesced_issues_one_message_per_server():
    cluster, master, client = _rig()
    m = master.create_matrix(30, n_rows=4)
    client.pull_block(m, [0, 1, 2, 3])
    shards = master.layout(m).shards_for_row(0)
    n_servers = len(shards)
    # Exactly S wire messages carrying S x R logical requests.
    req_bytes, wire, logical = _tag(cluster, "pull-block:req")
    assert wire == n_servers
    assert logical == n_servers * 4
    envelope = (messages.REQUEST_HEADER_BYTES
                + 4 * messages.SUBREQUEST_HEADER_BYTES)
    assert req_bytes == _on_wire([envelope] * n_servers)
    # Batched response: one header per envelope + concatenated payloads.
    resp_bytes, resp_wire, resp_logical = _tag(cluster, "pull-block:resp")
    assert resp_wire == n_servers
    assert resp_logical == n_servers * 4
    assert resp_bytes == _on_wire([
        messages.RESPONSE_HEADER_BYTES + 4 * (stop - start) * FLOAT_BYTES
        for _s, start, stop in shards
    ])
    assert cluster.metrics.counters["coalesced-batches"] == n_servers
    assert cluster.metrics.counters["coalesced-requests"] == n_servers * 4


def test_uncoalesced_block_pays_per_request_headers():
    """A k-request envelope saves exactly k - 1 request headers and NIC
    envelopes over k stand-alone messages, and pays one 16-byte
    sub-request descriptor per request instead; a block op's wire bytes
    are exactly the stand-alone total minus that saving, per server."""
    cluster, master, client = _rig()
    m = master.create_matrix(30, n_rows=4)
    rows = [0, 1, 2, 3]
    client.pull_block(m, rows)
    client.push_block_add(m, rows, np.ones((4, 30)))
    k = len(rows)
    saved = (k - 1) * (messages.REQUEST_HEADER_BYTES
                       + MESSAGE_OVERHEAD_BYTES) \
        - k * messages.SUBREQUEST_HEADER_BYTES
    assert saved > 0
    shards = master.layout(m).shards_for_row(0)
    for tag, build in (
        ("pull-block:req",
         lambda s, row, width: messages.PullRowRequest(s, m, row, width)),
        ("push-block:req",
         lambda s, row, width: messages.PushRequest(s, m, row,
                                                    np.ones(width))),
    ):
        expected = 0.0
        for server, start, stop in shards:
            alone = [build(server, row, stop - start) for row in rows]
            standalone = _on_wire([r.wire_bytes() for r in alone])
            envelope = _on_wire([messages.BatchRequest(alone).wire_bytes()])
            assert standalone - envelope == saved
            expected += envelope
        assert _tag(cluster, tag) == (expected, len(shards), k * len(shards))


def test_sparse_block_ships_shared_index_list_once():
    cluster, master, client = _rig()
    m = master.create_matrix(30, n_rows=3)
    idx = np.array([0, 7, 13, 22, 29])
    client.pull_block(m, [0, 1, 2], indices=idx)
    groups = master.layout(m).split_indices(np.sort(idx))
    expected = _on_wire([
        messages.REQUEST_HEADER_BYTES
        + 3 * messages.SUBREQUEST_HEADER_BYTES
        + g.size * INDEX_BYTES  # the shared list, encoded ONCE per server
        for g in groups.values()
    ])
    req_bytes, wire, logical = _tag(cluster, "pull-block:req")
    assert wire == len(groups)
    assert logical == 3 * len(groups)
    assert req_bytes == expected


def test_singleton_groups_never_batch():
    """Row ops issue one message per server, so no envelope is ever
    formed: each goes stand-alone, one wire message per logical one."""
    cluster, master, client = _rig()
    m = master.create_matrix(30)
    client.push_assign(m, 0, np.arange(30.0))
    client.pull_row(m, 0, indices=[1, 7, 29])
    client.aggregate_row(m, 0, "sumsq")
    assert cluster.metrics.counters.get("coalesced-batches", 0) == 0
    for tag in ("push:req", "pull:req", "rowagg:req"):
        _bytes, wire, logical = _tag(cluster, tag)
        assert wire == logical > 0


def test_batch_request_envelope_math():
    idx = np.array([1, 2, 3])
    subs = [messages.PullRowRequest(0, "m", row, 3, indices=idx)
            for row in range(4)]
    batch = messages.BatchRequest(subs)
    assert batch.message_count() == 4
    assert batch.wire_bytes() == (
        messages.REQUEST_HEADER_BYTES
        + 4 * messages.SUBREQUEST_HEADER_BYTES
        + 3 * INDEX_BYTES  # shared list deduplicated by identity
    )
    # A distinct (equal-valued) array is a distinct payload.
    other = messages.BatchRequest(
        subs + [messages.PullRowRequest(0, "m", 9, 3, indices=idx.copy())]
    )
    assert other.wire_bytes() == (
        messages.REQUEST_HEADER_BYTES
        + 5 * messages.SUBREQUEST_HEADER_BYTES
        + 2 * 3 * INDEX_BYTES
    )
    assert batch.response_bytes() == (
        messages.RESPONSE_HEADER_BYTES + 4 * 3 * FLOAT_BYTES
    )
    # Mixed fire-and-forget subs contribute no response payload.
    push = messages.PushRequest(0, "m", 0, np.ones(3), indices=idx)
    assert messages.BatchRequest([push]).response_bytes() is None
    from repro.common.errors import PSError
    with pytest.raises(PSError):
        messages.BatchRequest([])
    with pytest.raises(PSError):
        messages.BatchRequest([subs[0],
                               messages.PullRowRequest(1, "m", 0, 3)])
    with pytest.raises(PSError):
        messages.BatchRequest([batch])


# -- the one table: every kind, every fact ------------------------------------
# The independent statement of messages.py's declarations: every number below
# was worked out by hand from the constants — request header 48, response
# header 32, sub-request header 16, 8 bytes per index and per float — never
# by calling a formula.  ``None`` is "fire-and-forget".

_IDX = np.array([1, 2, 3, 4, 5])
_PUSH = messages.PushRequest(0, "m", 0, np.ones(5), indices=_IDX)

#: name -> (one message, role, codec side, its ``wire_bytes()``, its
#: ``response_bytes()``, and the same two for an envelope of it plus one
#: sibling — the same message again, so a shared index list dedups).
_KINDS = {
    "pull-row dense": (
        messages.PullRowRequest(0, "m", 0, 10),
        "read", "response", 48, 32 + 80, 48 + 2 * 16, 32 + 2 * 80),
    "pull-row sparse": (
        messages.PullRowRequest(0, "m", 0, 5, indices=_IDX),
        "read", "response", 48 + 40, 32 + 40, 48 + 40 + 2 * 16, 32 + 2 * 40),
    "pull-row 4-byte values": (
        messages.PullRowRequest(0, "m", 0, 10, value_bytes=4),
        "read", "response", 48, 32 + 40, 48 + 2 * 16, 32 + 2 * 40),
    "pull-or-create": (
        messages.PullOrCreateRequest(0, "m", 7, 10),
        "standin-read", None, 48 + 24, 32 + 8 + 80,
        48 + 2 * (16 + 24), 32 + 2 * (8 + 80)),
    "pull-range": (
        messages.PullRangeRequest(0, "m", 0, 5, 25),
        "read", "response", 48 + 16, 32 + 160,
        48 + 2 * (16 + 16), 32 + 2 * 160),
    "push dense": (
        messages.PushRequest(0, "m", 0, np.ones(10)),
        "mutation", "request", 48 + 80, None, 48 + 2 * (16 + 80), None),
    "push sparse": (
        _PUSH, "mutation", "request", 48 + 40 + 40, None,
        48 + 40 + 2 * (16 + 40), None),
    "push 4-byte values": (
        messages.PushRequest(0, "m", 0, np.ones(10), value_bytes=4),
        "mutation", "request", 48 + 40, None, 48 + 2 * (16 + 40), None),
    "push-range": (
        messages.PushRangeRequest(0, "m", 0, 5, 25, np.ones(20)),
        "mutation", None, 48 + 16 + 160, None, 48 + 2 * (16 + 176), None),
    "aggregate": (
        messages.AggregateRequest(0, "m", 0, "sum", n_values=10),
        "read", None, 48 + 8, 32 + 8, 48 + 2 * (16 + 8), 32 + 2 * 8),
    "kernel": (
        messages.KernelRequest(0, None, [("m", 0), ("m", 1), ("m", 2)],
                               n_response_scalars=2),
        "mutation", None, 48 + 24, 32 + 16, 48 + 2 * (16 + 24), 32 + 2 * 16),
    "kernel fire-and-forget": (
        messages.KernelRequest(0, None, [("m", 0)], wait_response=False),
        "mutation", None, 48 + 8, None, 48 + 2 * (16 + 8), None),
    "fill": (
        messages.FillRequest(0, "m", 0, 2.5, n_values=10),
        "mutation", None, 48 + 8, None, 48 + 2 * (16 + 8), None),
    "clock-advance": (
        messages.ClockAdvanceRequest(0, [("m", 0), ("m", 1), ("m", 2)], 4),
        "control", None, 48 + 8 + 3 * 16, 32 + 3 * 8,
        48 + 2 * (16 + 8 + 48), 32 + 2 * 24),
    "replica-push": (
        # primary + epoch, one version token, then the inner sparse push's
        # index list and values verbatim — nothing shared across holders.
        messages.ReplicatedPushRequest(0, _PUSH, 1, 0, {("m", 0): 3}),
        "control", None, 48 + 16 + 8 + 40 + 40, None,
        48 + 2 * (16 + 104), None),
    "batch": (
        messages.BatchRequest([messages.PullRowRequest(0, "m", 0, 10),
                               messages.PushRequest(0, "m", 0, np.ones(10))]),
        "control", None, 48 + 16 + (16 + 80), 32 + 80, None, None),
}


def _all_kinds(base=messages.Request):
    for kind in base.__subclasses__():
        yield kind
        yield from _all_kinds(kind)


@pytest.mark.parametrize("name", sorted(_KINDS))
def test_every_kind_states_its_wire_facts(name):
    message, role, side, wire, response, pair_wire, pair_response = \
        _KINDS[name]
    assert (message.role, message.codec_side) == (role, side)
    assert message.wire_bytes() == wire
    assert message.response_bytes() == response
    if isinstance(message, messages.BatchRequest):
        return  # batches do not nest
    pair = messages.BatchRequest([message, message])
    assert pair.wire_bytes() == pair_wire
    assert pair.response_bytes() == pair_response
    # Asked twice, a message answers the same (the memo holds).
    assert (message.wire_bytes(), message.response_bytes()) == (wire, response)


def test_the_table_is_total_and_roles_partition_the_kinds():
    from repro.ps.server import _HANDLERS

    kinds = set(_all_kinds())
    # A kind added without its row here, or without a handler, fails.
    assert {type(row[0]) for row in _KINDS.values()} == kinds
    assert set(_HANDLERS) == kinds
    by_role = {}
    for kind in kinds:
        assert kind.codec_side in (None, "request", "response")
        by_role.setdefault(kind.role, set()).add(kind)
    assert by_role == {
        messages.READ: {messages.PullRowRequest, messages.PullRangeRequest,
                        messages.AggregateRequest},
        # Stand-in only: never replica-routed, and not a mutation.
        messages.STANDIN_READ: {messages.PullOrCreateRequest},
        messages.MUTATION: {messages.PushRequest, messages.PushRangeRequest,
                            messages.FillRequest, messages.KernelRequest},
        messages.CONTROL: {messages.ClockAdvanceRequest,
                           messages.ReplicatedPushRequest,
                           messages.BatchRequest},
    }
    # Exactly the mutations can be fanned out to a copy.
    from repro.common.errors import PSError
    for message, role, *_sizes in _KINDS.values():
        if role == "mutation":
            messages.ReplicatedPushRequest(1, message, 0, 0, {})
        else:
            with pytest.raises(PSError):
                messages.ReplicatedPushRequest(1, message, 0, 0, {})


def test_a_codec_reprices_exactly_its_side():
    from repro.ps.codecs import make_codec

    fp16 = make_codec("fp16")  # 2 bytes per value, stateless
    pull = messages.PullRowRequest(0, "m", 0, 10)
    assert (pull.wire_bytes(), pull.response_bytes()) == (48, 32 + 80)
    pull.attach_codec(fp16)
    assert (pull.wire_bytes(), pull.response_bytes()) == (48, 32 + 20)
    ranged = messages.PullRangeRequest(0, "m", 0, 5, 25)
    ranged.attach_codec(fp16)
    assert ranged.response_bytes() == 32 + 40
    push = messages.PushRequest(0, "m", 0, np.ones(10))
    assert push.wire_bytes() == 48 + 80
    push.attach_codec(fp16, fp16.encode(push.values))
    assert (push.wire_bytes(), push.response_bytes()) == (48 + 20, None)
    # The encoded size survives the server's decode-before-apply.
    push.materialize()
    assert push.encoded is None and push.wire_bytes() == 48 + 20
    assert np.array_equal(push.values, np.ones(10))


def test_the_three_state_streams_keep_their_prices():
    # 2 rows / 20 floats (160 B) / 2 counters.  Migrate: header + values +
    # 2 words per row + 1 per counter.
    assert messages.replica_migrate_bytes(2, 160, 2) == 48 + 160 + 32 + 16
    # Chain sync: header + primary + epoch, 3 words per row, values,
    # 1 per counter; a cost model's compressed size replaces the raw one.
    assert messages.chain_sync_bytes(2, 20, 2) == 48 + 16 + 48 + 160 + 16
    assert messages.chain_sync_bytes(2, 20, 2, 40) == 48 + 16 + 48 + 40 + 16
    # Chain promote: the ask, then the same state stream as the reply.
    assert messages.chain_promote_bytes(2, 20, 2) == (
        48 + 16, 32 + 48 + 160 + 16)
    # Shard migrate: header + values + a [start, stop) pair per slice.
    assert messages.shard_migrate_bytes(3, 20) == 48 + 160 + 48
    # Lazy register: header + one key per fresh id.
    assert messages.lazy_register_bytes(5) == 48 + 40


def test_ops_flow_through_typed_messages(monkeypatch):
    """Structural check: every client op hands typed Request values to the
    transport — no closures, no direct server calls."""
    cluster, master, client = _rig()
    m = master.create_matrix(20, n_rows=2)
    seen = []
    original = client.transport.send_all

    def spy(requests, **kwargs):
        seen.extend(requests)
        return original(requests, **kwargs)

    monkeypatch.setattr(client.transport, "send_all", spy)
    client.pull_row(m, 0)
    client.push_add(m, 0, np.ones(20))
    client.pull_block(m, [0, 1])
    client.aggregate_row(m, 0, "sum")
    client.execute(lambda arrays: 0.0, [(m, 0)])
    client.fill_row(m, 1, 1.0)
    assert seen
    assert all(isinstance(r, messages.Request) for r in seen)
    kinds = {type(r) for r in seen}
    assert messages.PullRowRequest in kinds
    assert messages.PushRequest in kinds
    assert messages.AggregateRequest in kinds
    assert messages.KernelRequest in kinds
    assert messages.FillRequest in kinds


# -- before/after invariant ---------------------------------------------------

#: Captured from the pre-refactor closure-based RPC path (commit db72004)
#: for this exact workload: 4 executors / 3 servers, seed 7, two SGD
#: epochs of LR on 80x400 sparse data.  The transport refactor must not
#: move a single byte or virtual nanosecond on this path.
#:
#: Re-pinned once on purpose, when the trainer's iteration became one
#: coordinator round (gradient scale + SGD kernel + gradient reset in a
#: single zip).  Two rounds per iteration are gone — the one-operand
#: ``scale`` kernel and the ``zero_grad`` fill, 120 B each (112 B header +
#: one 8 B word) — so 2 rounds x 3 servers x 2 iterations = 12 messages
#: and 1440 B fewer: ``kernel:req`` 12 -> 6 messages, 1488 -> 768 B (the
#: six two-operand SGD descriptors, 128 B each, are what is left);
#: ``fill:req`` 9 -> 3 messages, 1080 -> 360 B (``bind``'s initial zero).
#: Total 55832 -> 54392 B, 124 -> 112 messages, elapsed 3.3703 -> 3.3104
#: ms; every other tag, and the loss, did not move.
GOLDEN_LR_ELAPSED = 0.003310363549999999
GOLDEN_LR_TOTAL_BYTES = 54392.0
GOLDEN_LR_TOTAL_MESSAGES = 112
GOLDEN_LR_BYTES_BY_TAG = {
    "collect:result": 640.0,
    "data-load": 20736.0,
    "fill:req": 360.0,
    "kernel:req": 768.0,
    "ps-allocate": 336.0,
    "pull:req": 7248.0,
    "pull:resp": 6864.0,
    "push:req": 11808.0,
    "routing:req": 448.0,
    "routing:resp": 576.0,
    "task-launch": 4608.0,
}
GOLDEN_LR_MESSAGES_BY_TAG = {
    "collect:result": 8,
    "data-load": 4,
    "fill:req": 3,
    "kernel:req": 6,
    "ps-allocate": 3,
    "pull:req": 24,
    "pull:resp": 24,
    "push:req": 24,
    "routing:req": 4,
    "routing:resp": 4,
    "task-launch": 8,
}


@pytest.mark.parametrize("bulk", [True, False])
def test_lr_epoch_is_identical_to_prerefactor_path(bulk, monkeypatch):
    """The LR epoch's row ops are singleton-per-server, so the refactored
    transport must reproduce the pre-refactor wire traffic and makespan
    exactly — on the phased schedule AND with every fan-out pinned to the
    per-message one."""
    if not bulk:
        monkeypatch.setattr(Transport, "_transmit_bulk",
                            staticmethod(unattempted))
    ctx = make_context(n_executors=4, n_servers=3, seed=7)
    rows, _ = sparse_classification(80, 400, 8, seed=7)
    result = train_logistic_regression(ctx, rows, 400, optimizer="sgd",
                                       n_iterations=2, batch_fraction=0.5,
                                       seed=7)
    assert dict(ctx.metrics.bytes_by_tag) == GOLDEN_LR_BYTES_BY_TAG
    assert dict(ctx.metrics.messages_by_tag) == GOLDEN_LR_MESSAGES_BY_TAG
    assert ctx.metrics.total_bytes() == GOLDEN_LR_TOTAL_BYTES
    assert ctx.metrics.total_messages() == GOLDEN_LR_TOTAL_MESSAGES
    assert ctx.elapsed() == pytest.approx(GOLDEN_LR_ELAPSED, rel=1e-9)
    assert result.final_loss == pytest.approx(0.6760745795596123, rel=1e-9)
    # Nothing on this path ever coalesced.
    assert "coalesced-batches" not in ctx.metrics.counters
