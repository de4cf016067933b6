"""Typed PS protocol messages: every wire fact, stated once.

The simulator does not serialize real bytes; it charges the sizes a compact
binary protocol (PS2 uses Netty + Protobuf) would put on the wire.  Every
client-to-server interaction is a first-class :class:`Request` value: the
client builds messages, the transport ships them (and re-ships them on
retry), and the server lane serves them through its handler table.  What a
message kind *is* — who may serve it, what it carries, where a codec bites
— is declared on its class below and nowhere else; every other module
reads these declarations.

Wire model
----------

A wire message is a *group*: the ordered requests one send ships to one
server (:meth:`~repro.ps.transport.Transport._coalesce`).  A group of one
costs what its request costs alone::

    REQUEST_HEADER_BYTES + shared_payload + private_payload

where the shared payload is a component several requests of one group can
encode once (the column-index list of a block op) and the private payload
is per-request data (values, operand references).  A larger group — the
per-server coalescing lever — costs (:func:`wire_bytes`)::

    REQUEST_HEADER_BYTES                        # one header
    + sum(distinct shared payloads)             # index lists shipped once
    + sum(SUBREQUEST_HEADER_BYTES + private)    # per-request descriptor + data

so coalescing k requests to one server saves ``(k-1)`` full request headers
plus ``(k-1)`` per-transfer envelope overheads at the NIC, and deduplicates
shared index lists — exactly the header amortization the paper's fat-request
design exploits.  Replies are positional (aligned with the group's order),
so a group's reply pays one response header plus the concatenated value
payloads (:func:`response_bytes`).

Message kinds
-------------

``I`` = :data:`INDEX_BYTES`, ``F`` = :data:`FLOAT_BYTES`, ``n`` =
``n_values``, ``vb`` = the message's ``value_bytes`` (``F`` unless a block
op ships narrower values), ``idx`` = ``len(indices)``.  *Role* is what the
replication layer may do with the kind; *shared* the payload a group
shares; *reply* what rides back behind a :data:`RESPONSE_HEADER_BYTES`
header (``-`` = fire-and-forget); *codec* the side a wire codec re-prices.

==============  ============  ======  =================  =========  ========
kind (``op``)   role          shared  private payload    reply      codec
==============  ============  ======  =================  =========  ========
pull-row        read          idx·I   -                  n·vb       response
pull-or-create  standin-read  -       2I + F             I + n·F    -
push            mutation      idx·I   values·vb          -          request
aggregate       read          -       I                  F          -
kernel          mutation      -       operands·I         scalars·F  -
fill            mutation      -       F                  -          -
clock-advance   control       -       I + keys·2I        keys·F     -
replica-push    control       -       2I + versions·I    -          -
                                      + inner's payloads
==============  ============  ======  =================  =========  ========

(``pull-or-create`` carries row id, init code and scale, and its reply a
created-marker word; a ``kernel`` replies only when ``wait_response``; an
encoded ``push`` pays its encoded size instead of ``values·vb``, a coded
pull reply ``codec.encoded_bytes(n)`` instead of ``n·vb``.)

State streams
-------------

Four bulk shard-state transfers and one control report are priced here
too; no server handler ever serves them, so they are
functions, not message kinds.  ``rows``/``versions`` count the row
descriptors and mutation counters carried, ``values`` is the value
payload in bytes.

==================  ====================================================
stream (tag)        bytes
==================  ====================================================
``replica-migrate`` request header + values + rows·2I + versions·I
``chain-sync``      request header + 2I + rows·3I + values + versions·I
``chain-promote``   request header + 2I out; response header + rows·3I
                    + values + versions·I back
``shard-migrate``   request header + values + slices·2I
``lazy-register``   request header + rows·I
==================  ====================================================

The first and second still price the same state differently (row
descriptors of 2 vs 3 words, no fencing words on a migrate); unifying them
moves virtual numbers and is left to a design-change PR.
"""

from __future__ import annotations

import copy

from repro.common.errors import PSError
from repro.costs import FLOAT_BYTES, INDEX_BYTES, REQUEST_HEADER_BYTES, \
    RESPONSE_HEADER_BYTES, ROUTING_ENTRY_BYTES, SUBREQUEST_HEADER_BYTES


#: Message roles — what the replication layer may do with a kind: serve it
#: from any valid copy of the shard; serve it from a chain copy, but only
#: while the primary is down (creation stays the primary's job); fan its
#: effect out to every copy; or nothing (control-plane and induced traffic
#: is never rerouted and never fanned out).
READ = "read"
STANDIN_READ = "standin-read"
MUTATION = "mutation"
CONTROL = "control"


def routing_response_bytes(n_servers):
    """The master's routing-table reply: header + one entry per server.

    The routing RPC is the one exchange with no :class:`Request` class —
    it goes to the coordinator, not to a server.
    """
    return RESPONSE_HEADER_BYTES + ROUTING_ENTRY_BYTES * int(n_servers)


# -- state streams -----------------------------------------------------------


def replica_migrate_bytes(n_rows, value_bytes, n_versions):
    """One hot-key replica install (tag ``replica-migrate``): the row
    values plus a ``[start, stop)`` descriptor per row and one token per
    carried mutation counter."""
    return (REQUEST_HEADER_BYTES + int(value_bytes)
            + int(n_rows) * 2 * INDEX_BYTES + int(n_versions) * INDEX_BYTES)


def _chain_state_bytes(n_rows, n_values, n_versions, value_bytes):
    """One chain state stream: per-row descriptors (row id + ``[start,
    stop)``), the row values, and one token per carried counter.
    *value_bytes* prices the *n_values* floats — ``None`` for the raw
    payload, else the cost model's compressed size for them."""
    if value_bytes is None:
        value_bytes = int(n_values) * FLOAT_BYTES
    return (int(n_rows) * 3 * INDEX_BYTES + int(value_bytes)
            + int(n_versions) * INDEX_BYTES)


def chain_sync_bytes(n_rows, n_values, n_versions, value_bytes=None):
    """One chain install or refresh (tag ``chain-sync``), primary to
    successor, fire-and-forget: primary index + fencing epoch, then the
    state stream."""
    return (REQUEST_HEADER_BYTES + 2 * INDEX_BYTES
            + _chain_state_bytes(n_rows, n_values, n_versions, value_bytes))


def chain_promote_bytes(n_rows, n_values, n_versions, value_bytes=None):
    """One chain promotion round trip (tag ``chain-promote``) as
    ``(request, response)``: the replacement names the failed primary and
    the epoch whose copies it wants; the surviving successor streams the
    state back, sized like a :func:`chain_sync_bytes` payload."""
    return (REQUEST_HEADER_BYTES + 2 * INDEX_BYTES,
            RESPONSE_HEADER_BYTES
            + _chain_state_bytes(n_rows, n_values, n_versions, value_bytes))


def shard_migrate_bytes(n_slices, n_values):
    """One live-resize stream (tag ``shard-migrate``) from one source
    server to one target: the slice values plus a ``[start, stop)``
    descriptor per moved slice."""
    return (REQUEST_HEADER_BYTES + int(n_values) * FLOAT_BYTES
            + int(n_slices) * 2 * INDEX_BYTES)


def lazy_register_bytes(n_rows):
    """A client's report of the lazy rows its get-or-create round
    materialized (tag ``lazy-register``), to the coordinator: one key per
    fresh id."""
    return REQUEST_HEADER_BYTES + int(n_rows) * INDEX_BYTES


# -- typed requests -----------------------------------------------------------


class Request:
    """One typed client-to-server RPC message.

    A request is a plain value: it knows its destination
    (``server_index``), its metrics tag, its own wire size, and — when it
    expects a reply — the size of that reply.  It carries no references to
    server objects or closures, so the transport can re-resolve the serving
    server and re-send the *same message* on every retry attempt.

    A kind states its wire facts as class attributes (the table in the
    module docstring, one row per subclass) and this base derives every
    size from them; a kind whose private payload or scalar reply depends
    on instance data overrides :meth:`payload_bytes` /
    :meth:`response_bytes` with the one formula.

    ``n_values`` is the number of parameter values the request touches
    (hot-shard telemetry; also the length of the value payload a pull
    brings back).

    ``replica_of`` is ``None`` for a normal request; a read the
    replication routers reroute to a copy is sent as a
    :meth:`retargeted` copy whose ``replica_of`` is the *primary* server
    index — the serving server uses it to look up its replica copy, and
    the hot-shard telemetry keeps attributing the access to the logical
    (primary) shard key so routing cannot drain the very heat signal that
    created the replica.

    ``trace_ctx`` is the causal-tracing context ``(trace_id,
    parent_span_id)`` the transport stamps on outgoing messages when
    tracing is enabled (``None`` otherwise).  It is **never** part of any
    wire formula: real tracers piggyback a few header bytes, but here the
    invariant that traced runs are bit-identical to untraced runs is worth
    more than that fidelity — no ``wire_bytes()`` / ``response_bytes()``
    implementation may read it.

    ``codec`` is the wire codec (:mod:`repro.ps.codecs`) the cost model
    attached through :meth:`attach_codec`, or ``None`` for the identity
    wire format.  Unlike ``trace_ctx`` it *is* a formula input: a push's
    payload is priced at its encoded size and a pull's response at the
    codec's fixed rate.  ``None`` keeps every formula bit-identical to a
    codec-free build.
    """

    __slots__ = ("server_index", "matrix_id", "tag", "n_values", "replica_of",
                 "trace_ctx", "codec", "_wb", "_rb")

    op = "?"

    #: Role: one of :data:`READ`, :data:`STANDIN_READ`, :data:`MUTATION`,
    #: :data:`CONTROL`.
    role = CONTROL

    #: Codec side: ``None``, ``"request"`` (the value payload ships
    #: encoded) or ``"response"`` (the reply is priced at the codec's rate).
    codec_side = None

    #: Layout.  ``indices`` is the ``int64`` array of global columns a
    #: group may share (``None``: nothing to share); the server offsets
    #: it by its shard's start.  The layout builds it, never the caller's
    #: own array, and it is immutable once a message holds it: pooled
    #: plans send their messages again.  A block op's messages to one
    #: server hold the same array for every row, the one identity
    #: :func:`wire_bytes` keys on.
    indices = None
    #: Private payload bytes that do not depend on instance data.
    fixed_payload_bytes = 0
    #: Bytes per value of the value payload, whichever way it travels.
    value_bytes = FLOAT_BYTES
    #: Whether ``n_values`` values ride the reply, and the fixed bytes
    #: beside them.
    returns_values = False
    reply_fixed_bytes = 0

    def __init__(self, server_index, matrix_id, tag, n_values=0):
        self.server_index = int(server_index)
        self.matrix_id = matrix_id
        self.tag = tag
        self.n_values = int(n_values)
        self.replica_of = None
        self.trace_ctx = None
        self.codec = None
        # Wire-size memos (0 = not computed; real sizes are positive,
        # ``None`` is a computed "no reply").  Safe because every size
        # input (n_values, payload lengths, value_bytes) is fixed at
        # construction — pooled requests only swap same-length value views
        # between sends — and :meth:`attach_codec` resets them.
        self._wb = 0
        self._rb = 0

    # -- wire accounting ---------------------------------------------------

    def shared_payload_bytes(self):
        """Bytes of the shareable component (0 when there is none)."""
        if self.indices is None:
            return 0
        return len(self.indices) * INDEX_BYTES

    def payload_bytes(self):
        """Private payload bytes beyond header and shared component."""
        return self.fixed_payload_bytes

    def wire_bytes(self):
        """Total request bytes when sent standalone (memoized)."""
        wb = self._wb
        if not wb:
            wb = self._wb = (REQUEST_HEADER_BYTES
                             + self.shared_payload_bytes()
                             + self.payload_bytes())
        return wb

    def response_bytes(self):
        """Reply size, or ``None`` for fire-and-forget requests (memoized)."""
        rb = self._rb
        if rb == 0:
            rb = None
            if self.returns_values:
                rb = RESPONSE_HEADER_BYTES + self.reply_fixed_bytes + (
                    self.n_values * self.value_bytes if self.codec is None
                    else self.codec.encoded_bytes(self.n_values))
            self._rb = rb
        return rb

    def attach_codec(self, codec):
        """Take *codec* for the reply (``codec_side == "response"``): the
        server quantizes at serve time and the reply is re-priced at the
        codec's fixed rate."""
        self.codec = codec
        self._rb = 0

    def materialize(self):
        """Decode any encoded payload in place before the server applies.

        Base requests carry no encoded payload (a pull's ``codec`` only
        shapes the *response* size); :class:`PushRequest` overrides this
        to replace its encoded values with the decoded array.  Idempotent,
        so retries that re-serve the same message are safe.
        """

    def retargeted(self, server_index):
        """A copy of this primary-addressed read, sent to the copy of its
        shard that *server_index* holds.  The original is left as it was,
        so a pooled request routes afresh on every send; sizes are
        unchanged, so the copy keeps the size memos."""
        clone = copy.copy(self)
        clone.server_index = int(server_index)
        clone.replica_of = self.server_index
        return clone

    def __repr__(self):
        return "%s(server=%d, matrix=%r, tag=%r)" % (
            type(self).__name__, self.server_index, self.matrix_id, self.tag,
        )


class PullRowRequest(Request):
    """Pull one row's local shard, whole (dense) or selected columns.

    ``n_values`` is the number of values the server will return (the shard
    width for a dense pull, ``len(indices)`` for a sparse one) — the client
    knows it from the routing table, and the response is priced from it.
    ``value_bytes`` overrides the per-value response size (PS2's LDA ships
    counts as 32-bit integers — Section 6.3.3 message compression).
    """

    __slots__ = ("row", "indices", "value_bytes")

    op = "pull-row"
    role = READ
    codec_side = "response"
    returns_values = True

    def __init__(self, server_index, matrix_id, row, n_values, indices=None,
                 value_bytes=FLOAT_BYTES, tag="pull"):
        super().__init__(server_index, matrix_id, tag, n_values)
        self.row = int(row)
        self.indices = indices
        self.value_bytes = int(value_bytes)


class PullOrCreateRequest(Request):
    """Pull one embedding row, creating it server-side if it is unseen.

    The lazy-table read path (ElasticDL's ``get_or_create``): online
    requests may reference ids no training pass ever touched, so the
    *server* owns initialization — if the row's shard is absent it is
    allocated from the table's deterministic per-row RNG stream (the same
    discipline :meth:`PSMaster.recover` replays, so creation, migration
    and recovery all materialize bit-identical values) and the freshly
    initialized values come back like any other pull.

    Wire accounting is honest but *deterministic*: the request carries the
    row id plus the init descriptor (init code + scale — the server cannot
    create without them), and the response always carries a created-marker
    word on top of the value payload.  The client prices the response
    before sending and cannot know whether creation will happen, so the
    marker is part of the fixed response layout rather than a
    data-dependent size — the create-path bytes are on the wire ledger
    either way.
    """

    __slots__ = ("row", "init", "scale")

    op = "pull-or-create"
    role = STANDIN_READ
    #: Row id + init code word + the init scale.
    fixed_payload_bytes = 2 * INDEX_BYTES + FLOAT_BYTES
    returns_values = True
    reply_fixed_bytes = INDEX_BYTES  # the created-marker word

    def __init__(self, server_index, matrix_id, row, n_values, init="random",
                 scale=0.01, tag="pull-create"):
        super().__init__(server_index, matrix_id, tag, n_values)
        self.row = int(row)
        self.init = init
        self.scale = float(scale)


class PushRequest(Request):
    """Push a dense or sparse delta into one row (fire-and-forget).

    ``mode`` is ``"add"`` (accumulate) or ``"assign"`` (overwrite);
    ``value_bytes`` supports compressed block pushes.

    When the cost model attached a codec, ``encoded`` holds the encoded
    payload between the client's send and the server's service, and
    ``_enc_nbytes`` its honest wire size.  ``_enc_nbytes`` survives
    :meth:`materialize` so post-apply pricing (replica copies)
    still charges the encoded size the wire actually carried.
    """

    __slots__ = ("row", "values", "indices", "mode", "value_bytes",
                 "encoded", "_enc_nbytes")

    op = "push"
    role = MUTATION
    codec_side = "request"

    def __init__(self, server_index, matrix_id, row, values, indices=None,
                 mode="add", value_bytes=FLOAT_BYTES, tag="push"):
        if mode not in ("add", "assign"):
            raise PSError("unknown push mode %r" % (mode,))
        super().__init__(server_index, matrix_id, tag, len(values))
        self.row = int(row)
        self.values = values
        self.indices = indices
        self.mode = mode
        self.value_bytes = int(value_bytes)
        self.encoded = None
        self._enc_nbytes = 0

    def payload_bytes(self):
        if self._enc_nbytes:
            return self._enc_nbytes
        return len(self.values) * self.value_bytes

    def attach_codec(self, codec, encoded):
        """Take *codec* for the value payload (``codec_side ==
        "request"``): *encoded* is ``codec.encode(values)``, shipped in
        place of the values and priced at its honest size."""
        self.codec = codec
        self.encoded = encoded
        self._enc_nbytes = encoded.nbytes
        self._wb = 0

    def materialize(self):
        encoded = self.encoded
        if encoded is not None:
            self.values = self.codec.decode(encoded)
            self.encoded = None


class AggregateRequest(Request):
    """Server-side whole-shard aggregate; only a scalar travels back."""

    __slots__ = ("row", "kind")

    op = "aggregate"
    role = READ
    fixed_payload_bytes = INDEX_BYTES  # the op descriptor's operand reference

    def __init__(self, server_index, matrix_id, row, kind, n_values=0,
                 tag="rowagg"):
        super().__init__(server_index, matrix_id, tag, n_values)
        self.row = int(row)
        self.kind = kind

    def response_bytes(self):
        return RESPONSE_HEADER_BYTES + FLOAT_BYTES  # one partial scalar


class KernelRequest(Request):
    """Execute a kernel over co-located rows; scalars (if any) come back.

    Only the op descriptor crosses the wire — this is the DCV column-access
    fast path.  ``wait_response=False`` marks pure-mutation kernels, which
    are fire-and-forget like pushes.
    """

    __slots__ = ("kernel", "operands", "args", "flops", "n_response_scalars",
                 "wait_response")

    op = "kernel"
    role = MUTATION

    def __init__(self, server_index, kernel, operands, args=None, flops=None,
                 n_response_scalars=1, wait_response=True, n_values=0,
                 tag="kernel"):
        super().__init__(server_index, operands[0][0], tag, n_values)
        self.kernel = kernel
        self.operands = operands
        self.args = args
        self.flops = flops
        self.n_response_scalars = int(n_response_scalars)
        self.wait_response = bool(wait_response)

    def payload_bytes(self):
        return len(self.operands) * INDEX_BYTES

    def response_bytes(self):
        if not self.wait_response:
            return None
        return RESPONSE_HEADER_BYTES + self.n_response_scalars * FLOAT_BYTES


class FillRequest(Request):
    """Set every element of a row's local shard (fire-and-forget)."""

    __slots__ = ("row", "value")

    op = "fill"
    role = MUTATION
    fixed_payload_bytes = FLOAT_BYTES  # the fill value itself

    def __init__(self, server_index, matrix_id, row, value, n_values=0,
                 tag="fill"):
        super().__init__(server_index, matrix_id, tag, n_values)
        self.row = int(row)
        self.value = float(value)


class ClockAdvanceRequest(Request):
    """A worker's logical-clock tick: exchange version vectors for cached rows.

    Sent by a :class:`~repro.ps.cache.WorkerCache` at every clock advance,
    carrying the worker's new clock plus the ``(matrix_id, row)`` keys it
    holds cached on this server; the server replies with its current
    ``(epoch, counter)`` version token per key.  The cache drops entries
    whose server epoch changed (the server was recovered — its state may
    have rolled back to a checkpoint, so age-based staleness accounting is
    void) and lets the rest age out under the staleness bound.

    ``matrix_id`` is ``None``: the message is a control-plane exchange, not
    an access of any one matrix — the transport skips routing resolution
    and hot-shard accounting for it, exactly like routing RPCs.
    """

    __slots__ = ("keys", "clock")

    op = "clock-advance"

    def __init__(self, server_index, keys, clock, tag="clock-advance"):
        super().__init__(server_index, None, tag, 0)
        self.keys = list(keys)
        self.clock = int(clock)

    def payload_bytes(self):
        # The clock value plus one (matrix_id, row) pair per cached key.
        return INDEX_BYTES + len(self.keys) * 2 * INDEX_BYTES

    def response_bytes(self):
        # One packed (epoch, counter) token per key.
        return RESPONSE_HEADER_BYTES + len(self.keys) * FLOAT_BYTES


class ReplicatedPushRequest(Request):
    """One copy of an applied mutation, forwarded by its primary to one
    replica holder (hot-key or chain; fire-and-forget).

    Wraps the *inner* message (any kind whose role is :data:`MUTATION`)
    that the primary applied and re-targets it at a holder.  Only the
    primary can build it: the copy carries the fencing token that
    merges replication with the version machinery — the primary's
    ``epoch`` plus its post-apply per-row mutation ``versions`` — and
    :meth:`repro.ps.replication.Replicas.forward` sends it from the
    primary's node once the original completed there.  A holder applies the inner
    mutation only when its install epoch matches and its row counters are
    behind the recorded versions — so a redelivery after a
    crash-triggered re-install (which already copied the mutated primary
    state) is skipped instead of double-applied, and a copy raced by a
    primary recovery (whose rollback also lost the mutation) is fenced
    instead of resurrected — and then as many times as the primary
    applied it: the counters' difference over the original's own bumps
    of the row, two for a mutation the transport re-delivered.

    ``matrix_id`` is ``None``: like clock-advance renewals, a copy is
    induced (not demand) traffic — it never enters routing resolution or
    hot-shard accounting, so replication can never feed its own heat
    signal.  ``trace_ctx`` is the original's: the copy's NIC and CPU
    spans belong to the client op that caused the write.
    """

    __slots__ = ("inner", "primary_index", "epoch", "versions")

    op = "replica-push"

    def __init__(self, server_index, inner, primary_index, epoch, versions,
                 tag="replica-push"):
        if inner.role != MUTATION:
            raise PSError("cannot fan out %r" % (type(inner).__name__,))
        super().__init__(server_index, None, tag, 0)
        self.trace_ctx = inner.trace_ctx
        self.inner = inner
        self.primary_index = int(primary_index)
        self.epoch = int(epoch)
        #: ``{(matrix_id, row): counter}`` — the primary's post-apply
        #: mutation counters for every row the inner message touches.
        self.versions = dict(versions)

    def payload_bytes(self):
        # Primary index + epoch + one version token per touched row, then
        # the inner mutation verbatim (its shared component is not shared
        # across fan-out targets, so it rides as private payload here).
        return (2 * INDEX_BYTES + len(self.versions) * INDEX_BYTES
                + self.inner.shared_payload_bytes()
                + self.inner.payload_bytes())


# -- wire messages ------------------------------------------------------------


def wire_bytes(group):
    """Request bytes of one wire message, the *group* of requests one send
    ships to one server: a lone request's own size, else one header, each
    distinct ``(matrix_id, id(indices))`` index list once — the layout
    builds one array per server for every row of a block op, never the
    caller's — and a descriptor plus private payload per request."""
    if len(group) == 1:
        return group[0].wire_bytes()
    total = REQUEST_HEADER_BYTES
    seen = set()
    for request in group:
        total += SUBREQUEST_HEADER_BYTES + request.payload_bytes()
        if request.indices is not None:
            key = (request.matrix_id, id(request.indices))
            if key not in seen:
                seen.add(key)
                total += request.shared_payload_bytes()
    return total


def response_bytes(group):
    """Reply bytes of one wire message: a lone request's own reply size,
    else one response header plus every reply's payload, positionally —
    ``None`` when no request in *group* replies."""
    if len(group) == 1:
        return group[0].response_bytes()
    replies = [request.response_bytes() for request in group]
    replies = [reply for reply in replies if reply is not None]
    if not replies:
        return None
    return RESPONSE_HEADER_BYTES + sum(
        reply - RESPONSE_HEADER_BYTES for reply in replies)
