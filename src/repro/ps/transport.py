"""The client-side RPC transport: routing, transfer, service, retry.

This module is the explicit wire between a :class:`~repro.ps.client.PSClient`
and the servers.  The client's job ends at *building* typed
:mod:`~repro.ps.messages` values and grouping them by destination; the
transport owns everything below that line:

- **routing resolution** — the per-matrix layout cache, the routing RPC to
  the coordinator on a cold (or invalidated) entry, and the re-resolution a
  retry performs after a recovery;
- **network transfer** — one NIC booking per outgoing message, request bytes
  charged from the message's own ``wire_bytes()``;
- **server service** — every attempt, first or retry, is served through
  :func:`~repro.ps.server.serve_fast_fanout` on servers resolved through
  the master, an envelope unit by unit; a retry resolves them afresh, so
  it reaches the *current* :class:`~repro.ps.server.PSServer` object — no
  closures over server objects exist anywhere, so a retry can never
  replay work pinned to a pre-failure process;
- **response accounting** — replies depart at the request's service
  completion and are priced by the message's ``response_bytes()``; under
  replication that completion is also handed to
  :meth:`~repro.ps.replication.Replicas.forward`, whose copies leave the
  primary, not this node;
- **the retry loop** — every wire message of a fan-out is tried once,
  then the failed ones (a lost response included: delivery is
  at-least-once) charge :func:`~repro.costs.penalty_for` to the
  client's virtual clock, repair/recover the server through the master, drop the cached
  routing, and **re-send the same message**, in wire order — each re-send
  a fan-out of one on the same phased schedule.

Per-server request coalescing (Section 5.1's fat requests): when one client
op produces several messages for the same server — block pulls/pushes issue
one message per (row, shard) — :meth:`Transport.send_all` wraps each
server's group in a single :class:`~repro.ps.messages.BatchRequest`
envelope: one request header, one NIC booking, shared index lists encoded
once.
"""

from __future__ import annotations

from repro.cluster.cluster import DRIVER
from repro.common.errors import MatrixNotFoundError, NetworkPartitionedError, \
    PSError, ServerDownError
from repro.costs import MAX_OP_RETRIES, REQUEST_HEADER_BYTES, \
    RPC_CPU_SECONDS, penalty_for
from repro.ps import messages
from repro.ps.server import serve_fast_fanout

#: Memoized ``tag -> (tag + ":req", tag + ":resp")`` — tags come from a
#: small fixed vocabulary, so the hot transmit loops never re-concatenate.
_TAG_PAIRS = {}


def _tag_pair(tag):
    pair = _TAG_PAIRS.get(tag)
    if pair is None:
        pair = _TAG_PAIRS[tag] = (tag + ":req", tag + ":resp")
    return pair


class FanoutPlan:
    """One client op's fan-out, as a value.

    The client fills ``requests`` (one typed message per destination),
    ``placements`` (per request, the numpy index expression — a slice, an
    index array, or a ``(row_pos, slice | array)`` pair — locating that
    request's values in the op's array) and, for a sparse plan,
    ``snapshot`` (the index contents it re-verifies before reuse).  The
    transport keeps on the same object what it derives from that exact
    request list: ``outgoing`` (the :meth:`Transport._coalesce` grouping)
    and ``bulk`` (the :meth:`Transport._bulk_plan` phase-1 product, stamped
    with the ``topology_epoch`` it resolved server objects under).  A plan
    that is kept and sent again therefore skips both rebuilds; one that is
    dropped takes its derived state with it.  Under a cost model the
    client stamps ``identity_tags``, the model's verdict
    (:meth:`~repro.ps.costmodel.CostModel.identity_tags`): when set, every
    decision the plan's messages make is identity whatever the regime, so
    the transport records them in one call instead of preparing each
    message, and the client may pool the plan.
    """

    __slots__ = ("requests", "placements", "snapshot", "outgoing", "bulk",
                 "identity_tags")

    def __init__(self, requests, placements, snapshot=None):
        self.requests = requests
        self.placements = placements
        self.snapshot = snapshot
        self.outgoing = None
        self.bulk = None
        self.identity_tags = None


class Transport:
    """One node's typed-message channel to the parameter servers."""

    def __init__(self, cluster, master, node_id):
        self.cluster = cluster
        self.master = master
        self.node_id = node_id
        self._routing = {}
        # A live resize replaces every layout object wholesale; routing
        # cached before the migration would hand out stale shard ranges.
        cluster.topology_change_hooks.append(self.invalidate)

    # -- routing -----------------------------------------------------------

    def layout(self, matrix_id):
        """Resolve a matrix's layout, fetching the routing table once.

        Section 5.1: the PS-master "provides some meta information,
        including the locations and routing tables for PS-client to locate
        parameters."  The first touch of each matrix costs one RPC to the
        coordinator; afterwards the transport routes from its cache — until
        :meth:`invalidate` drops the entry (server recovery), at which
        point the next touch pays the routing RPC again.  A partition that
        drops the routing RPC fails the attempt like any other
        (:meth:`_handle_failure`).
        """
        layout = self._routing.get(matrix_id)
        if layout is None:
            layout = self.master.layout(matrix_id)
            attempt = 0
            while self.node_id != DRIVER:
                try:
                    self._fetch_routing(matrix_id, layout.n_servers)
                    break
                except NetworkPartitionedError as error:
                    attempt += 1
                    self._handle_failure(error, attempt)
            self._routing[matrix_id] = layout
        return layout

    def _fetch_routing(self, matrix_id, n_servers):
        """One routing RPC to the coordinator; blocks this node on it."""
        clock = self.cluster.clock
        network = self.cluster.network
        fetch_start = clock.now(self.node_id)
        arrival = network.transfer(
            self.node_id, DRIVER, REQUEST_HEADER_BYTES,
            tag="routing:req", deliver=False,
        )
        # The master answers from its metadata cache; the response departs
        # when THIS request was served, not when the driver's (unrelated)
        # clock says.
        response = network.transfer(
            DRIVER, self.node_id, messages.routing_response_bytes(n_servers),
            tag="routing:resp", deliver=False,
            depart_at=arrival + RPC_CPU_SECONDS,
        )
        clock.set_at_least(self.node_id, response)
        self.cluster.metrics.observe(
            "routing", clock.now(self.node_id) - fetch_start
        )
        tracer = self.cluster.tracer
        if tracer.enabled:
            tracer.record(self.node_id, "routing", fetch_start, response,
                          cat="op", matrix_id=matrix_id)

    def invalidate(self, matrix_id=None):
        """Drop cached routing for *matrix_id* (or for every matrix).

        Called on the server-recovery retry path so a retried message
        re-resolves routing through the master instead of trusting a table
        that predates the failure; the next :meth:`layout` call pays the
        routing RPC again.
        """
        if matrix_id is None:
            self._routing.clear()
        else:
            self._routing.pop(matrix_id, None)

    # -- sending -----------------------------------------------------------

    def send(self, request):
        """Ship one message; returns ``(value, response_arrival)``.

        ``response_arrival`` is ``None`` for fire-and-forget messages; the
        caller decides when to block on arrivals.
        """
        values, arrivals = self.send_all((request,))
        return values[0], arrivals[0]

    def _coalesce(self, requests):
        """Group *requests* by destination server into wire messages.

        Returns one ``(message, positions)`` entry per server, servers in
        first-appearance order (so also in order of ``positions[0]``),
        ``positions`` indexing into *requests*.  A group of two or more
        becomes one :class:`~repro.ps.messages.BatchRequest` envelope —
        one header and one NIC booking per server; a singleton goes
        stand-alone, so ops that already issue one message per server
        never pay an envelope.
        """
        groups = {}
        for position, request in enumerate(requests):
            groups.setdefault(request.server_index, []).append(position)
        outgoing = []
        for positions in groups.values():
            message = requests[positions[0]] if len(positions) == 1 \
                else messages.BatchRequest([requests[p] for p in positions])
            outgoing.append((message, positions))
        return outgoing

    def send_all(self, requests, plan=None):
        """Ship a message list; returns ``(values, arrivals)`` aligned.

        A cost model first attaches its codecs (decisions key on the
        primary ``server_index`` and the sender's NIC backlog) — or, for a
        *plan* carrying an identity verdict, records its decisions in one
        ``CostModel.record_identity`` call, equal to preparing each
        message.  Under replication
        :meth:`~repro.ps.replication.Replicas.route` then offers every
        read to the holder table, which may send a retargeted copy in its
        place (responses stay positional, so callers are oblivious).  Messages are grouped
        per destination server (:meth:`_coalesce`), the fan-out is traced
        (:meth:`_trace`, while tracing is on), client-side RPC CPU is
        charged once per outgoing transfer, and the routing RPC of every
        cold matrix is paid, in wire order, before anything else touches
        the wire.  The fan-out's
        shard heat is recorded — a first-attempt fact: retries add none —
        and every wire message's first attempt runs on the phased
        schedule (:meth:`_transmit_bulk`); the ones that failed are
        retried one after another, in wire order, each as a fan-out of
        one (:meth:`_retry`).  Under replication each original's
        completion on its primary is then handed to
        :meth:`~repro.ps.replication.Replicas.forward`, which ships the
        replica upkeep from the primaries' nodes and serves the copies through
        this module's :func:`~repro.ps.server.serve_fast_fanout` — the
        writer pays for its originals only.

        *plan* is the :class:`FanoutPlan` whose ``requests`` these are:
        the grouping (and any batch envelopes) is kept on it, so a plan
        that is sent again skips the group/coalesce rebuild.  So is the
        phased schedule's whole phase-1 product (:meth:`_bulk_plan`): it
        depends only on the message list and the server topology, so it
        is computed once and replayed, guarded by
        :attr:`~repro.ps.master.PSMaster.topology_epoch` (a failover swaps
        server objects and must force a rebuild).  Routing never assigns
        to a request, so the plan is used as is unless a read was
        actually rerouted — the derived list is then grouped afresh.
        """
        cluster = self.cluster
        costmodel = cluster.costmodel
        if costmodel is not None:
            tags = None if plan is None else plan.identity_tags
            if tags is None:
                for request in requests:
                    costmodel.prepare(request, self.node_id)
            else:
                costmodel.record_identity(tags)
        replicas = cluster.replicas
        sent = requests if replicas is None else replicas.route(requests)
        if sent is not requests:
            plan = None
        outgoing = None if plan is None else plan.outgoing
        if outgoing is None:
            outgoing = self._coalesce(sent)
            if plan is not None:
                plan.outgoing = outgoing
        trace_parent = self._trace(outgoing) if cluster.tracer.enabled \
            else None
        self._charge_rpc(len(outgoing))
        routing = self._routing
        for message, _positions in outgoing:
            if message.matrix_id is not None \
                    and message.matrix_id not in routing:
                self.layout(message.matrix_id)
        batches = [positions for message, positions in outgoing
                   if type(message) is messages.BatchRequest]
        if batches:
            metrics = cluster.metrics
            metrics.increment("coalesced-batches", len(batches))
            metrics.increment("coalesced-requests", sum(map(len, batches)))
        values = [None] * len(requests)
        arrivals = values[:]
        completions = values[:]
        if outgoing:
            epoch = self.master.topology_epoch
            bulk = None if plan is None else plan.bulk
            if bulk is None or bulk[0] != epoch:
                bulk = self._bulk_plan(outgoing, epoch)
                if plan is not None:
                    plan.bulk = bulk
            if bulk[2]:
                cluster.metrics.record_shard_access_many(bulk[2])
            for entry, error in self._transmit_bulk(
                    outgoing, bulk, values, arrivals, completions,
                    trace_parent):
                self._retry(entry, error, values, arrivals, completions,
                            trace_parent)
        if replicas is not None:
            replicas.forward(requests, completions, serve_fast_fanout)
        return values, arrivals

    def _retry(self, entry, error, values, arrivals, completions,
               trace_parent):
        """Re-send one failed wire message until it goes through.

        A retry is a fan-out of one: each attempt charges the retry
        penalty and repairs (:meth:`_handle_failure`, which raises
        :class:`~repro.common.errors.PSError` once the budget is spent),
        re-resolves routing (paying the routing RPC again after the
        invalidation), and runs ``(entry,)`` through
        :meth:`_transmit_bulk` on a fresh phase-1 product — so the whole
        message's bytes are paid again and it reaches the *current*
        server object (a recovery replaces it).  A failure anywhere in
        the message, halfway through an envelope or on the response after
        the server applied it, fails the attempt whole.
        """
        message = entry[0]
        retry = (entry,)
        attempt = 0
        while error is not None:
            attempt += 1
            self._handle_failure(error, attempt, message.server_index,
                                 message.matrix_id)
            if message.matrix_id is not None:
                self.layout(message.matrix_id)
            failed = self._transmit_bulk(
                retry, self._bulk_plan(retry, self.master.topology_epoch),
                values, arrivals, completions, trace_parent)
            error = failed[0][1] if failed else None

    def _trace(self, outgoing):
        """Stamp a fan-out's causal context and enrich its op span.

        Called once per fan-out while tracing is on, before any attempt
        runs: every wire message and every envelope sub-request
        gets ``trace_ctx = (trace_id, op span id)`` (``None`` outside an
        op span), the parent of the server CPU slots, both NIC bookings
        and any forwarded copy; the op span adds the fan-out's wire
        messages, bytes and coalesced requests to its args.  Sizes come
        from the memoized wire formulas, which never read the stamp.
        Returns the op span's id, the fan-out's one ``trace_parent``.
        """
        span = self.cluster.tracer.current(self.node_id)
        if span is None:
            ctx, args = None, {}  # nothing to parent to or enrich
        else:
            ctx, args = (span.trace_id, span.span_id), span.args
        for message, _positions in outgoing:
            message.trace_ctx = ctx
            if type(message) is messages.BatchRequest:
                for sub in message.requests:
                    sub.trace_ctx = ctx
            args["fanout"] = args.get("fanout", 0) + 1
            args["bytes"] = (args.get("bytes", 0) + message.wire_bytes()
                             + (message.response_bytes() or 0))
            if message.message_count() > 1:
                args["coalesced"] = (args.get("coalesced", 0)
                                     + message.message_count())
        return None if ctx is None else ctx[1]

    # -- the phased schedule -------------------------------------------------

    def _price(self, wire_messages):
        """Wire sizes and shard-heat entries for a run of wire messages —
        what must be known before anything is booked.

        Returns ``(request_sizes, response_sizes, shard_entries)``, the
        sizes aligned with *wire_messages*.  A shard entry is
        ``(matrix_id, heat_server, n_values, nbytes)``: one access per
        wire message and distinct shard key it touches, in
        first-appearance order, with the summed value count — matching the
        fat block request an envelope replaces.  Byte volume (request +
        response) comes from the requests' own wire formulas; an envelope
        attributes each sub-request its *standalone-equivalent* bytes.
        Shard heat counts accesses, not envelopes, and the hot-key
        classifier and the cost model both read it, so it must not depend
        on how a fan-out was packed into envelopes.  A replica-routed read (``replica_of`` set) is charged to the
        *primary* shard key: rerouting must never drain the heat signal
        that justified the replica.  Control messages (``matrix_id``
        ``None``) touch no shard.  Per-key accumulation is
        order-insensitive for these integer-valued quantities, so feeding
        a whole fan-out's entries to one ``record_shard_access_many`` is
        bit-identical to recording message by message.
        """
        request_sizes = []
        response_sizes = []
        shard_entries = []
        for message in wire_messages:
            request_bytes = message.wire_bytes()
            response_bytes = message.response_bytes()
            request_sizes.append(request_bytes)
            response_sizes.append(response_bytes)
            if type(message) is messages.BatchRequest:
                by_shard = {}
                for request in message.requests:
                    if request.matrix_id is None:
                        continue
                    key = (request.matrix_id,
                           request.server_index if request.replica_of is None
                           else request.replica_of)
                    n_values, nbytes = by_shard.get(key, (0, 0.0))
                    by_shard[key] = (
                        n_values + request.n_values,
                        nbytes + request.wire_bytes()
                        + (request.response_bytes() or 0),
                    )
                for key, (n_values, nbytes) in by_shard.items():
                    shard_entries.append((key[0], key[1], n_values, nbytes))
            elif message.matrix_id is not None:
                shard_entries.append((
                    message.matrix_id,
                    message.server_index if message.replica_of is None
                    else message.replica_of,
                    message.n_values, request_bytes + (response_bytes or 0),
                ))
        return request_sizes, response_sizes, shard_entries

    def _bulk_plan(self, outgoing, epoch):
        """Phase 1's reusable product for one fan-out (see
        :meth:`_transmit_bulk`): everything that depends only on the
        message list and the server topology.

        Also flattens the fan-out into the *units* phase 2 serves — one
        per stand-alone message, one per sub-request of an envelope, so
        ``unit_positions`` (where each unit's value goes) is the wire
        messages' position lists end to end and ``lasts[i]`` the index of
        wire message *i*'s last unit.  Without an envelope units and
        messages coincide and the per-message lists are aliased.
        """
        master_servers = self.master.servers
        msgs = [message for message, _positions in outgoing]
        request_sizes, response_sizes, shard_entries = self._price(msgs)
        servers = []
        fan_items = []
        responses = []
        unit_positions = []
        lasts = []
        last = -1
        for (message, positions), request_bytes, response_bytes \
                in zip(outgoing, request_sizes, response_sizes):
            server = master_servers[message.server_index]
            servers.append(server)
            tag_req, tag_resp = _tag_pair(message.tag)
            count = len(positions)
            fan_items.append((server.node_id, request_bytes, tag_req, count))
            responses.append(
                None if response_bytes is None
                else (server.node_id, response_bytes, tag_resp, count)
            )
            unit_positions += positions
            last += count
            lasts.append(last)
        if len(unit_positions) == len(msgs):
            return (epoch, fan_items, shard_entries, responses, lasts,
                    unit_positions, servers, msgs)
        unit_servers = []
        unit_msgs = []
        for message, server in zip(msgs, servers):
            if type(message) is messages.BatchRequest:
                unit_msgs += message.requests
                unit_servers += [server] * len(message.requests)
            else:
                unit_msgs.append(message)
                unit_servers.append(server)
        return (epoch, fan_items, shard_entries, responses, lasts,
                unit_positions, unit_servers, unit_msgs)

    def _transmit_bulk(self, outgoing, bulk, values, arrivals, completions,
                       trace_parent=None):
        """Transmit a fan-out in three phases instead of N round trips —
        every attempt's one schedule, a retry being a fan-out of one.

        *bulk* is *outgoing*'s phase-1 product (:meth:`_bulk_plan`).
        Phase 1 books every request transfer through one
        :meth:`~repro.cluster.network.NetworkModel.transfer_many` call,
        phase 2 serves every unit through
        :func:`~repro.ps.server.serve_fast_fanout` (capturing each
        completion immediately, as the interleaved schedule would see it),
        and phase 3 books every response through one ``transfer_gather``,
        each envelope's departing at its *last* unit's completion.  The
        per-direction NIC timelines are disjoint across phases and
        order-insensitive within them, so virtual times, bytes and counters
        are bit-identical to the interleaved reference in
        ``tests/test_fast_lane.py`` (request, service, response, next
        message) — only the Python call count drops.  Spans are too: every
        booking parents to *trace_parent*, the fan-out's op span.  Codecs
        change nothing here: the cost model attached them before routing,
        so every size is fixed before phase 1, and the lane decodes an
        encoded unit before applying it.  A wire message fails in the
        phase that meets its failure: a dropped request is never served,
        a down server or missing shard stops its envelope, a dropped
        response comes after service.

        Fills *values*, *arrivals* and *completions* (each wire message's
        last-unit completion, for
        :meth:`~repro.ps.replication.Replicas.forward`) at the positions of the wire messages that went through, and
        returns those that failed — ``((message, positions), error)`` per
        message, in wire order — for the caller to re-send under the
        retry policy.
        """
        cluster = self.cluster
        network = cluster.network
        node_id = self.node_id
        (_, fan_items, _, responses, lasts, unit_positions, unit_servers,
         unit_msgs) = bulk
        unit_arrivals = network.transfer_many(node_id, fan_items,
                                              trace_parent)
        if len(unit_msgs) > len(fan_items):
            # Only an envelope's first unit arrives off the NIC; the rest
            # chain on their predecessor's completion.
            head = 0
            chained = [None] * len(unit_msgs)
            for arrival, last in zip(unit_arrivals, lasts):
                chained[head] = arrival
                head = last + 1
            unit_arrivals = chained

        unit_values, unit_completions = serve_fast_fanout(
            cluster, unit_servers, unit_msgs, unit_arrivals
        )
        for position, value in zip(unit_positions, unit_values):
            values[position] = value

        failed = []
        response_items = []
        response_entries = []
        for entry, last, response in zip(outgoing, lasts, responses):
            completion = unit_completions[last]
            if completion is None:
                failed.append((entry, unit_values[last]))
                continue
            for p in entry[1]:
                completions[p] = completion
            if response is not None:
                response_items.append(response + (completion,))
                response_entries.append(entry)
        if response_items:
            recv_times = network.transfer_gather(node_id, response_items,
                                                 trace_parent)
            for entry, response_arrival in zip(response_entries, recv_times):
                if response_arrival.__class__ is NetworkPartitionedError:
                    failed.append((entry, response_arrival))
                else:
                    for p in entry[1]:
                        arrivals[p] = response_arrival
        if failed:
            # Lost responses were listed after phase 2's failures; retries
            # go in wire order, which ``_coalesce`` made first-position order.
            failed.sort(key=lambda item: item[0][1][0])
        return failed

    # -- plumbing ----------------------------------------------------------

    def _charge_rpc(self, n_transfers):
        """Charge the client CPU for serializing *n_transfers* requests."""
        if n_transfers:
            self.cluster.charge_seconds(
                self.node_id, RPC_CPU_SECONDS * n_transfers, tag="rpc-cpu"
            )

    def _handle_failure(self, exc, attempt, server_index=None, matrix_id=None):
        """Recover from failed attempt number *attempt*; charges the retry
        penalty, or raises :class:`~repro.common.errors.PSError` once the
        budget is spent (*server_index* ``None``: the routing RPC).

        The failure-detection timeout and the exponential backoff are
        charged to the client's *virtual* clock (a retried message takes
        longer in simulated time), then the failure is repaired: a down
        server is recovered by the master, a stale shard set is reconciled,
        and a partition is simply waited out.  Cached routing for the
        touched matrix is dropped either way, so the next attempt
        re-resolves through the master.
        """
        metrics = self.cluster.metrics
        if attempt > MAX_OP_RETRIES:
            metrics.increment("op-retries-exhausted")
            peer = (DRIVER if server_index is None
                    else self.master.server(server_index).node_id)
            raise PSError("%s kept failing after %d attempts: %r"
                          % (peer, attempt, exc)) from exc
        metrics.increment("op-retries")
        penalty_start = self.cluster.clock.now(self.node_id)
        self.cluster.charge_seconds(
            self.node_id, penalty_for(attempt),
            tag="retry-backoff",
        )
        tracer = self.cluster.tracer
        if tracer.enabled:
            tracer.record(
                self.node_id, "retry-backoff", penalty_start,
                self.cluster.clock.now(self.node_id), cat="op",
                attempt=attempt, error=type(exc).__name__,
                server_index=server_index,
            )
        if isinstance(exc, ServerDownError):
            self.master.recover(server_index)
            metrics.increment("routing-invalidations")
        elif isinstance(exc, MatrixNotFoundError):
            self.master.repair(server_index)
            metrics.increment("routing-invalidations")
        # NetworkPartitionedError: nothing to repair — the backoff advances
        # the client clock toward the end of the partition window.
        if matrix_id is not None:
            self.invalidate(matrix_id)
