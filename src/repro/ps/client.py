"""PS-client: the bridge between a worker (or the coordinator) and servers.

Every executor hosts one client (Section 5.1).  The client's job is to turn
each PS op into typed :mod:`~repro.ps.messages` values — one per (row,
shard) destination — hand them to its :class:`~repro.ps.transport.Transport`
and assemble the responses.  Routing resolution, network transfer, server
dispatch, response accounting and the retry loop all live in the transport;
nothing in this module constructs closures over server objects or touches a
``PSServer`` directly.  Sparse ("only the needed parameters") pulls and
pushes are first-class, since the paper credits part of PS2's win over
Petuum to exactly that.

RPC timing model: a request occupies the client NIC, crosses the wire,
queues behind earlier requests on the target server's CPU, is served, and
(for ops with results) the response departs at *that request's* completion
time.  Mutation-only ops (push, axpy, fills, update kernels) are
fire-and-forget: the client never blocks on them.

Block ops and coalescing: a block pull/push decomposes into one message per
(row, shard); with ``coalesce_requests`` on (the default), the transport
wraps every same-server group in a single
:class:`~repro.ps.messages.BatchRequest` envelope — one request header and
one NIC booking per server, index lists shipped once — the paper's
fat-request header amortization made explicit.

Failure model: an attempt can die because the target server is down
(``ServerDownError``), because its shard state is stale after a recovery
(``MatrixNotFoundError``), or because a partition window swallowed the
transfer (``NetworkPartitionedError``).  The transport retries every failure
under a :class:`~repro.ps.retry.RetryPolicy`: it charges the detection
timeout plus an exponential backoff to the client's virtual clock, asks the
master to recover/repair the server when appropriate, drops its cached
routing, and then re-resolves the serving server **and re-sends the message
bytes through the network model** — a retry is a full new RPC of the same
message, not a free replay.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.common.errors import PSError
from repro.ps import messages
from repro.ps.cache import WorkerCache
from repro.ps.partitioner import ColumnLayout, RowLayout
from repro.ps.transport import Transport

#: Entry cap for a layout's pooled fan-out plans (cleared when exceeded;
#: id-keyed sparse plans from list inputs would otherwise accumulate).
_PLAN_POOL_CAP = 64


class PSClient:
    """A worker-side handle for pull/push and server-side execution."""

    def __init__(self, cluster, master, node_id, retry_policy=None):
        self.cluster = cluster
        self.master = master
        self.node_id = node_id
        self.transport = Transport(cluster, master, node_id,
                                   retry_policy=retry_policy)
        # Under relaxed consistency every *executor* client gets a
        # staleness-bounded parameter cache (the coordinator never does:
        # driver-side reads — loss evaluation, aggregates — must see the
        # authoritative server state).  Under BSP ``cache_bound()`` is
        # ``None`` and the client takes the exact pre-cache code paths.
        self.cache = None
        model = cluster.consistency
        if model.cache_bound() is not None:
            from repro.cluster.cluster import DRIVER

            if node_id != DRIVER:
                self.cache = WorkerCache(cluster, node_id, model,
                                         self.transport)
                cluster.clock_advance_hooks.append(
                    self.cache.on_clock_advance
                )

    @property
    def retry_policy(self):
        """The transport's retry policy (exposed for tests/diagnostics)."""
        return self.transport.retry_policy

    # -- plumbing -----------------------------------------------------------

    def _layout(self, matrix_id):
        """Resolve a matrix's layout through the transport's routing cache."""
        return self.transport.layout(matrix_id)

    def invalidate(self, matrix_id=None):
        """Drop cached routing for *matrix_id* (or for every matrix)."""
        self.transport.invalidate(matrix_id)
        if self.cache is not None:
            self.cache.invalidate(matrix_id)

    @contextmanager
    def _op(self, op, matrix_id):
        """Trace + time one client-level PS op (pull, push, kernel, ...).

        Opens a span on the client node (children: routing fetches, NIC
        bookings, server CPU slots) and feeds the op's client-observed
        duration — issue to last response, as the virtual clock saw it —
        into the per-op latency histogram.  An op whose transport attempts
        hit the retry path is recorded under ``<op>.retried`` instead, so
        backoff waits never inflate the headline percentiles.  Never
        advances any clock.
        """
        clock = self.cluster.clock
        metrics = self.cluster.metrics
        start = clock.now(self.node_id)
        retries_before = metrics.counters.get("op-retries", 0)
        tracer = self.cluster.tracer
        try:
            if tracer.enabled:
                with tracer.span(self.node_id, op, cat="op",
                                 matrix_id=matrix_id):
                    yield
            else:
                yield
        except PSError:
            # An op whose transport attempts were exhausted is a dropped
            # request from the caller's point of view (the serving tier's
            # zero-downtime claim is assertable on this counter); count it
            # and let it propagate.
            metrics.increment("client-dropped-ops")
            raise
        duration = clock.now(self.node_id) - start
        if metrics.counters.get("op-retries", 0) > retries_before:
            metrics.observe(op + ".retried", duration)
        else:
            metrics.observe(op, duration)
        # Virtual-time hooks for the periodic checkpoint and replication
        # rebalance sweeps, plus the time-series window check: pure-PS
        # workloads (no sparklite stages) still sweep/flush on schedule.
        self.master.maybe_checkpoint()
        self.master.maybe_rebalance()
        if self.cluster.timeseries is not None:
            self.cluster.timeseries.maybe_flush()

    def _await(self, arrivals):
        """Block the client until the last outstanding response lands."""
        arrivals = [a for a in arrivals if a is not None]
        if arrivals:
            self.cluster.clock.set_at_least(self.node_id, max(arrivals))

    def _plan_pool(self, layout):
        """The layout's pooled fan-out plans, or ``None`` when ineligible.

        A plan reuses the *same* typed request objects across ops (and, via
        the shared layout, across clients), so it is only safe when no one
        mutates requests between sends.  Pushes swap same-length value
        views into pooled requests, which keeps every memoized wire-size
        formula input unchanged.  The replication routers retarget reads
        in place, but :func:`repro.ps.replication.route` undoes any leftover
        retarget before re-offering a request, so pooling stays on under
        replication — the pool is merely *invalidated* (cleared) whenever
        the topology or the replica set changes, keyed on
        ``(topology_epoch, plan_epoch)``.  A cost model attaches per-send
        codec state to pushes (encoded payloads, re-priced sizes), which
        pooled reuse would corrupt, so codecs disable the pool.

        Callers pass ``send_all(pooled=True)`` only for a request list
        that came *out of* the pool (a hit): a list that was just built
        has no earlier send whose grouping the transport could reuse.
        """
        if self.cluster.costmodel is not None:
            return None
        plans = layout.op_plans
        manager = self.cluster.replication
        if manager is not None:
            epoch = (self.master.topology_epoch, manager.plan_epoch)
            if plans.get("_epoch") != epoch:
                plans.clear()
                plans["_epoch"] = epoch
        return plans

    def _split_for_row(self, layout, row, indices):
        """Map global *indices* to owning servers under *layout*."""
        if isinstance(layout, ColumnLayout):
            return layout.split_indices(indices)
        if isinstance(layout, RowLayout):
            return layout.split_indices_for_row(row, indices)
        raise PSError("unsupported layout %r" % (layout,))

    # -- row access: pull ----------------------------------------------------

    def _priced_response_bytes(self, n_values):
        """Response bytes a dense pull of *n_values* would put on the wire.

        Priced through the active cost model when one is configured
        (satellite telemetry honesty: a cache hit saves the bytes the
        codec regime *would* have shipped, not the identity-rate upper
        bound); identity rates otherwise — bit-identical to the
        pre-costmodel formulas when the knob is off.
        """
        costmodel = self.cluster.costmodel
        if costmodel is None:
            return messages.dense_pull_response_bytes(n_values)
        return costmodel.priced_pull_response_bytes(self.node_id, n_values)

    def _dense_pull_wire_bytes(self, layout, row):
        """Wire cost (request + response) of a full dense pull of *row*."""
        return sum(
            messages.dense_pull_request_bytes()
            + self._priced_response_bytes(stop - start)
            for _server, start, stop in layout.shards_for_row(row)
        )

    def _cache_full_row(self, matrix_id, row, layout):
        """Miss path: pull the whole row dense, cache it, return it.

        A sparse miss promotes to a full-row pull (NuPS-style replication
        of the parameters this worker keeps touching): the extra bytes buy
        the next ``bound`` clocks of zero-traffic hits.
        """
        self.cluster.metrics.record_cache_miss(self.node_id)
        shards = layout.shards_for_row(row)
        requests = [
            messages.PullRowRequest(server_index, matrix_id, row,
                                    stop - start)
            for server_index, start, stop in shards
        ]
        values, arrivals = self.transport.send_all(requests)
        result = np.empty(layout.dim)
        for (server_index, start, stop), block in zip(shards, values):
            result[start:stop] = block
        self._await(arrivals)
        # The per-server version tokens ride the pull responses (header
        # slack — bookkeeping only, no extra bytes or clock movement).
        tokens = {
            server_index: self.master.server(server_index).version_token(
                matrix_id, row
            )
            for server_index, _start, _stop in shards
        }
        self.cache.store(matrix_id, row, result, tokens)
        return result

    def _pull_row_cached(self, matrix_id, row, indices):
        """Serve a pull from the worker cache when the bound permits."""
        layout = self._layout(matrix_id)
        metrics = self.cluster.metrics
        entry = self.cache.lookup(matrix_id, row)
        if entry is not None:
            # A hit is an executor-local memory read: no transfer() call,
            # so NIC timelines and byte counters genuinely do not move.
            metrics.observe(
                "staleness-clocks",
                float(self.cache.clock() - entry.pull_clock),
            )
            if indices is None:
                saved = self._dense_pull_wire_bytes(layout, row)
                result = entry.values.copy()
            else:
                idx = np.asarray(indices, dtype=np.int64)
                saved = (messages.sparse_pull_request_bytes(idx.size)
                         + self._priced_response_bytes(idx.size))
                result = entry.values[idx]
            metrics.record_cache_hit(self.node_id, saved)
            return result
        result = self._cache_full_row(matrix_id, row, layout)
        if indices is None:
            return result
        return result[np.asarray(indices, dtype=np.int64)]

    def pull_row(self, matrix_id, row, indices=None):
        """Pull one model row (dense) or selected columns of it (sparse).

        Dense: returns the full row as a 1-D array of the matrix dimension.
        Sparse: returns the values for *indices*, aligned with the input
        order.  Requests fan out to every owning server in parallel; the
        client resumes when the last response lands.

        With a worker cache (SSP/ASP executors), reads within the staleness
        bound are served from the executor-local copy at zero network cost;
        misses promote to a full-row pull that refills the cache.
        """
        if self.cache is not None:
            with self._op("pull", matrix_id):
                return self._pull_row_cached(matrix_id, row, indices)
        with self._op("pull", matrix_id):
            layout = self._layout(matrix_id)
            plans = self._plan_pool(layout)
            if indices is None:
                plan = None
                if plans is not None:
                    key = ("pull-dense", matrix_id, row)
                    plan = plans.get(key)
                if plan is None:
                    shards = layout.shards_for_row(row)
                    requests = [
                        messages.PullRowRequest(server_index, matrix_id, row,
                                                stop - start)
                        for server_index, start, stop in shards
                    ]
                    if plans is not None:
                        plans[key] = (shards, requests)
                else:
                    shards, requests = plan
                values, arrivals = self.transport.send_all(
                    requests, pooled=plan is not None
                )
                result = np.empty(layout.dim)
                for (server_index, start, stop), block in zip(shards, values):
                    result[start:stop] = block
                self._await(arrivals)
                return result

            indices = np.asarray(indices, dtype=np.int64)
            plan = None
            if plans is not None:
                key = ("pull-sparse", matrix_id, row, indices.size,
                       id(indices))
                plan = plans.get(key)
                if plan is not None and not np.array_equal(plan[0], indices):
                    plan = None
            if plan is None:
                order = np.argsort(indices, kind="stable")
                sorted_indices = indices[order]
                by_server = self._split_for_row(layout, row, sorted_indices)
                requests = [
                    messages.PullRowRequest(server_index, matrix_id, row,
                                            group.size, indices=group)
                    for server_index, group in by_server.items()
                ]
                if plans is not None:
                    if len(plans) >= _PLAN_POOL_CAP:
                        plans.clear()
                    plans[key] = (indices.copy(), order, requests)
            else:
                _snapshot, order, requests = plan
            values, arrivals = self.transport.send_all(
                requests, pooled=plan is not None
            )
            values_by_index = np.empty(indices.size)
            cursor = 0
            for request, block in zip(requests, values):
                span = order[cursor : cursor + request.n_values]
                values_by_index[span] = block
                cursor += request.n_values
            self._await(arrivals)
            return values_by_index

    # -- lazy tables: get_or_create pulls --------------------------------------

    def pull_or_create(self, matrix_id, rows):
        """Pull embedding rows, materializing unseen ids server-side.

        The serving tier's read path over a lazy table
        (:meth:`~repro.ps.master.PSMaster.create_table`): one
        :class:`~repro.ps.messages.PullOrCreateRequest` per id, routed to
        ``id % n_servers`` under the table's
        :class:`~repro.ps.partitioner.RowLayout` and coalesced per server
        by the transport.  A server that does not hold a row yet
        initializes it from the table's deterministic, layout-independent
        RNG stream before serving — ElasticDL-style ``get_or_create``, so
        the table grows unbounded during online learning.  Ids this round
        materialized are then registered with the master (one control
        message: header plus one key per fresh id), which is what lets
        recovery and live shard migration re-materialize the table.

        Always server-authoritative: the worker cache is bypassed — a
        cache miss cannot distinguish "stale" from "never created", and
        serving reads must observe creations by other workers.

        Returns a ``len(rows) x dim`` array aligned with the input order.
        """
        rows = [int(row) for row in rows]
        with self._op("pull-create", matrix_id):
            layout = self._layout(matrix_id)
            info = self.master.info(matrix_id)
            if not info.lazy:
                raise PSError("matrix %r is not a lazy table" % (matrix_id,))
            requests = [
                messages.PullOrCreateRequest(
                    row % layout.n_servers, matrix_id, row, layout.dim,
                    init=info.init, scale=info.scale,
                )
                for row in rows
            ]
            values, arrivals = self.transport.send_all(requests)
            result = np.empty((len(rows), layout.dim))
            created = []
            for pos, (block, was_created) in enumerate(values):
                result[pos, :] = block
                if was_created:
                    created.append(rows[pos])
            self._await(arrivals)
            if created:
                from repro.cluster.cluster import DRIVER

                self.cluster.network.transfer(
                    self.node_id, DRIVER,
                    messages.REQUEST_HEADER_BYTES
                    + len(created) * messages.INDEX_BYTES,
                    tag="lazy-register",
                )
                self.master.register_lazy_rows(matrix_id, created)
            return result

    # -- row access: push (fire-and-forget) ------------------------------------

    def _push(self, matrix_id, row, values, indices, mode):
        with self._op("push", matrix_id):
            layout = self._layout(matrix_id)
            values = np.asarray(values, dtype=float)
            if self.cache is not None:
                # Write-through: the worker's own updates stay visible in
                # its cached copy (read-your-writes within the bound).
                self.cache.apply_push(matrix_id, row, values, indices, mode)
            plans = self._plan_pool(layout)
            if indices is None:
                if values.size != layout.dim:
                    raise PSError(
                        "dense push of %d values into dim-%d matrix"
                        % (values.size, layout.dim)
                    )
                plan = None
                if plans is not None:
                    key = ("push-dense", matrix_id, row, mode)
                    plan = plans.get(key)
                if plan is None:
                    shards = layout.shards_for_row(row)
                    requests = [
                        messages.PushRequest(server_index, matrix_id, row,
                                             values[start:stop], mode=mode)
                        for server_index, start, stop in shards
                    ]
                    if plans is not None:
                        plans[key] = (shards, requests)
                else:
                    # Pooled requests: swap in this call's value views (same
                    # slice lengths, so the memoized wire sizes stay valid).
                    shards, requests = plan
                    for request, (_srv, start, stop) in zip(requests, shards):
                        request.values = values[start:stop]
                self.transport.send_all(requests, pooled=plan is not None)
                return

            indices = np.asarray(indices, dtype=np.int64)
            plan = None
            if plans is not None:
                key = ("push-sparse", matrix_id, row, indices.size,
                       id(indices), mode)
                plan = plans.get(key)
                if plan is not None and not np.array_equal(plan[0], indices):
                    plan = None
            if plan is not None:
                _snapshot, order, requests, sizes = plan
                sorted_values = values[order]
                cursor = 0
                for request, size in zip(requests, sizes):
                    request.values = sorted_values[cursor : cursor + size]
                    cursor += size
                self.transport.send_all(requests, pooled=True)
                return
            order = np.argsort(indices, kind="stable")
            sorted_indices = indices[order]
            sorted_values = values[order]
            by_server = self._split_for_row(layout, row, sorted_indices)
            requests = []
            sizes = []
            cursor = 0
            for server_index, group in by_server.items():
                block = sorted_values[cursor : cursor + group.size]
                cursor += group.size
                sizes.append(group.size)
                requests.append(
                    messages.PushRequest(server_index, matrix_id, row, block,
                                         indices=group, mode=mode)
                )
            if plans is not None:
                if len(plans) >= _PLAN_POOL_CAP:
                    plans.clear()
                plans[key] = (indices.copy(), order, requests, sizes)
            self.transport.send_all(requests)

    def push_add(self, matrix_id, row, values, indices=None):
        """Accumulate a (dense or sparse) delta into a model row."""
        self._push(matrix_id, row, values, indices, "add")

    def push_assign(self, matrix_id, row, values, indices=None):
        """Overwrite (all or selected columns of) a model row."""
        self._push(matrix_id, row, values, indices, "assign")

    # -- range access (contiguous column slices, dense-priced) -----------------

    def _range_shards(self, layout, row, start, stop):
        """Overlaps of ``[start, stop)`` with each server shard of *row*."""
        overlaps = []
        for server_index, s_start, s_stop in layout.shards_for_row(row):
            lo = max(start, s_start)
            hi = min(stop, s_stop)
            if lo < hi:
                overlaps.append((server_index, lo, hi))
        return overlaps

    def pull_range(self, matrix_id, row, start, stop):
        """Pull the contiguous slice ``[start, stop)`` of a row.

        Priced as a dense transfer (8 bytes/value): a range is described by
        two integers, not per-index keys.  Used by pull/push-only baselines
        whose workers each update a slice of the model.
        """
        with self._op("pull-range", matrix_id):
            layout = self._layout(matrix_id)
            if self.cache is not None:
                entry = self.cache.lookup(matrix_id, row)
                if entry is not None:
                    self.cluster.metrics.observe(
                        "staleness-clocks",
                        float(self.cache.clock() - entry.pull_clock),
                    )
                    self.cluster.metrics.record_cache_hit(
                        self.node_id,
                        messages.dense_pull_request_bytes()
                        + self._priced_response_bytes(int(stop) - int(start)),
                    )
                    return entry.values[int(start):int(stop)].copy()
                full = self._cache_full_row(matrix_id, row, layout)
                return full[int(start):int(stop)].copy()
            overlaps = self._range_shards(layout, row, int(start), int(stop))
            requests = [
                messages.PullRangeRequest(server_index, matrix_id, row,
                                          lo, hi)
                for server_index, lo, hi in overlaps
            ]
            values, arrivals = self.transport.send_all(requests)
            result = np.empty(int(stop) - int(start))
            for (server_index, lo, hi), block in zip(overlaps, values):
                result[lo - start : hi - start] = block
            self._await(arrivals)
            return result

    def push_range(self, matrix_id, row, start, stop, values, mode="assign"):
        """Write the contiguous slice ``[start, stop)`` (dense-priced)."""
        with self._op("push-range", matrix_id):
            layout = self._layout(matrix_id)
            values = np.asarray(values, dtype=float)
            if self.cache is not None:
                self.cache.apply_push(
                    matrix_id, row, values,
                    np.arange(int(start), int(stop), dtype=np.int64), mode,
                )
            requests = [
                messages.PushRangeRequest(
                    server_index, matrix_id, row, lo, hi,
                    values[lo - start : hi - start], mode=mode,
                )
                for server_index, lo, hi
                in self._range_shards(layout, row, int(start), int(stop))
            ]
            self.transport.send_all(requests)

    # -- block access (multi-row, shared indices) ------------------------------

    def _rows_by_server(self, layout, rows):
        """Group row positions by owning server under a :class:`RowLayout`.

        Returns ``{server_index: [row_position, ...]}`` in ascending server
        order.  Only meaningful for row layouts, where each row lives whole
        on one server — a block op must route *per row*, never by
        ``rows[0]``'s owner.
        """
        by_server = {}
        for row_pos, row in enumerate(rows):
            server_index = int(row) % layout.n_servers
            by_server.setdefault(server_index, []).append(row_pos)
        return dict(sorted(by_server.items()))

    def pull_block(self, matrix_id, rows, indices=None, value_bytes=None):
        """Pull the same columns of several rows in one round trip per server.

        Used by LDA to fetch the word-topic block for a worker's local
        vocabulary: one message per (row, shard) is built, and the
        transport coalesces each server's messages into one batch envelope
        whose shared column-index list is shipped once.  ``value_bytes``
        overrides the per-value wire size (PS2's LDA ships counts as 32-bit
        integers — the "message compression" of Section 6.3.3); it defaults
        to 8 (raw float64).

        Under a :class:`RowLayout` each row lives whole on server
        ``row % n_servers``, so the block is routed per row (requests
        grouped by the *owning* server) instead of assuming every row
        shares ``rows[0]``'s shards.

        Returns a ``len(rows) x len(indices)`` array aligned with the input
        index order (or ``len(rows) x dim`` for a dense pull).
        """
        with self._op("pull-block", matrix_id):
            layout = self._layout(matrix_id)
            rows = list(rows)
            if value_bytes is None:
                value_bytes = messages.FLOAT_BYTES
            if isinstance(layout, RowLayout):
                return self._pull_block_row_layout(
                    matrix_id, layout, rows, indices, value_bytes
                )
            if not isinstance(layout, ColumnLayout):
                raise PSError("unsupported layout %r" % (layout,))

            if indices is None:
                plans = self._plan_pool(layout)
                plan = None
                if plans is not None:
                    key = ("pull-block-dense", matrix_id, tuple(rows),
                           value_bytes)
                    plan = plans.get(key)
                if plan is None:
                    requests = []
                    placements = []
                    for server_index, start, stop \
                            in layout.shards_for_row(rows[0]):
                        for row_pos, row in enumerate(rows):
                            requests.append(messages.PullRowRequest(
                                server_index, matrix_id, row, stop - start,
                                value_bytes=value_bytes, tag="pull-block",
                            ))
                            placements.append((row_pos, start, stop))
                    if plans is not None:
                        if len(plans) >= _PLAN_POOL_CAP:
                            plans.clear()
                        plans[key] = (placements, requests)
                else:
                    placements, requests = plan
                values, arrivals = self.transport.send_all(
                    requests, pooled=plan is not None
                )
                block = np.empty((len(rows), layout.dim))
                for (row_pos, start, stop), row_values in zip(placements,
                                                              values):
                    block[row_pos, start:stop] = row_values
                self._await(arrivals)
                return block

            indices = np.asarray(indices, dtype=np.int64)
            order = np.argsort(indices, kind="stable")
            sorted_indices = indices[order]
            by_server = self._split_for_row(layout, rows[0], sorted_indices)
            requests = []
            placements = []
            cursor = 0
            for server_index, group in by_server.items():
                span = order[cursor : cursor + group.size]
                cursor += group.size
                for row_pos in range(len(rows)):
                    # The same index array object is shared by every row's
                    # message, so a coalesced batch encodes it once.
                    requests.append(messages.PullRowRequest(
                        server_index, matrix_id, rows[row_pos], group.size,
                        indices=group, value_bytes=value_bytes,
                        tag="pull-block",
                    ))
                    placements.append((row_pos, span))
            values, arrivals = self.transport.send_all(requests)
            block = np.empty((len(rows), indices.size))
            for (row_pos, span), row_values in zip(placements, values):
                block[row_pos, span] = row_values
            self._await(arrivals)
            return block

    def _pull_block_row_layout(self, matrix_id, layout, rows, indices,
                               value_bytes):
        """Row-layout block pull: messages grouped by *owning* server."""
        width = layout.dim if indices is None else len(indices)
        if indices is not None:
            indices = np.asarray(indices, dtype=np.int64)
        by_server = self._rows_by_server(layout, rows)
        requests = []
        placements = []
        for server_index, row_positions in by_server.items():
            for row_pos in row_positions:
                requests.append(messages.PullRowRequest(
                    server_index, matrix_id, rows[row_pos], width,
                    indices=indices, value_bytes=value_bytes,
                    tag="pull-block",
                ))
                placements.append(row_pos)
        values, arrivals = self.transport.send_all(requests)
        block = np.empty((len(rows), width))
        for row_pos, row_values in zip(placements, values):
            block[row_pos, :] = row_values
        self._await(arrivals)
        return block

    def push_block_add(self, matrix_id, rows, block, indices=None,
                       value_bytes=None):
        """Accumulate a multi-row delta block (fire-and-forget, like push).

        Routes like :meth:`pull_block`: shard fan-out for column layouts,
        per-owning-server grouping for row layouts, one coalesced envelope
        per server with the shared index list shipped once.
        """
        with self._op("push-block", matrix_id):
            layout = self._layout(matrix_id)
            rows = list(rows)
            block = np.asarray(block, dtype=float)
            if value_bytes is None:
                value_bytes = messages.FLOAT_BYTES
            if isinstance(layout, RowLayout):
                self._push_block_row_layout(
                    matrix_id, layout, rows, block, indices, value_bytes
                )
                return
            if not isinstance(layout, ColumnLayout):
                raise PSError("unsupported layout %r" % (layout,))

            if indices is None:
                plans = self._plan_pool(layout)
                plan = None
                if plans is not None and block.shape == (len(rows),
                                                         layout.dim):
                    key = ("push-block-dense", matrix_id, tuple(rows),
                           value_bytes)
                    plan = plans.get(key)
                    if plan is None:
                        shards = layout.shards_for_row(rows[0])
                        requests = []
                        placements = []
                        for server_index, start, stop in shards:
                            for row_pos, row in enumerate(rows):
                                requests.append(messages.PushRequest(
                                    server_index, matrix_id, row,
                                    block[row_pos, start:stop], mode="add",
                                    value_bytes=value_bytes,
                                    tag="push-block",
                                ))
                                placements.append((row_pos, start, stop))
                        if len(plans) >= _PLAN_POOL_CAP:
                            plans.clear()
                        plans[key] = (placements, requests)
                    else:
                        placements, requests = plan
                        for request, (row_pos, start, stop) \
                                in zip(requests, placements):
                            request.values = block[row_pos, start:stop]
                    self.transport.send_all(requests,
                                            pooled=plan is not None)
                    return
                requests = [
                    messages.PushRequest(
                        server_index, matrix_id, row,
                        block[row_pos, start:stop], mode="add",
                        value_bytes=value_bytes, tag="push-block",
                    )
                    for server_index, start, stop
                    in layout.shards_for_row(rows[0])
                    for row_pos, row in enumerate(rows)
                ]
                self.transport.send_all(requests)
                return

            indices = np.asarray(indices, dtype=np.int64)
            order = np.argsort(indices, kind="stable")
            sorted_indices = indices[order]
            by_server = self._split_for_row(layout, rows[0], sorted_indices)
            requests = []
            cursor = 0
            for server_index, group in by_server.items():
                span = order[cursor : cursor + group.size]
                cursor += group.size
                for row_pos, row in enumerate(rows):
                    requests.append(messages.PushRequest(
                        server_index, matrix_id, row, block[row_pos, span],
                        indices=group, mode="add", value_bytes=value_bytes,
                        tag="push-block",
                    ))
            self.transport.send_all(requests)

    def _push_block_row_layout(self, matrix_id, layout, rows, block, indices,
                               value_bytes):
        """Row-layout block push: messages grouped by *owning* server."""
        if indices is not None:
            indices = np.asarray(indices, dtype=np.int64)
        by_server = self._rows_by_server(layout, rows)
        requests = [
            messages.PushRequest(
                server_index, matrix_id, rows[row_pos], block[row_pos],
                indices=indices, mode="add", value_bytes=value_bytes,
                tag="push-block",
            )
            for server_index, row_positions in by_server.items()
            for row_pos in row_positions
        ]
        self.transport.send_all(requests)

    # -- aggregates and server-side execution --------------------------------

    _COMBINE = {
        "sum": sum,
        "nnz": sum,
        "sumsq": sum,
        "max": max,
        "min": min,
    }

    def aggregate_row(self, matrix_id, row, kind):
        """A whole-row aggregate computed server-side; only scalars travel."""
        if kind not in self._COMBINE:
            raise PSError("unknown aggregate %r" % (kind,))
        with self._op("rowagg", matrix_id):
            layout = self._layout(matrix_id)
            requests = [
                messages.AggregateRequest(server_index, matrix_id, row, kind,
                                          n_values=stop - start)
                for server_index, start, stop in layout.shards_for_row(row)
            ]
            partials, arrivals = self.transport.send_all(requests)
            self._await(arrivals)
            return float(self._COMBINE[kind](partials))

    def execute(self, kernel, operands, args=None, n_response_scalars=1,
                flops_per_server=None, wait_response=True):
        """Run *kernel* server-side over co-located rows; gather partials.

        ``operands`` is a list of ``(matrix_id, row)`` pairs sharing one
        layout.  Only the op descriptor and the per-server scalar partials
        cross the network — this is the DCV column-access fast path.
        Returns the partial results in server-index order.

        Pure-mutation kernels (axpy, elementwise updates) pass
        ``wait_response=False``: like a push, the request is fire-and-forget
        and the client does not block on acknowledgements.
        """
        if not operands:
            raise PSError("execute needs at least one operand")
        matrix_id = operands[0][0]
        with self._op("kernel", matrix_id):
            layout = self._layout(matrix_id)
            requests = [
                messages.KernelRequest(
                    server_index, kernel, operands, args=args,
                    flops=flops_per_server,
                    n_response_scalars=n_response_scalars,
                    wait_response=wait_response,
                    n_values=(stop - start) * len(operands),
                )
                for server_index, start, stop
                in layout.shards_for_row(operands[0][1])
            ]
            partials, arrivals = self.transport.send_all(requests)
            if wait_response:
                self._await(arrivals)
            return partials

    def fill_row(self, matrix_id, row, value):
        """Set every element of a row, server-side (fire-and-forget)."""
        with self._op("fill", matrix_id):
            layout = self._layout(matrix_id)
            requests = [
                messages.FillRequest(server_index, matrix_id, row, value,
                                     n_values=stop - start)
                for server_index, start, stop in layout.shards_for_row(row)
            ]
            self.transport.send_all(requests)
