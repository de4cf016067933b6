"""PS-client: the bridge between a worker (or the coordinator) and servers.

Every executor hosts one client (Section 5.1).  The client's job is to turn
each PS op into typed :mod:`~repro.ps.messages` values — one per (row,
shard) destination — hand them to its :class:`~repro.ps.transport.Transport`
and assemble the responses.  Routing resolution, network transfer, server
service, response accounting and the retry loop all live in the transport;
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
(row, shard); the transport wraps every same-server group in a single
:class:`~repro.ps.messages.BatchRequest` envelope — one request header and
one NIC booking per server, index lists shipped once — the paper's
fat-request header amortization made explicit.

Failure model: an attempt can die because the target server is down
(``ServerDownError``), because its shard state is stale after a recovery
(``MatrixNotFoundError``), or because a partition window swallowed the
transfer (``NetworkPartitionedError``).  The transport retries every failure
under the fixed retry prices of :mod:`repro.costs`: it charges the
detection timeout plus an exponential backoff to the client's virtual
clock, asks the master to recover/repair the server when appropriate, drops
its cached routing, and then re-resolves the serving server **and re-sends
the message bytes through the network model** — a retry is a full new RPC
of the same message, not a free replay.
"""

from __future__ import annotations

from contextlib import contextmanager
from operator import itemgetter

import numpy as np

from repro.common.errors import PSError
from repro.costs import FLOAT_BYTES
from repro.ps import messages
from repro.ps.cache import WorkerCache
from repro.ps.partitioner import RowLayout
from repro.ps.transport import FanoutPlan, Transport

#: Entry cap for a layout's pooled fan-out plans (cleared when exceeded;
#: id-keyed sparse plans from list inputs would otherwise accumulate).
_PLAN_POOL_CAP = 64

#: Pool entry for a sparse key seen once: no plan is held for it yet.
_SEEN_ONCE = object()

#: The placement: first field of every :meth:`PSClient._shards` /
#: :meth:`PSClient._block_shards` entry.  Mapped over the shard list so a
#: plan's ``placements`` column costs no per-shard bytecode — builds run
#: on every op wherever the pool is off or never hits.
_PLACEMENT = itemgetter(0)


def _checked(values, shape):
    """A write op's *values* as a float array of exactly *shape*.

    Every write knows the shape it expects; a mismatch is refused here,
    before any message exists — a push that reached some servers and then
    failed on another's broadcast would leave the row half-applied.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != shape:
        raise PSError("cannot push values of shape %r where the op "
                      "expects %r" % (values.shape, shape))
    return values


class PSClient:
    """A worker-side handle for pull/push and server-side execution."""

    def __init__(self, cluster, master, node_id):
        self.cluster = cluster
        self.master = master
        self.node_id = node_id
        self.transport = Transport(cluster, master, node_id)
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
        """The layout's pooled fan-out plans (the lever a test turns off).

        A plan reuses the *same* typed request objects across ops (and, via
        the shared layout, across clients), so it is only safe when no one
        mutates requests between sends.  Pushes swap same-length value
        views into pooled requests, which keeps every memoized wire-size
        formula input unchanged.  Nothing else assigns to them: the
        replication router sends a rerouted read as a retargeted *copy*
        (:meth:`repro.ps.replication.Replicas.route`), so a pooled plan stays
        addressed to the primaries and pooling needs no replica-set stamp.
        A cost model would attach per-send codec state (encoded payloads,
        re-priced sizes), so under one only plans with an identity verdict
        are pooled (:meth:`_plan`): the model never prepares their
        requests, it records their decisions whole.
        """
        return layout.op_plans

    def _plan(self, layout, key, build, indices=None):
        """The :class:`FanoutPlan` for one op; returns ``(plan, pooled)``.

        *build* makes the plan from scratch.  With a *key* and an eligible
        pool (:meth:`_plan_pool`) the pool is consulted first and a fresh
        build is stored, so the next op under that key reuses the request
        objects and everything the transport derived from them.  A sparse
        plan is keyed on ``id(indices)`` — cheap, but an id says nothing
        about contents (arrays are mutated in place, ids are recycled) —
        so it carries a snapshot of *indices* that every hit re-verifies,
        and it is pooled only from the second op under its key: training
        builds a fresh index array per mini-batch, and holding a plan and
        a copy for each would fill the pool with entries nothing reuses.
        Under a cost model a fresh build first takes the model's verdict
        (:meth:`~repro.ps.costmodel.CostModel.identity_tags`); a plan
        without one is returned unpooled and prepared message by message,
        so no pooled request ever carries a codec.  ``pooled`` tells a
        write op that the plan's requests still hold an earlier op's
        values.
        """
        plans = None if key is None else self._plan_pool(layout)
        if plans is None:
            return build(), False
        entry = plans.get(key)
        if entry is not None and entry is not _SEEN_ONCE and (
                indices is None or np.array_equal(entry.snapshot, indices)):
            return entry, True
        plan = build()
        costmodel = self.cluster.costmodel
        if costmodel is not None:
            plan.identity_tags = costmodel.identity_tags(plan.requests)
            if plan.identity_tags is None:
                return plan, False
        if indices is None:
            entry = plan
        elif entry is None:
            # First sight of this array: most are a mini-batch's fresh
            # index set and never come back, so remember only that it was
            # here; the snapshot and the plan are kept from the second.
            entry = _SEEN_ONCE
        else:
            plan.snapshot = indices.copy()
            entry = plan
        if len(plans) >= _PLAN_POOL_CAP:
            plans.clear()
        plans[key] = entry
        return plan, False

    def _read(self, layout, key, build, shape, indices=None):
        """Send a read op's plan; assemble the replies into one array."""
        plan, _pooled = self._plan(layout, key, build, indices)
        values, arrivals = self.transport.send_all(plan.requests, plan=plan)
        result = np.empty(shape)
        for placement, block in zip(plan.placements, values):
            result[placement] = block
        self._await(arrivals)
        return result

    def _write(self, layout, key, build, values, indices=None):
        """Send a (fire-and-forget) write op's plan carrying *values*.

        *build* constructs its requests around this call's values; a plan
        out of the pool gets them swapped in — same placements, so same
        lengths, so every memoized wire size stays valid.
        """
        plan, pooled = self._plan(layout, key, build, indices)
        if pooled:
            for request, placement in zip(plan.requests, plan.placements):
                request.values = values[placement]
        self.transport.send_all(plan.requests, plan=plan)

    def _shards(self, layout, row, indices):
        """Where one row op's values live, per owning server in wire order.

        Returns ``(placement, server_index, group, n_values)`` entries.
        Dense (*indices* ``None``): one per shard of *row*, ``placement``
        its column slice, ``group`` ``None``.  Sparse: ``group`` is the
        server's share of the indices (ascending — the list that ships)
        and ``placement`` the positions those indices hold in the caller's
        array, so values travel sorted and land in input order.
        """
        if indices is None:
            return [
                (slice(start, stop), server_index, None, stop - start)
                for server_index, start, stop in layout.shards_for_row(row)
            ]
        order = np.argsort(indices, kind="stable")
        if isinstance(layout, RowLayout):
            by_server = layout.split_indices_for_row(row, indices[order])
        else:
            by_server = layout.split_indices(indices[order])
        shards = []
        cursor = 0
        for server_index, group in by_server.items():
            span = order[cursor : cursor + group.size]
            cursor += group.size
            shards.append((span, server_index, group, group.size))
        return shards

    def _block_shards(self, layout, rows, indices):
        """Where each (row, shard) message of a block op goes, in wire order.

        Returns ``(placement, server_index, row, group, n_values)`` entries
        with ``placement = (row_pos, columns)`` into the op's 2-D block.
        Column layouts shard every row alike: :meth:`_shards` of one row,
        repeated per row under each server (the same ``group`` array object
        for every row, so a coalesced batch encodes it once).  Under a
        :class:`RowLayout` each row lives whole on ``row % n_servers``, so
        messages are routed per row, grouped by *owning* server — never by
        ``rows[0]``'s owner — and share one private copy of *indices*:
        a message never aliases the caller's array (an in-place edit
        between ops must not reach messages or the servers' per-array
        memos), and one object for every row keeps envelope dedup.
        """
        if isinstance(layout, RowLayout):
            width = layout.dim
            if indices is not None:
                indices = indices.copy()
                width = indices.size
            owners = sorted((int(row) % layout.n_servers, row_pos)
                            for row_pos, row in enumerate(rows))
            return [
                ((row_pos, slice(None)), server_index, rows[row_pos],
                 indices, width)
                for server_index, row_pos in owners
            ]
        return [
            ((row_pos, columns), server_index, row, group, n_values)
            for columns, server_index, group, n_values
            in self._shards(layout, rows[0], indices)
            for row_pos, row in enumerate(rows)
        ]

    # -- row access: pull ----------------------------------------------------

    def _saved_pull_bytes(self, n_values, indices=None):
        """Wire bytes (request + response) of the one-message pull a cache
        hit made unnecessary, as the hypothetical message prices itself.

        Under a cost model the response is the one its current regime
        *would* have shipped (telemetry honesty: a hit saves the
        compressed bytes, not the identity-rate upper bound).
        """
        pull = messages.PullRowRequest(0, None, 0, n_values, indices=indices)
        costmodel = self.cluster.costmodel
        if costmodel is None:
            return pull.wire_bytes() + pull.response_bytes()
        return pull.wire_bytes() + costmodel.priced_pull_response_bytes(
            self.node_id, n_values)

    def _pull(self, matrix_id, row, layout, indices=None):
        """Fan one row pull out: the whole row, or *indices* of it."""
        if indices is None:
            key, size = ("pull-dense", matrix_id, row), layout.dim
        else:
            key = ("pull-sparse", matrix_id, row, indices.size, id(indices))
            size = indices.size

        def build():
            shards = self._shards(layout, row, indices)
            return FanoutPlan(
                [messages.PullRowRequest(server_index, matrix_id, row,
                                         n_values, indices=group)
                 for _placement, server_index, group, n_values in shards],
                list(map(_PLACEMENT, shards)),
            )

        return self._read(layout, key, build, size, indices)

    def _cache_full_row(self, matrix_id, row, layout):
        """Miss path: pull the whole row dense, cache it, return it.

        A sparse miss promotes to a full-row pull (NuPS-style replication
        of the parameters this worker keeps touching): the extra bytes buy
        the next ``bound`` clocks of zero-traffic hits.
        """
        self.cluster.metrics.record_cache_miss(self.node_id)
        result = self._pull(matrix_id, row, layout)
        # The per-server version tokens ride the pull responses (header
        # slack — bookkeeping only, no extra bytes or clock movement).
        tokens = {
            server_index: self.master.server(server_index).version_token(
                matrix_id, row
            )
            for server_index, _start, _stop in layout.shards_for_row(row)
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
                saved = sum(
                    self._saved_pull_bytes(stop - start)
                    for _server, start, stop in layout.shards_for_row(row))
                result = entry.values.copy()
            else:
                idx = np.asarray(indices, dtype=np.int64)
                saved = self._saved_pull_bytes(idx.size, idx)
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
        with self._op("pull", matrix_id):
            if self.cache is not None:
                return self._pull_row_cached(matrix_id, row, indices)
            if indices is not None:
                indices = np.asarray(indices, dtype=np.int64)
            return self._pull(matrix_id, row, self._layout(matrix_id),
                              indices)

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
        the table grows unbounded during online learning.  Requested ids
        the master's registry lacks are then registered (one control
        message: header plus one key per fresh id), which is what lets
        recovery and live shard migration re-materialize the table.  The
        registry, not the reply's ``created`` marker, decides: a response
        lost after the create is retried, and the retry finds the row.

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
            for pos, (block, _created) in enumerate(values):
                result[pos, :] = block
            created = [row for row in dict.fromkeys(rows)
                       if row not in info.created_rows]
            self._await(arrivals)
            if created:
                from repro.cluster.cluster import DRIVER

                self.cluster.network.transfer(
                    self.node_id, DRIVER,
                    messages.lazy_register_bytes(len(created)),
                    tag="lazy-register",
                )
                self.master.register_lazy_rows(matrix_id, created)
            return result

    # -- row access: push (fire-and-forget) ------------------------------------

    def _push(self, matrix_id, row, values, indices, mode):
        with self._op("push", matrix_id):
            layout = self._layout(matrix_id)
            if indices is None:
                values = _checked(values, (layout.dim,))
                key = ("push-dense", matrix_id, row, mode)
            else:
                indices = np.asarray(indices, dtype=np.int64)
                values = _checked(values, (indices.size,))
                key = ("push-sparse", matrix_id, row, indices.size,
                       id(indices), mode)
            if self.cache is not None:
                # Write-through: the worker's own updates stay visible in
                # its cached copy (read-your-writes within the bound).
                self.cache.apply_push(matrix_id, row, values, indices, mode)

            def build():
                shards = self._shards(layout, row, indices)
                return FanoutPlan(
                    [messages.PushRequest(server_index, matrix_id, row,
                                          values[placement], indices=group,
                                          mode=mode)
                     for placement, server_index, group, _n in shards],
                    list(map(_PLACEMENT, shards)),
                )

            self._write(layout, key, build, values, indices)

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
        start, stop = int(start), int(stop)
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
                        self.node_id, self._saved_pull_bytes(stop - start))
                    return entry.values[start:stop].copy()
                full = self._cache_full_row(matrix_id, row, layout)
                return full[start:stop].copy()

            def build():
                overlaps = self._range_shards(layout, row, start, stop)
                return FanoutPlan(
                    [messages.PullRangeRequest(server_index, matrix_id, row,
                                               lo, hi)
                     for server_index, lo, hi in overlaps],
                    [slice(lo - start, hi - start)
                     for _server, lo, hi in overlaps],
                )

            return self._read(layout, None, build, stop - start)

    def push_range(self, matrix_id, row, start, stop, values, mode="assign"):
        """Write the contiguous slice ``[start, stop)`` (dense-priced)."""
        start, stop = int(start), int(stop)
        with self._op("push-range", matrix_id):
            layout = self._layout(matrix_id)
            values = _checked(values, (stop - start,))
            if self.cache is not None:
                self.cache.apply_push(
                    matrix_id, row, values,
                    np.arange(start, stop, dtype=np.int64), mode,
                )
            requests = [
                messages.PushRangeRequest(
                    server_index, matrix_id, row, lo, hi,
                    values[lo - start : hi - start], mode=mode,
                )
                for server_index, lo, hi
                in self._range_shards(layout, row, start, stop)
            ]
            self.transport.send_all(requests)

    # -- block access (multi-row, shared indices) ------------------------------

    def pull_block(self, matrix_id, rows, indices=None,
                   value_bytes=FLOAT_BYTES):
        """Pull the same columns of several rows in one round trip per server.

        Used by LDA to fetch the word-topic block for a worker's local
        vocabulary: one message per (row, shard) is built
        (:meth:`_block_shards`), and the transport coalesces each server's
        messages into one batch envelope whose shared column-index list is
        shipped once.  ``value_bytes`` overrides the per-value wire size,
        raw float64 by default (PS2's LDA ships counts as 32-bit integers —
        the "message compression" of Section 6.3.3).

        Returns a ``len(rows) x len(indices)`` array aligned with the input
        index order (or ``len(rows) x dim`` for a dense pull).
        """
        with self._op("pull-block", matrix_id):
            layout = self._layout(matrix_id)
            rows = list(rows)
            key = None
            if indices is not None:
                indices = np.asarray(indices, dtype=np.int64)
            elif not isinstance(layout, RowLayout):
                key = ("pull-block-dense", matrix_id, tuple(rows),
                       value_bytes)
            shape = (len(rows), layout.dim if indices is None
                     else indices.size)
            if not rows:
                return np.empty(shape)

            def build():
                shards = self._block_shards(layout, rows, indices)
                return FanoutPlan(
                    [messages.PullRowRequest(
                        server_index, matrix_id, row, n_values,
                        indices=group, value_bytes=value_bytes,
                        tag="pull-block")
                     for _placement, server_index, row, group, n_values
                     in shards],
                    list(map(_PLACEMENT, shards)),
                )

            return self._read(layout, key, build, shape)

    def push_block_add(self, matrix_id, rows, block, indices=None,
                       value_bytes=FLOAT_BYTES):
        """Accumulate a multi-row delta block (fire-and-forget, like push).

        Routes like :meth:`pull_block`: shard fan-out for column layouts,
        per-owning-server grouping for row layouts, one coalesced envelope
        per server with the shared index list shipped once.

        Each row may appear once: a repeated row is refused before
        anything is sent, like a malformed shape (:func:`_checked`).  The
        replica forward stamps every copy with its primary's post-apply
        counter, so two mutations of one row in one op would leave the
        second copy counted as already applied.  Fold the deltas first.
        """
        with self._op("push-block", matrix_id):
            layout = self._layout(matrix_id)
            rows = list(rows)
            if not rows:
                return
            if len(set(rows)) != len(rows):
                raise PSError("a block push names a row more than once: %r"
                              % (rows,))
            key = None
            if indices is not None:
                indices = np.asarray(indices, dtype=np.int64)
            elif not isinstance(layout, RowLayout):
                key = ("push-block-dense", matrix_id, tuple(rows),
                       value_bytes)
            block = _checked(block, (len(rows), layout.dim if indices is None
                                     else indices.size))

            def build():
                shards = self._block_shards(layout, rows, indices)
                return FanoutPlan(
                    [messages.PushRequest(
                        server_index, matrix_id, row, block[placement],
                        indices=group, mode="add", value_bytes=value_bytes,
                        tag="push-block")
                     for placement, server_index, row, group, _n in shards],
                    list(map(_PLACEMENT, shards)),
                )

            self._write(layout, key, build, block)

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
