"""Parameter server: shard storage plus server-side compute kernels.

Each :class:`PSServer` owns one simulated machine and stores, per model
matrix, the row shards assigned to it by the matrix layout.  All mutations
and kernel executions charge compute time to the server's virtual clock, so
server-side computation is not free — it is merely local.

Requests arrive as typed :mod:`~repro.ps.messages` values through
:meth:`PSServer.dispatch`, which routes each message type to its handler —
the server-side half of the explicit RPC protocol.  The storage and compute
primitives (``read``/``add``/``assign``/``aggregate``/``execute_kernel``)
stay public for server-local callers (recovery, checkpointing, realignment),
but clients never invoke them directly.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.resource import TimelineResource
from repro.common.errors import MatrixNotFoundError, \
    NetworkPartitionedError, PSError, ServerDownError
from repro.common.rng import generator
from repro.ps import messages, replication

#: Flops charged per element for simple elementwise mutations.
ELEMENTWISE_FLOPS = 2.0

#: Flops per element written, by push mode — one price wherever a push is
#: applied (a primary, the fast lane, a replica copy): an accumulate reads
#: and adds, an overwrite only stores.
WRITE_FLOPS = {"add": ELEMENTWISE_FLOPS, "assign": 1.0}

#: Flops charged per element per operand for zip kernels (default estimate).
KERNEL_FLOPS_PER_ELEMENT = 3.0


def _aggregate_values(values, kind):
    """The shard-aggregate math, shared by primary and replica serving."""
    if kind == "sum":
        return float(values.sum())
    if kind == "nnz":
        return float(np.count_nonzero(values))
    if kind == "sumsq":
        return float(np.dot(values, values))
    if kind == "max":
        return float(values.max()) if values.size else -np.inf
    if kind == "min":
        return float(values.min()) if values.size else np.inf
    raise PSError("unknown aggregate %r" % (kind,))


def _copy_rows(rows):
    """Deep-copy a ``{row: RowShard}`` map.

    Equal-range shard sets — the common case under a column layout, where
    every pool row of a matrix holds the same ``[start, stop)`` slice —
    are copied as one contiguous 2-D block (a single C-level ``np.stack``
    instead of one allocation per row) and handed back as per-row views of
    that block; ragged sets fall back to per-row copies.  Views are safe:
    every mutation path writes *into* ``shard.values`` (``+=``, slice and
    fancy assignment, ``fill``), never rebinds it.
    """
    if len(rows) > 1:
        items = list(rows.items())
        first = items[0][1]
        start = first.start
        stop = first.stop
        uniform = all(
            shard.start == start and shard.stop == stop
            for _row, shard in items
        )
        if uniform:
            block = np.stack([shard.values for _row, shard in items])
            return {
                row: RowShard(start, stop, block[i])
                for i, (row, _shard) in enumerate(items)
            }
    return {row: shard.copy() for row, shard in rows.items()}


class RowShard:
    """The slice ``[start, stop)`` of one model row held by one server."""

    __slots__ = ("start", "stop", "values")

    def __init__(self, start, stop, values):
        self.start = int(start)
        self.stop = int(stop)
        self.values = values

    def local(self, global_indices):
        """Convert global column indices into this shard's local offsets."""
        return np.asarray(global_indices, dtype=np.int64) - self.start

    def __len__(self):
        return self.stop - self.start

    def copy(self):
        """An independent shard over a copy of the values."""
        return RowShard(self.start, self.stop, self.values.copy())

    def write(self, values, global_indices, mode):
        """Accumulate (``"add"``) or overwrite (``"assign"``) *values* into
        the whole shard or selected global columns.

        Returns the number of elements touched — what every caller prices
        the mutation by.  Primary handlers and replica applies share this
        one definition (as reads share :meth:`PSServer._read`); only
        :func:`serve_fast_fanout` inlines its own.
        """
        if global_indices is None:
            if mode == "add":
                self.values += values
            else:
                self.values[:] = values
            return self.values.size
        local = self.local(global_indices)
        if mode == "add":
            np.add.at(self.values, local, values)
        else:
            self.values[local] = values
        return len(values)


class ReplicaEntry:
    """This server's copy of another server's shards of one matrix.

    ``rows`` maps row -> :class:`RowShard` (the *primary's* column range),
    ``versions`` carries the primary's per-row mutation counters as of the
    last install/apply, and ``install_epoch`` is the primary's recovery
    epoch at install time — the fencing token: a replica whose install
    epoch trails the primary's current epoch is stale (the primary may
    have rolled back to a checkpoint) and must not serve reads.
    """

    __slots__ = ("rows", "versions", "install_epoch")

    def __init__(self, rows, versions, install_epoch):
        self.rows = rows
        self.versions = versions
        self.install_epoch = int(install_epoch)


class PSServer:
    """One parameter server process."""

    def __init__(self, cluster, node_id, server_index, epoch=0):
        self.cluster = cluster
        self.node_id = node_id
        self.server_index = int(server_index)
        self.alive = True
        self._store = {}
        self.cpu = TimelineResource()
        self.last_completion = 0.0
        self._arrival = None
        #: Recovery epoch: bumped whenever a replacement process takes over
        #: this server index (the master passes ``failed.epoch + 1``), so a
        #: client-cached version token can never falsely match across a
        #: crash — recovered state may have rolled back to a checkpoint.
        self.epoch = int(epoch)
        #: Per-(matrix_id, row) mutation counters; together with the epoch
        #: they form the version token worker caches validate against.
        self.versions = {}
        #: Hot-key replica copies held FOR other servers, keyed by
        #: ``(matrix_id, primary_server_index)``.  Kept apart from
        #: ``_store``: under a column layout this server already owns its
        #: own shard of every row, so replica shards (the primary's column
        #: range) can never share the primary store's keying.
        self.replica_store = {}
        #: ``(matrix_id, row)`` of the lazy rows this process created and
        #: the replication forward has not settled yet (filled only while
        #: a replication policy is live).
        self.created = set()
        #: Nesting depth of :meth:`dispatch`.  Mutations that run at depth
        #: zero were invoked *directly* (realignment, recovery tooling) and
        #: bypass the replica forward, so they must demote any
        #: replicas of the touched shard instead of letting them diverge.
        self._dispatch_depth = 0
        #: The causal-tracing context of the request currently being
        #: dispatched (``(trace_id, parent_span_id)`` or ``None``) — the
        #: parent for the CPU spans :meth:`_service` records.  Pure
        #: observability; never consulted by any cost computation.
        self._trace_ctx = None
        #: ``(id(indices), shard.start) -> (indices, local_offsets)`` memo
        #: for the fast dispatch path.  Message index arrays are identity-
        #: stable and treated as immutable throughout (``messages``
        #: deduplicates shared lists by ``id`` for wire sizing already);
        #: holding the array reference keeps the id valid while cached.
        self._local_cache = {}
        #: Lazily cached ``node.spec.flops`` (immutable) so the fan-out
        #: serve loop prices compute without a node lookup per request.
        self._node_flops = None

    # -- version vectors ----------------------------------------------------

    def _notify_direct_write(self, matrix_id):
        """Tell the replication policies about a shard mutated OUTSIDE the
        dispatch path.

        Realignment and recovery tooling write through the public storage
        primitives directly, bypassing the replica forward; copies of
        the touched shard would silently diverge, so hot-key replicas
        are demoted and chain copies re-streamed.  A no-op at any
        dispatch depth > 0 (the forward covers those).
        """
        if self._dispatch_depth == 0:
            replication.on_direct_write(self.cluster, matrix_id,
                                        self.server_index)

    def _bump_version(self, matrix_id, row):
        key = (matrix_id, int(row))
        self.versions[key] = self.versions.get(key, 0) + 1

    def version_token(self, matrix_id, row):
        """The ``(epoch, counter)`` token for one row; equality-only."""
        return (self.epoch, self.versions.get((matrix_id, int(row)), 0))

    # -- request service model ----------------------------------------------

    def begin(self, arrival):
        """Mark the arrival time of the request about to be served.

        Only :func:`serve_fast_fanout` calls this, before it dispatches a
        unit, so service time queues on this server's CPU from the
        request's arrival instead of being welded to an unrelated global
        clock.
        """
        self._arrival = float(arrival)

    def _service(self, flops, tag):
        """Book *flops* of work on the server CPU; returns completion time.

        CPU capacity uses the same order-insensitive interval reservation
        as NICs, so concurrent clients' requests serialize by genuine
        overlap, not by simulation processing order.  Several operations
        serving ONE request (e.g. the per-row reads of a block pull) chain:
        each starts no earlier than the previous one's completion, all
        anchored at the request's arrival — never at the global server
        clock, which other clients' unrelated requests inflate.
        """
        arrival = self._arrival
        if arrival is None:
            arrival = self.cluster.clock.now(self.node_id)
        seconds = self.cluster.node(self.node_id).compute_seconds(flops)
        start = self.cpu.reserve(arrival, seconds)
        self.last_completion = start + seconds
        self._arrival = self.last_completion
        metrics = self.cluster.metrics
        metrics.record_compute(self.node_id, seconds, tag=tag)
        metrics.record_request(self.node_id, tag)
        metrics.observe("srv:" + tag, seconds)
        tracer = self.cluster.tracer
        if tracer.enabled:
            ctx = self._trace_ctx
            tracer.record(self.node_id, tag, start, self.last_completion,
                          cat="cpu",
                          parent_id=None if ctx is None else ctx[1],
                          queue_wait=start - arrival)
        self.cluster.clock.set_at_least(self.node_id, self.last_completion)
        return self.last_completion

    # -- request dispatch --------------------------------------------------

    def dispatch(self, request):
        """Serve one typed request; returns the handler's value.

        The handler table below maps each :mod:`~repro.ps.messages` type to
        the storage/compute primitive that serves it — the explicit
        server-side protocol surface, replacing the closures clients used
        to invoke directly.
        """
        try:
            handler = _HANDLERS[type(request)]
        except KeyError:
            raise PSError(
                "server %s has no handler for %r"
                % (self.node_id, type(request).__name__)
            ) from None
        prior_ctx = self._trace_ctx
        self._trace_ctx = request.trace_ctx
        if request.codec is not None:
            # Decode-before-apply: an encoded push replaces its payload
            # with the decoded values here, so every storage primitive
            # (and the replica fan-out reading ``inner.values``) sees
            # exactly what the wire delivered.
            request.materialize()
        self._dispatch_depth += 1
        try:
            return handler(self, request)
        finally:
            self._dispatch_depth -= 1
            self._trace_ctx = prior_ctx

    def _local_offsets(self, indices, start):
        """Global -> shard-local index conversion, memoized per array."""
        key = (id(indices), start)
        entry = self._local_cache.get(key)
        if entry is not None and entry[0] is indices:
            return entry[1]
        local = np.asarray(indices, dtype=np.int64) - start
        if len(self._local_cache) >= 64:
            self._local_cache.clear()
        self._local_cache[key] = (indices, local)
        return local

    def _read_shard(self, request):
        """The shard a read is served from: this server's own, or — when
        the replication routers retargeted the read here (``replica_of``
        names the primary) — its copy of the primary's."""
        primary = request.replica_of
        if primary is None or primary == self.server_index:
            return self.shard(request.matrix_id, request.row)
        return self._replica_shard(request.matrix_id, primary, request.row)

    def _encode_response(self, request, values):
        """Apply the request's response codec (quantize-at-serve-time).

        The client priced the response at the codec's fixed rate; the
        server round-trips the values through the codec so the floats
        delivered are exactly the floats that size paid for.  Stateless
        quantizers only — the cost model never attaches stateful codecs
        to pulls.
        """
        codec = request.codec
        if codec is None:
            return values
        return codec.decode(codec.encode(values))

    def _serve_pull_row(self, request):
        values = self._read(self._read_shard(request), request.indices)
        return self._encode_response(request, values)

    def _serve_pull_range(self, request):
        span = np.arange(request.start, request.stop, dtype=np.int64)
        values = self._read(self._read_shard(request), span)
        return self._encode_response(request, values)

    def _serve_pull_or_create(self, request):
        """Serve a lazy-table read, creating the row if it is unseen.

        The init values come from a **one-shot** per-(matrix, row) RNG
        stream whose name carries no server index: creation here, a
        re-materialization after a crash (:meth:`PSMaster._reconcile`) and
        a re-creation on a different server after a shard migration all
        draw bit-identical values.  Returns ``(values, created)`` — the
        created flag is the marker word the response size always carries.
        Under a replication policy the creation is also recorded in
        :attr:`created` for :func:`~repro.ps.replication.forward`, which
        ships its upkeep once the send completed; nothing is booked here.
        """
        matrix_id = request.matrix_id
        row = request.row
        if request.replica_of not in (None, self.server_index):
            # A chain successor standing in for a crashed primary: the
            # router only retargets when the copy already holds the row,
            # so this is a pure read — creation stays the primary's job.
            return self.replica_read(matrix_id, request.replica_of, row), False
        created = not self.has_shard(matrix_id, row)
        if created:
            rng = generator(self.cluster.rng.seed,
                            "ps-lazy-init-%s-%d" % (matrix_id, row))
            self.allocate_row(matrix_id, row, 0, request.n_values,
                              init=request.init, rng=rng, scale=request.scale)
            self._service(
                ELEMENTWISE_FLOPS * max(1, request.n_values), "ps-create"
            )
            self.cluster.metrics.increment("lazy-creates")
            if self.cluster.replication is not None \
                    or self.cluster.chain is not None:
                self.created.add((matrix_id, row))
        values = self.read(matrix_id, row)
        return values, created

    # A handler of a kind whose role is "mutation" also takes *entries* —
    # ``{matrix_id: ReplicaEntry}`` — when :meth:`_serve_replicated_push`
    # applies a forwarded copy: the same message then writes this server's
    # replica shards at the primary's price, booked as ``ps-replica``,
    # with no version bump (the copy carries the primary's counters).

    def _serve_push(self, request, entries=None):
        self._write(request, request.indices, entries)

    def _serve_push_range(self, request, entries=None):
        self._write(request, request.span(), entries)

    def _write(self, request, columns, entries):
        """A push's *columns*, into the primary shard or (given *entries*)
        into this server's copy of it."""
        if entries is None:
            write = self.add if request.mode == "add" else self.assign
            write(request.matrix_id, request.row, request.values, columns)
            return
        shard = entries[request.matrix_id].rows[request.row]
        n = shard.write(request.values, columns, request.mode)
        self._service(WRITE_FLOPS[request.mode] * max(1, n), "ps-replica")

    def _serve_aggregate(self, request):
        return self._aggregate(self._read_shard(request), request.kind)

    def _serve_kernel(self, request, entries=None):
        return self.execute_kernel(request.kernel, request.operands,
                                   args=request.args, flops=request.flops,
                                   entries=entries)

    def _serve_fill(self, request, entries=None):
        if entries is None:
            self.fill(request.matrix_id, request.row, request.value)
            return
        shard = entries[request.matrix_id].rows[request.row]
        shard.values.fill(request.value)
        self._service(max(1, shard.values.size), "ps-replica")

    def _serve_clock_advance(self, request):
        self._check_alive()
        tokens = [
            self.version_token(matrix_id, row) for matrix_id, row in request.keys
        ]
        self._service(max(1.0, float(len(request.keys))), "ps-clock")
        return tokens

    def _serve_replicated_push(self, request):
        """Apply a fanned-out mutation to this server's replica copies.

        Fencing first (install epoch must match the primary epoch recorded
        at fan-out time), idempotence second (rows already at or past the
        recorded primary counters were covered by a fresh re-install), and
        only then the actual apply — which also advances the replica's row
        counters to the recorded values so replicas stay in lockstep with
        the primary's version vector.
        """
        self._check_alive()
        metrics = self.cluster.metrics
        entries = {}
        for matrix_id in {m for m, _row in request.versions}:
            entry = self.replica_store.get((matrix_id, request.primary_index))
            if entry is None or entry.install_epoch != request.epoch:
                metrics.increment("replica-fanout-fenced")
                self._service(1.0, "ps-replica")
                return None
            entries[matrix_id] = entry
        if all(entries[m].versions.get((m, row), 0) >= counter
               for (m, row), counter in request.versions.items()):
            metrics.increment("replica-fanout-skipped")
            self._service(1.0, "ps-replica")
            return None
        _HANDLERS[type(request.inner)](self, request.inner, entries)
        for (m, row), counter in request.versions.items():
            entries[m].versions[(m, row)] = counter
        return None

    # -- lifecycle --------------------------------------------------------

    def is_alive(self):
        """Apply any scheduled crash, then report liveness (never raises).

        Used by sweeps that must tolerate dead servers (``checkpoint_all``
        skips them) as well as by :meth:`_check_alive`.
        """
        if self.alive:
            now = self.cluster.clock.now(self.node_id)
            if self.cluster.failures.due_server_failures(self.node_id, now):
                self.crash()
        return self.alive

    def _check_alive(self):
        """Apply any scheduled crash, then verify the server is up."""
        if not self.is_alive():
            raise ServerDownError("server %s is down" % self.node_id)

    def crash(self):
        """Lose all state (a fraction of the model), as in Section 5.3."""
        self.alive = False
        self._store.clear()
        self.replica_store.clear()
        self.cluster.metrics.increment("server-crashes")

    def revive(self):
        """Bring the (replacement) server up with empty state.

        The coordinator "starts a new server" (Section 5.3): the replacement
        must not inherit the dead process's CPU queue, so the service
        timeline and in-flight request anchor are reset and the completion
        watermark restarts at the node's current virtual time.
        """
        self.alive = True
        self.cpu.reset()
        self._arrival = None
        self.last_completion = self.cluster.clock.now(self.node_id)

    # -- storage ----------------------------------------------------------

    def allocate_row(self, matrix_id, row, start, stop, init="zero", rng=None,
                     scale=1.0):
        """Create the local shard of (*matrix_id*, *row*)."""
        self._check_alive()
        length = int(stop) - int(start)
        if init == "zero":
            values = np.zeros(length)
        elif init == "random":
            if rng is None:
                raise PSError("random init requires an rng")
            values = rng.standard_normal(length) * float(scale)
        elif init == "uniform":
            if rng is None:
                raise PSError("uniform init requires an rng")
            values = (rng.random(length) - 0.5) * 2.0 * float(scale)
        else:
            raise PSError("unknown init %r" % (init,))
        rows = self._store.setdefault(matrix_id, {})
        rows[int(row)] = RowShard(start, stop, values)

    def drop_matrix(self, matrix_id):
        """Free every shard of *matrix_id*, replicas included (idempotent)."""
        self._store.pop(matrix_id, None)
        for key in [k for k in self.replica_store if k[0] == matrix_id]:
            del self.replica_store[key]

    def shard(self, matrix_id, row):
        """The local shard of (*matrix_id*, *row*); raises if absent."""
        self._check_alive()
        try:
            return self._store[matrix_id][int(row)]
        except KeyError:
            raise MatrixNotFoundError(
                "server %s has no shard for matrix %r row %r"
                % (self.node_id, matrix_id, row)
            ) from None

    def has_shard(self, matrix_id, row):
        return matrix_id in self._store and int(row) in self._store[matrix_id]

    def stored_matrix_ids(self):
        """Matrix ids with at least one local shard (for reconciliation)."""
        return list(self._store)

    def stored_bytes(self):
        """Bytes of model state held (used for checkpoint cost)."""
        return sum(
            shard.values.nbytes
            for rows in self._store.values()
            for shard in rows.values()
        )

    def matrix_rows(self, matrix_id):
        """All local shards of *matrix_id* (``{row: RowShard}``); raises
        if this server holds none — the replication manager's source for
        replica installs."""
        self._check_alive()
        try:
            return self._store[matrix_id]
        except KeyError:
            raise MatrixNotFoundError(
                "server %s has no shards for matrix %r"
                % (self.node_id, matrix_id)
            ) from None

    # -- hot-key replica storage -------------------------------------------

    def install_replica(self, matrix_id, primary_index, rows, versions,
                        install_epoch):
        """Install (or refresh) a replica of another server's shards.

        *rows* is the primary's ``{row: RowShard}`` for *matrix_id* and
        *versions* its per-row mutation counters; both are deep-copied in.
        ``install_epoch`` must be the primary's recovery epoch at copy
        time — it is the fence replica reads and fan-out applies validate.
        """
        self._check_alive()
        self.replica_store[(matrix_id, int(primary_index))] = ReplicaEntry(
            _copy_rows(rows), dict(versions), install_epoch
        )

    def drop_replica(self, matrix_id, primary_index):
        """De-replicate one key (idempotent)."""
        self.replica_store.pop((matrix_id, int(primary_index)), None)

    def has_replica(self, matrix_id, primary_index, epoch=None):
        """Whether a replica for the key is installed (and, if *epoch* is
        given, installed at that primary epoch — i.e. valid to serve)."""
        entry = self.replica_store.get((matrix_id, int(primary_index)))
        if entry is None:
            return False
        return epoch is None or entry.install_epoch == int(epoch)

    def replica_bytes(self):
        """Bytes of replica state held (report/capacity accounting)."""
        return sum(
            shard.values.nbytes
            for entry in self.replica_store.values()
            for shard in entry.rows.values()
        )

    def _replica_shard(self, matrix_id, primary_index, row):
        self._check_alive()
        entry = self.replica_store.get((matrix_id, int(primary_index)))
        if entry is None:
            raise MatrixNotFoundError(
                "server %s holds no replica of matrix %r primary %r"
                % (self.node_id, matrix_id, primary_index)
            )
        try:
            return entry.rows[int(row)]
        except KeyError:
            raise MatrixNotFoundError(
                "server %s replica of matrix %r primary %r lacks row %r"
                % (self.node_id, matrix_id, primary_index, row)
            ) from None

    def replica_read(self, matrix_id, primary_index, row, global_indices=None):
        """Serve a read from a replica copy (same pricing as :meth:`read`)."""
        return self._read(self._replica_shard(matrix_id, primary_index, row),
                          global_indices)

    # -- row access (pull/push side) ---------------------------------------

    def _read(self, shard, global_indices):
        """Copy a primary or replica *shard* (or selected global columns
        of it) and charge the read."""
        if global_indices is None:
            values = shard.values.copy()
        else:
            values = shard.values[shard.local(global_indices)]
        self._service(max(1.0, values.size), "ps-read")
        return values

    def read(self, matrix_id, row, global_indices=None):
        """Return a copy of the shard (or of selected global indices)."""
        return self._read(self.shard(matrix_id, row), global_indices)

    def add(self, matrix_id, row, values, global_indices=None):
        """Accumulate *values* into the shard (the PS ``add``/push-add)."""
        n = self.shard(matrix_id, row).write(values, global_indices, "add")
        self._bump_version(matrix_id, row)
        self._notify_direct_write(matrix_id)
        self._service(WRITE_FLOPS["add"] * max(1, n), "ps-add")

    def assign(self, matrix_id, row, values, global_indices=None):
        """Overwrite the shard (or selected indices) with *values*."""
        n = self.shard(matrix_id, row).write(values, global_indices, "assign")
        self._bump_version(matrix_id, row)
        self._notify_direct_write(matrix_id)
        self._service(WRITE_FLOPS["assign"] * max(1, n), "ps-assign")

    def fill(self, matrix_id, row, value):
        """Set every element of the local shard to *value*."""
        shard = self.shard(matrix_id, row)
        shard.values.fill(float(value))
        self._bump_version(matrix_id, row)
        self._notify_direct_write(matrix_id)
        self._service(max(1, shard.values.size), "ps-fill")

    # -- server-side aggregates --------------------------------------------

    def _aggregate(self, shard, kind):
        """Aggregate a primary or replica *shard* and charge the pass."""
        values = shard.values
        self._service(ELEMENTWISE_FLOPS * max(1, values.size), "ps-agg")
        return _aggregate_values(values, kind)

    def aggregate(self, matrix_id, row, kind):
        """Local partial of a row aggregate: sum / nnz / sumsq / max / min."""
        return self._aggregate(self.shard(matrix_id, row), kind)

    # -- server-side kernels (the DCV column ops) ---------------------------

    def execute_kernel(self, kernel, operands, args=None, flops=None,
                       entries=None):
        """Run *kernel* over co-located shard value arrays.

        ``operands`` is a list of ``(matrix_id, row)`` pairs; every shard
        must cover the same column range (guaranteed by DCV co-location).
        The kernel receives the list of 1-D arrays **by reference** — it may
        mutate them in place — plus ``args``, and returns a (small) partial
        result that the caller ships back as scalars.  With *entries* (a
        fanned-out copy, see :meth:`_serve_push`) the operands are this
        server's replica shards of the same rows.
        """
        if entries is None:
            shards = [self.shard(matrix_id, row)
                      for matrix_id, row in operands]
            ranges = {(shard.start, shard.stop) for shard in shards}
            if len(ranges) > 1:
                raise PSError(
                    "kernel operands are not aligned on server %s: %r"
                    % (self.node_id, sorted(ranges))
                )
            # Kernels receive operand arrays by reference and may mutate any
            # of them, so conservatively bump every operand's version.
            for matrix_id, row in operands:
                self._bump_version(matrix_id, row)
            for matrix_id in sorted({matrix_id for matrix_id, _row in operands}):
                self._notify_direct_write(matrix_id)
            tag = "ps-kernel"
        else:
            shards = [entries[matrix_id].rows[int(row)]
                      for matrix_id, row in operands]
            tag = "ps-replica"
        arrays = [shard.values for shard in shards]
        kwargs = dict(args or {})
        if flops is None:
            width = max(1, arrays[0].size if arrays else 0)
            passes, fills = max(1, len(arrays)), 0
            work = getattr(kernel, "_work", None)
            if work is not None:
                # A kernel standing in for several requests says how many
                # operand passes and row fills they came to, and is
                # charged their sum (what :meth:`fill` charges per fill).
                passes, fills = work(len(arrays), **kwargs)
            flops = KERNEL_FLOPS_PER_ELEMENT * width * passes + width * fills
        self._service(flops, tag)
        if getattr(kernel, "_wants_range", False):
            kwargs["start"] = shards[0].start
            kwargs["stop"] = shards[0].stop
        return kernel(arrays, **kwargs)

    # -- checkpointing ------------------------------------------------------

    def snapshot(self):
        """Deep copy of all shard state (for the checkpoint manager).

        Copied through :func:`_copy_rows`: one contiguous block copy per
        equal-range matrix instead of a numpy allocation per row.
        """
        self._check_alive()
        return {
            matrix_id: _copy_rows(rows)
            for matrix_id, rows in self._store.items()
        }

    def restore(self, snapshot):
        """Replace all state with *snapshot* (deep-copied in)."""
        self._store = {
            matrix_id: _copy_rows(rows)
            for matrix_id, rows in snapshot.items()
        }
        self.alive = True

    def restore_matrix(self, matrix_id, rows):
        """Install one matrix's snapshot rows (deep-copied in), leaving
        the rest of the store — e.g. chain-promoted matrices — alone."""
        self._store[matrix_id] = _copy_rows(rows)
        self.alive = True


def serve_fast_fanout(cluster, fan_servers, fan_messages, fan_arrivals):
    """Serve a whole fan-out of requests — phase 2 of the bulk transmit,
    for every attempt, first or retry.

    The three parallel sequences give the serving ``PSServer``, the
    request, and its arrival time per *unit*: a stand-alone wire message,
    or one sub-request of a batch envelope.  Envelopes exist on the wire,
    not here — the transport flattens them, and a unit whose arrival is
    ``None`` *chains*: it belongs to the same envelope (hence the same
    server) as the unit before it and starts at that unit's completion
    (``server._arrival``) instead of at a NIC arrival.

    Every unit is served by one rule.  Three kinds are served inline —
    the same due-crash check, numpy access, single CPU reservation,
    metric updates, CPU span (parented through the unit's ``trace_ctx``,
    while tracing is on) and clock advance as ``begin()`` +
    ``dispatch()``, minus ~10 Python frames:

    - a pull-row / push with no codec and no ``replica_of`` whose shard
      is present (a push also bumps the row's version);
    - a lazy-table read (pull-or-create) with no ``replica_of`` whose
      row is already present: it is the dense pull-row arm, booked as
      ``ps-read`` at the same price, replying ``(values, False)``;
    - a forwarded copy of a push (:func:`~repro.ps.replication.forward`
      serves copies through this lane too) whose entry is installed at
      the copy's epoch and whose row is behind the copy's version: it
      writes the replica shard, takes the copy's version and is booked
      as ``ps-replica`` at the primary's price.

    Anything else (other message types, an encoded push or a pull with a
    response codec, a lazy read that creates its row, replica and
    stand-in reads, fenced or already-covered copies, missing shards, a
    crashed server) goes through the full dispatch in
    place, with the pending metric run flushed first so every per-key
    accumulation — float compute totals, histogram sums — happens in
    exactly the per-message order; fencing is ``dispatch``'s alone.  Only
    a server with a crash scheduled is asked whether it is due (the set
    is read once per call); a crashed server's empty stores send its
    units to dispatch anyway.  Nothing is booked from inside a dispatch
    on another server's behalf: copies and lazy-row syncs leave in
    :func:`~repro.ps.replication.forward`, after the whole fan-out.

    Returns ``(values, completions)`` aligned with the inputs; results
    and all virtual times are bit-identical to the interleaved reference
    in ``tests/test_fast_lane.py``.
    A unit whose arrival is a ``NetworkPartitionedError`` (its wire
    message was dropped) or whose dispatch raises a retryable error yields
    the error as its value and ``None`` as its completion, and so does
    every later unit chained to it (the envelope stopped there, earlier
    units applied exactly once, as per-sub dispatch leaves it); the
    transport hands that wire message to the retry policy.
    """
    metrics = cluster.metrics
    clock_times = cluster.clock._times
    node = cluster.node
    PullRow = messages.PullRowRequest
    Lazy = messages.PullOrCreateRequest
    Push = messages.PushRequest
    Copy = messages.ReplicatedPushRequest
    crashing = cluster.failures.crashing_nodes()
    tracer = cluster.tracer
    traced = tracer.enabled
    values_out = []
    completions = []
    run_tag = None
    run_nodes = []
    run_secs = []
    record_bulk = metrics.record_service_bulk
    failed = None
    for server, message, arrival in zip(fan_servers, fan_messages,
                                        fan_arrivals):
        if arrival is None:
            arrival = server._arrival
        elif arrival.__class__ is NetworkPartitionedError:
            failed = arrival
        else:
            failed = None
        if failed is not None:
            values_out.append(failed)
            completions.append(None)
            continue
        kind = type(message)
        shard = None
        if kind is PullRow or kind is Push or kind is Lazy:
            if message.codec is None and message.replica_of is None and (
                    server.node_id not in crashing or server.is_alive()):
                rows = server._store.get(message.matrix_id)
                if rows is not None:
                    shard = rows.get(message.row)
        elif kind is Copy and type(message.inner) is Push and (
                server.node_id not in crashing or server.is_alive()):
            push = message.inner
            entry = server.replica_store.get(
                (push.matrix_id, message.primary_index))
            if entry is not None and entry.install_epoch == message.epoch:
                version_key = (push.matrix_id, push.row)
                counter = message.versions[version_key]
                if entry.versions.get(version_key, 0) < counter:
                    shard = entry.rows.get(push.row)
        if shard is None:
            # Slow lane: flush the pending metric run first so per-key
            # accumulation order matches the per-message path exactly.
            if run_secs:
                record_bulk(run_tag, run_nodes, run_secs)
                run_nodes = []
                run_secs = []
            server.begin(arrival)
            try:
                values_out.append(server.dispatch(message))
                completions.append(server.last_completion)
            except (ServerDownError, MatrixNotFoundError) as error:
                failed = error
                values_out.append(error)
                completions.append(None)
            continue
        if kind is PullRow or kind is Lazy:
            indices = message.indices
            if indices is None:
                value = shard.values.copy()
            else:
                value = shard.values[
                    server._local_offsets(indices, shard.start)
                ]
            flops = value.size
            if flops < 1:
                flops = 1.0
            tag = "ps-read"
            if kind is Lazy:
                value = (value, False)
        else:
            if kind is Push:
                push = message
            indices = push.indices
            mode = push.mode
            if indices is None:
                if mode == "add":
                    shard.values += push.values
                else:
                    shard.values[:] = push.values
                n = shard.values.size
            else:
                local = server._local_offsets(indices, shard.start)
                if mode == "add":
                    np.add.at(shard.values, local, push.values)
                else:
                    shard.values[local] = push.values
                n = len(push.values)
            if n < 1:
                n = 1
            if kind is Push:
                version_key = (push.matrix_id, push.row)
                versions = server.versions
                versions[version_key] = versions.get(version_key, 0) + 1
                tag = "ps-add" if mode == "add" else "ps-assign"
            else:
                entry.versions[version_key] = counter
                tag = "ps-replica"
            flops = WRITE_FLOPS[mode] * n
            value = None
        rate = server._node_flops
        if rate is None:
            rate = server._node_flops = float(node(server.node_id).spec.flops)
        seconds = float(flops) / rate
        start = server.cpu.reserve(arrival, seconds)
        completion = start + seconds
        server.last_completion = completion
        server._arrival = completion
        node_id = server.node_id
        if traced:
            ctx = message.trace_ctx
            tracer.record(node_id, tag, start, completion, cat="cpu",
                          parent_id=None if ctx is None else ctx[1],
                          queue_wait=start - arrival)
        if completion > clock_times[node_id]:
            clock_times[node_id] = completion
        if tag is run_tag:
            run_nodes.append(node_id)
            run_secs.append(seconds)
        else:
            if run_secs:
                record_bulk(run_tag, run_nodes, run_secs)
            run_tag = tag
            run_nodes = [node_id]
            run_secs = [seconds]
        values_out.append(value)
        completions.append(completion)
    if run_secs:
        record_bulk(run_tag, run_nodes, run_secs)
    return values_out, completions


#: The server-side protocol: one handler per message type — except the
#: :class:`~repro.ps.messages.BatchRequest` envelope, which exists on the
#: wire only; ``dispatch`` refuses one rather than half-apply it.
_HANDLERS = {
    messages.PullRowRequest: PSServer._serve_pull_row,
    messages.PullOrCreateRequest: PSServer._serve_pull_or_create,
    messages.PullRangeRequest: PSServer._serve_pull_range,
    messages.PushRequest: PSServer._serve_push,
    messages.PushRangeRequest: PSServer._serve_push_range,
    messages.AggregateRequest: PSServer._serve_aggregate,
    messages.KernelRequest: PSServer._serve_kernel,
    messages.FillRequest: PSServer._serve_fill,
    messages.ClockAdvanceRequest: PSServer._serve_clock_advance,
    messages.ReplicatedPushRequest: PSServer._serve_replicated_push,
}
