"""Parameter server: shard storage plus server-side compute kernels.

Each :class:`PSServer` owns one simulated machine and stores, per model
matrix, the row shards assigned to it by the matrix layout.  Every
mutation and kernel execution costs compute time on the server's CPU, so
server-side computation is not free — it is merely local.

Serving a request is defined once, in two halves.  A handler
(``_HANDLERS``, one per :mod:`~repro.ps.messages` type and each serving
exactly one — the server-side half of the explicit RPC protocol) is a
pure storage step: it reads or writes the shards and returns its reply
with the ordered ``(flops, tag)`` *charges* of the work it did.  :func:`serve_fast_fanout` is the only code
that books server work: it decides liveness, runs the handler and books
each charge on the CPU timeline, the clock, the metrics and (while
tracing) a CPU span.  Everything that serves — the transport, replica
forwards, realignment (:func:`serve_one`) — goes through it.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.resource import TimelineResource
from repro.common.errors import MatrixNotFoundError, \
    NetworkPartitionedError, PSError, ServerDownError
from repro.common.rng import generator
from repro.costs import CLOCK_FLOPS, COPY_CHECK_FLOPS, ELEMENTWISE_FLOPS, \
    FILL_FLOPS, KERNEL_FLOPS_PER_ELEMENT, READ_FLOPS, WRITE_FLOPS
from repro.ps import messages


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


def lazy_init_rng(seed, matrix_id, row):
    """The one-shot init stream for one lazy-table row.

    The stream carries **no server index** and is constructed fresh per
    call: creation on whichever server the current layout routes the row
    to, re-materialization during recovery, and re-creation after a shard
    migration all draw bit-identical values — layout-independent
    determinism, the property the serving tier's property tests pin down.
    """
    return generator(seed, "ps-lazy-init-%s-%d" % (matrix_id, row))


class RowShard:
    """The slice ``[start, stop)`` of one model row held by one server."""

    __slots__ = ("start", "stop", "values")

    def __init__(self, start, stop, values):
        self.start = int(start)
        self.stop = int(stop)
        self.values = values

    def __len__(self):
        return self.stop - self.start

    def copy(self):
        """An independent shard over a copy of the values."""
        return RowShard(self.start, self.stop, self.values.copy())


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
        self.cpu = TimelineResource(cluster.clock)
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
        #: replication is on).
        self.created = set()
        #: Lazily cached ``node.spec.flops`` (immutable) so the fan-out
        #: serve loop prices compute without a node lookup per request.
        self._node_flops = None

    # -- version vectors ----------------------------------------------------

    def _bump_version(self, matrix_id, row):
        key = (matrix_id, int(row))
        self.versions[key] = self.versions.get(key, 0) + 1

    def version_token(self, matrix_id, row):
        """The ``(epoch, counter)`` token for one row; equality-only."""
        return (self.epoch, self.versions.get((matrix_id, int(row)), 0))

    # -- handlers: pure storage steps ---------------------------------------
    #
    # ``handler(server, request) -> (value, charges)``: the reply, and the
    # ordered ``(flops, tag)`` work :func:`serve_fast_fanout` books for it.
    # A handler never touches the CPU timeline, the tracer, a clock or the
    # compute/latency metrics; liveness is decided before it runs.  A
    # handler of a kind whose role is "mutation" also takes *entries* —
    # ``{matrix_id: ReplicaEntry}`` — when :meth:`_serve_replicated_push`
    # applies a forwarded copy: the same message then writes this server's
    # replica shards at the primary's price, charged as ``ps-replica``,
    # with no version bump (the copy carries the primary's counters).

    def _read_shard(self, request):
        """The shard a read is served from: this server's own, or — when
        the replication routers retargeted the read here (``replica_of``
        names the primary) — its copy of the primary's."""
        primary = request.replica_of
        if primary is not None and primary != self.server_index:
            return self._replica_shard(request.matrix_id, primary, request.row)
        try:
            return self._store[request.matrix_id][request.row]
        except KeyError:
            raise self._missing(request.matrix_id, request.row) from None

    def _serve_pull(self, request):
        """Serve a row pull: copy the shard at the request's columns, through its response codec (quantize-at-serve-time): the
        client priced the reply at the codec's fixed rate, so the floats
        delivered are exactly the floats that size paid for.  Stateless
        quantizers only — the cost model never attaches stateful codecs
        to pulls."""
        shard = self._read_shard(request)
        if request.indices is None:
            values = shard.values.copy()
        else:
            values = shard.values[request.indices - shard.start]
        size = values.size
        charges = ((READ_FLOPS * (size if size > 1 else 1), "ps-read"),)
        codec = request.codec
        if codec is not None:
            values = codec.decode(codec.encode(values))
        return values, charges

    def _serve_pull_or_create(self, request):
        """Serve a lazy-table read, creating the row if it is unseen.

        The init values come from a **one-shot** per-(matrix, row) RNG
        stream whose name carries no server index: creation here, a
        re-materialization after a crash (:meth:`PSMaster._reconcile`) and
        a re-creation on a different server after a shard migration all
        draw bit-identical values.  Replies ``(values, created)`` — the
        created flag is the marker word the response size always carries —
        charging ``ps-create`` before the ``ps-read``.  Under replication
        the creation is also recorded in :attr:`created` for
        :meth:`~repro.ps.replication.Replicas.forward`, which ships its
        upkeep once the send completed.  A chain successor standing in for a crashed
        primary (``replica_of``) only reads: the router retargets only
        when the copy already holds the row, and creation stays the
        primary's job.
        """
        matrix_id = request.matrix_id
        row = request.row
        rows = self._store.get(matrix_id)
        if request.replica_of not in (None, self.server_index) \
                or (rows is not None and row in rows):
            values, charges = self._serve_pull(request)
            return (values, False), charges
        rng = lazy_init_rng(self.cluster.rng.seed, matrix_id, row)
        self.allocate_row(matrix_id, row, 0, request.n_values,
                          init=request.init, rng=rng, scale=request.scale)
        self.cluster.metrics.increment("lazy-creates")
        if self.cluster.replicas is not None:
            self.created.add((matrix_id, row))
        values, read = self._serve_pull(request)
        create = (ELEMENTWISE_FLOPS * max(1, request.n_values), "ps-create")
        return (values, True), (create,) + read

    def _serve_push(self, request, entries=None):
        """Serve a push: accumulate (``"add"``) or overwrite
        (``"assign"``) its values into the primary shard — bumping the
        row's version — or, given *entries*, into this server's copy of
        it; priced by the elements touched."""
        if entries is not None:
            shard = entries[request.matrix_id].rows[request.row]
        else:
            try:
                shard = self._store[request.matrix_id][request.row]
            except KeyError:
                raise self._missing(request.matrix_id, request.row) from None
        mode = request.mode
        values = request.values
        if request.indices is None:
            if mode == "add":
                shard.values += values
            else:
                shard.values[:] = values
            n = shard.values.size
        else:
            local = request.indices - shard.start
            if mode == "add":
                np.add.at(shard.values, local, values)
            else:
                shard.values[local] = values
            n = len(values)
        if entries is not None:
            tag = "ps-replica"
        else:
            key = (request.matrix_id, request.row)
            self.versions[key] = self.versions.get(key, 0) + 1
            tag = "ps-add" if mode == "add" else "ps-assign"
        return None, ((WRITE_FLOPS[mode] * (n if n > 1 else 1), tag),)

    def _serve_aggregate(self, request):
        values = self._read_shard(request).values
        charges = ((ELEMENTWISE_FLOPS * max(1, values.size), "ps-agg"),)
        return _aggregate_values(values, request.kind), charges

    def _serve_kernel(self, request, entries=None):
        return self.execute_kernel(request.kernel, request.operands,
                                   args=request.args, flops=request.flops,
                                   entries=entries)

    def _serve_fill(self, request, entries=None):
        if entries is None:
            shard = self.shard(request.matrix_id, request.row)
        else:
            shard = entries[request.matrix_id].rows[request.row]
        shard.values.fill(request.value)
        tag = "ps-replica"
        if entries is None:
            self._bump_version(request.matrix_id, request.row)
            tag = "ps-fill"
        return None, ((FILL_FLOPS * max(1, shard.values.size), tag),)

    def _serve_clock_advance(self, request):
        tokens = [
            self.version_token(matrix_id, row) for matrix_id, row in request.keys
        ]
        return tokens, ((CLOCK_FLOPS * max(1, len(request.keys)),
                         "ps-clock"),)

    def _serve_replicated_push(self, request):
        """Apply a fanned-out mutation to this server's replica copies as
        many times as its primary applied the original.

        Fencing first: the install epoch must match the primary epoch
        recorded at fan-out time.  Then the count ``k``: the recorded
        counter less the holder's, over the original's own bumps of the
        row (one for a push or fill, the row's occurrences among a
        kernel's operands).  ``k`` is 1, or more when the transport
        re-delivered the original after its response was lost and the
        primary applied it again; it is the same for every row a copy
        carries (a send carries one original per row, and a re-install
        covers a whole key), so the first row decides and every other row
        must agree: a row owing a different count, or a row the holder
        lacks, means the holder missed an update its primary made, and
        the copy raises rather than apply a wrong count.  ``k <= 0`` means
        a fresh re-install already covered the rows.  Otherwise the
        original is applied ``k`` times, charged as ``k`` chained slots at
        its price, and the replica's row counters advance to the recorded
        values, so replicas stay in lockstep with the primary's version
        vector.  A fenced or covered copy still costs its check
        (:data:`_COPY_CHECK`).
        """
        versions = request.versions
        inner = request.inner
        operands = inner.operands \
            if inner.__class__ is messages.KernelRequest else None
        entries = {}
        times = None
        for key in versions:
            matrix_id, row = key
            if matrix_id not in entries:
                entry = self.replica_store.get(
                    (matrix_id, request.primary_index))
                if entry is None or entry.install_epoch != request.epoch:
                    self.cluster.metrics.increment("replica-fanout-fenced")
                    return None, _COPY_CHECK
                entries[matrix_id] = entry
            entry = entries[matrix_id]
            bumps = 1
            if operands is not None:
                bumps = 0
                for operand in operands:
                    if operand[0] == matrix_id and operand[1] == row:
                        bumps += 1
            owed = versions[key] - entry.versions.get(key, 0)
            if times is None:
                times = owed // bumps
            if (owed != times * bumps or row not in entry.rows
                    if times > 0 else owed > 0):
                raise AssertionError("copy rows disagree: %r" % (versions,))
        if times <= 0:
            self.cluster.metrics.increment("replica-fanout-skipped")
            return None, _COPY_CHECK
        handler = _HANDLERS[inner.__class__]
        _value, charges = handler(self, inner, entries)
        if times > 1:
            for _again in range(times - 1):
                handler(self, inner, entries)
            charges *= times
        for key in versions:
            entries[key[0]].versions[key] = versions[key]
        return None, charges

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
        timeline is reset.
        """
        self.alive = True
        self.cpu.reset()

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

    def shard(self, matrix_id, row):
        """The local shard of (*matrix_id*, *row*); raises if absent."""
        try:
            return self._store[matrix_id][int(row)]
        except KeyError:
            raise self._missing(matrix_id, row) from None

    def _missing(self, matrix_id, row):
        return MatrixNotFoundError(
            "server %s has no shard for matrix %r row %r"
            % (self.node_id, matrix_id, row))

    def has_shard(self, matrix_id, row):
        return matrix_id in self._store and int(row) in self._store[matrix_id]

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

    # -- server-side kernels (the DCV column ops) ---------------------------

    def execute_kernel(self, kernel, operands, args=None, flops=None,
                       entries=None):
        """Run *kernel* over co-located shard value arrays; returns
        ``(result, charges)`` like every handler.

        ``operands`` is a list of ``(matrix_id, row)`` pairs; every shard
        must cover the same column range (guaranteed by DCV co-location).
        The kernel receives the list of 1-D arrays **by reference** — it may
        mutate them in place — plus ``args``, and returns a (small) partial
        result that the caller ships back as scalars.  With *entries* (a
        fanned-out copy, see :meth:`_serve_replicated_push`) the operands
        are this server's replica shards of the same rows.
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
                # charged their sum (what a fill charges per fill).
                passes, fills = work(len(arrays), **kwargs)
            flops = KERNEL_FLOPS_PER_ELEMENT * width * passes + width * fills
        if getattr(kernel, "_wants_range", False):
            kwargs["start"] = shards[0].start
            kwargs["stop"] = shards[0].stop
        return kernel(arrays, **kwargs), ((flops, tag),)

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


def serve_fast_fanout(cluster, servers, groups, arrivals):
    """Serve a whole fan-out of wire messages — the only code that books
    server work: phase 2 of every transport attempt, first or retry,
    replica forwards and realignment alike.

    The three parallel sequences give, per wire message, the serving
    ``PSServer``, its *group* (the ordered requests it carries, see
    :func:`~repro.ps.messages.wire_bytes`) and its arrival time.  Every
    request is served by one rule:

    1. liveness is decided once, at the request's start — only a server
       with a crash scheduled is asked whether it is due (the set is read
       once per call), so a crash falling due *during* a request takes
       effect at the next one;
    2. an encoded request is decoded in place (decode-before-apply, so
       every handler sees exactly what the wire delivered);
    3. the request's handler (``_HANDLERS``) applies it and names its
       charges;
    4. each charge is reserved on the server's CPU, chained from the
       previous charge's completion — the group's first from its arrival,
       so a group's requests run back to back;
    5. each gets a CPU span (parented through the request's
       ``trace_ctx``, while tracing is on), advances the server's clock
       and joins the same-tag run of ``record_service_bulk`` — runs are
       flushed in order, so every per-key accumulation happens in
       booking order.

    Nothing is booked on another server's behalf: copies and lazy-row
    syncs leave in :meth:`~repro.ps.replication.Replicas.forward`, after
    the whole fan-out.

    Returns ``(replies, completions)`` aligned with *groups*: a group's
    list of replies and its last request's completion.  A group whose
    arrival is a ``NetworkPartitionedError`` (its wire message was
    dropped), or which meets a down server or a missing shard, gets that
    error instead of its replies and ``None`` as its completion; the
    requests before the failure stay applied, once, and the transport
    hands the wire message to the retry policy.  Results and all virtual
    times are bit-identical to the interleaved reference in
    ``tests/test_fast_lane.py``.
    """
    metrics = cluster.metrics
    clock_times = cluster.clock._times
    node = cluster.node
    handlers = _HANDLERS
    crashing = cluster.failures.crashing_nodes()
    tracer = cluster.tracer
    traced = tracer.enabled
    replies_out = []
    completions = []
    run_tag = None
    run_nodes = []
    run_secs = []
    record_bulk = metrics.record_service_bulk
    for server, group, completion in zip(servers, groups, arrivals):
        if completion.__class__ is NetworkPartitionedError:
            replies_out.append(completion)
            completions.append(None)
            continue
        node_id = server.node_id
        rate = server._node_flops
        if rate is None:
            rate = server._node_flops = float(node(node_id).spec.flops)
        cpu = server.cpu
        replies = []
        for message in group:
            try:
                handler = handlers[message.__class__]
            except KeyError:
                raise PSError("server %s has no handler for %r"
                              % (node_id, type(message).__name__)) from None
            if node_id in crashing:
                server.is_alive()
            if message.codec is not None:
                message.materialize()
            try:
                if not server.alive:
                    raise ServerDownError("server %s is down" % node_id)
                value, charges = handler(server, message)
            except (ServerDownError, MatrixNotFoundError) as error:
                replies = error
                completion = None
                break
            for flops, tag in charges:
                seconds = float(flops) / rate
                start = cpu.reserve(completion, seconds)
                end = start + seconds
                if traced:
                    ctx = message.trace_ctx
                    tracer.record(node_id, tag, start, end, cat="cpu",
                                  parent_id=None if ctx is None else ctx[1],
                                  queue_wait=start - completion)
                completion = end
                if completion > clock_times[node_id]:
                    clock_times[node_id] = completion
                if tag == run_tag:
                    run_nodes.append(node_id)
                    run_secs.append(seconds)
                else:
                    if run_secs:
                        record_bulk(run_tag, run_nodes, run_secs)
                    run_tag = tag
                    run_nodes = [node_id]
                    run_secs = [seconds]
            replies.append(value)
        replies_out.append(replies)
        completions.append(completion)
    if run_secs:
        record_bulk(run_tag, run_nodes, run_secs)
    return replies_out, completions


def serve_one(server, request, arrival):
    """Serve *request* on *server* as a one-request wire message arriving
    at *arrival*; returns ``(value, completion)``, or raises the error
    that stopped it."""
    (replies,), (completion,) = serve_fast_fanout(server.cluster, [server],
                                                  [[request]], [arrival])
    if completion is None:
        raise replies
    return replies[0], completion


#: What a fenced or already-covered copy costs: its check.
_COPY_CHECK = ((COPY_CHECK_FLOPS, "ps-replica"),)

#: The server-side protocol: one handler per message type, and no handler
#: serves two.
_HANDLERS = {
    messages.PullRowRequest: PSServer._serve_pull,
    messages.PullOrCreateRequest: PSServer._serve_pull_or_create,
    messages.PushRequest: PSServer._serve_push,
    messages.AggregateRequest: PSServer._serve_aggregate,
    messages.KernelRequest: PSServer._serve_kernel,
    messages.FillRequest: PSServer._serve_fill,
    messages.ClockAdvanceRequest: PSServer._serve_clock_advance,
    messages.ReplicatedPushRequest: PSServer._serve_replicated_push,
}
