"""PS-master: matrix lifecycle, routing metadata and failure recovery.

The master runs inside the coordinator (the Spark driver), as in Section 5.1:
it "manages the lifetime of PS-servers, and provides some meta information,
including the locations and routing tables for PS-client to locate
parameters".  Client-side, the routing table is cached (and re-fetched after
an invalidation) by each :class:`repro.ps.transport.Transport`, and
:meth:`PSMaster.server` is how every RPC attempt resolves the *current*
server object — a recovered server is a new process, and a transport retry
must never talk to the old one.

Recovery contract (Section 5.3): when a server fails, the coordinator starts
a **new** server process under the same node and loads the latest checkpoint
into it.  Matrices created (or grown) after that checkpoint — or matrices
that existed before the *first* checkpoint was ever taken — are rebuilt from
the master's metadata with the same deterministic per-shard RNG streams used
at allocation time, and matrices freed since the snapshot are dropped.  What
is lost, exactly as in the paper, is the *updates* applied to the failed
server's shards since the last checkpoint; SGD-style training absorbs the
regression, bounded by the updates-since-last-checkpoint.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.cluster.cluster import DRIVER
from repro.common.errors import MatrixNotFoundError, PSError
from repro.common.rng import generator
from repro.costs import REQUEST_HEADER_BYTES
from repro.ps import messages
from repro.ps.checkpoint import CheckpointManager
from repro.ps.costmodel import CostModel
from repro.ps.partitioner import ColumnLayout, RowLayout
from repro.ps.replication import Replicas
from repro.ps.server import PSServer, RowShard


class MatrixInfo:
    """Metadata for one distributed model matrix.

    Carries everything needed to rebuild any shard from scratch after a
    failure: the layout (placement) plus the initialization recipe
    (``init``/``scale``), replayed against the same named RNG streams.

    ``lazy`` marks an embedding table whose rows materialize on first
    access (:meth:`PSMaster.create_table`): ``created_rows`` is the
    master's authoritative registry of ids that exist — the recovery
    metadata that lets :meth:`PSMaster._reconcile` rebuild a lazy table
    after a crash, since no ``range(n_rows)`` enumerates it.
    """

    __slots__ = ("matrix_id", "dim", "n_rows", "layout", "name", "init",
                 "scale", "lazy", "created_rows")

    def __init__(self, matrix_id, dim, n_rows, layout, name, init="zero",
                 scale=0.01, lazy=False):
        self.matrix_id = matrix_id
        self.dim = int(dim)
        self.n_rows = int(n_rows)
        self.layout = layout
        self.name = name
        self.init = init
        self.scale = float(scale)
        self.lazy = bool(lazy)
        self.created_rows = set() if lazy else None


class PSMaster:
    """Coordinator-resident manager of parameter servers and matrices."""

    def __init__(self, cluster):
        self.cluster = cluster
        self.servers = [
            PSServer(cluster, node_id, index)
            for index, node_id in enumerate(cluster.servers)
        ]
        self.checkpoints = CheckpointManager(cluster)
        self._matrices = {}
        #: Bumped whenever a server process is replaced (failover): any
        #: pooled artifact that resolved server objects must rebuild.
        self.topology_epoch = 0
        self._next_matrix_id = 0
        self.checkpoint_interval = float(
            cluster.config.failures.checkpoint_interval
        )
        self._next_sweep = (
            self.checkpoint_interval if self.checkpoint_interval > 0 else None
        )
        #: Virtual times at which periodic sweeps ran (experiment telemetry).
        self.checkpoint_sweep_times = []
        if self._next_sweep is not None:
            cluster.stage_end_hooks.append(self.maybe_checkpoint)
        # The optional subsystems below fill the slots ``Cluster.__init__``
        # declares (``None`` = off).  With a knob off nothing is
        # constructed, so every transport/server fast path and wire
        # formula stays bit-identical to a build without the subsystem
        # (the golden-run guarantee).
        config = cluster.config
        #: Hot-key and chain replication over one holder table
        #: (``replication != "off"`` or ``chain_replicas > 0``); without a
        #: chain, checkpoint restore is the only recovery path.
        self.replicas = None
        if config.replication != "off" or config.chain_replicas > 0:
            self.replicas = cluster.replicas = Replicas(cluster, self)
            cluster.stage_end_hooks.append(functools.partial(
                self.replicas.maybe_rebalance, at_stage_end=True))
        #: The wire-codec cost model (``wire_codec != "off"``).
        self.costmodel = None
        if config.wire_codec != "off":
            self.costmodel = cluster.costmodel = CostModel(cluster)

    @property
    def n_servers(self):
        return len(self.servers)

    def server(self, index):
        return self.servers[index]

    # -- matrix lifecycle ---------------------------------------------------

    def _init_rng(self, matrix_id, row, server_index):
        """The deterministic init stream for one shard.

        The same stream names are used at allocation and at post-failure
        re-initialization, so recovery is a deterministic function of the
        run's seed and failure schedule.
        """
        return self.cluster.rng.get(
            "ps-init-%d-%d-%d" % (matrix_id, row, server_index)
        )

    def create_matrix(self, dim, n_rows=1, layout=None, init="zero", scale=0.01,
                      name=None):
        """Allocate an ``n_rows x dim`` model matrix across the servers.

        Returns the matrix id.  Allocation sends one control message per
        involved server; random initialization happens server-side with a
        per-shard deterministic stream, so values do not depend on the number
        of clients.
        """
        if layout is None:
            layout = ColumnLayout(dim, self.n_servers)
        matrix_id = self._next_matrix_id
        self._next_matrix_id += 1
        info = MatrixInfo(matrix_id, dim, n_rows, layout, name or "m%d" % matrix_id,
                          init=init, scale=scale)
        self._matrices[matrix_id] = info

        involved = set()
        for row in range(n_rows):
            for server_index, start, stop in layout.shards_for_row(row):
                involved.add(server_index)
                self.servers[server_index].allocate_row(
                    matrix_id, row, start, stop, init=init,
                    rng=self._init_rng(matrix_id, row, server_index),
                    scale=scale,
                )
        for server_index in sorted(involved):
            self.cluster.network.transfer(
                DRIVER,
                self.servers[server_index].node_id,
                REQUEST_HEADER_BYTES,
                tag="ps-allocate",
            )
        if self.replicas is not None:
            self.replicas.on_matrix_created(matrix_id)
        return matrix_id

    def _lazy_rng(self, matrix_id, row):
        """The one-shot init stream for one lazy-table row.

        Unlike :meth:`_init_rng` the stream carries **no server index** and
        is constructed fresh per call: creation on whichever server the
        current layout routes the row to, re-materialization during
        recovery, and re-creation after a shard migration all draw
        bit-identical values — layout-independent determinism, the
        property the serving tier's property tests pin down.
        """
        return generator(self.cluster.rng.seed,
                         "ps-lazy-init-%s-%d" % (matrix_id, int(row)))

    def create_table(self, dim, init="random", scale=0.01, name=None):
        """Create a lazy embedding table; returns the matrix id.

        No shards are allocated up front: rows materialize server-side on
        the first :class:`~repro.ps.messages.PullOrCreateRequest` that
        references them (ElasticDL's ``get_or_create``), so the table
        grows unbounded during online learning.  Row placement uses a
        :class:`RowLayout` — one whole embedding vector per id, the
        classic single-server embedding lookup.
        """
        matrix_id = self._next_matrix_id
        self._next_matrix_id += 1
        info = MatrixInfo(matrix_id, dim, 0, RowLayout(dim, self.n_servers),
                          name or "t%d" % matrix_id, init=init, scale=scale,
                          lazy=True)
        self._matrices[matrix_id] = info
        return matrix_id

    def register_lazy_rows(self, matrix_id, rows):
        """Record ids a client's get_or_create round materialized.

        The registry is create-once: ids already known are ignored, so
        concurrent workers racing on the same id converge on one creation
        record.  Returns the number of ids that were new.  The wire cost
        of the registration message is charged by the client.
        """
        info = self.info(matrix_id)
        if not info.lazy:
            raise PSError("matrix %r is not a lazy table" % (matrix_id,))
        fresh = 0
        for row in rows:
            row = int(row)
            if row not in info.created_rows:
                info.created_rows.add(row)
                if row >= info.n_rows:
                    info.n_rows = row + 1
                fresh += 1
        return fresh

    def free_matrix(self, matrix_id):
        """Release every shard of *matrix_id* (replicas included)."""
        self._matrices.pop(matrix_id, None)
        for server in self.servers:
            server.drop_matrix(matrix_id)
        if self.replicas is not None:
            self.replicas.on_matrix_freed(matrix_id)

    def info(self, matrix_id):
        try:
            return self._matrices[matrix_id]
        except KeyError:
            raise MatrixNotFoundError("unknown matrix %r" % (matrix_id,)) from None

    def layout(self, matrix_id):
        return self.info(matrix_id).layout

    def matrix_ids(self):
        """Sorted ids of every live matrix (replication/chain sweeps)."""
        return sorted(self._matrices)

    # -- fault handling -----------------------------------------------------

    def checkpoint_all(self):
        """Checkpoint sweep over all (live) servers."""
        self.checkpoints.checkpoint_all(self.servers)

    def maybe_checkpoint(self):
        """Run a checkpoint sweep if the configured interval has elapsed.

        Driven by virtual time (``checkpoint_interval`` in the failure
        config): polled after every sparklite stage barrier and after every
        client PS op, so training loops sweep automatically without manual
        ``checkpoint_all`` calls.  Returns whether a sweep ran.
        """
        if self._next_sweep is None:
            return False
        if self.cluster.clock.global_time() < self._next_sweep:
            return False
        self.checkpoint_all()
        self.cluster.metrics.increment("checkpoint-sweeps")
        self.checkpoint_sweep_times.append(self.cluster.clock.global_time())
        # Re-arm relative to the post-sweep clock: a long stage must trigger
        # one sweep, not a burst of catch-up sweeps.
        self._next_sweep = (
            self.cluster.clock.global_time() + self.checkpoint_interval
        )
        return True

    def maybe_rebalance(self):
        """Poll the replication rebalance sweep (virtual-time gated).

        Called after every client PS op, mirroring
        :meth:`maybe_checkpoint`, so pure-PS workloads sweep without a
        sparklite stage barrier.  A no-op (``False``) when replication is
        off or when ``rebalance_interval`` is 0 — interval-0 sweeps run
        only at stage ends.
        """
        if self.replicas is None:
            return False
        return self.replicas.maybe_rebalance()

    def _reconcile(self, server):
        """Bring *server*'s shard set in line with the matrix metadata.

        Re-allocates, freshly initialized, every shard the metadata assigns
        to this server that is missing from its store (matrices created
        after the last checkpoint, or everything when no checkpoint exists),
        and drops shards of matrices freed since the snapshot was taken.
        Returns the number of shards re-initialized.
        """
        reinitialized = 0
        for info in self._matrices.values():
            for row in self._assigned_rows(info):
                for server_index, start, stop in info.layout.shards_for_row(row):
                    if server_index != server.server_index:
                        continue
                    if server.has_shard(info.matrix_id, row):
                        continue
                    rng = (self._lazy_rng(info.matrix_id, row) if info.lazy
                           else self._init_rng(info.matrix_id, row,
                                               server_index))
                    server.allocate_row(
                        info.matrix_id, row, start, stop, init=info.init,
                        rng=rng, scale=info.scale,
                    )
                    reinitialized += 1
        for matrix_id in server.stored_matrix_ids():
            if matrix_id not in self._matrices:
                server.drop_matrix(matrix_id)
        if reinitialized:
            self.cluster.metrics.increment(
                "recovery-reinit-shards", reinitialized
            )
        return reinitialized

    @staticmethod
    def _assigned_rows(info):
        """The rows a matrix actually has: dense range, or the lazy
        registry in sorted (deterministic) order."""
        if info.lazy:
            return sorted(info.created_rows)
        return range(info.n_rows)

    def _matrices_assigned_to(self, server_index):
        """Ids of matrices with at least one row assigned to the server
        under the current layouts (an empty lazy table assigns nothing,
        so it can never force a checkpoint fallback)."""
        assigned = set()
        for info in self._matrices.values():
            for row in self._assigned_rows(info):
                if any(owner == server_index for owner, _start, _stop
                       in info.layout.shards_for_row(row)):
                    assigned.add(info.matrix_id)
                    break
        return assigned

    def recover(self, server_index):
        """Start a replacement server and rebuild the failed one's state.

        The replacement is a **new** :class:`PSServer` object (the paper's
        coordinator "starts a new server"): clients holding the pre-failure
        object must re-resolve through the master to reach it.  With chain
        replication on, the replacement's matrices are first promoted from
        the failed primary's ring successors — a per-row max-version merge
        that loses **nothing**, not even updates applied after the last
        checkpoint — and only matrices with no surviving valid holder
        (correlated failure of all M+1 processes) fall back to the
        checkpoint path.  That fallback rebuilds state the pre-chain way:
        load the latest checkpoint where one exists, re-initialize shards
        the snapshot does not cover from matrix metadata, and drop shards
        of matrices freed since the snapshot.
        """
        failed = self.servers[server_index]
        recover_start = self.cluster.clock.now(failed.node_id)
        # Epoch continuity: the replacement's version tokens must never
        # equal the failed process's — its state may have rolled back to a
        # checkpoint, and worker caches fence on the epoch to detect that.
        server = PSServer(self.cluster, failed.node_id, server_index,
                          epoch=failed.epoch + 1)
        server.revive()  # resets the CPU timeline to the node's current time
        self.servers[server_index] = server
        self.topology_epoch += 1
        promoted = {}
        checkpoint_time = None
        replicas = self.replicas
        if replicas is None or not replicas.m:
            checkpoint_time = self.checkpoints.recover_server(server)
        else:
            promoted = replicas.promote_into(server, server_index,
                                             failed.epoch)
            uncovered = sorted(
                matrix_id
                for matrix_id in self._matrices_assigned_to(server_index)
                if matrix_id not in promoted
            )
            if uncovered:
                # Correlated failure: every holder of these matrices died
                # too.  Restore just them from the checkpoint — promoted
                # matrices carry post-checkpoint updates and must not be
                # rolled back underneath their merged state.
                self.cluster.metrics.increment("chain-fallbacks")
                checkpoint_time = self.checkpoints.recover_server(
                    server, only_matrices=uncovered
                )
        reinitialized = self._reconcile(server)
        self.cluster.network.transfer(
            DRIVER, server.node_id, REQUEST_HEADER_BYTES, tag="ps-recover"
        )
        self.cluster.metrics.increment("server-recoveries")
        if replicas is not None:
            replicas.on_server_recovered(server_index)
        tracer = self.cluster.tracer
        if tracer.enabled:
            tracer.record(
                server.node_id, "ps-recover", recover_start,
                self.cluster.clock.now(server.node_id), cat="op",
                server_index=server_index,
                from_checkpoint=checkpoint_time is not None,
                reinit_shards=reinitialized,
            )
        return server

    # -- elastic topology ---------------------------------------------------

    def add_server(self):
        """Grow the PS tier by one server (live shard migration)."""
        self.resize_servers(self.n_servers + 1)

    def remove_server(self):
        """Shrink the PS tier by one server (its shards migrate off)."""
        self.resize_servers(self.n_servers - 1)

    def resize_servers(self, new_count):
        """Resize the PS tier to *new_count* servers with live migration.

        Growth appends fresh server processes (their node clocks start at
        the current global time); shrink removes the highest-indexed
        servers — only after every shard they own has migrated off, so
        indices stay dense and routing stays a pure function of the
        layout.  Either way :meth:`_migrate` re-partitions every matrix
        under a new same-shape layout object at the new server count (the
        old layout's pooled fan-out plans go with it), then
        :meth:`_after_resize` invalidates everything else derived from the
        old shard map (routing caches, worker caches, stale checkpoints,
        the hot-shard heat ledger).
        """
        new_count = int(new_count)
        old_count = self.n_servers
        if new_count == old_count:
            return
        if new_count < 1:
            raise PSError(
                "cannot resize the PS tier below one server (got %d)"
                % new_count
            )
        # Chains are torn down *before* the migration sweep (while every
        # pre-resize holder is addressable): every copy was installed
        # against the old shard map, and a crash mid-migration must take
        # the checkpoint path rather than promote stale-layout state.
        # :meth:`_after_resize` re-forms them over the new stores.
        if self.replicas is not None:
            self.replicas.retire_chains()
        if new_count > old_count:
            for _ in range(new_count - old_count):
                node_id = self.cluster.add_server_node()
                server = PSServer(self.cluster, node_id, len(self.servers))
                server.revive()
                self.servers.append(server)
        else:
            self._drain_departing(new_count, old_count)
        self._migrate(new_count)
        # Hot replicas were installed against the pre-resize topology and
        # may live on (or point at) departing indices: demote them all
        # while every server object is still addressable.
        if self.replicas is not None:
            self.replicas.retire_hot()
        for _ in range(old_count - new_count):
            self.servers.pop()
            self.cluster.remove_server_node()
        self._after_resize(old_count, new_count)

    def _drain_departing(self, new_count, old_count):
        """Charge departing servers' in-flight drain before they hand off.

        A departing server with queued work must not stream its shards
        away as if the queue were empty: the migration logically follows
        those requests.  Pin each departing server's clock to its drain
        horizon (the end of its CPU timeline and both NIC timeline horizons)
        so the migration transfers it sources leave only after its backlog
        drains, and record the drained seconds.
        """
        clock = self.cluster.clock
        network = self.cluster.network
        drained = 0.0
        for index in range(new_count, old_count):
            server = self.servers[index]
            send_horizon, recv_horizon = network.nic_horizon(server.node_id)
            horizon = max(server.cpu.horizon(), send_horizon, recv_horizon)
            now = clock.now(server.node_id)
            if horizon > now:
                clock.set_at_least(server.node_id, horizon)
                drained += horizon - now
        if drained > 0.0:
            self.cluster.metrics.increment("elastic-drains")
            self.cluster.metrics.observe("elastic-drain", drained)

    def _remapped_layout(self, layout, new_n):
        """The same-shape layout at *new_n* servers.

        Column layouts keep their rotation and block, so pool-mates (which
        share a rotation) remain co-located after the resize; row layouts
        stay row layouts.
        """
        if isinstance(layout, RowLayout):
            return RowLayout(layout.dim, new_n)
        return ColumnLayout(layout.dim, new_n, rotation=layout.rotation,
                            block=layout.block)

    def _live_source(self, server_index):
        """The current server at *server_index*, recovered if a scheduled
        crash fired — a migration must survive mid-flight failures (the
        recovered process restores its checkpoint and re-initializes the
        rest against the still-current old layout, then migration
        continues from that state)."""
        server = self.servers[server_index]
        if not server.is_alive():
            server = self.recover(server_index)
        return server

    def _migrate(self, new_n):
        """Re-partition every matrix onto *new_n* servers, live.

        For each matrix the new shard map is computed first, every new
        shard's values are assembled from the overlapping old shards
        (reading through :meth:`_live_source`, so a server dying mid-sweep
        is recovered and the copy continues), and only then is the old
        shard map dropped and the new one installed — a reader can never
        observe a half-moved matrix because the swap is per-matrix atomic
        in virtual time (the simulator interleaves nothing inside it).
        Per-row version counters travel with the data (the max over
        contributing old shards), so worker-cache tokens can never
        *regress* across a migration.  Slices that change owner are
        charged to the NIC model under ``shard-migrate``, coalesced into
        one stream per (source, target) pair; the shard-heat ledger
        entries of (matrix, server) keys that lost their assignment are
        retired (no ghost heat).
        """
        transfers = {}
        moved_slices = 0
        old_keys = set()
        new_keys = set()
        for info in self._matrices.values():
            old_layout = info.layout
            new_layout = self._remapped_layout(old_layout, new_n)
            for server_index in range(old_layout.n_servers):
                old_keys.add((info.matrix_id, server_index))
            for server_index in range(new_n):
                new_keys.add((info.matrix_id, server_index))
            new_store = {}
            new_versions = {}
            for row in self._assigned_rows(info):
                old_shards = old_layout.shards_for_row(row)
                for new_server, nstart, nstop in new_layout.shards_for_row(row):
                    values = np.zeros(nstop - nstart)
                    version = 0
                    for old_server, ostart, ostop in old_shards:
                        lo = max(nstart, ostart)
                        hi = min(nstop, ostop)
                        if lo >= hi:
                            continue
                        source = self._live_source(old_server)
                        rows_held = source._store.get(info.matrix_id)
                        shard = None if rows_held is None \
                            else rows_held.get(row)
                        if shard is None:
                            # A drifted store (e.g. a crash recovered
                            # against stale metadata) heals in place.
                            self._reconcile(source)
                            shard = source._store[info.matrix_id][row]
                        values[lo - nstart:hi - nstart] = \
                            shard.values[lo - ostart:hi - ostart]
                        version = max(
                            version,
                            source.versions.get((info.matrix_id, row), 0),
                        )
                        if old_server != new_server:
                            pair = (source.node_id,
                                    self.servers[new_server].node_id)
                            slices, n_values = transfers.get(pair, (0, 0))
                            transfers[pair] = (slices + 1, n_values + hi - lo)
                            moved_slices += 1
                    new_store.setdefault(new_server, {})[row] = RowShard(
                        nstart, nstop, values
                    )
                    if version:
                        new_versions.setdefault(new_server, {})[
                            (info.matrix_id, row)
                        ] = version
            for server in self.servers:
                server._store.pop(info.matrix_id, None)
            for server_index, rows in new_store.items():
                target = self.servers[server_index]
                target._store[info.matrix_id] = rows
                for key, counter in new_versions.get(server_index, {}).items():
                    if counter > target.versions.get(key, 0):
                        target.versions[key] = counter
            info.layout = new_layout
        for (src, dst), (slices, n_values) in sorted(transfers.items()):
            self.cluster.network.transfer(
                src, dst, messages.shard_migrate_bytes(slices, n_values),
                tag="shard-migrate",
            )
        retired = sorted(old_keys - new_keys)
        if retired:
            self.cluster.metrics.retire_shards(retired)
        if moved_slices:
            self.cluster.metrics.increment("migrated-shard-slices",
                                           moved_slices)

    def _after_resize(self, old_count, new_count):
        """Invalidate every artifact derived from the old shard map."""
        self.topology_epoch += 1
        if self.costmodel is not None:
            self.costmodel.on_topology_resized()
        if self.replicas is not None:
            # Chains re-form over the post-migration stores (the teardown
            # ran before the sweep), charging honest chain-sync streams.
            self.replicas.reform()
        # Pre-resize snapshots hold pre-migration shard ranges; restoring
        # one would corrupt widths (reconcile only fills *missing* shards).
        # Drop them, and — when checkpointing was in play — take a fresh
        # sweep so the protection level survives the resize.
        if self.checkpoints.invalidate():
            self.checkpoint_all()
        for server in self.servers:
            self.cluster.network.transfer(
                DRIVER, server.node_id, REQUEST_HEADER_BYTES, tag="ps-resize"
            )
        self.cluster.metrics.increment("elastic-resizes")
        self.cluster.metrics.observe("elastic-server-count", new_count)
        self.cluster.notify_topology_change()

    def repair(self, server_index):
        """Heal a server whose shard set drifted from the metadata.

        The client's retry path calls this on ``MatrixNotFoundError``: a
        dead server gets the full :meth:`recover` treatment; a live one only
        has its missing shards re-allocated (its live updates are kept).
        """
        server = self.servers[server_index]
        if not server.is_alive():
            return self.recover(server_index)
        self._reconcile(server)
        if self.replicas is not None:
            # Repaired shards were written outside the fan-out path; the
            # chain copies must follow.
            self.replicas.resync_primary(server_index)
        self.cluster.metrics.increment("server-repairs")
        return server
