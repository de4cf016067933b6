"""Shard replication: one mechanism, two placement policies.

**The mechanism** (:class:`Replicator`) is written once.  A *copy* of a
(matrix, primary) shard key is the primary's rows for that matrix,
installed in another server's ``replica_store`` together with the
primary's per-row mutation counters and its recovery epoch (the PR-4
fencing token).  The mechanism owns

- the holder map ``{(matrix_id, primary_index): {holder_index:
  install_epoch}}`` and its validity filter — an entry is usable only
  while its install epoch equals the primary's *current* epoch, so a
  copy that predates a recovery (the primary may have rolled back) is
  fenced out of routing and fan-out until it is re-installed;
- the install/refresh stream onto a holder, which forgets the link when
  either end turns out to be down and, like every stream a primary
  sends, retries a partition and past the budget abandons the holder;
- the holder drop — a header-sized control message, with the physical
  ``replica_store`` entry evicted only when no policy still wants it;
- the write forward: after the transport served a mutation on its
  primary, one :class:`~repro.ps.messages.ReplicatedPushRequest` per
  valid holder carries the primary's epoch and post-apply row counters,
  and the *primary's* node sends them — one envelope per (primary,
  holder) per client op, departing when the original completed, priced
  like a response — so the writer pays for its originals only.
  Holders apply fenced (epoch mismatch: the primary recovered, the stale
  copy must not resurrect lost state) and idempotently (counters
  already caught up by a re-install: skip).  A kernel mutates all its
  operands at once, so it fans out all-or-nothing.  A copy that cannot
  be delivered never charges a client: a down holder is recovered (its
  re-install carries the write), a partitioned one is retried with the
  penalty delaying the departure and, past the retry budget, forgotten.
  The same forward carries the upkeep of the lazy rows a send created
  (each recorded by the server that created it): the chain streams the
  row from the primary at the creating message's completion, hot-key
  demotes the key — nothing is booked from inside a server's dispatch.

**The policies** decide only what differs:

====================  ==============================  ==========================
decision              :class:`HotKeyManager`          :class:`ChainReplicator`
====================  ==============================  ==========================
purpose               read scaling (NuPS)             durability (ElasticDL)
placement             hottest ``hot_key_fraction``    every key, on the next
                      of keys by heat *delta* per     ``chain_replicas`` live
                      sweep, coldest servers first    ring successors
read routing          nearest holder by NIC horizon   stand-in while the
                                                      primary is down
direct write /        demote the key                  re-stream the key
kernel-operand
mismatch
stream pricing        ``replica_migrate_bytes``       ``chain_sync_bytes``
                                                      through the cost model
extras                rebalance sweep                 promotion merge, per-row
                                                      incremental sync
====================  ==============================  ==========================

**The coexistence contract** — how the two behave on one cluster — lives
in the module-level functions at the bottom (:func:`route`,
:func:`forward`, :func:`on_direct_write`, ...), which are the only entry
points the transport, the servers and the master call: hot-key first;
the chain only routes a read still on its primary; a server that is both
hot replica and chain successor gets one copy of each mutation; neither
policy evicts an entry the other wants; the chain re-streams where
hot-key demotes.

With ``replication == "off"`` and ``chain_replicas == 0`` neither policy
is constructed (``cluster.replication`` / ``cluster.chain`` stay
``None``) and every transport/server path is bit-identical to a
pre-replication build — the golden-run guarantee.
"""

from __future__ import annotations

from repro.cluster.cluster import DRIVER
from repro.common.errors import MatrixNotFoundError, NetworkPartitionedError, \
    ServerDownError
from repro.ps import messages
from repro.ps.retry import RetryPolicy


class Replicator:
    """The replication mechanism shared by both policies.

    ``holders`` is the authoritative map ``{(matrix_id, primary_index):
    {holder_index: install_epoch}}``.  An entry is *valid* — usable for
    routing and fan-out — only while its install epoch equals the
    primary's current recovery epoch; recovery refreshes the map, so a
    stale entry only exists transiently between a crash and its
    recovery, and both the read routers and the server-side apply fence
    it out.  Which messages a copy may serve and which fan out to it is
    the message kind's ``role`` (:mod:`repro.ps.messages`).  Subclasses
    name their stream and control tags and price their state stream
    (:meth:`_stream_bytes`).
    """

    stream_tag = control_tag = None

    def __init__(self, cluster, master):
        self.cluster = cluster
        self.master = master
        self.holders = {}

    # -- the holder map -----------------------------------------------------

    def claims(self, matrix_id, primary_index, holder_index):
        """Whether this policy tracks a copy of the key on *holder*.

        Both policies share the servers' ``replica_store`` slot for a
        key, so neither may physically evict an entry the other claims.
        """
        key = (matrix_id, int(primary_index))
        return int(holder_index) in self.holders.get(key, ())

    def _valid_targets(self, key, primary):
        """Sorted holders whose link is at the primary's current epoch."""
        return sorted(holder_index for holder_index, epoch
                      in self.holders.get(key, {}).items()
                      if epoch == primary.epoch)

    def _live_copies(self, key, epoch):
        """``(holder, entry)`` for every copy of *key* that can serve
        now: linked at *epoch*, holder up, entry installed at that same
        epoch.  In holder-index order."""
        for holder_index, installed in sorted(self.holders.get(key, {}).items()):
            if installed != epoch:
                continue
            holder = self.master.server(holder_index)
            entry = holder.replica_store.get(key)
            if holder.alive and entry is not None \
                    and entry.install_epoch == epoch:
                yield holder, entry

    def _forget(self, key, holder_index):
        """Drop one link from the map; returns whether it existed."""
        targets = self.holders.get(key)
        if targets is None or holder_index not in targets:
            return False
        del targets[holder_index]
        if not targets:
            del self.holders[key]
        return True

    # -- install / drop -----------------------------------------------------

    def _stream_bytes(self, rows, versions):
        """Wire bytes of one full-key state stream (policy pricing)."""
        raise NotImplementedError

    def _install(self, key, holder_index, depart_at=None):
        """Stream a full copy of *key* onto one holder (install or
        refresh), charging the policy's stream bytes and departing at
        *depart_at* (default: the primary's clock).  Returns ``False``
        after forgetting the link when either end is down, or abandoning
        the holder (:func:`_abandon`) when no retry got past a
        partition."""
        matrix_id, primary_index = key
        primary = self.master.server(primary_index)
        target = self.master.server(holder_index)
        try:
            rows = primary.matrix_rows(matrix_id)
            versions = {
                row_key: counter
                for row_key, counter in primary.versions.items()
                if row_key[0] == matrix_id
            }
            if _ship(self.cluster, primary.node_id, target.node_id,
                     self._stream_bytes(rows, versions), depart_at,
                     tag=self.stream_tag) is None:
                _abandon(self.cluster, target, [key])
                return False
            target.install_replica(
                matrix_id, primary_index, rows, versions, primary.epoch
            )
        except (MatrixNotFoundError, ServerDownError):
            self._forget(key, holder_index)
            return False
        self.holders.setdefault(key, {})[holder_index] = primary.epoch
        return True

    def _reinstall_hosted(self, server_index):
        """Re-install, from their live primaries, the copies a recovered
        server held for *other* primaries (the crash wiped its replica
        store); returns how many succeeded."""
        hosted = sorted(
            key for key, targets in self.holders.items()
            if key[1] != server_index and server_index in targets
        )
        return sum(self._install(key, server_index) for key in hosted)

    def _drop(self, key, holder_index):
        """Forget one link and tell the holder (a header-sized control
        message); the physical entry goes only when no policy still
        claims it — durability outranks a read-scaling demotion and
        vice versa."""
        if not self._forget(key, holder_index) \
                or not 0 <= holder_index < self.master.n_servers:
            return
        holder = self.master.server(holder_index)
        if not holder.alive:
            return
        if not any(policy.claims(*key, holder_index)
                   for policy in policies(self.cluster)):
            holder.drop_replica(*key)
        _ship(self.cluster, DRIVER, holder.node_id,
              messages.REQUEST_HEADER_BYTES, None, tag=self.control_tag)

    def on_matrix_freed(self, matrix_id):
        """Forget the links of a freed matrix (the servers already purged
        their stores and replica entries in ``drop_matrix``)."""
        for key in [k for k in self.holders if k[0] == matrix_id]:
            del self.holders[key]

    # -- write fan-out ------------------------------------------------------

    def _fan_out(self, requests, counter, on_kernel_mismatch, covered=None):
        """Copies of every mutation in *requests*, post-apply.

        Called (through the policies' ``fan_out_messages``, by
        :func:`forward`) after the originals were served, so the
        primaries' per-row counters already reflect the mutations — each
        copy snapshots those counters plus the primary's epoch as its
        idempotence/fencing token.  Assumes one client op never sends two
        mutations for the same (matrix, row, server), which holds for
        every client op by construction (one message per (row, shard)).
        *covered* is a set of ``(holder_index, id(original))`` pairs
        another policy already fanned out to; *counter* is bumped by the
        number of messages built.
        """
        if not self.holders:
            return []
        extras = []
        for request in requests:
            if request.role != messages.MUTATION:
                continue
            primary = self.master.servers[request.server_index]
            if isinstance(request, messages.KernelRequest):
                valid = self._kernel_targets(request, primary,
                                             on_kernel_mismatch)
                rows = request.operands
            else:
                valid = self._valid_targets(
                    (request.matrix_id, request.server_index), primary)
                rows = ((request.matrix_id, request.row),)
            if not valid:
                continue
            versions = {
                (m, int(row)): primary.versions.get((m, int(row)), 0)
                for m, row in rows
            }
            out = [
                messages.ReplicatedPushRequest(
                    holder_index, request, request.server_index,
                    primary.epoch, versions,
                )
                for holder_index in valid
                if covered is None or (holder_index, id(request)) not in covered
            ]
            self.cluster.metrics.increment(counter, len(out))
            extras.extend(out)
        return extras

    def _kernel_targets(self, request, primary, on_mismatch):
        """Kernel fan-out is all-or-nothing across the operand matrices.

        A kernel mutates every operand in one shot, so a holder can only
        apply it if it holds copies of *all* operand matrices for this
        primary at the current epoch.  When the tracked operand keys do
        not share one identical valid holder set, the policy reacts
        (``on_mismatch(keys, tracked)``) instead of letting copies
        silently diverge, and nothing fans out.
        """
        keys = sorted({(m, request.server_index) for m, _row in request.operands})
        tracked = [key for key in keys if self.holders.get(key)]
        if not tracked:
            return []
        sets = [self._valid_targets(key, primary) for key in tracked]
        common = sets[0]
        if len(tracked) != len(keys) or not common \
                or any(s != common for s in sets):
            on_mismatch(keys, tracked)
            return []
        return common


# -- policy: hot-key replication (read scaling) -------------------------------


class HotKeyManager(Replicator):
    """Coordinator-resident hot-key replication policy (NuPS-style).

    Skewed workloads hammer one server even under column partitioning;
    this policy replicates the *hot* shard keys and spreads their reads.

    - **Classification** consumes :meth:`MetricsRegistry.shard_heat` —
      the same unified counter the report's hot-shard table ranks by, so
      policy and telemetry cannot drift — on the heat *delta* since the
      previous sweep (a key that cooled off gets de-replicated).
    - **Placement** copies a hot key onto ``replication_factor`` other
      servers (0 means all of them), coldest first.
    - **Routing** sends a read to the nearest-by-queue holder; the
      request keeps attributing its heat to the primary key via
      ``replica_of``, so rerouting never drains the signal that created
      the replica.
    - **Rebalance** runs on virtual time through the same hooks as the
      checkpoint sweep: at every stage end when ``rebalance_interval``
      is 0, else whenever the interval has elapsed (also polled after
      every client PS op, so pure-PS workloads sweep too).
    """

    stream_tag = "replica-migrate"
    control_tag = "replica-control"

    def __init__(self, cluster, master):
        super().__init__(cluster, master)
        config = cluster.config
        self.mode = config.replication
        self.hot_key_fraction = float(config.hot_key_fraction)
        self.replication_factor = int(config.replication_factor)
        self.rebalance_interval = float(config.rebalance_interval)
        self._next_sweep = self.rebalance_interval
        #: Heat totals as of the last sweep; sweeps classify on the delta.
        self._last_heat = {}
        #: Virtual times at which rebalance sweeps ran (telemetry).
        self.rebalance_sweep_times = []

    # -- introspection ------------------------------------------------------

    def replica_set(self, matrix_id, primary_index):
        """Sorted *valid* replica indices for one shard key (for tests
        and the report): entries at the primary's current epoch whose
        holder is up and still has the copy installed."""
        key = (matrix_id, int(primary_index))
        epoch = self.master.server(primary_index).epoch
        return [holder.server_index
                for holder, _entry in self._live_copies(key, epoch)]

    def replicated_keys(self):
        """Sorted shard keys currently carrying at least one replica."""
        return sorted(self.holders)

    def replica_bytes(self):
        """Total bytes of replica state across live servers."""
        return sum(
            server.replica_bytes()
            for server in self.master.servers
            if server.alive
        )

    # -- read routing -------------------------------------------------------

    def _queue_load(self, server):
        """When the server's NIC queues drain — the backlog read routing
        minimizes.

        Uses the NIC timeline *horizons* (end of the last reservation in
        each direction), not cumulative busy totals.  Cumulative totals
        equalize long-run byte volume but go blind within a burst: once
        the replicas' lifetime totals catch up to the primary's, every
        read of the next burst lands on the primary again and queues,
        even though the replicas are idle *right now*.  The horizon is
        the instantaneous "when would this server take one more message"
        signal, and it self-balances: each rerouted read extends the
        serving replica's horizon, steering the next read elsewhere.
        """
        send_horizon, recv_horizon = self.cluster.network.nic_horizon(
            server.node_id
        )
        return max(send_horizon, recv_horizon)

    def route_read(self, request):
        """The read as sent to its nearest-by-queue holder.

        Candidates are the primary plus every valid replica; "nearest" is
        the earliest NIC queue drain (:meth:`_queue_load`; ties break
        toward the lower server index, primary first).  A replica wins
        with a :meth:`~repro.ps.messages.Request.retargeted` copy, whose
        ``replica_of`` names the primary: the serving server uses it to
        address its replica store, and the shard telemetry keeps charging
        the access to the primary key.  Otherwise — the primary wins, or
        the request is a mutation or control-plane message — *request*
        itself comes back; it is never assigned to.
        """
        if request.role != messages.READ:
            return request
        primary_index = request.server_index
        key = (request.matrix_id, primary_index)
        if key not in self.holders:
            return request
        primary = self.master.server(primary_index)
        best = (self._queue_load(primary), primary_index)
        for holder, _entry in self._live_copies(key, primary.epoch):
            candidate = (self._queue_load(holder), holder.server_index)
            if candidate < best:
                best = candidate
        if best[1] == primary_index:
            return request
        self.cluster.metrics.increment("replica-reads")
        return request.retargeted(best[1])

    # -- write fan-out ------------------------------------------------------

    def fan_out_messages(self, requests):
        """Hot-replica copies of the mutations in *requests*; a kernel
        whose operand keys disagree demotes them (see
        :meth:`Replicator._fan_out`)."""
        return self._fan_out(requests, "replica-fanouts",
                             self._demote_operands)

    def _demote_operands(self, keys, replicated):
        for key in replicated:
            self._demote(key)
        self.cluster.metrics.increment(
            "replica-kernel-demotions", len(replicated)
        )

    # -- rebalance sweep ----------------------------------------------------

    def maybe_rebalance(self, at_stage_end=False):
        """Run a sweep if it is due; returns whether one ran.

        ``rebalance_interval == 0`` sweeps at every stage end (and only
        there); a positive interval sweeps on virtual time, polled both
        at stage ends and after every client PS op — the same dual
        trigger the checkpoint sweep uses.
        """
        if self.rebalance_interval <= 0:
            if not at_stage_end:
                return False
        elif self.cluster.clock.global_time() < self._next_sweep:
            return False
        self.rebalance()
        if self.rebalance_interval > 0:
            # Re-arm relative to the post-sweep clock: a long stage must
            # trigger one sweep, not a burst of catch-up sweeps.
            self._next_sweep = (
                self.cluster.clock.global_time() + self.rebalance_interval
            )
        return True

    def rebalance(self):
        """One classify/demote/promote sweep over the shard heat deltas."""
        metrics = self.cluster.metrics
        heat = metrics.shard_heat()
        delta = {}
        for key, value in heat.items():
            gained = value - self._last_heat.get(key, 0.0)
            if gained > 0 and self._key_exists(key):
                delta[key] = gained
        self._last_heat = dict(heat)
        if self.master.n_servers >= 2:
            hot = self._classify(delta)
            costmodel = self.cluster.costmodel
            if costmodel is not None:
                # The unified cost model gates *new* promotions: when
                # codecs already shrink a key's read traffic, replication
                # must still beat its migration bytes in the compressed
                # regime.  Keys already replicated are kept (churn is the
                # demote sweep's job, not the gate's).
                hot = {
                    key for key in hot
                    if key in self.holders or costmodel.replication_worthwhile(
                        key, delta.get(key, 0.0), self.master)
                }
            for key in sorted(k for k in self.holders if k not in hot):
                self._demote(key)
            for key in sorted(hot):
                self._promote(key)
        metrics.increment("rebalance-sweeps")
        self.rebalance_sweep_times.append(self.cluster.clock.global_time())

    def _key_exists(self, key):
        matrix_id, server_index = key
        if not 0 <= server_index < self.master.n_servers:
            return False
        try:
            self.master.layout(matrix_id)
        except MatrixNotFoundError:
            return False
        return True

    def _classify(self, delta):
        """The hot shard keys: the top ``hot_key_fraction`` by delta."""
        if not delta:
            return set()
        k = max(1, int(round(self.hot_key_fraction * len(delta))))
        ranked = sorted(delta, key=lambda key: (-delta[key], key))
        return set(ranked[:k])

    def _target_count(self):
        limit = self.master.n_servers - 1
        return min(self.replication_factor or limit, limit)

    def _promote(self, key):
        """Ensure *key* has its full valid replica set, installing on the
        coldest (fewest wire bytes) servers first."""
        primary_index = key[1]
        primary = self.master.server(primary_index)
        if not primary.alive:
            return
        kept = {holder.server_index
                for holder, _entry in self._live_copies(key, primary.epoch)}
        for holder_index in sorted(self.holders.get(key, ())):
            if holder_index not in kept:
                self._forget(key, holder_index)
        needed = self._target_count() - len(kept)
        if needed <= 0:
            return
        metrics = self.cluster.metrics
        candidates = []
        for index, server in enumerate(self.master.servers):
            if index == primary_index or index in kept or not server.alive:
                continue
            load = (metrics.bytes_sent.get(server.node_id, 0.0)
                    + metrics.bytes_received.get(server.node_id, 0.0))
            candidates.append((load, index))
        promoted = 0
        for _load, index in sorted(candidates):
            if promoted >= needed:
                break
            if self._install(key, index):
                promoted += 1
        if promoted:
            metrics.increment("replica-promotions", promoted)

    def _stream_bytes(self, rows, versions):
        return messages.replica_migrate_bytes(
            len(rows), sum(shard.values.nbytes for shard in rows.values()),
            len(versions))

    def _demote(self, key):
        """Drop every replica of *key* and forget the map entry."""
        targets = sorted(self.holders.get(key, ()))
        if not targets:
            return
        for holder_index in targets:
            self._drop(key, holder_index)
        self.cluster.metrics.increment("replica-demotions")

    # -- lifecycle hooks ----------------------------------------------------

    def on_server_recovered(self, server_index):
        """Restore the replica topology after :meth:`PSMaster.recover`.

        Two directions: keys whose *primary* is the recovered server get
        every replica re-installed at the new epoch (the old copies are
        fenced — the primary may have rolled back to a checkpoint); keys
        the recovered server *hosted* replicas for are re-installed onto
        it from their live primaries.
        """
        server_index = int(server_index)
        reinstalled = 0
        for key in sorted(k for k in self.holders if k[1] == server_index):
            for holder_index in sorted(self.holders[key]):
                reinstalled += self._install(key, holder_index)
        reinstalled += self._reinstall_hosted(server_index)
        if reinstalled:
            self.cluster.metrics.increment("replica-reinstalls", reinstalled)

    def on_topology_resized(self):
        """Reset replication state after an elastic resize.

        Every replica was installed against the pre-resize shard map —
        its column range no longer matches any primary shard — so all
        keys are demoted wholesale, and the heat baselines restart so the
        next sweep classifies on post-migration traffic only (the retired
        ledger entries must not look like sudden negative deltas).
        Called by the master *before* departing servers leave the
        addressable set, so every holder can still be reached.
        """
        for key in sorted(self.holders):
            self._demote(key)
        self._last_heat = {}

    def on_direct_write(self, matrix_id, server_index):
        """Demote a key mutated outside the dispatch/fan-out path.

        Realignment and recovery tooling write through the server storage
        primitives directly; replicas of the touched shard would silently
        diverge, so the key is de-replicated (it can win replication back
        at the next sweep if it stays hot).
        """
        key = (matrix_id, int(server_index))
        if key in self.holders:
            self._demote(key)
            self.cluster.metrics.increment("replica-direct-write-demotions")


# -- policy: chained replication (durability) ---------------------------------


def chain_successors(primary_index, ring_size, m, alive):
    """The ring-ordered successor set of one primary.

    Walk the index ring starting right after *primary_index*, keep the
    first *m* live servers met, never include the primary itself.  The
    walk order depends only on the ring size, so for any live subset ``S``
    the result equals the full-ring order filtered to ``S`` and truncated
    — the "ring-stable under any live subset" property the Hypothesis
    suite pins: a server joining or leaving ``S`` never reorders the
    survivors relative to each other.
    """
    alive = set(alive)
    walk = ((int(primary_index) + step) % int(ring_size)
            for step in range(1, int(ring_size)))
    return [index for index in walk if index in alive][:max(0, int(m))]


def merge_chain_copies(copies):
    """Max-version merge of several successors' copies of one shard key.

    *copies* maps ``holder_index -> (rows, counters)`` where ``rows`` is
    a ``{row: RowShard}`` map and ``counters`` a ``{row: int}`` map of
    that holder's recorded mutation counters.  Each row is taken from the
    holder with the highest counter for it, ties breaking to the lowest
    holder index, so the merge is deterministic regardless of dict
    insertion order.  Returns ``(rows, counters, origin)`` with
    ``origin`` mapping each row to the holder that supplied it.  Pure —
    the Hypothesis suite drives it directly.
    """
    rows_out = {}
    counters_out = {}
    origin = {}
    for holder in sorted(copies):
        rows, counters = copies[holder]
        for row, shard in rows.items():
            counter = counters.get(row, 0)
            if row not in rows_out or counter > counters_out[row]:
                rows_out[row] = shard
                counters_out[row] = counter
                origin[row] = holder
    return rows_out, counters_out, origin


class ChainReplicator(Replicator):
    """Coordinator-resident chained shard replication (ElasticDL-style).

    Every primary's full per-matrix store is mirrored on its next
    ``chain_replicas`` live ring successors (:func:`chain_successors`).
    Unlike hot-key replicas, chain copies are not a load-balancing
    optimization: they serve reads only while their primary is down
    (:meth:`route_read` — zero-downtime reads with no retry storm) and
    exist to be promoted into the replacement on a crash
    (:meth:`promote_into` — per-row max-version merge across the
    surviving valid holders), so recovery never pauses for a checkpoint
    restore unless every holder died.  Chain copies are never demoted:
    where the hot-key policy drops a diverging key, this one re-streams.
    """

    stream_tag = "chain-sync"
    control_tag = "chain-control"

    def __init__(self, cluster, master):
        super().__init__(cluster, master)
        self.m = int(cluster.config.chain_replicas)
        #: Primaries the read router found dead and stood in for: their
        #: recovery is deferred to the next mutation that hits them.
        self.deferred = set()
        #: Promotion events ``(time, primary_index, sources, matrix_ids)``
        #: for the report.
        self.promotions = []

    # -- introspection ------------------------------------------------------

    def successors(self, primary_index):
        """Current ring successors of one primary (live servers only)."""
        alive = [index for index, server in enumerate(self.master.servers)
                 if server.alive]
        return chain_successors(int(primary_index), self.master.n_servers,
                                self.m, alive)

    def key_lag(self, matrix_id, primary_index):
        """Worst per-row counter lag of any valid successor copy behind
        its primary (0 means every chain copy is fully caught up)."""
        primary = self.master.server(primary_index)
        key = (matrix_id, int(primary_index))
        lag = 0
        for _holder, entry in self._live_copies(key, primary.epoch):
            for row_key, counter in primary.versions.items():
                if row_key[0] == matrix_id:
                    lag = max(lag, counter - entry.versions.get(row_key, 0))
        return lag

    # -- install / teardown -------------------------------------------------

    def _priced_value_bytes(self, n_values):
        """The compressed size of *n_values* floats in one chain state
        stream under the cost model's read regime — ``None`` (raw floats)
        without a cost model."""
        costmodel = self.cluster.costmodel
        if costmodel is not None:
            return costmodel.priced_chain_value_bytes(n_values)
        return None

    def _stream_bytes(self, rows, versions):
        n_values = sum(len(shard) for shard in rows.values())
        return messages.chain_sync_bytes(
            len(rows), n_values, len(versions),
            self._priced_value_bytes(n_values))

    def sync_key(self, matrix_id, primary_index, depart_at=None):
        """(Re)stream one (matrix, primary) key along its current chain.

        Drops links to servers that are no longer ring successors,
        installs or refreshes a full copy on each current successor (the
        streams departing at *depart_at*, default the primary's clock),
        and returns the number of copies installed.
        """
        key = (matrix_id, int(primary_index))
        primary = self.master.server(primary_index)
        if not primary.alive:
            return 0
        successors = self.successors(primary_index)
        for holder_index in sorted(
                s for s in self.holders.get(key, {}) if s not in successors):
            self._drop(key, holder_index)
        installed = sum(self._install(key, succ, depart_at)
                        for succ in successors)
        if installed:
            self.cluster.metrics.increment("chain-syncs", installed)
        return installed

    def resync_primary(self, server_index):
        """Re-stream every matrix *server_index* holds shards of, and
        retire links whose matrix is gone or empty on the primary."""
        server_index = int(server_index)
        primary = self.master.server(server_index)
        synced = []
        for matrix_id in self.master.matrix_ids():
            if primary._store.get(matrix_id):
                self.sync_key(matrix_id, server_index)
                synced.append(matrix_id)
        live = set(self.master.matrix_ids())
        for key in sorted(k for k in self.holders if k[1] == server_index):
            if key[0] not in live or not primary._store.get(key[0]):
                for holder in sorted(self.holders[key]):
                    self._drop(key, holder)
        return synced

    # -- write fan-out ------------------------------------------------------

    def fan_out_messages(self, requests, covered=None):
        """Chain copies of the mutations in *requests*, skipping the
        ``(holder, original)`` pairs in *covered*; a kernel whose operand
        keys disagree re-streams them (see :meth:`Replicator._fan_out`)."""
        return self._fan_out(requests, "chain-fanouts",
                             self._resync_operands, covered)

    def _resync_operands(self, keys, _tracked):
        # The primary already applied the kernel, so a full sync of every
        # operand key (tracked or not) carries its effect.
        for key in keys:
            self.sync_key(*key)
        self.cluster.metrics.increment("chain-kernel-resyncs", len(keys))

    # -- read routing (dead primary only) -----------------------------------

    def route_read(self, request):
        """Reroute a read whose primary is down to a surviving successor.

        Zero-downtime reads: while a crashed primary awaits promotion
        (triggered by the next mutation's retry path), pulls and
        aggregates are served by the nearest ring successor holding a
        valid copy — no detection timeout, no retry storm.  A read of a
        row the copy lacks (and any ``pull_or_create`` of an unseen id)
        still goes to the primary and triggers its recovery: only a
        primary may create rows.  Healthy primaries are never bypassed,
        so steady-state routing is untouched.  A stand-in is a
        :meth:`~repro.ps.messages.Request.retargeted` copy; *request*
        itself is returned, unassigned, whenever the primary serves it.
        """
        if not self.holders \
                or request.role not in (messages.READ, messages.STANDIN_READ):
            return request
        primary_index = request.server_index
        key = (request.matrix_id, primary_index)
        if key not in self.holders:
            return request
        primary = self.master.server(primary_index)
        if primary.is_alive():
            return request
        ring = max(1, self.master.n_servers)
        copies = sorted(
            self._live_copies(key, primary.epoch),
            key=lambda copy: (copy[0].server_index - primary_index) % ring,
        )
        for holder, entry in copies:
            if request.row in entry.rows:
                self.deferred.add(primary_index)
                self.cluster.metrics.increment("chain-reads")
                return request.retargeted(holder.server_index)
        return request

    # -- promotion ----------------------------------------------------------

    def promote_into(self, replacement, server_index, failed_epoch):
        """Rebuild a failed primary's matrices from its chain successors.

        For every (matrix, failed-primary) key, the surviving successors
        whose copies were installed at the dead process's epoch are
        merged per-row (:func:`merge_chain_copies` — each row from the
        most-advanced holder) and the result installed into
        *replacement* with the winning counters, priced as one
        :func:`~repro.ps.messages.chain_promote_bytes` round trip per
        contributing holder.  Returns ``{matrix_id: rows_promoted}``;
        keys with no surviving valid holder are left out and the caller
        falls back to checkpoint restore for them.
        """
        server_index = int(server_index)
        promoted = {}
        sources = set()
        network = self.cluster.network
        for key in sorted(k for k in self.holders if k[1] == server_index):
            matrix_id = key[0]
            copies = {}
            for succ in sorted(self.holders[key]):
                if self.holders[key][succ] != failed_epoch:
                    continue
                holder = self.master.server(succ)
                # is_alive(), not the flag: a holder whose scheduled crash
                # is due must not contribute state it is about to lose.
                if not holder.is_alive():
                    continue
                entry = holder.replica_store.get(key)
                if entry is None or entry.install_epoch != failed_epoch:
                    continue
                copies[succ] = (entry.rows, {
                    row: entry.versions.get((matrix_id, row), 0)
                    for row in entry.rows
                })
            if not copies:
                continue
            rows, counters, origin = merge_chain_copies(copies)
            contributed = {}
            for row, holder_index in origin.items():
                contributed.setdefault(holder_index, []).append(row)
            for holder_index in sorted(contributed):
                holder = self.master.server(holder_index)
                rows_here = contributed[holder_index]
                n_values = sum(len(rows[row]) for row in rows_here)
                request_bytes, response_bytes = messages.chain_promote_bytes(
                    len(rows_here), n_values, len(rows_here),
                    self._priced_value_bytes(n_values))
                network.transfer(replacement.node_id, holder.node_id,
                                 request_bytes, tag="chain-promote")
                network.transfer(holder.node_id, replacement.node_id,
                                 response_bytes, tag="chain-promote")
                sources.add(holder_index)
            replacement._store[matrix_id] = {
                row: rows[row].copy() for row in sorted(rows)
            }
            for row in sorted(counters):
                if counters[row]:
                    replacement.versions[(matrix_id, row)] = counters[row]
            promoted[matrix_id] = len(rows)
            self.cluster.metrics.increment("chain-promoted-keys")
        if promoted:
            self.cluster.metrics.increment("chain-promotions")
            self.promotions.append((
                self.cluster.clock.global_time(), server_index,
                sorted(sources), sorted(promoted),
            ))
        return promoted

    # -- lifecycle hooks ----------------------------------------------------

    def on_matrix_created(self, matrix_id):
        """Form the chain for a freshly allocated matrix."""
        for server_index in range(self.master.n_servers):
            if self.master.server(server_index)._store.get(matrix_id):
                self.sync_key(matrix_id, server_index)

    def on_row_created(self, matrix_id, row, server_index, depart_at):
        """Stream one freshly created lazy row to the chain successors,
        departing from the primary at *depart_at* (:func:`forward` passes
        the creating message's completion).

        Chains grow with the table: the first created row of a (matrix,
        primary) key forms its chain entry, later rows ride as one-row
        incremental syncs into the existing copies; a stale or
        mismatched chain falls back to a full key re-stream.  Returns
        whether it re-streamed the key — every row the primary holds now
        is then on the successors.
        """
        key = (matrix_id, int(server_index))
        primary = self.master.server(server_index)
        successors = self.successors(server_index)
        if not successors:
            return False
        copies = list(self._live_copies(key, primary.epoch))
        if [holder.server_index for holder, _entry in copies] != successors \
                or len(copies) != len(self.holders[key]):
            self.sync_key(matrix_id, server_index, depart_at)
            return True
        try:
            shard = primary.matrix_rows(matrix_id)[row]
        except (MatrixNotFoundError, ServerDownError, KeyError):
            return False
        row_key = (matrix_id, row)
        counter = primary.versions.get(row_key, 0)
        nbytes = messages.chain_sync_bytes(
            1, len(shard), 1, self._priced_value_bytes(len(shard)))
        for holder, entry in copies:
            if _ship(self.cluster, primary.node_id, holder.node_id, nbytes,
                     depart_at, tag=self.stream_tag) is None:
                _abandon(self.cluster, holder, [key])
                continue
            entry.rows[row] = shard.copy()
            if counter:
                entry.versions[row_key] = counter
            self.cluster.metrics.increment("chain-row-syncs")

    def on_direct_write(self, matrix_id, server_index):
        """Re-stream a key mutated outside the dispatch/fan-out path.

        Unlike hot-key replicas — an optimization that simply demotes —
        chain copies are the durability story and must *follow* direct
        writes (realignment, recovery tooling): the key is re-streamed
        wholesale so the successors converge on the new state.
        """
        if (matrix_id, int(server_index)) in self.holders:
            self.sync_key(matrix_id, server_index)
            self.cluster.metrics.increment("chain-direct-write-resyncs")

    def on_server_recovered(self, server_index):
        """Re-establish the chain topology after a recovery, both ways.

        Keys whose primary is the recovered server are re-streamed to
        their successors at the replacement's fresh epoch — a full copy,
        not an epoch re-stamp, because a copy that fenced out fan-outs
        during the crash window lags the promoted state.  Keys the
        recovered server serves as successor for are re-installed onto
        it from their live primaries.
        """
        self.deferred.discard(int(server_index))
        self.resync_primary(server_index)
        self._reinstall_hosted(int(server_index))

    def on_topology_resized(self):
        """Tear every chain down ahead of an elastic resize.

        The shard map is about to be rewritten wholesale, so every
        installed copy is retired (while its holder is still
        addressable) and the link map cleared; a crash during the
        migration itself therefore falls back to checkpoint restore, and
        :meth:`reform` rebuilds the chains from the post-migration
        stores.  Primaries whose recovery the read router deferred are
        promoted first — once the copies are gone the migration's own
        recovery could only re-initialize their shards.
        """
        for server_index in sorted(self.deferred):
            self.master.recover(server_index)
        for key in sorted(self.holders):
            for holder in sorted(self.holders[key]):
                self._drop(key, holder)

    def reform(self):
        """Form chains over the current topology and stores."""
        for server_index in range(self.master.n_servers):
            self.resync_primary(server_index)
        self.cluster.metrics.increment("chain-reforms")


# -- the coexistence contract -------------------------------------------------
# The only replication entry points the transport, servers and master call.
# Where the two policies' hooks run in a fixed order, that order is part of
# the virtual-time result (it orders the induced NIC bookings): routing and
# fan-out and direct writes go hot-key first, recovery goes chain first.


def policies(cluster):
    """The live policies of *cluster*, hot-key first."""
    return [policy for policy in (cluster.replication, cluster.chain)
            if policy is not None]


def route(cluster, requests):
    """The request list to send in place of *requests*.

    Each read is offered to the live policies' routers, hot-key first;
    the chain only sees a read the hot-key router left on its primary — a
    read already going to a live hot replica needs no stand-in.  A
    rerouted read is a retargeted copy, so the result is a derived list;
    when nothing was rerouted (or no policy is live) it is *requests*
    itself.  No request in *requests* is ever assigned to, so a pooled
    plan stays addressed to its primaries.
    """
    routers = [policy.route_read for policy in policies(cluster)]
    if not routers:
        return requests
    routed = requests
    for position, request in enumerate(requests):
        for route_read in routers:
            target = route_read(request)
            if target is not request:
                if routed is requests:
                    routed = list(requests)
                routed[position] = target
                break
    return routed


def forward(cluster, requests, completions, serve):
    """Ship the replica upkeep of *requests* from their primaries.

    Called by the transport once every original was served;
    ``completions[i]`` is when the wire message carrying ``requests[i]``
    completed on its primary, and *serve* is the transport's fan-out
    lane (:func:`~repro.ps.server.serve_fast_fanout`).  First the lazy
    rows the send created (:func:`_settle_creations`), then the copies of
    its mutations — so a push to a row created in the same send finds
    the row on the holders.  Hot-key copies are built first; the chain
    then skips the ``(holder, original)`` pairs already covered, so a
    server holding a key both as hot replica and chain successor gets
    exactly one copy (and the apply is idempotent regardless).

    The copies for one (primary, holder) pair travel as one envelope (a
    lone copy stand-alone) that leaves the *primary's* node when its last
    original completed there — when that message's response departs — and
    is priced like a response: the two NIC bookings only, no send CPU,
    nothing on the writer.  Every envelope is shipped first, in
    first-appearance order of its pair; then all copies are served in
    one pass of *serve*, an envelope's first copy at its arrival and the
    rest chained behind it.  A delivery that cannot happen never reaches
    a client clock:

    - a **partition** on either end at departure retries under the
      cluster's :class:`~repro.ps.retry.RetryPolicy`, each penalty
      delaying the departure (:func:`_ship`); once the budget is spent
      the holder's links for the envelope's keys are forgotten by every
      policy and its stale entries evicted, so nothing routes to or
      promotes from them, and the envelope is not served;
    - a **down holder** fails its copies; after the whole forward each
      such holder is recovered through the master, once and in wire
      order, which re-streams its copies from the live primaries
      (already carrying this mutation), so nothing is re-sent.
    """
    manager = cluster.replication
    chain = cluster.chain
    if manager is None and chain is None:
        return
    master = (manager or chain).master
    _settle_creations(master, manager, chain, requests, completions)
    copies = [] if manager is None else manager.fan_out_messages(requests)
    if chain is not None:
        covered = {(copy.server_index, id(copy.inner)) for copy in copies}
        copies.extend(chain.fan_out_messages(requests, covered))
    if not copies:
        return
    departs = {id(request): completion
               for request, completion in zip(requests, completions)}
    pairs = {}
    for copy in copies:
        pairs.setdefault((copy.primary_index, copy.server_index),
                         []).append(copy)
    holders = []
    units = []
    arrivals = []
    for group in pairs.values():
        envelope = group[0] if len(group) == 1 \
            else messages.BatchRequest(group)
        holder = master.server(envelope.server_index)
        ctx = group[0].trace_ctx
        arrival = _ship(
            cluster, master.server(group[0].primary_index).node_id,
            holder.node_id, envelope.wire_bytes(),
            max(departs[id(copy.inner)] for copy in group),
            tag=envelope.tag + ":req", deliver=False,
            messages=envelope.message_count(),
            trace_parent=None if ctx is None else ctx[1],
        )
        if arrival is None:
            _abandon(cluster, holder, sorted({
                (matrix_id, copy.primary_index)
                for copy in group for matrix_id, _row in copy.versions}))
            continue
        holders += [holder] * len(group)
        units += group
        arrivals += [arrival] + [None] * (len(group) - 1)
    _values, done = serve(cluster, holders, units, arrivals)
    # Fencing never raises, so a copy only fails on a down holder.
    for server_index in dict.fromkeys(
            holder.server_index
            for holder, completion in zip(holders, done) if completion is None):
        cluster.metrics.increment("replica-fanout-recoveries")
        master.recover(server_index)


def _settle_creations(master, manager, chain, requests, completions):
    """The upkeep of the lazy rows *requests* created.

    A creation is read off the set its primary recorded it in
    (``PSServer.created``), never off the reply: a response lost after
    the create is retried and then reports ``created=False``.  A hot
    replica of the key, installed before the row existed, would miss it,
    so hot-key demotes the key; the chain grows with the table and
    streams the new row from the primary at the creating message's
    completion (:meth:`ChainReplicator.on_row_created`), so a crash right
    after the send still promotes a bit-identical vector.  A key the
    chain re-streams whole already carries every row the send created,
    so its later creations ship nothing more.
    """
    restreamed = set()
    for request, completion in zip(requests, completions):
        if type(request) is not messages.PullOrCreateRequest:
            continue
        matrix_id, row, index = \
            request.matrix_id, request.row, request.server_index
        created = master.server(index).created
        if (matrix_id, row) not in created:
            continue
        created.remove((matrix_id, row))
        if manager is not None:
            manager.on_direct_write(matrix_id, index)
        key = (matrix_id, index)
        if chain is not None and key not in restreamed \
                and chain.on_row_created(matrix_id, row, index, completion):
            restreamed.add(key)


def _ship(cluster, source, target, nbytes, depart, **transfer):
    """Book one transfer replication sends on its own (a forward, a state
    stream, a drop), departing no earlier than *depart* (``None``: the
    source's clock) — no client waits on it.  A partition on either end
    retries under the cluster's :class:`~repro.ps.retry.RetryPolicy`,
    each penalty delaying the departure (``replica-fanout-retries``).
    Returns the arrival, or ``None`` once the budget is spent."""
    if depart is None:
        depart = cluster.clock.now(source)
    attempt = 0
    while True:
        try:
            return cluster.network.transfer(source, target, nbytes,
                                            depart_at=depart, **transfer)
        except NetworkPartitionedError:
            attempt += 1
            policy = RetryPolicy.from_config(cluster.config.failures)
            if attempt > policy.max_retries:
                return None
            cluster.metrics.increment("replica-fanout-retries")
            depart += policy.penalty_for(attempt)


def _abandon(cluster, holder, keys):
    """A holder no primary could reach: its copies of *keys* are now
    stale, so every policy forgets the link and the entry goes too (no
    message can reach the holder to drop it; nothing may serve it or
    promote from it meanwhile)."""
    for key in keys:
        for policy in policies(cluster):
            policy._forget(key, holder.server_index)
        holder.drop_replica(*key)
    cluster.metrics.increment("replica-fanout-abandoned")


def on_direct_write(cluster, matrix_id, server_index):
    """A shard was mutated outside the dispatch/forward path: hot-key
    demotes the key, the chain re-streams it."""
    for policy in policies(cluster):
        policy.on_direct_write(matrix_id, server_index)


def on_matrix_freed(cluster, matrix_id):
    for policy in policies(cluster):
        policy.on_matrix_freed(matrix_id)


def on_server_recovered(cluster, server_index):
    """Refresh both topologies at a replacement's fresh epoch: copies OF
    its shards are stale (chain copies fenced out fan-outs during the
    crash window; the primary may have rolled back under hot replicas)
    and copies it HOSTED died with its state.  Chain first."""
    for policy in reversed(policies(cluster)):
        policy.on_server_recovered(server_index)
