"""Shard replication: one holder table, two reasons to hold a copy.

A *copy* of a (matrix, primary) shard key is the primary's rows for that
matrix, installed in another server's ``replica_store`` together with
the primary's per-row mutation counters and its recovery epoch (the
fencing token).  :class:`Replicas` owns the one **link table**

    ``{(matrix_id, primary_index): {holder_index: {reason: install_epoch}}}``

where a reason is :data:`HOT` (NuPS-style read scaling) or :data:`CHAIN`
(ElasticDL-style durability).  A link is *valid* for a reason only while
that reason's install epoch equals the primary's *current* epoch, so a
copy that predates a recovery (the primary may have rolled back) is
fenced out of routing and fan-out until it is re-installed.  Written
once over the table:

- the install/refresh stream onto a holder, which forgets the reason
  when either end turns out to be down and, like every stream a primary
  sends, retries a partition and past the budget abandons the holder;
- the drop — a header-sized control message; the physical
  ``replica_store`` entry goes only when the link has no reason left,
  so neither reason evicts what the other holds;
- read routing (:meth:`Replicas.route`): a read goes to the nearest hot
  holder, else — only while its primary is down — to a chain holder
  that has the row;
- the write forward (:meth:`Replicas.forward`): after the transport
  served a mutation on its primary, one
  :class:`~repro.ps.messages.ReplicatedPushRequest` per holder with a
  valid link carries the primary's epoch and post-apply row counters,
  and the *primary's* node sends them — one wire message per (primary,
  holder) per client op, departing when the original completed, priced
  like a response — so the writer pays for its originals only.  A link
  is one (key, holder) pair, so a holder that holds a key for both
  reasons gets one copy.  Holders apply fenced, idempotently and as
  many times as the primary applied the original (a re-delivered
  mutation twice); a kernel mutates all its operands at once, so it
  fans out all-or-nothing.  A copy that cannot be delivered never
  charges a client: a down holder is recovered (its re-install carries
  the write), a partitioned one is retried with the penalty delaying
  the departure and, past the retry budget, forgotten;
- the reactions to a direct write, a send the retry policy gave up on,
  a lazy-row creation and a recovery.

What stays per reason:

====================  ==============================  ==========================
decision              :data:`HOT`                     :data:`CHAIN`
====================  ==============================  ==========================
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
====================  ==============================  ==========================

Where both reasons act in one step, the order is part of the virtual
result (it orders the induced NIC bookings): routing, copies, direct
writes and creations go hot first, recovery goes chain first.

With ``replication == "off"`` and ``chain_replicas == 0`` nothing is
constructed (``cluster.replicas`` stays ``None``) and every
transport/server path is bit-identical to a pre-replication build — the
golden-run guarantee.
"""

from __future__ import annotations

from repro.cluster.cluster import DRIVER
from repro.common.errors import MatrixNotFoundError, NetworkPartitionedError, \
    ServerDownError
from repro.costs import MAX_OP_RETRIES, REQUEST_HEADER_BYTES, penalty_for
from repro.ps import messages

#: The two reasons a holder keeps a copy, in routing and fan-out order.
HOT = "hot"
CHAIN = "chain"

#: Per reason: its state-stream tag, drop-control tag and fan-out counter.
_TAGS = {
    HOT: ("replica-migrate", "replica-control", "replica-fanouts"),
    CHAIN: ("chain-sync", "chain-control", "chain-fanouts"),
}


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


def _valid(links, reason, epoch):
    """Sorted holders in *links* — one key's ``{holder: {reason:
    install_epoch}}`` — linked for *reason* at *epoch*: the validity
    filter every read route, fan-out and promotion applies."""
    valid = [holder for holder, reasons in links.items()
             if reason in reasons and reasons[reason] == epoch]
    valid.sort()
    return valid


class CopyLayout:
    """One send's copies and how they ship (:meth:`Replicas.copies`).

    ``groups`` holds the copies, one list per (primary, holder) pair in
    first-appearance order, and per group: ``items``, its booking
    ``(primary node, holder node, wire bytes, tag, copies)``;
    ``positions``, its originals' positions in the send's request list
    (the last of their completions is its departure).  ``increments`` are the ``*-fanouts`` counts, one per
    reason pass that met a valid link; ``rows`` is ``(row key, primary
    index, copies)`` per copied non-kernel mutation — the counter a
    replay refreshes.  ``stamp`` is ``(topology epoch, link-table
    version)`` at build, ``None`` for a layout that holds a kernel's
    copies.  A :class:`~repro.ps.transport.FanoutPlan` keeps its
    layout on ``copy_layout``; :class:`Replicas` alone reads and writes
    it.
    """

    __slots__ = ("stamp", "groups", "items", "positions", "increments",
                 "rows")

    def __init__(self, stamp):
        self.stamp = stamp
        self.groups = []
        self.items = []
        self.positions = []
        self.increments = []
        self.rows = []


class Replicas:
    """Coordinator-resident replication over one link table.

    ``links`` is the authoritative table (module docstring).  Which
    messages a copy may serve and which fan out to it is the message
    kind's ``role`` (:mod:`repro.ps.messages`).

    **Hot placement** (``replication="topk"``) replicates the hot shard
    keys and spreads their reads: the sweep classifies on
    :meth:`MetricsRegistry.shard_heat` — the counter the report's
    hot-shard table ranks by — taking the heat *delta* since the previous
    sweep (a key that cooled off is demoted), and copies a hot key onto
    ``replication_factor`` other servers (0 means all), coldest first.  A
    rerouted read keeps attributing its heat to the primary key via
    ``replica_of``.  Sweeps run at every stage end when
    ``rebalance_interval`` is 0, else whenever the interval has elapsed
    (also polled after every client PS op).

    **Chain placement** (``chain_replicas=M``) mirrors every primary's
    full per-matrix store on its next M live ring successors
    (:func:`chain_successors`).  Chain copies serve reads only while
    their primary is down and exist to be promoted into the replacement
    on a crash (:meth:`promote_into`), so recovery never pauses for a
    checkpoint restore unless every holder died.  They are never
    demoted: where hot placement drops a diverging key, the chain
    re-streams it.
    """

    def __init__(self, cluster, master):
        self.cluster = cluster
        self.master = master
        self.links = {}
        #: Bumped on every change to ``links``: with the topology epoch,
        #: the stamp a plan's kept copy layout (:meth:`forward`) and the
        #: copy-target memo (:meth:`_copy_targets`) are valid under.
        self._links_version = 0
        #: ``{(key, primary epoch, reason): holders | None}`` — see
        #: :meth:`_copy_targets`; cleared with every link change.
        self._targets = {}
        config = cluster.config
        self.mode = config.replication
        self.m = int(config.chain_replicas)
        #: The live reasons, hot first.
        self.reasons = tuple(reason for reason, on in (
            (HOT, self.mode != "off"), (CHAIN, self.m > 0)) if on)
        self.hot_key_fraction = float(config.hot_key_fraction)
        self.replication_factor = int(config.replication_factor)
        self.rebalance_interval = float(config.rebalance_interval)
        self._next_sweep = self.rebalance_interval
        #: Heat totals as of the last sweep; sweeps classify on the delta.
        self._last_heat = {}
        #: Virtual times at which rebalance sweeps ran (telemetry).
        self.rebalance_sweep_times = []
        #: Primaries the read router found dead and stood in for: their
        #: recovery is deferred to the next mutation that hits them.
        self.deferred = set()
        #: Promotion events ``(time, primary_index, sources, matrix_ids)``
        #: for the report.
        self.promotions = []

    # -- the link table -----------------------------------------------------

    def holders(self, key, reason):
        """Sorted holders linked to *key* for *reason*, at any epoch."""
        return sorted([holder for holder, reasons
                       in self.links.get(key, {}).items() if reason in reasons])

    def keys(self, reason):
        """Sorted keys with at least one link held for *reason*."""
        return sorted(key for key, links in self.links.items()
                      if any(reason in reasons for reasons in links.values()))

    def _live(self, key, reason, epoch):
        """``(holder, entry)`` for every copy of *key* that can serve for
        *reason* now: linked at *epoch*, holder up, entry installed at
        that same epoch.  In holder-index order."""
        for holder_index in _valid(self.links.get(key, {}), reason, epoch):
            holder = self.master.server(holder_index)
            entry = holder.replica_store.get(key)
            if holder.alive and entry is not None \
                    and entry.install_epoch == epoch:
                yield holder, entry

    def _relinked(self):
        """Note a change to the link table: every stamp and memo derived
        from it is stale."""
        self._links_version += 1
        self._targets.clear()

    def _forget(self, key, holder_index, reason):
        """Drop one reason of a link; returns whether it was held."""
        links = self.links.get(key, {})
        if links.get(holder_index, {}).pop(reason, None) is None:
            return False
        self._relinked()
        if not links[holder_index]:
            del links[holder_index]
            if not links:
                del self.links[key]
        return True

    # -- install / drop -----------------------------------------------------

    def _install(self, key, holder_index, reason, depart_at=None):
        """Stream a full copy of *key* onto one holder for *reason*
        (install or refresh), priced by the reason and departing at
        *depart_at* (default: the primary's clock).  Returns ``False``
        after forgetting the reason when either end is down, or
        abandoning the holder (:meth:`_abandon`) when no retry got past a
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
            if self._ship(primary.node_id, target.node_id,
                          self._stream_bytes(reason, rows, versions),
                          depart_at, tag=_TAGS[reason][0]) is None:
                self._abandon(target, [key])
                return False
            target.install_replica(
                matrix_id, primary_index, rows, versions, primary.epoch
            )
        except (MatrixNotFoundError, ServerDownError):
            self._forget(key, holder_index, reason)
            return False
        self.links.setdefault(key, {}).setdefault(holder_index, {})[reason] = \
            primary.epoch
        self._relinked()
        return True

    def _stream_bytes(self, reason, rows, versions):
        """Wire bytes of one full-key state stream, priced per reason."""
        if reason == HOT:
            return messages.replica_migrate_bytes(
                len(rows), sum(shard.values.nbytes for shard in rows.values()),
                len(versions))
        n_values = sum(len(shard) for shard in rows.values())
        return messages.chain_sync_bytes(
            len(rows), n_values, len(versions),
            self._priced_value_bytes(n_values))

    def _priced_value_bytes(self, n_values):
        """The compressed size of *n_values* floats in one chain state
        stream under the cost model's read regime — ``None`` (raw floats)
        without a cost model."""
        costmodel = self.cluster.costmodel
        return None if costmodel is None \
            else costmodel.priced_chain_value_bytes(n_values)

    def _reinstall_hosted(self, server_index, reason):
        """Re-install, from their live primaries, the copies a recovered
        server held for *other* primaries for *reason* (the crash wiped
        its replica store); returns how many succeeded."""
        hosted = [key for key in self.keys(reason) if key[1] != server_index
                  and reason in self.links[key].get(server_index, ())]
        return sum(self._install(key, server_index, reason) for key in hosted)

    def _drop(self, key, holder_index, reason):
        """Forget one reason of a link and tell the holder (a header-sized
        control message); the physical entry goes only when the link has
        no reason left."""
        if not self._forget(key, holder_index, reason) \
                or not 0 <= holder_index < self.master.n_servers:
            return
        holder = self.master.server(holder_index)
        if not holder.alive:
            return
        if holder_index not in self.links.get(key, ()):
            holder.drop_replica(*key)
        self._ship(DRIVER, holder.node_id, REQUEST_HEADER_BYTES, None,
                   tag=_TAGS[reason][1])

    def _abandon(self, holder, keys):
        """A holder no primary could reach: its copies of *keys* are now
        stale, so every reason's link is forgotten and the entry goes too
        (no message can reach the holder to drop it; nothing may serve it
        or promote from it meanwhile)."""
        for key in keys:
            for reason in self.reasons:
                self._forget(key, holder.server_index, reason)
            holder.drop_replica(*key)
        self.cluster.metrics.increment("replica-fanout-abandoned")

    def _ship(self, source, target, nbytes, depart, attempt=0, **transfer):
        """Book one transfer replication sends on its own (a state stream,
        a drop, a promotion, a forward's dropped group), departing no
        earlier than *depart* (``None``: the source's clock) — no client
        waits on it.  A partition on either end retries under the retry
        prices of :mod:`repro.costs`, each penalty delaying the departure
        (``replica-fanout-retries``); *attempt* counts the tries already
        dropped (:meth:`forward` hands over a group its booking loop
        dropped at 1).  Returns the arrival, or ``None`` once the budget
        is spent."""
        cluster = self.cluster
        if depart is None:
            depart = cluster.clock.now(source)
        while True:
            if attempt:
                if attempt > MAX_OP_RETRIES:
                    return None
                cluster.metrics.increment("replica-fanout-retries")
                depart += penalty_for(attempt)
            try:
                return cluster.network.transfer(source, target, nbytes,
                                                depart_at=depart, **transfer)
            except NetworkPartitionedError:
                attempt += 1

    # -- read routing -------------------------------------------------------

    def route(self, requests):
        """The request list to send in place of *requests*.

        A read of a key with a valid hot copy goes to its nearest-by-queue
        holder (:meth:`_queue_load`; the primary is a candidate and wins
        ties toward the lower server index).  A read the hot rule left on
        its primary — a stand-in read too — goes, while that primary is
        down, to the nearest ring successor whose chain copy holds the
        row (zero-downtime reads: no detection timeout, no retry storm;
        the primary's recovery is deferred to the next mutation that hits
        it).  A row the copy lacks, and any ``pull_or_create`` of an
        unseen id, still goes to the primary: only a primary creates.

        A rerouted read is a :meth:`~repro.ps.messages.Request.retargeted`
        copy whose ``replica_of`` names the primary (the serving server
        addresses its replica store with it, and shard telemetry keeps
        charging the primary key), so the result is a derived list; when
        nothing was rerouted it is *requests* itself.  No request in
        *requests* is ever assigned to, so a pooled plan stays addressed
        to its primaries.
        """
        routed = requests
        links = self.links
        crashing = None
        for position, request in enumerate(requests):
            role = request.role
            if role != messages.READ and role != messages.STANDIN_READ:
                continue
            key = (request.matrix_id, request.server_index)
            if key not in links:
                continue
            if crashing is None:
                crashing = self.cluster.failures.crashing_nodes()
            target = self._route_read(request, key, links[key], crashing)
            if target is not request:
                if routed is requests:
                    routed = list(requests)
                routed[position] = target
        return routed

    def _route_read(self, request, key, links, crashing):
        """Where one read of *key* goes.  *crashing* is the set of nodes
        a server crash is still scheduled for, read once per
        :meth:`route` call: only a primary in it can be due, so only such
        a primary is asked :meth:`~repro.ps.server.PSServer.is_alive` —
        the lane's liveness rule."""
        hot = chain = False
        for reasons in links.values():
            hot = hot or HOT in reasons
            chain = chain or CHAIN in reasons
        primary_index = request.server_index
        primary = self.master.servers[primary_index]
        if hot and request.role == messages.READ:
            best = None
            for holder, _entry in self._live(key, HOT, primary.epoch):
                if best is None:
                    best = (self._queue_load(primary), primary_index)
                candidate = (self._queue_load(holder), holder.server_index)
                if candidate < best:
                    best = candidate
            if best is not None and best[1] != primary_index:
                self.cluster.metrics.increment("replica-reads")
                return request.retargeted(best[1])
        if not chain or (primary.is_alive() if primary.node_id in crashing
                         else primary.alive):
            return request
        ring = max(1, self.master.n_servers)
        copies = sorted(
            self._live(key, CHAIN, primary.epoch),
            key=lambda copy: (copy[0].server_index - primary_index) % ring,
        )
        for holder, entry in copies:
            if request.row in entry.rows:
                self.deferred.add(primary_index)
                self.cluster.metrics.increment("chain-reads")
                return request.retargeted(holder.server_index)
        return request

    def _queue_load(self, server):
        """When the server's NIC queues drain — the backlog hot read
        routing minimizes.

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

    # -- write forward ------------------------------------------------------

    def forward(self, requests, completions, serve, plan=None):
        """Ship the replica upkeep of *requests* from their primaries.

        Called by the transport once every original was served;
        ``completions[i]`` is when the wire message carrying
        ``requests[i]`` completed on its primary, and *serve* is the
        transport's fan-out lane
        (:func:`~repro.ps.server.serve_fast_fanout`).  First the lazy
        rows the send created (:meth:`_settle_creations`), then the
        copies of its mutations, laid out by :meth:`copies` — so a push
        to a row created in the same send finds the row on the holders.

        *plan* is the :class:`~repro.ps.transport.FanoutPlan` whose
        ``requests`` these are, if any: the layout is kept on it
        (``plan.copy_layout``) and the plan's next send replays it while
        its stamp — the topology epoch and the link-table version —
        holds, refreshing only the post-apply counters, the departures
        and, while tracing is on, the copies' trace contexts.  What the
        layout derived — the copy targets, the primaries' epochs, the
        serving server objects — changes only when one of the two moves.

        The copies for one (primary, holder) pair travel as one wire
        message, their group, that leaves the *primary's* node when
        its last original completed there — when that message's response
        departs — and is priced like a response: the two NIC bookings
        only, no send CPU, nothing on the writer.  Every group is booked
        in one :meth:`~repro.cluster.network.NetworkModel.transfer_many`
        call, in first-appearance order of its pair; then all groups are
        served in one pass of *serve*, each from its arrival.  A delivery
        that cannot happen never reaches a client clock:

        - a group a **partition** dropped (on either end, at departure)
          is then retried under the retry prices of :mod:`repro.costs`,
          each penalty delaying the departure (:meth:`_ship`, from its
          second attempt) — so it is booked after the groups behind it;
          once the budget is spent the holder's links for the group's
          keys are forgotten and its stale entries evicted, so nothing
          routes to or promotes from them, and the group is not served;
        - a **down holder** fails its copies; after the whole forward
          each such holder is recovered through the master, once and in
          wire order, which re-streams its copies from the live
          primaries (already carrying this mutation), so nothing is
          re-sent.

        A copy applies its original as many times as the primary did
        (:meth:`~repro.ps.server.PSServer._serve_replicated_push`): the
        transport re-sends a wire message whose response was lost, and
        the primary applies it again.
        """
        cluster = self.cluster
        master = self.master
        self._settle_creations(requests, completions)
        if not self.links:
            return
        layout = None if plan is None else plan.copy_layout
        if layout is None or layout.stamp != (master.topology_epoch,
                                              self._links_version):
            layout = self.copies(requests)
            if plan is not None:
                plan.copy_layout = layout
        else:
            self._refresh(layout)
        metrics = cluster.metrics
        for counter, amount in layout.increments:
            metrics.increment(counter, amount)
        groups = layout.groups
        if not groups:
            return
        servers = master.servers
        items = [item + (max([completions[p] for p in positions]),)
                 for item, positions in zip(layout.items, layout.positions)]
        # Every copy of one send is caused by its one client op.
        ctx = groups[0][0].trace_ctx
        trace_parent = None if ctx is None else ctx[1]
        holders = [servers[group[0].server_index] for group in groups]
        arrivals = cluster.network.transfer_many(items, trace_parent)
        for index, arrival in enumerate(arrivals):
            if arrival.__class__ is not NetworkPartitionedError:
                continue
            source, target, nbytes, tag, count, depart = items[index]
            arrival = self._ship(source, target, nbytes, depart, attempt=1,
                                 tag=tag, deliver=False, messages=count,
                                 trace_parent=trace_parent)
            if arrival is None:
                self._abandon(holders[index], sorted({
                    (matrix_id, copy.primary_index)
                    for copy in groups[index]
                    for matrix_id, _row in copy.versions}))
            else:
                arrivals[index] = arrival
        replies, _done = serve(cluster, holders, groups, arrivals)
        # Fencing never raises: a group fails on a drop or a down holder.
        down = []
        for holder, values in zip(holders, replies):
            if values.__class__ is ServerDownError \
                    and holder.server_index not in down:
                down.append(holder.server_index)
        for server_index in down:
            metrics.increment("replica-fanout-recoveries")
            master.recover(server_index)

    def copies(self, requests):
        """The :class:`CopyLayout` of every mutation in *requests*.

        Built after the originals were served, so the primaries' per-row
        counters already reflect the mutations — each copy snapshots
        those counters plus the primary's epoch as its
        idempotence/fencing token.  A holder gets one copy per mutation,
        built in the pass of the first reason its link is valid for (hot
        copies first, then chain copies, each pass in request order;
        :meth:`_copy_targets`), and each pass counts its copies once.
        Copies are grouped per (primary, holder) pair in first-appearance
        order.  A kernel's targets are decided afresh
        (:meth:`_kernel_targets`, which may react), so a layout holding
        one is stamped ``None`` and never replayed.
        Assumes one client op never sends two mutations for the same
        (matrix, row, server): every client op builds one message per
        (row, shard), and a block push refuses a repeated row
        (:meth:`~repro.ps.client.PSClient.push_block_add`).
        """
        layout = CopyLayout((self.master.topology_epoch, self._links_version))
        servers = self.master.servers
        table = self.links
        first = self.reasons[0]
        pairs = {}
        for reason in self.reasons:
            counted = None
            for position, request in enumerate(requests):
                if request.role != messages.MUTATION:
                    continue
                primary_index = request.server_index
                primary = servers[primary_index]
                epoch = primary.epoch
                if request.__class__ is messages.KernelRequest:
                    layout.stamp = None
                    targets = self._kernel_targets(request, primary, reason)
                    if not targets:
                        continue
                    if reason is not first:
                        # Holders whose link is valid for the first reason
                        # already got their copy in its pass.
                        links = table[(request.operands[0][0], primary_index)]
                        targets = [holder for holder in targets
                                   if links[holder].get(first) != epoch]
                    versions = {
                        (m, int(row)): primary.versions.get((m, int(row)), 0)
                        for m, row in request.operands
                    }
                    row_key = None
                else:
                    key = (request.matrix_id, primary_index)
                    if key not in table:
                        continue
                    targets = self._copy_targets(key, epoch, reason)
                    if targets is None:
                        continue
                    row_key = (request.matrix_id, int(request.row))
                    versions = {row_key: primary.versions.get(row_key, 0)}
                counted = len(targets) + (counted or 0)
                if not targets:
                    continue
                made = []
                for holder_index in targets:
                    copy = messages.ReplicatedPushRequest(
                        holder_index, request, primary_index, epoch, versions)
                    made.append(copy)
                    pair = (primary_index, holder_index)
                    index = pairs.get(pair)
                    if index is None:
                        index = pairs[pair] = len(layout.groups)
                        layout.groups.append([])
                        layout.positions.append([])
                    layout.groups[index].append(copy)
                    layout.positions[index].append(position)
                if row_key is not None:
                    layout.rows.append((row_key, primary_index, made))
            if counted is not None:
                layout.increments.append((_TAGS[reason][2], counted))
        layout.items = [
            (servers[group[0].primary_index].node_id,
             servers[group[0].server_index].node_id,
             messages.wire_bytes(group), group[0].tag + ":req", len(group))
            for group in layout.groups]
        return layout

    def _copy_targets(self, key, epoch, reason):
        """The holders a write to *key* sends a copy to in *reason*'s
        pass, with its primary at *epoch*: those linked for *reason* at
        *epoch* (:func:`_valid`), less those the first reason's pass
        already covered — ``None`` when no link is valid for *reason*
        (the pass then does not count the write).  Memoized until the
        link table next changes."""
        memo = (key, epoch, reason)
        try:
            return self._targets[memo]
        except KeyError:
            pass
        links = self.links[key]
        targets = _valid(links, reason, epoch) or None
        first = self.reasons[0]
        if targets is not None and reason is not first:
            targets = [holder for holder in targets
                       if links[holder].get(first) != epoch]
        self._targets[memo] = targets
        return targets

    def _refresh(self, layout):
        """Bring a replayed *layout*'s copies up to this send: the
        primaries' post-apply counters and, while tracing is on, the
        originals' trace contexts."""
        servers = self.master.servers
        for row_key, primary_index, made in layout.rows:
            counter = servers[primary_index].versions.get(row_key, 0)
            for copy in made:
                copy.versions[row_key] = counter
        if self.cluster.tracer.enabled:
            for group in layout.groups:
                for copy in group:
                    copy.trace_ctx = copy.inner.trace_ctx

    def _kernel_targets(self, request, primary, reason):
        """Kernel fan-out is all-or-nothing across the operand matrices.

        A kernel mutates every operand in one shot, so a holder can only
        apply it if it holds copies of *all* operand matrices for this
        primary at the current epoch.  When the operand keys linked for
        *reason* do not share one identical valid holder set, nothing
        fans out for the reason and it reacts instead of letting copies
        silently diverge: hot demotes the linked keys, the chain
        re-streams every operand key (the primary already applied the
        kernel, so a full sync carries its effect).
        """
        keys = sorted({(m, request.server_index) for m, _row in request.operands})
        tracked = [key for key in keys if self.holders(key, reason)]
        if not tracked:
            return []
        sets = [_valid(self.links[key], reason, primary.epoch)
                for key in tracked]
        common = sets[0]
        if len(tracked) == len(keys) and common \
                and all(s == common for s in sets):
            return common
        metrics = self.cluster.metrics
        if reason == HOT:
            for key in tracked:
                self._demote(key)
            metrics.increment("replica-kernel-demotions", len(tracked))
        else:
            for key in keys:
                self.sync_key(*key)
            metrics.increment("chain-kernel-resyncs", len(keys))
        return []

    def _settle_creations(self, requests, completions):
        """The upkeep of the lazy rows *requests* created.

        A creation is read off the set its primary recorded it in
        (``PSServer.created``), never off the reply: a response lost
        after the create is retried and then reports ``created=False``.
        A hot copy of the key, installed before the row existed, would
        miss it, so the key is demoted; the chain grows with the table
        and streams the new row from the primary at the creating
        message's completion (:meth:`_sync_created_row`), so a crash
        right after the send still promotes a bit-identical vector.  A
        key the chain re-streams whole already carries every row the
        send created, so its later creations ship nothing more.
        """
        restreamed = set()
        for request, completion in zip(requests, completions):
            if type(request) is not messages.PullOrCreateRequest:
                continue
            matrix_id, row, index = \
                request.matrix_id, request.row, request.server_index
            created = self.master.server(index).created
            if (matrix_id, row) not in created:
                continue
            created.remove((matrix_id, row))
            key = (matrix_id, index)
            self._demote_written(key)
            if self.m and key not in restreamed \
                    and self._sync_created_row(key, row, completion):
                restreamed.add(key)

    # -- reactions ----------------------------------------------------------

    def on_direct_write(self, matrix_id, server_index):
        """A shard was mutated outside the forward (realignment reports
        each of its writes here): hot demotes the key — it can win
        replication back at the next sweep if it stays hot — and the
        chain, the durability story, re-streams it so the successors
        converge on the new state."""
        key = (matrix_id, int(server_index))
        self._demote_written(key)
        if self.holders(key, CHAIN):
            self.sync_key(*key)
            self.cluster.metrics.increment("chain-direct-write-resyncs")

    def on_send_abandoned(self, requests):
        """The retry policy gave up on a send (the transport raised): its
        primaries may have created lazy rows and applied mutations that
        no forward will carry.  The creations are settled as the forward
        settles them, departing at the primaries' clocks, and every key
        a mutation targets reacts as to a direct write.  Otherwise a
        holder would miss those rows and updates, and the next copy of a
        row would apply its own original once for each missed update."""
        self._settle_creations(requests, [None] * len(requests))
        keys = set()
        for request in requests:
            if request.role != messages.MUTATION:
                continue
            operands = request.operands \
                if request.__class__ is messages.KernelRequest \
                else ((request.matrix_id, None),)
            keys.update((matrix_id, request.server_index)
                        for matrix_id, _row in operands)
        for key in sorted(keys):
            self.on_direct_write(*key)

    def _demote_written(self, key):
        if HOT in self.reasons and self.holders(key, HOT):
            self._demote(key)
            self.cluster.metrics.increment("replica-direct-write-demotions")

    def on_matrix_created(self, matrix_id):
        """Form the chain for a freshly allocated matrix."""
        if not self.m:
            return
        for server_index in range(self.master.n_servers):
            if self.master.server(server_index)._store.get(matrix_id):
                self.sync_key(matrix_id, server_index)

    def on_server_recovered(self, server_index):
        """Refresh the table at a replacement's fresh epoch, chain first.

        Copies OF its shards are stale — chain copies fenced out fan-outs
        during the crash window, and the primary may have rolled back
        under hot copies — so the chain re-streams the recovered
        primary's keys to its successors and hot re-installs every hot
        holder.  Copies it HOSTED died with its state, so each reason
        re-installs them onto it from their live primaries.
        """
        server_index = int(server_index)
        self.deferred.discard(server_index)
        self.resync_primary(server_index)
        self._reinstall_hosted(server_index, CHAIN)
        reinstalled = sum(
            self._install(key, holder_index, HOT)
            for key in self.keys(HOT) if key[1] == server_index
            for holder_index in self.holders(key, HOT))
        reinstalled += self._reinstall_hosted(server_index, HOT)
        if reinstalled:
            self.cluster.metrics.increment("replica-reinstalls", reinstalled)

    # -- hot placement ------------------------------------------------------

    def replica_set(self, matrix_id, primary_index):
        """Sorted *valid* hot holders of one shard key (for tests and the
        report): linked at the primary's current epoch, holder up, copy
        still installed."""
        key = (matrix_id, int(primary_index))
        epoch = self.master.server(primary_index).epoch
        return [holder.server_index
                for holder, _entry in self._live(key, HOT, epoch)]

    def replica_bytes(self):
        """Total bytes of replica state across live servers."""
        return sum(
            server.replica_bytes()
            for server in self.master.servers
            if server.alive
        )

    def maybe_rebalance(self, at_stage_end=False):
        """Run a hot sweep if it is due; returns whether one ran.

        ``rebalance_interval == 0`` sweeps at every stage end (and only
        there); a positive interval sweeps on virtual time, polled both
        at stage ends and after every client PS op — the same dual
        trigger the checkpoint sweep uses.
        """
        if HOT not in self.reasons:
            return False
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
        """One classify/demote/promote sweep over the shard heat deltas
        (a no-op without hot placement)."""
        if HOT not in self.reasons:
            return
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
            held = self.keys(HOT)
            costmodel = self.cluster.costmodel
            if costmodel is not None:
                # The unified cost model gates *new* promotions: when
                # codecs already shrink a key's read traffic, replication
                # must still beat its migration bytes in the compressed
                # regime.  Keys already replicated are kept (churn is the
                # demote sweep's job, not the gate's).
                kept = set(held)
                hot = {
                    key for key in hot
                    if key in kept or costmodel.replication_worthwhile(
                        key, delta.get(key, 0.0), self.master)
                }
            for key in held:
                if key not in hot:
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

    def _promote(self, key):
        """Ensure *key* has its full valid hot holder set, installing on
        the coldest (fewest wire bytes) servers first."""
        primary_index = key[1]
        primary = self.master.server(primary_index)
        if not primary.alive:
            return
        kept = {holder.server_index
                for holder, _entry in self._live(key, HOT, primary.epoch)}
        for holder_index in self.holders(key, HOT):
            if holder_index not in kept:
                self._forget(key, holder_index, HOT)
        limit = self.master.n_servers - 1
        needed = min(self.replication_factor or limit, limit) - len(kept)
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
            if self._install(key, index, HOT):
                promoted += 1
        if promoted:
            metrics.increment("replica-promotions", promoted)

    def _demote(self, key):
        """Drop every hot link of *key*."""
        targets = self.holders(key, HOT)
        if not targets:
            return
        for holder_index in targets:
            self._drop(key, holder_index, HOT)
        self.cluster.metrics.increment("replica-demotions")

    def retire_hot(self):
        """Demote every hot key after an elastic resize's migration.

        Every hot copy was installed against the pre-resize shard map —
        its column range no longer matches any primary shard — and the
        heat baselines restart so the next sweep classifies on
        post-migration traffic only (the retired ledger entries must not
        look like sudden negative deltas).  Called by the master *before*
        departing servers leave the addressable set, so every holder can
        still be reached.
        """
        for key in self.keys(HOT):
            self._demote(key)
        self._last_heat = {}

    # -- chain placement ----------------------------------------------------

    def successors(self, primary_index):
        """Current ring successors of one primary (live servers only)."""
        alive = [index for index, server in enumerate(self.master.servers)
                 if server.alive]
        return chain_successors(int(primary_index), self.master.n_servers,
                                self.m, alive)

    def key_lag(self, matrix_id, primary_index):
        """Worst per-row counter lag of any valid chain copy behind its
        primary (0 means every chain copy is fully caught up)."""
        primary = self.master.server(primary_index)
        key = (matrix_id, int(primary_index))
        lag = 0
        for _holder, entry in self._live(key, CHAIN, primary.epoch):
            for row_key, counter in primary.versions.items():
                if row_key[0] == matrix_id:
                    lag = max(lag, counter - entry.versions.get(row_key, 0))
        return lag

    def sync_key(self, matrix_id, primary_index, depart_at=None):
        """(Re)stream one (matrix, primary) key along its current chain.

        Drops chain links to servers that are no longer ring successors,
        installs or refreshes a full copy on each current successor (the
        streams departing at *depart_at*, default the primary's clock),
        and counts the copies installed.
        """
        key = (matrix_id, int(primary_index))
        primary = self.master.server(primary_index)
        if not primary.alive:
            return
        successors = self.successors(primary_index)
        for holder_index in self.holders(key, CHAIN):
            if holder_index not in successors:
                self._drop(key, holder_index, CHAIN)
        installed = sum(self._install(key, succ, CHAIN, depart_at)
                        for succ in successors)
        if installed:
            self.cluster.metrics.increment("chain-syncs", installed)

    def resync_primary(self, server_index):
        """Re-stream every matrix *server_index* holds shards of, and
        retire chain links whose matrix is empty on the primary."""
        if not self.m:
            return
        server_index = int(server_index)
        primary = self.master.server(server_index)
        for matrix_id in self.master.matrix_ids():
            if primary._store.get(matrix_id):
                self.sync_key(matrix_id, server_index)
        for key in [k for k in self.keys(CHAIN) if k[1] == server_index]:
            if not primary._store.get(key[0]):
                for holder in self.holders(key, CHAIN):
                    self._drop(key, holder, CHAIN)

    def _sync_created_row(self, key, row, depart_at):
        """Stream one freshly created lazy row to the chain successors,
        departing from the primary at *depart_at* (:meth:`forward` passes
        the creating message's completion).

        Chains grow with the table: the first created row of a (matrix,
        primary) key forms its chain entry, later rows ride as one-row
        incremental syncs into the existing copies; a stale or
        mismatched chain falls back to a full key re-stream.  Returns
        whether it re-streamed the key — every row the primary holds now
        is then on the successors.
        """
        matrix_id, server_index = key
        primary = self.master.server(server_index)
        successors = self.successors(server_index)
        if not successors:
            return False
        copies = list(self._live(key, CHAIN, primary.epoch))
        if [holder.server_index for holder, _entry in copies] != successors \
                or len(copies) != len(self.holders(key, CHAIN)):
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
            if self._ship(primary.node_id, holder.node_id, nbytes,
                          depart_at, tag=_TAGS[CHAIN][0]) is None:
                self._abandon(holder, [key])
                continue
            entry.rows[row] = shard.copy()
            if counter:
                entry.versions[row_key] = counter
            self.cluster.metrics.increment("chain-row-syncs")
        return False

    def promote_into(self, replacement, server_index, failed_epoch):
        """Rebuild a failed primary's matrices from its chain successors.

        For every (matrix, failed-primary) key, the surviving successors
        whose copies were installed at the dead process's epoch are
        merged per-row (:func:`merge_chain_copies` — each row from the
        most-advanced holder) and the result installed into
        *replacement* with the winning counters, priced as one
        :func:`~repro.ps.messages.chain_promote_bytes` round trip per
        contributing holder, each leg retried like every other stream
        (:meth:`_ship`).  A holder no retry reaches is abandoned and the
        merge is redone over the rest.  Returns ``{matrix_id:
        rows_promoted}``; keys with no reachable valid holder are left out
        and the caller falls back to checkpoint restore for them.
        """
        server_index = int(server_index)
        promoted = {}
        sources = set()
        for key in [k for k in self.keys(CHAIN) if k[1] == server_index]:
            matrix_id = key[0]
            copies = {}
            for succ in _valid(self.links[key], CHAIN, failed_epoch):
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
            while copies:
                rows, counters, origin = merge_chain_copies(copies)
                lost = self._fetch_rows(replacement, rows, origin)
                if lost is None:
                    break
                self._abandon(self.master.server(lost), [key])
                del copies[lost]
            if not copies:
                continue
            sources.update(origin.values())
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

    def _fetch_rows(self, replacement, rows, origin):
        """Book the promote round trip to each holder supplying merged
        *rows*, in holder order; returns the first holder no retry
        reached (``None`` when every one answered)."""
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
            if self._ship(replacement.node_id, holder.node_id, request_bytes,
                          None, tag="chain-promote") is None \
                    or self._ship(holder.node_id, replacement.node_id,
                                  response_bytes, None,
                                  tag="chain-promote") is None:
                return holder_index
        return None

    def retire_chains(self):
        """Tear every chain down ahead of an elastic resize.

        The shard map is about to be rewritten wholesale, so every chain
        copy is retired (while its holder is still addressable); a crash
        during the migration itself therefore falls back to checkpoint
        restore, and :meth:`reform` rebuilds the chains from the
        post-migration stores.  Primaries whose recovery the read router
        deferred are promoted first — once the copies are gone the
        migration's own recovery could only re-initialize their shards.
        """
        for server_index in sorted(self.deferred):
            self.master.recover(server_index)
        for key in self.keys(CHAIN):
            for holder in self.holders(key, CHAIN):
                self._drop(key, holder, CHAIN)

    def reform(self):
        """Form chains over the current topology and stores."""
        if not self.m:
            return
        for server_index in range(self.master.n_servers):
            self.resync_primary(server_index)
        self.cluster.metrics.increment("chain-reforms")
