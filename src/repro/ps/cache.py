"""Worker-side parameter cache for relaxed-consistency execution.

Under SSP/ASP every executor's PS-client owns a :class:`WorkerCache`
holding full model rows pulled from the servers.  A ``pull_row``
whose row is cached and no older than the staleness bound is served from
the executor-local copy — **zero** network traffic (no ``transfer`` call,
so the NIC timelines and byte counters genuinely do not move); a miss
promotes to a full-row dense pull (NuPS-style replication of the parameters
a worker keeps touching) whose result is cached for the next ``bound``
clocks.

Freshness is measured in the worker's *logical clocks* (one per task): an
entry pulled at clock ``p`` may serve reads through clock ``p + bound``,
which is exactly the SSP contract — a read is never more than ``bound``
clocks stale.  The worker's own pushes write through to the cached copy
(read-your-writes within the bound).

At every clock advance the cache runs a version-vector exchange: one
:class:`~repro.ps.messages.ClockAdvanceRequest` per server holding cached
rows, carrying the cached keys and returning the server's current
``(epoch, counter)`` token per key.  The tokens are compared by equality
only.  An *epoch* change means the server was recovered from a crash — its
state may have rolled back to a checkpoint, so clock-age staleness
accounting is void and the entry is dropped immediately (the PR-2 failure
model's guarantee: a recovered server's version vector must not permit
stale reads past the bound).  A *counter* change is ordinary progress by
other workers; the entry stays until it ages out.  Entries older than the
bound are evicted at the tick (they can never serve a hit again).

The renewal RPC pays full wire costs through the typed transport — the
cache's coherence traffic is part of the cost model, not free.

Interaction with hot-key replication: cache tokens are **primary** tokens.
A cached row's ``tokens`` map keys the primary server indices from the
routing table, and the renewal RPC always targets the primaries — never a
replica.  This keeps the fencing story single-sourced: replicas carry
their own install-epoch fence (validated server-side per read and per
fan-out apply, see :mod:`repro.ps.replication`), and a replica is only
ever readable while its install epoch equals the primary's current epoch,
so a primary-token equality check subsumes every replica the row may have
been served from.
"""

from __future__ import annotations

import numpy as np

from repro.ps import messages


class CacheEntry:
    """One cached model row: values + pull clock + per-server tokens."""

    __slots__ = ("values", "pull_clock", "tokens")

    def __init__(self, values, pull_clock, tokens):
        self.values = values
        self.pull_clock = int(pull_clock)
        self.tokens = tokens  # {server_index: (epoch, counter)}


class WorkerCache:
    """Executor-local full-row cache with a staleness-bounded reuse window."""

    def __init__(self, cluster, node_id, model, transport):
        self.cluster = cluster
        self.node_id = node_id
        self.model = model
        self.transport = transport
        self.entries = {}
        # An elastic resize re-shards every matrix; cached rows carry
        # per-server tokens keyed on the old primary indices, so they are
        # unconditionally dropped rather than renewed against a new map.
        cluster.topology_change_hooks.append(self.invalidate)

    @property
    def bound(self):
        return self.model.cache_bound()

    def clock(self):
        return self.model.clock_of(self.node_id)

    # -- lookup / store ----------------------------------------------------

    def lookup(self, matrix_id, row):
        """The cached entry for a row, or ``None`` if absent/too stale."""
        key = (matrix_id, int(row))
        entry = self.entries.get(key)
        if entry is None:
            return None
        age = self.clock() - entry.pull_clock
        if age > self.bound:
            del self.entries[key]
            return None
        return entry

    def store(self, matrix_id, row, values, tokens):
        """Cache a freshly pulled full row at the current clock."""
        self.entries[(matrix_id, int(row))] = CacheEntry(
            np.array(values, dtype=float, copy=True), self.clock(), tokens
        )

    def apply_push(self, matrix_id, row, values, indices, mode):
        """Write-through for the worker's own pushes (read-your-writes).

        Applies the values the client *intended* to push.  Under a lossy
        wire codec the server applies the decoded (quantized/sparsified)
        values instead, so a cached row can drift from the server copy by
        at most the codec's per-message error bound; the divergence is
        bounded by the staleness window — the next miss refills the row
        from the server's (decoded) state.  Cache-hit ``bytes_saved``
        telemetry is priced through the active cost model when one is
        configured (:meth:`CostModel.priced_pull_response_bytes`): a hit
        reports the wire volume the pull *would* have cost under the
        codec regime in force, falling back to identity rates only when
        no cost model is installed.
        """
        entry = self.entries.get((matrix_id, int(row)))
        if entry is None:
            return
        if mode == "add":
            if indices is None:
                entry.values += values
            else:
                np.add.at(entry.values,
                          np.asarray(indices, dtype=np.int64), values)
        else:
            if indices is None:
                entry.values[:] = values
            else:
                entry.values[np.asarray(indices, dtype=np.int64)] = values

    def invalidate(self, matrix_id=None):
        """Drop cached rows of one matrix (or everything)."""
        if matrix_id is None:
            self.entries.clear()
        else:
            for key in [k for k in self.entries if k[0] == matrix_id]:
                del self.entries[key]

    # -- clock-advance renewal ----------------------------------------------

    def on_clock_advance(self, node_id, clock_value):
        """Version-vector exchange at this worker's logical-clock tick.

        Registered on ``cluster.clock_advance_hooks``; ignores other
        workers' ticks.  Sends one ClockAdvance message per server holding
        cached rows (coalesced/retried by the transport like any RPC —
        a *down* server is recovered right here, which is how the epoch
        fence learns about crashes), waits for the token responses, then
        drops epoch-fenced and aged-out entries.
        """
        if node_id != self.node_id or not self.entries:
            return
        by_server = {}
        for key, entry in self.entries.items():
            for server_index in entry.tokens:
                by_server.setdefault(server_index, []).append(key)
        requests = [
            messages.ClockAdvanceRequest(server_index, keys, clock_value)
            for server_index, keys in sorted(by_server.items())
        ]
        values, arrivals = self.transport.send_all(requests)
        arrivals = [a for a in arrivals if a is not None]
        if arrivals:
            self.cluster.clock.set_at_least(self.node_id, max(arrivals))
        current = {}
        for request, tokens in zip(requests, values):
            for key, token in zip(request.keys, tokens):
                current[(key, request.server_index)] = token
        for key, entry in list(self.entries.items()):
            fenced = any(
                current.get((key, server_index), (epoch, None))[0] != epoch
                for server_index, (epoch, _counter) in entry.tokens.items()
            )
            if fenced:
                del self.entries[key]
                self.cluster.metrics.increment("cache-epoch-fences")
            elif clock_value - entry.pull_clock > self.bound:
                del self.entries[key]
