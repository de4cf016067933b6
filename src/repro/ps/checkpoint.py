"""Checkpointing of server state to reliable external storage.

Section 5.3: "PS2 periodically checkpoints the model parameters on each
server to a reliable external storage.  When a server failure happens, the
coordinator starts a new server and the new server recovers the latest model
by loading from the checkpoints."  Reads and writes are charged at HDFS-like
sequential throughput against the server's clock.
"""

from __future__ import annotations

from repro.costs import STORAGE_BANDWIDTH


class CheckpointManager:
    """Holds the latest durable snapshot per server."""

    def __init__(self, cluster):
        self.cluster = cluster
        self._snapshots = {}

    def checkpoint_server(self, server):
        """Write *server*'s state to the store, charging the write time."""
        nbytes = server.stored_bytes()
        snapshot = server.snapshot()
        self.cluster.charge_seconds(
            server.node_id, nbytes / STORAGE_BANDWIDTH, tag="checkpoint"
        )
        self._snapshots[server.server_index] = {
            "time": self.cluster.clock.now(server.node_id),
            "bytes": nbytes,
            "state": snapshot,
        }
        self.cluster.metrics.increment("checkpoints")

    def checkpoint_all(self, servers):
        """Checkpoint every live server (the periodic sweep).

        A sweep must survive a concurrent server failure: dead servers are
        skipped (there is nothing durable to gain from an empty replacement)
        and counted, while every surviving server is still checkpointed — a
        single crash must not abort the whole sweep.
        """
        for server in servers:
            if not server.is_alive():
                self.cluster.metrics.increment("checkpoint-skips-dead-server")
                continue
            self.checkpoint_server(server)

    def has_checkpoint(self, server_index):
        return server_index in self._snapshots

    def invalidate(self):
        """Drop every snapshot; returns whether any existed.

        Called after a live shard migration: a pre-migration snapshot
        holds pre-migration shard *ranges*, and restoring it afterwards
        would reinstate wrong widths (reconciliation only fills missing
        shards, it never validates ranges).  The master takes a fresh
        sweep right after when checkpoint protection was in play.
        """
        had = bool(self._snapshots)
        self._snapshots.clear()
        return had

    def recover_server(self, server, only_matrices=None):
        """Load the latest snapshot into a replacement server.

        Returns the virtual time at which the snapshot was taken, or ``None``
        when the server has never been checkpointed — a failure before the
        first sweep is legal, and the master then rebuilds the server from
        matrix metadata instead of from storage.

        *only_matrices* restricts the restore to those matrix ids — the
        chain-replication fallback path, where matrices already promoted
        from chain successors carry post-checkpoint updates and must not
        be rolled back.  Only the filtered bytes are charged (the storage
        read is per-matrix), and each surviving matrix is merged in via
        :meth:`~repro.ps.server.PSServer.restore_matrix` rather than a
        wholesale store replacement.  Returns ``None`` when the filter
        leaves nothing to restore.
        """
        entry = self._snapshots.get(server.server_index)
        if entry is None:
            return None
        state = entry["state"]
        nbytes = entry["bytes"]
        if only_matrices is not None:
            wanted = set(only_matrices)
            state = {
                matrix_id: rows
                for matrix_id, rows in state.items()
                if matrix_id in wanted
            }
            if not state:
                return None
            nbytes = sum(
                shard.values.nbytes
                for rows in state.values()
                for shard in rows.values()
            )
        # The restore occupies the replacement's CPU timeline, not just its
        # clock: requests arriving while the snapshot streams in from
        # storage queue behind it — the recovery pause the chain-recovery
        # benchmark measures.  (Chain promotion has no equivalent charge
        # here because its state moves through NIC reservations, which
        # delay subsequent arrivals on their own.)
        seconds = nbytes / STORAGE_BANDWIDTH
        now = self.cluster.clock.now(server.node_id)
        start = server.cpu.reserve(now, seconds)
        self.cluster.metrics.record_compute(
            server.node_id, seconds, tag="recovery"
        )
        self.cluster.clock.set_at_least(server.node_id, start + seconds)
        if only_matrices is None:
            server.restore(state)
        else:
            for matrix_id in sorted(state):
                server.restore_matrix(matrix_id, state[matrix_id])
        self.cluster.metrics.increment("recoveries")
        return entry["time"]
