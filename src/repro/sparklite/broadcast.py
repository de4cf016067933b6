"""Driver-side broadcast variables.

Spark's TorrentBroadcast splits the value into chunks that executors then
exchange peer-to-peer, so the driver seeds each chunk once and every NIC
moves roughly one copy of the value — broadcast does NOT incast at the
driver.  (That is why Figure 1(b)'s bottleneck is gradient *aggregation*,
which has no torrent equivalent, not the model broadcast.)  With one
executor there is no peer to exchange with, and the driver ships the
whole value directly.
"""

from __future__ import annotations

from repro.cluster.cluster import DRIVER
from repro.common.sizeof import sizeof


class Broadcast:
    """An immutable value shipped from the driver to all executors."""

    _next_id = 0

    def __init__(self, cluster, value, nbytes=None):
        self.broadcast_id = Broadcast._next_id
        Broadcast._next_id += 1
        self.cluster = cluster
        self._value = value
        self.nbytes = int(nbytes) if nbytes is not None else sizeof(value)
        self._shipped = False

    @property
    def value(self):
        return self._value

    def ship(self):
        """Transfer the value to every executor (idempotent)."""
        if self._shipped:
            return
        executors = self.cluster.executors
        network = self.cluster.network
        if len(executors) == 1:
            network.transfer(DRIVER, executors[0], self.nbytes,
                             tag="broadcast")
        else:
            # Torrent: the driver seeds one chunk per executor; executors
            # then exchange the remaining (W-1)/W peer-to-peer.  Chunked
            # pipelining means nobody waits for a full copy before
            # forwarding, so the exchange departs right after seeding
            # rather than chaining around the ring.
            n = len(executors)
            chunk = self.nbytes / n
            seeded = [
                network.transfer(DRIVER, executor, chunk, tag="broadcast")
                for executor in executors
            ]
            pipeline_start = max(seeded)
            rest = self.nbytes - chunk
            for position, executor in enumerate(executors):
                peer = executors[(position + 1) % n]
                network.transfer(
                    executor, peer, rest, tag="broadcast",
                    depart_at=pipeline_start,
                )
        self._shipped = True
