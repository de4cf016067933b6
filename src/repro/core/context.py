"""PS2Context: Spark + parameter servers wired together (Figure 2).

The context owns one simulated cluster and runs both applications on it —
sparklite (driver + executors) for data processing, and the PS module
(master + servers) for model management.  The driver doubles as the
coordinator, as in Section 5.1, and every executor gets a PS-client.

This mirrors the paper's deployment story: Spark and the parameter servers
are *separate applications* sharing a cluster; nothing in sparklite's core
is modified to support the PS.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.cluster import Cluster, DRIVER
from repro.config import ClusterConfig
from repro.core.dcv import DCV
from repro.core.pool import DCVPool
from repro.ps.client import PSClient
from repro.ps.master import PSMaster
from repro.ps.messages import KernelRequest, PullRowRequest, PushRequest
from repro.ps.partitioner import ColumnLayout
from repro.ps.server import serve_one
from repro.sparklite.context import SparkContext


class PS2Context:
    """Entry point: create DCVs, parallelize data, train models."""

    def __init__(self, cluster=None, config=None):
        self.cluster = cluster or Cluster(config or ClusterConfig())
        self.spark = SparkContext(self.cluster)
        self.master = PSMaster(self.cluster)
        self.coordinator = DRIVER
        self._clients = {}
        self._pool_counter = 0

    # -- clients ------------------------------------------------------------

    def client_for(self, node_id):
        """The PS-client living on *node_id* (one per executor + coordinator)."""
        if node_id not in self._clients:
            self._clients[node_id] = PSClient(self.cluster, self.master, node_id)
        return self._clients[node_id]

    @property
    def coordinator_client(self):
        return self.client_for(self.coordinator)

    # -- DCV creation ---------------------------------------------------------

    def _new_pool(self, dim, rows, name, allow_growth=True, init="zero",
                  scale=0.01, block=1):
        rotation = self._pool_counter
        self._pool_counter += 1
        layout = ColumnLayout(dim, self.master.n_servers, rotation=rotation,
                              block=block)
        pool_name = name or "dcv%d" % rotation
        return DCVPool(self, dim, rows, layout, pool_name,
                       allow_growth=allow_growth, init=init, scale=scale)

    def dense(self, dim, rows=10, name=None, allow_growth=True, init="zero",
              scale=0.01, block=1):
        """``DCV.dense``: a fresh pool of *rows* co-located slots; row 0 back.

        Each ``dense`` call gets its own placement rotation, so two
        independently created DCVs are **not** co-located — use ``derive``
        on the returned DCV for siblings (Figure 4).  ``init`` is applied
        server-side to every pool row: ``"zero"`` (default), ``"random"``
        (normal * scale) or ``"uniform"`` (centered, half-width *scale*).
        ``block`` aligns partition boundaries to multiples of that many
        columns (GBDT uses it so one feature's histogram bins never straddle
        two servers).
        """
        pool = self._new_pool(dim, rows, name, allow_growth=allow_growth,
                              init=init, scale=scale, block=block)
        matrix_id, row = pool.acquire()
        return DCV(self, pool, matrix_id, row, name=name)

    def sparse(self, dim, rows=10, name=None, allow_growth=True):
        """``DCV.sparse``: as :meth:`dense`, flagged for index-based access."""
        dcv = self.dense(dim, rows=rows, name=name, allow_growth=allow_growth)
        dcv.is_sparse = True
        return dcv

    # -- realignment (the non-co-located slow path) ------------------------------

    def realign(self, src, dst):
        """Copy *src*'s contents into *dst* under *dst*'s layout.

        Every range that lives on a different server under the two layouts
        is shipped server-to-server (tag ``realign``); this is the data
        shuffling across servers that Figure 4 warns about, made explicit
        and measurable.  Each range ``[lo, hi)`` is a sparse row read of
        its columns on the source, queued from its control message's
        arrival, then a sparse assign of them on the target, queued from
        the transfer's arrival (from the read's completion when both ends
        are one server); both are one-request fan-outs of the row kinds.
        The transfer is priced as the assigning push it delivers: header,
        index list and values.
        The write bypasses the replica forward, so the holder table is
        told about it directly: hot-key demotes the key, the chain
        re-streams it.
        """
        network = self.cluster.network
        master = self.master
        for s_srv, s_start, s_stop in src.layout.shards_for_row(src.row):
            source = master.server(s_srv)
            # The per-shard control message is a one-operand server-side
            # op descriptor, so it is priced as that message.
            ctrl = network.transfer(
                self.coordinator,
                source.node_id,
                KernelRequest(s_srv, None, [(src.matrix_id, src.row)])
                .wire_bytes(),
                tag="realign:ctrl",
            )
            for d_srv, d_start, d_stop in dst.layout.shards_for_row(dst.row):
                lo = max(s_start, d_start)
                hi = min(s_stop, d_stop)
                if lo >= hi:
                    continue
                columns = np.arange(lo, hi, dtype=np.int64)
                values, ready = serve_one(source, PullRowRequest(
                    s_srv, src.matrix_id, src.row, hi - lo,
                    indices=columns), ctrl)
                target = master.server(d_srv)
                push = PushRequest(d_srv, dst.matrix_id, dst.row, values,
                                   indices=columns, mode="assign")
                if s_srv != d_srv:
                    ready = network.transfer(
                        source.node_id,
                        target.node_id,
                        push.wire_bytes(),
                        tag="realign",
                        depart_at=ready,
                    )
                serve_one(target, push, ready)
                if self.cluster.replicas is not None:
                    self.cluster.replicas.on_direct_write(dst.matrix_id, d_srv)
        return dst

    # -- convenience ------------------------------------------------------------

    def parallelize(self, data, n_partitions=None):
        """Distribute *data* as an RDD (delegates to sparklite)."""
        return self.spark.parallelize(data, n_partitions=n_partitions)

    def checkpoint(self):
        """Checkpoint every server's model state to reliable storage."""
        self.master.checkpoint_all()

    def elapsed(self):
        """Virtual makespan of everything run on this context so far."""
        return self.cluster.elapsed()

    @property
    def metrics(self):
        return self.cluster.metrics
