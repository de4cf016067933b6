"""SparkContext, miniature edition: the driver-side entry point."""

from __future__ import annotations

from repro.cluster.cluster import Cluster, DRIVER
from repro.common.errors import SparkliteError
from repro.sparklite.broadcast import Broadcast
from repro.sparklite.rdd import ParallelizedRDD
from repro.sparklite.scheduler import Scheduler


class SparkContext:
    """Driver handle for creating RDDs and broadcasts on a cluster."""

    def __init__(self, cluster=None):
        self.cluster = cluster or Cluster()
        self.scheduler = Scheduler(self.cluster)

    @property
    def n_executors(self):
        return len(self.cluster.executors)

    @property
    def driver(self):
        return DRIVER

    def parallelize(self, data, n_partitions=None):
        """Distribute *data* across ``n_partitions`` (default: one/executor).

        Elements are dealt round-robin so partition sizes differ by at most
        one; the driver->executor distribution cost for the initial data is
        charged once, here.
        """
        data = list(data)
        if n_partitions is None:
            n_partitions = self.n_executors
        if n_partitions <= 0:
            raise SparkliteError("n_partitions must be positive")
        partitions = [[] for _ in range(n_partitions)]
        for index, element in enumerate(data):
            partitions[index % n_partitions].append(element)
        rdd = ParallelizedRDD(self, partitions)
        self._charge_distribution(rdd)
        return rdd

    def _charge_distribution(self, rdd):
        """Charge shipping each base partition from the driver to its executor.

        In production the data comes from HDFS; reading a partition costs
        roughly one network transfer of its bytes, which this models.
        """
        from repro.common.sizeof import sizeof

        load_start = self.cluster.clock.now(DRIVER)
        for partition_id in range(rdd.get_num_partitions()):
            executor = self.scheduler.executor_for(partition_id)
            nbytes = sizeof(rdd._partitions[partition_id])
            self.cluster.network.transfer(
                DRIVER, executor, nbytes, tag="data-load"
            )
        self.cluster.barrier([DRIVER] + self.cluster.executors)
        tracer = self.cluster.tracer
        if tracer.enabled:
            tracer.record(
                DRIVER, "data-load", load_start,
                self.cluster.clock.now(DRIVER), cat="stage",
                n_partitions=rdd.get_num_partitions(),
            )

    def broadcast(self, value, nbytes=None):
        """Ship *value* to every executor and return the broadcast handle."""
        bc = Broadcast(self.cluster, value, nbytes=nbytes)
        bc.ship()
        return bc

    def elapsed(self):
        """Virtual makespan of everything run on this context so far."""
        return self.cluster.elapsed()
