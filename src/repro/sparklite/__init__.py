"""sparklite: a miniature Spark (driver, executors, RDDs) over the simulator."""

from repro.sparklite.broadcast import Broadcast
from repro.sparklite.context import SparkContext
from repro.sparklite.rdd import (
    CachedRDD,
    MapPartitionsRDD,
    ParallelizedRDD,
    RDD,
    SampledRDD,
)
from repro.sparklite.scheduler import Scheduler
from repro.sparklite.task import TaskContext, with_context

__all__ = [
    "Broadcast",
    "SparkContext",
    "CachedRDD",
    "MapPartitionsRDD",
    "ParallelizedRDD",
    "RDD",
    "SampledRDD",
    "Scheduler",
    "TaskContext",
    "with_context",
]
