"""Exception hierarchy shared by every repro subsystem.

All errors raised by the library derive from :class:`ReproError`, so callers
can catch a single base class.  Subsystem-specific bases (:class:`ClusterError`,
:class:`SparkliteError`, :class:`PSError`, :class:`DCVError`) exist so tests can
assert on the failing layer.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class ConfigError(ReproError):
    """An invalid configuration value was supplied."""


class ClusterError(ReproError):
    """Base class for errors raised by the simulated cluster substrate."""


class UnknownNodeError(ClusterError):
    """A node id was used that is not registered in the cluster."""


class NetworkPartitionedError(ClusterError):
    """A transfer was attempted into (or out of) a partitioned node.

    Raised by the network model while a scheduled partition window covers
    either endpoint; the PS client retries the op under its retry policy,
    so transient partitions cost time, not correctness.
    """


class SparkliteError(ReproError):
    """Base class for errors raised by the sparklite dataflow engine."""


class TaskError(SparkliteError):
    """A task raised an exception on an executor.

    Carries the task coordinates so the scheduler can decide on a retry.
    """

    def __init__(self, message, stage_id=None, partition_id=None, attempt=None):
        super().__init__(message)
        self.stage_id = stage_id
        self.partition_id = partition_id
        self.attempt = attempt


class JobAbortedError(SparkliteError):
    """A job was abandoned after a task exhausted its retry budget."""


class PSError(ReproError):
    """Base class for errors raised by the parameter-server substrate."""


class MatrixNotFoundError(PSError):
    """A matrix id was referenced that the PS master does not know about."""


class ServerDownError(PSError):
    """A request was routed to a server that is currently failed."""


class DCVError(ReproError):
    """Base class for errors raised by the DCV layer."""


class NotColocatedError(DCVError):
    """An operator that cannot realign was given DCVs with different layouts.

    Raised by ``zip`` and by an ``out=`` target that is not co-located with
    its operands.  Other column-access operators realign the operand
    instead and charge the cross-server traffic, the "inefficient writing"
    example in Figure 4 of the paper.
    """


class PoolExhaustedError(DCVError):
    """``derive`` was called on a pool with no free rows and growth disabled."""


class DimensionMismatchError(DCVError):
    """Two DCVs with different dimensions were combined."""
