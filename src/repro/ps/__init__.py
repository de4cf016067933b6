"""Parameter-server substrate: master, servers, clients, checkpoints."""

from repro.ps.checkpoint import CheckpointManager
from repro.ps.client import PSClient
from repro.ps.master import MatrixInfo, PSMaster
from repro.ps.partitioner import ColumnLayout, RowLayout
from repro.ps.replication import Replicas
from repro.ps.server import PSServer, ReplicaEntry, RowShard

__all__ = [
    "CheckpointManager",
    "PSClient",
    "MatrixInfo",
    "PSMaster",
    "ColumnLayout",
    "RowLayout",
    "Replicas",
    "PSServer",
    "ReplicaEntry",
    "RowShard",
]
