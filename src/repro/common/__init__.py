"""Shared utilities: errors, deterministic RNG, wire-size estimation."""

from repro.common.errors import (
    ClusterError,
    ConfigError,
    DCVError,
    DimensionMismatchError,
    JobAbortedError,
    MatrixNotFoundError,
    NotColocatedError,
    PoolExhaustedError,
    PSError,
    ReproError,
    ServerDownError,
    SparkliteError,
    TaskError,
    UnknownNodeError,
)
from repro.common.rng import RngRegistry, generator
from repro.common.sizeof import sizeof

__all__ = [
    "ClusterError",
    "ConfigError",
    "DCVError",
    "DimensionMismatchError",
    "JobAbortedError",
    "MatrixNotFoundError",
    "NotColocatedError",
    "PoolExhaustedError",
    "PSError",
    "ReproError",
    "ServerDownError",
    "SparkliteError",
    "TaskError",
    "UnknownNodeError",
    "RngRegistry",
    "generator",
    "sizeof",
]
