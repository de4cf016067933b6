"""Minimal linear-algebra helpers (sparse training rows)."""

from repro.linalg.sparse import SparseBatch, SparseRow

__all__ = ["SparseBatch", "SparseRow"]
