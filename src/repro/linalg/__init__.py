"""Minimal linear-algebra helpers (sparse training rows)."""

from repro.linalg.sparse import SparseRow, batch_index_union

__all__ = ["SparseRow", "batch_index_union"]
