"""Sparse instance representation used by the training-data pipelines.

Training rows are sparse index/value pairs plus a label, matching the
libsvm-style data the paper's LR workloads consume (KDDB has ~30 non-zeros
per row over 29M features).
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import DimensionMismatchError


class SparseRow:
    """One labeled sparse training instance."""

    __slots__ = ("indices", "values", "label")

    def __init__(self, indices, values, label):
        self.indices = np.asarray(indices, dtype=np.int64)
        self.values = np.asarray(values, dtype=float)
        if self.indices.shape != self.values.shape:
            raise DimensionMismatchError(
                "indices/values shapes differ: %r vs %r"
                % (self.indices.shape, self.values.shape)
            )
        self.label = float(label)

    @property
    def nnz(self):
        return int(self.indices.size)

    def dot_dense(self, dense):
        """Dot product against a full dense weight vector."""
        return float(np.dot(dense[self.indices], self.values))

    def to_dense(self, dim):
        """Expand into a dense vector of dimension *dim*."""
        dense = np.zeros(dim)
        dense[self.indices] = self.values
        return dense

    def __repr__(self):
        return "SparseRow(nnz=%d, label=%g)" % (self.nnz, self.label)


def batch_index_union(rows):
    """Sorted unique feature indices touched by *rows* (sparse-pull keys)."""
    if not rows:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate([row.indices for row in rows]))
