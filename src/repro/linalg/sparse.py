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


def sorted_unique(values):
    """The sorted distinct elements of an integer array, flattened.

    Equal to ``np.unique(values)`` in values and dtype, built by sorting
    and keeping each element that differs from the one before it.  numpy
    2.x answers ``np.unique`` of integers through a hash table before it
    sorts, which costs a mini-batch's key set several times the sort.
    """
    ordered = np.sort(values, axis=None)
    if ordered.size < 2:
        return ordered
    keep = np.empty(ordered.size, dtype=bool)
    keep[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def batch_index_union(rows):
    """Sorted unique feature indices touched by *rows* (sparse-pull keys)."""
    if not rows:
        return np.empty(0, dtype=np.int64)
    return sorted_unique(np.concatenate([row.indices for row in rows]))
