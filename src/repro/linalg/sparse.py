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
    return ordered[_first_of_each(ordered)]


def _first_of_each(ordered):
    """Mask of the elements of a sorted array that differ from the one
    before them (the first element always counts)."""
    keep = np.empty(ordered.size, dtype=bool)
    keep[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return keep


class SparseBatch:
    """A mini-batch of :class:`SparseRow` as flat arrays, built once per task.

    ``indices`` and ``values`` concatenate the rows' entries in row order,
    ``lengths`` and ``labels`` hold one entry per row and ``slices`` each
    row's slice of the flat arrays.  ``union`` is the sorted distinct
    indices (the keys a sparse pull asks for, equal to ``np.unique``) and
    ``positions`` each entry's place in it, so ``union[positions]``
    equals ``indices``.

    Both come from one argsort: keeping each sorted entry that differs
    from the one before it gives the union, and the running count of
    kept entries, scattered back through the sort order, the positions.
    Equal keys get equal positions, so the sort need not be stable.  On
    a batch of 17 rows of 160 entries that costs about 70 µs, half of
    one ``np.searchsorted`` of the unsorted entries into the union.
    """

    __slots__ = ("indices", "values", "lengths", "labels", "slices",
                 "union", "positions", "nnz")

    def __init__(self, rows):
        row_indices = [row.indices for row in rows]
        self.indices = np.concatenate(row_indices or [np.empty(0, np.int64)])
        self.values = np.concatenate(
            [row.values for row in rows] or [np.empty(0)])
        self.lengths = np.fromiter(map(len, row_indices), np.intp)
        self.labels = np.array([row.label for row in rows], dtype=float)
        self.nnz = self.indices.size
        ends = np.cumsum(self.lengths).tolist()
        self.slices = list(map(slice, [0] + ends, ends))
        order = np.argsort(self.indices)
        ordered = self.indices[order]
        keep = _first_of_each(ordered)
        self.union = ordered[keep]
        self.positions = np.empty(self.nnz, dtype=np.intp)
        self.positions[order] = np.cumsum(keep) - 1

    def __len__(self):
        return self.labels.size

    def row_dots(self, gathered):
        """``np.dot`` of each row's slice of *gathered* (one value per
        entry) with its values, as an array.

        One ``np.dot`` per row keeps each margin bit-identical to a dot
        of the row's own arrays; ``np.add.reduceat`` over the products
        sums in another order and differed in the last bits on all of 300
        drawn 17-row CTR batches.
        """
        return np.array([np.dot(gathered[part], self.values[part])
                         for part in self.slices], dtype=float)
