"""Model-matrix placement strategies.

The paper contrasts two placements:

- **Column layout** (PS2 / DCV, Section 4.3): every row of the model matrix
  is range-partitioned over all servers, so row access parallelizes across
  servers and same-index slices of sibling rows are co-located.
- **Row layout** (Petuum-style): each row (one whole model vector) lives on a
  single server, so accessing one vector is a single-server operation — the
  "single-point problem" the paper attributes to row partitioning.

Every decision that depends on the placement is a layout's answer, so no
caller tests which layout it holds: :meth:`~_Layout.shards` and
:meth:`~ColumnLayout.block_shards` place a row or block op's values on
their servers, :meth:`~ColumnLayout.resized` gives the same placement over
another server count (a live resize), and ``op_plans`` is the pool of
client fan-out plans — ``None`` where nothing is pooled.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ConfigError, PSError


def _refuse_outside(low, high, dim):
    """Refuse a sparse index set whose least element is *low* and whose
    greatest is *high* unless both lie in ``[0, dim)``."""
    if low < 0 or high >= dim:
        raise PSError("sparse index %d lies outside [0, %d)"
                      % (low if low < 0 else high, dim))


class _Layout:
    """What both placements answer alike, from their own placement calls.

    Every sparse index set a layout places is refused, with
    :class:`~repro.common.errors.PSError`, unless each index lies in
    ``[0, dim)``: a split drops nothing and wraps nothing onto another
    server, and since the client places an op before it builds a message,
    a refused op sends no byte.
    """

    def check_indices(self, indices):
        """Refuse *indices* (any order) unless each lies in ``[0, dim)``,
        where no split reads their sorted ends: the worker cache's reads
        and write-throughs, and a row layout's block ops."""
        if indices.size:
            _refuse_outside(indices.min(), indices.max(), self.dim)

    def shards(self, row, indices):
        """Where one row op's values live, per owning server in wire order.

        Returns ``(placement, server_index, group, n_values)`` entries.
        Dense (*indices* ``None``): one per shard of *row*, ``placement``
        its column slice, ``group`` ``None``.  Sparse: ``group`` is the
        server's share of the indices (ascending — the list that ships)
        and ``placement`` the positions those indices hold in the caller's
        array, so values travel sorted and land in input order.
        """
        if indices is None:
            return [
                (slice(start, stop), server_index, None, stop - start)
                for server_index, start, stop in self.shards_for_row(row)
            ]
        order = np.argsort(indices, kind="stable")
        shards = []
        cursor = 0
        for server_index, group in self.split_sorted(
                row, indices[order]).items():
            span = order[cursor : cursor + group.size]
            cursor += group.size
            shards.append((span, server_index, group, group.size))
        return shards


class ColumnLayout(_Layout):
    """Contiguous range partitioning of ``[0, dim)`` over *n_servers*.

    The range at position *p* (near-equal sizes, differing by at most one)
    is owned by server ``(p + rotation) % n_servers``.  The *rotation* models
    the placement randomization real parameter servers apply for load
    balancing: two matrices allocated independently land on different
    rotations, so their equal column ranges live on **different** servers —
    which is exactly why the paper's ``derive`` operator (same pool, same
    rotation) is needed for co-location (Figure 4).
    """

    kind = "column"

    def __init__(self, dim, n_servers, rotation=0, block=1):
        if dim <= 0:
            raise ConfigError("dim must be positive, got %r" % (dim,))
        if n_servers <= 0:
            raise ConfigError("n_servers must be positive, got %r" % (n_servers,))
        if block <= 0:
            raise ConfigError("block must be positive, got %r" % (block,))
        self.dim = int(dim)
        self.n_servers = int(n_servers)
        self.rotation = int(rotation) % self.n_servers
        self.block = int(block)
        # Partition boundaries fall on multiples of `block`, so logically
        # indivisible groups of columns (e.g. one feature's histogram bins
        # in GBDT) never straddle two servers.
        n_blocks = -(-self.dim // self.block)
        base, extra = divmod(n_blocks, self.n_servers)
        block_sizes = [
            base + (1 if p < extra else 0) for p in range(self.n_servers)
        ]
        bounds = np.cumsum([0] + block_sizes) * self.block
        self.bounds = np.minimum(bounds, self.dim)
        # Per-(op, row, indices) fan-out plans pooled by the PS client —
        # the layout is the one object every client of a matrix shares.
        self.op_plans = {}

    def _server_at_position(self, position):
        return (position + self.rotation) % self.n_servers

    def range_of_position(self, position):
        """Column range ``(start, stop)`` at partition *position*."""
        return int(self.bounds[position]), int(self.bounds[position + 1])

    def position_of(self, column):
        """The partition position holding *column*."""
        if not 0 <= column < self.dim:
            raise ConfigError("column %r out of range [0, %d)" % (column, self.dim))
        return int(np.searchsorted(self.bounds, column, side="right") - 1)

    def server_of(self, column):
        """The server owning *column* — the unique primary: replication
        adds read replicas on top of this mapping but never moves primary
        ownership, so every column is owned by exactly one server."""
        return self._server_at_position(self.position_of(column))

    def owned_ranges(self, server_index):
        """The ``(start, stop)`` column ranges *server_index* owns.

        With ``dim >= n_servers`` each server owns exactly one non-empty
        range; tiny matrices can leave trailing servers empty.
        """
        return [
            self.range_of_position(p)
            for p in range(self.n_servers)
            if self._server_at_position(p) == int(server_index)
            and self.bounds[p + 1] > self.bounds[p]
        ]

    def values_on(self, server_index, rows):
        """``(values, width)``: how many values of *rows* *server_index*
        holds, and how many of one row — its shard of every row."""
        width = 0
        for start, stop in self.owned_ranges(server_index):
            width += stop - start
        return len(rows) * width, width

    def shards_for_row(self, row):
        """All ``(server_index, start, stop)`` shards of any row."""
        return [
            (self._server_at_position(p),) + self.range_of_position(p)
            for p in range(self.n_servers)
            if self.bounds[p + 1] > self.bounds[p]
        ]

    def split_sorted(self, row, ordered):
        """Group the ascending index array *ordered* by owning server
        (every row is sharded alike).

        Returns ``{server_index: group}`` with empty servers omitted, in
        ascending COLUMN order (clients rely on this: walking the groups
        in order re-assembles *ordered*, rotation or not).  The groups are
        *ordered* cut at the partition bounds — ``[cut[p], cut[p + 1])``
        is position *p*'s group, a view — so a split costs one binary
        search per bound, not one per index.
        """
        if not ordered.size:
            return {}
        _refuse_outside(ordered[0], ordered[-1], self.dim)
        cuts = np.searchsorted(ordered, self.bounds).tolist()
        n_servers, rotation = self.n_servers, self.rotation
        groups = {}
        for position in range(n_servers):
            start, stop = cuts[position], cuts[position + 1]
            if start < stop:
                # _server_at_position, inlined: a call per position.
                groups[(position + rotation) % n_servers] = \
                    ordered[start:stop]
        return groups

    def block_shards(self, rows, indices):
        """Where each (row, shard) message of a block op goes, in wire order.

        Returns ``(placement, server_index, row, group, n_values)`` entries
        with ``placement = (row_pos, columns)`` into the op's 2-D block:
        :meth:`shards` of one row, repeated per row under each server (the
        same ``group`` array object for every row, so a coalesced group
        encodes it once).
        """
        return [
            ((row_pos, columns), server_index, row, group, n_values)
            for columns, server_index, group, n_values
            in self.shards(rows[0], indices)
            for row_pos, row in enumerate(rows)
        ]

    def resized(self, n_servers):
        """This layout over *n_servers*, rotation and block kept, so
        pool-mates (which share a rotation) stay co-located."""
        return ColumnLayout(self.dim, n_servers, rotation=self.rotation,
                            block=self.block)

    def same_layout(self, other):
        """Whether *other* places columns identically (co-location test)."""
        return (
            isinstance(other, ColumnLayout)
            and self.dim == other.dim
            and self.n_servers == other.n_servers
            and self.rotation == other.rotation
            and self.block == other.block
        )

    def __eq__(self, other):
        return self.same_layout(other)

    def __hash__(self):
        return hash(
            (self.kind, self.dim, self.n_servers, self.rotation, self.block)
        )

    def __repr__(self):
        return "ColumnLayout(dim=%d, n_servers=%d, rotation=%d, block=%d)" % (
            self.dim,
            self.n_servers,
            self.rotation,
            self.block,
        )


class RowLayout(_Layout):
    """One whole row per server (Petuum-style row partitioning).

    Row *r* of the matrix lives, in full, on server ``r % n_servers``.
    Its client plans are never pooled (``op_plans`` is ``None``): lazy
    tables, the one user, see only unpooled ops.
    """

    kind = "row"

    def __init__(self, dim, n_servers):
        if dim <= 0:
            raise ConfigError("dim must be positive, got %r" % (dim,))
        if n_servers <= 0:
            raise ConfigError("n_servers must be positive, got %r" % (n_servers,))
        self.dim = int(dim)
        self.n_servers = int(n_servers)
        self.op_plans = None

    def _owner(self, row):
        return int(row) % self.n_servers

    def shards_for_row(self, row):
        return [(self._owner(row), 0, self.dim)]

    def values_on(self, server_index, rows):
        """As :meth:`ColumnLayout.values_on`, where a server holds whole
        rows: those of *rows* it owns."""
        n_servers = self.n_servers
        held = [row % n_servers for row in rows].count(server_index)
        return held * self.dim, self.dim

    def split_sorted(self, row, ordered):
        """All of the ascending index array *ordered* maps to *row*'s
        single owning server."""
        if ordered.size:
            _refuse_outside(ordered[0], ordered[-1], self.dim)
        return {self._owner(row): ordered}

    def block_shards(self, rows, indices):
        """Where each row message of a block op goes, in wire order.

        Entries as :meth:`ColumnLayout.block_shards`, one per row, grouped
        by *owning* server — never by ``rows[0]``'s owner — and sharing
        one private copy of *indices*: no message aliases the caller's
        array, the rule pooled plans rest on (they send their messages
        again, and an in-place edit between ops must not reach one), and
        one object for every row keeps the group dedup.
        """
        width = self.dim
        if indices is not None:
            self.check_indices(indices)
            indices = indices.copy()
            width = indices.size
        owners = sorted((self._owner(row), row_pos)
                        for row_pos, row in enumerate(rows))
        return [
            ((row_pos, slice(None)), server_index, rows[row_pos],
             indices, width)
            for server_index, row_pos in owners
        ]

    def resized(self, n_servers):
        """This layout over *n_servers*."""
        return RowLayout(self.dim, n_servers)

    def same_layout(self, other):
        return (
            isinstance(other, RowLayout)
            and self.dim == other.dim
            and self.n_servers == other.n_servers
        )

    def __eq__(self, other):
        return self.same_layout(other)

    def __hash__(self):
        return hash((self.kind, self.dim, self.n_servers))

    def __repr__(self):
        return "RowLayout(dim=%d, n_servers=%d)" % (self.dim, self.n_servers)
