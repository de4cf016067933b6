"""Property-based tests: partitioning, co-location and replica routing.

The invariants replication leans on, stated as properties:

1. every column is owned by exactly ONE primary server, and every view of
   the mapping (``position_of``/``server_of``/``owned_ranges``/
   ``shards_for_row``/``split_sorted``) agrees;
2. ``derive()`` siblings are co-located (same pool, layout and rotation),
   so fan-out version keys and kernel operands always share shard keys;
3. the read router only ever lands a request on the primary or a member
   of the key's valid replica set, and marks reroutes with ``replica_of``;
4. rebalance sweeps (promote/demote/migrate) never change primary
   ownership or lose data — coverage is preserved under any heat history;
5. with hot-key replication AND the chain on, any interleaving of ops,
   sweeps, crash/recover and resizes reads back a plain numpy accumulation;
6. index sets are built by sorting and cutting: ``sorted_unique`` and a
   ``SparseBatch``'s union equal ``np.unique``, its positions equal a
   ``searchsorted`` of each index into the union, a split equals the
   per-index ownership rule on any input (unsorted, repeated, empty
   ranges), and an index outside ``[0, dim)`` is refused, never placed.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import Cluster
from repro.common.errors import PSError
from repro.config import ClusterConfig
from repro.core.context import PS2Context
from repro.linalg.sparse import SparseBatch, SparseRow, sorted_unique
from repro.ps import messages
from repro.ps.client import PSClient
from repro.ps.master import PSMaster
from repro.ps.partitioner import ColumnLayout, RowLayout


layouts = st.builds(
    ColumnLayout,
    st.integers(min_value=1, max_value=200),  # dim
    st.integers(min_value=1, max_value=8),    # n_servers
    rotation=st.integers(min_value=0, max_value=7),
    block=st.integers(min_value=1, max_value=8),
)


# -- 1: exactly-once primary ownership ----------------------------------------


@given(layout=layouts)
@settings(max_examples=60, deadline=None)
def test_every_column_owned_by_exactly_one_primary(layout):
    owners = np.full(layout.dim, -1, dtype=int)
    for server_index in range(layout.n_servers):
        for start, stop in layout.owned_ranges(server_index):
            assert 0 <= start < stop <= layout.dim
            # No column claimed twice across all owned_ranges.
            assert np.all(owners[start:stop] == -1)
            owners[start:stop] = server_index
    # No column left unowned, and server_of agrees column by column.
    assert np.all(owners >= 0)
    for column in range(layout.dim):
        assert layout.server_of(column) == owners[column]
        position = layout.position_of(column)
        start, stop = layout.range_of_position(position)
        assert start <= column < stop


@given(layout=layouts)
@settings(max_examples=60, deadline=None)
def test_shards_for_row_tile_the_dimension(layout):
    shards = layout.shards_for_row(0)
    spans = sorted((start, stop) for _server, start, stop in shards)
    assert spans[0][0] == 0 and spans[-1][1] == layout.dim
    assert all(a_stop == b_start for (_a, a_stop), (b_start, _b)
               in zip(spans, spans[1:]))
    # Shard owners match the primary mapping.
    for server_index, start, stop in shards:
        assert layout.server_of(start) == server_index
        assert layout.server_of(stop - 1) == server_index


@given(layout=layouts, data=st.data())
@settings(max_examples=60, deadline=None)
def test_split_indices_partitions_and_preserves_order(layout, data):
    indices = data.draw(st.lists(
        st.integers(min_value=0, max_value=layout.dim - 1),
        min_size=0, max_size=50, unique=True,
    ))
    groups = layout.split_sorted(0, np.sort(np.array(indices, dtype=np.int64)))
    # A partition: disjoint groups whose union is the sorted input...
    rejoined = [i for group in groups.values() for i in group]
    assert sorted(rejoined) == sorted(indices)
    # ...each index grouped under its owning server...
    for server_index, group in groups.items():
        assert all(layout.server_of(int(i)) == server_index for i in group)
        assert list(group) == sorted(group)
    # ...and iteration order follows ascending column ranges, so the
    # concatenation IS the sorted index sequence (clients rely on this).
    assert rejoined == sorted(indices)


# -- 2: derive() co-location --------------------------------------------------


@given(
    dim=st.integers(min_value=1, max_value=120),
    n_servers=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=25, deadline=None)
def test_derive_siblings_are_co_located(dim, n_servers):
    ps2 = PS2Context(config=ClusterConfig(
        n_executors=2, n_servers=n_servers, seed=3,
    ))
    a = ps2.dense(dim, rows=3)
    b = a.derive()
    c = b.derive()
    # Same pool: shard keys (matrix_id, server) coincide for every slice.
    assert b.matrix_id == a.matrix_id and c.matrix_id == a.matrix_id
    assert len({a.row, b.row, c.row}) == 3
    assert a.layout.same_layout(b.layout)
    assert a.layout.same_layout(c.layout)
    # An independent allocation need not share the rotation — only the
    # derive chain guarantees co-location.
    other = ps2.dense(dim)
    assert other.matrix_id != a.matrix_id


# -- 3 & 4: replica sets vs routing, rebalance preserves coverage -------------


def _replication_rig(n_servers, replication_factor):
    cluster = Cluster(ClusterConfig(
        n_executors=2, n_servers=n_servers, seed=42,
        replication="topk", hot_key_fraction=0.2,
        replication_factor=replication_factor,
    ))
    master = PSMaster(cluster)
    client = PSClient(cluster, master, cluster.executors[0])
    return cluster, master, client


@given(
    n_servers=st.integers(min_value=2, max_value=6),
    replication_factor=st.integers(min_value=0, max_value=3),
    hot_position=st.integers(min_value=0, max_value=5),
)
@settings(max_examples=20, deadline=None)
def test_route_read_lands_on_primary_or_valid_replica(
        n_servers, replication_factor, hot_position):
    dim = 12 * n_servers
    cluster, master, client = _replication_rig(n_servers, replication_factor)
    manager = master.replicas
    m = master.create_matrix(dim)
    client.push_assign(m, 0, np.arange(float(dim)))
    layout = master.layout(m)
    start, stop = layout.range_of_position(hot_position % n_servers)
    for _ in range(3):
        client.pull_row(m, 0, indices=np.arange(start, stop))
    manager.rebalance()
    primary = layout.server_of(start)
    replicas = manager.replica_set(m, primary)
    # The replica set never contains the primary and respects the factor.
    assert primary not in replicas
    limit = replication_factor if replication_factor > 0 else n_servers - 1
    assert len(replicas) <= min(limit, n_servers - 1)
    # Routing responses stay inside {primary} + replica set, reroutes are
    # marked, and every holder really has a valid copy.
    epoch = master.server(primary).epoch
    for _ in range(4):
        request = messages.PullRowRequest(primary, m, 0, stop - start,
                                          indices=np.arange(start, stop))
        (routed,) = manager.route([request])
        assert routed.server_index in [primary] + replicas
        if routed.server_index != primary:
            assert routed.replica_of == primary
            assert master.server(routed.server_index).has_replica(
                m, primary, epoch)
        else:
            assert routed.replica_of is None
    # And the data read through the client is the data written.
    assert np.allclose(client.pull_row(m, 0, indices=np.arange(start, stop)),
                       np.arange(float(dim))[start:stop])


@given(
    n_servers=st.integers(min_value=2, max_value=5),
    replication_factor=st.integers(min_value=0, max_value=2),
    data=st.data(),
)
@settings(max_examples=15, deadline=None)
def test_rebalance_history_preserves_coverage(n_servers, replication_factor,
                                              data):
    dim = 10 * n_servers
    cluster, master, client = _replication_rig(n_servers, replication_factor)
    manager = master.replicas
    m = master.create_matrix(dim)
    expected = np.zeros(dim)
    client.push_assign(m, 0, expected)
    steps = data.draw(st.lists(
        st.tuples(
            st.sampled_from(["push", "pull", "rebalance"]),
            st.integers(min_value=0, max_value=n_servers - 1),
        ),
        min_size=1, max_size=12,
    ))
    layout = master.layout(m)
    for op, position in steps:
        start, stop = layout.range_of_position(position)
        if op == "push":
            delta = np.ones(stop - start)
            client.push_add(m, 0, delta, indices=list(range(start, stop)))
            expected[start:stop] += delta
        elif op == "pull":
            client.pull_row(m, 0, indices=np.arange(start, stop))
        else:
            manager.rebalance()
    manager.rebalance()
    # Primary ownership never moved...
    assert master.layout(m).same_layout(layout)
    # ...every surviving replica entry is a valid, installed copy...
    for matrix_id, primary_index in manager.keys("hot"):
        targets = manager.holders((matrix_id, primary_index), "hot")
        epoch = master.server(primary_index).epoch
        for replica_index in manager.replica_set(matrix_id, primary_index):
            assert replica_index != primary_index
            assert replica_index in targets
            assert master.server(replica_index).has_replica(
                matrix_id, primary_index, epoch)
    # ...and no data was lost or duplicated through any migrate/demote.
    assert np.allclose(client.pull_row(m, 0), expected)


# -- 5: both replication policies on, arbitrary interleavings ------------------


@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_hot_key_plus_chain_interleavings_match_numpy(data):
    dim = 24
    cluster = Cluster(ClusterConfig(
        n_executors=2, n_servers=3, seed=42, replication="topk",
        hot_key_fraction=0.34, replication_factor=2, chain_replicas=1,
    ))
    master = PSMaster(cluster)
    client = PSClient(cluster, master, cluster.executors[0])
    m = master.create_matrix(dim)
    expected = np.zeros(dim)
    steps = data.draw(st.lists(
        st.tuples(
            st.sampled_from(["push", "push-sparse", "pull", "rebalance",
                             "crash", "resize"]),
            st.integers(min_value=0, max_value=dim - 1),
            st.integers(min_value=1, max_value=8),
        ),
        min_size=1, max_size=14,
    ))
    for op, start, width in steps:
        stop = min(dim, start + width)
        if op == "push":
            client.push_add(m, 0, np.ones(dim))
            expected += 1.0
        elif op == "push-sparse":
            client.push_add(m, 0, np.full(stop - start, 2.0),
                            indices=list(range(start, stop)))
            expected[start:stop] += 2.0
        elif op == "pull":
            assert np.array_equal(client.pull_row(m, 0, indices=np.arange(start, stop)),
                                  expected[start:stop])
        elif op == "rebalance":
            master.replicas.rebalance()
        elif op == "crash":
            # One crash at a time: the chain (M = 1) promotes losslessly.
            index = start % master.n_servers
            master.servers[index].crash()
            master.recover(index)
        else:
            master.resize_servers(2 + width % 4)
    assert np.array_equal(client.pull_row(m, 0), expected)
    # Every surviving copy at its primary's epoch mirrors the primary.
    for holder in master.servers:
        for (matrix_id, primary_index), entry in holder.replica_store.items():
            primary = master.server(primary_index)
            if entry.install_epoch == primary.epoch:
                rows = primary.matrix_rows(matrix_id)
                assert all(np.array_equal(rows[row].values,
                                          entry.rows[row].values)
                           for row in rows)
    # The link table and the stores agree: every entry on a live server is
    # held for some reason, and every link at its primary's current epoch
    # to a live holder has an entry installed at that epoch.
    links = master.replicas.links
    for holder in master.servers:
        if holder.alive:
            for key in holder.replica_store:
                assert links.get(key, {}).get(holder.server_index)
    for key, held in links.items():
        epoch = master.server(key[1]).epoch
        for holder_index, reasons in held.items():
            holder = master.server(holder_index)
            if holder.alive and epoch in reasons.values():
                assert holder.replica_store[key].install_epoch == epoch


# -- 6: index sets by sorting and cutting -------------------------------------


@given(rows=st.lists(st.lists(st.integers(min_value=-5, max_value=25),
                              max_size=12), max_size=6))
@settings(max_examples=100, deadline=None)
def test_sorted_unique_and_the_batch_union_equal_np_unique(rows):
    # A narrow value range: duplicates within and across rows are common;
    # no rows, and rows with no indices, are drawn too.
    arrays = [np.array(row, dtype=np.int64) for row in rows]
    flat = np.concatenate(arrays) if arrays else np.empty(0, dtype=np.int64)
    expected = np.unique(flat)
    batch = SparseBatch([SparseRow(a, np.ones(a.size), 0.0) for a in arrays])
    for got in (sorted_unique(flat), batch.union):
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
    # One sort gives every entry's place in the union, too.
    assert np.array_equal(batch.indices, flat)
    assert np.array_equal(batch.positions, np.searchsorted(expected, flat))
    assert batch.lengths.tolist() == [a.size for a in arrays]


cut_layouts = st.builds(
    ColumnLayout,
    st.integers(min_value=1, max_value=60),   # dim: often < n_servers * block
    st.integers(min_value=1, max_value=12),   # n_servers
    rotation=st.integers(min_value=0, max_value=11),
    block=st.integers(min_value=1, max_value=8),
)


@given(layout=cut_layouts, data=st.data())
@settings(max_examples=150, deadline=None)
def test_a_split_equals_the_per_index_ownership_rule(layout, data):
    # Unsorted, with repeats: ``shards`` sorts once and cuts, and each
    # shard's placement says where its group sits in the caller's array.
    indices = np.array(data.draw(st.lists(
        st.integers(min_value=0, max_value=layout.dim - 1), max_size=40)),
        dtype=np.int64)
    shards = layout.shards(0, indices)
    # The rule, one index at a time: the last bound at or below it names
    # its position (empty ranges repeat a bound, so never match), the
    # rotation names the server, and groups list ascending columns.
    expected = {}
    for index in sorted(indices.tolist()):
        position = int(np.searchsorted(layout.bounds, index, "right")) - 1
        server = (position + layout.rotation) % layout.n_servers
        expected.setdefault(position, (server, []))[1].append(index)
    assert [(server, group.tolist()) for _span, server, group, _n in shards] \
        == [expected[position] for position in sorted(expected)]
    for span, _server, group, n_values in shards:
        assert group.dtype == np.int64 and n_values == group.size
        assert np.array_equal(indices[span], group)
    spans = [span for span, _server, _group, _n in shards]
    assert sorted(np.concatenate(spans or [np.empty(0, int)]).tolist()) \
        == list(range(indices.size))


@given(layout=st.one_of(cut_layouts, st.builds(
           RowLayout, st.integers(min_value=1, max_value=60),
           st.integers(min_value=1, max_value=6))),
       data=st.data())
@settings(max_examples=100, deadline=None)
def test_an_index_outside_the_dimension_is_refused_not_placed(layout, data):
    inside = data.draw(st.lists(
        st.integers(min_value=0, max_value=layout.dim - 1), max_size=10))
    outside = data.draw(st.one_of(
        st.integers(min_value=-3 * layout.dim, max_value=-1),
        st.integers(min_value=layout.dim, max_value=4 * layout.dim)))
    indices = np.array(data.draw(st.permutations(inside + [outside])),
                       dtype=np.int64)
    with pytest.raises(PSError, match="outside"):
        layout.check_indices(indices)
    with pytest.raises(PSError, match="outside"):
        layout.split_sorted(0, np.sort(indices))
    with pytest.raises(PSError, match="outside"):
        layout.shards(0, indices)
