"""Unit tests for the PS client: pulls, pushes, blocks, ranges, recovery.

A column range has no client op: ``PS2Context.realign`` sends it as row
kinds over its index list, and these tests send those through the
client's transport."""

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.common.errors import PSError
from repro.config import ClusterConfig
from repro.ps.client import _PLAN_POOL_CAP, _SEEN_ONCE, PSClient
from repro.ps.master import PSMaster
from repro.ps.partitioner import RowLayout
from repro.ps.transport import FanoutPlan, Transport
from tests.test_fast_lane import range_requests
from tests.test_replication import _assert_copies_match_primaries


@pytest.fixture
def setup(cluster):
    master = PSMaster(cluster)
    client = PSClient(cluster, master, cluster.executors[0])
    matrix_id = master.create_matrix(20, n_rows=3)
    return cluster, master, client, matrix_id


def test_dense_pull_round_trip(setup):
    _cluster, _master, client, m = setup
    client.push_assign(m, 0, np.arange(20.0))
    assert np.allclose(client.pull_row(m, 0), np.arange(20.0))


def test_sparse_pull_preserves_input_order(setup):
    _cluster, _master, client, m = setup
    client.push_assign(m, 0, np.arange(20.0))
    got = client.pull_row(m, 0, indices=np.array([13, 2, 7, 19, 0]))
    assert np.allclose(got, [13, 2, 7, 19, 0])


def test_sparse_pull_empty_indices(setup):
    _cluster, _master, client, m = setup
    assert client.pull_row(m, 0, indices=np.array([], dtype=np.int64)).size == 0


def test_push_add_accumulates(setup):
    _cluster, _master, client, m = setup
    client.push_add(m, 0, np.ones(20))
    client.push_add(m, 0, np.array([4.0, 5.0]), indices=np.array([3, 15]))
    got = client.pull_row(m, 0)
    assert got[3] == 5.0 and got[15] == 6.0 and got[0] == 1.0


def test_push_assign_sparse(setup):
    _cluster, _master, client, m = setup
    client.push_assign(m, 0, np.array([9.0]), indices=np.array([11]))
    assert client.pull_row(m, 0)[11] == 9.0


def test_dense_push_wrong_size_rejected(setup):
    _cluster, _master, client, m = setup
    with pytest.raises(PSError):
        client.push_assign(m, 0, np.ones(7))


def test_pull_range(setup):
    _cluster, master, client, m = setup
    client.push_assign(m, 0, np.arange(20.0))
    values, _arrivals = client.transport.send_all(
        range_requests(master.layout(m), m, 0, 5, 15))
    assert np.allclose(np.concatenate(values), np.arange(5.0, 15.0))


def test_push_range(setup):
    _cluster, master, client, m = setup
    client.transport.send_all(
        range_requests(master.layout(m), m, 0, 5, 10, np.full(5, 7.0)))
    got = client.pull_row(m, 0)
    assert np.all(got[5:10] == 7.0)
    assert got[4] == 0.0 and got[10] == 0.0


def test_push_range_add_mode(setup):
    _cluster, master, client, m = setup
    for _ in range(2):
        client.transport.send_all(range_requests(
            master.layout(m), m, 0, 0, 20, np.ones(20), mode="add"))
    assert np.all(client.pull_row(m, 0) == 2.0)


def test_aggregate_row_combines_servers(setup):
    _cluster, _master, client, m = setup
    values = np.zeros(20)
    values[[1, 8, 17]] = [3.0, -2.0, 5.0]
    client.push_assign(m, 0, values)
    assert client.aggregate_row(m, 0, "sum") == pytest.approx(6.0)
    assert client.aggregate_row(m, 0, "nnz") == 3
    assert client.aggregate_row(m, 0, "max") == 5.0
    assert client.aggregate_row(m, 0, "min") == -2.0
    assert client.aggregate_row(m, 0, "sumsq") == pytest.approx(9 + 4 + 25)


def test_aggregate_unknown_kind(setup):
    _cluster, _master, client, m = setup
    with pytest.raises(PSError):
        client.aggregate_row(m, 0, "mode")


def test_execute_gathers_per_server_partials(setup):
    cluster, _master, client, m = setup
    client.push_assign(m, 0, np.ones(20))
    partials = client.execute(
        lambda arrays: float(arrays[0].sum()), [(m, 0)]
    )
    assert len(partials) == len(cluster.servers)
    assert sum(partials) == pytest.approx(20.0)


def test_execute_requires_operands(setup):
    _cluster, _master, client, m = setup
    with pytest.raises(PSError):
        client.execute(lambda a: None, [])


def test_execute_fire_and_forget_does_not_block(setup):
    cluster, _master, client, m = setup
    client.pull_row(m, 0)  # warm the routing cache
    t0 = cluster.clock.now(client.node_id)
    client.execute(lambda arrays: None, [(m, 0)], wait_response=False)
    # Only the client-side RPC CPU charge lands on the client clock.
    assert cluster.clock.now(client.node_id) - t0 < 1e-4


def test_fill_row(setup):
    _cluster, _master, client, m = setup
    client.fill_row(m, 0, 3.5)
    assert np.all(client.pull_row(m, 0) == 3.5)


def test_pull_block_dense(setup):
    _cluster, _master, client, m = setup
    client.push_assign(m, 0, np.arange(20.0))
    client.push_assign(m, 1, np.arange(20.0) * 2)
    block = client.pull_block(m, [0, 1])
    assert block.shape == (2, 20)
    assert np.allclose(block[1], np.arange(20.0) * 2)


def test_pull_block_sparse_input_order(setup):
    _cluster, _master, client, m = setup
    client.push_assign(m, 0, np.arange(20.0))
    client.push_assign(m, 2, np.arange(20.0) + 100)
    block = client.pull_block(m, [0, 2], indices=np.array([15, 3]))
    assert np.allclose(block[0], [15, 3])
    assert np.allclose(block[1], [115, 103])


def test_push_block_add(setup):
    _cluster, _master, client, m = setup
    delta = np.stack([np.full(3, 1.0), np.full(3, 2.0)])
    client.push_block_add(m, [0, 1], delta, indices=np.array([0, 10, 19]))
    assert client.pull_row(m, 0)[10] == 1.0
    assert client.pull_row(m, 1)[19] == 2.0


def test_push_block_add_dense(setup):
    _cluster, _master, client, m = setup
    delta = np.stack([np.ones(20), np.full(20, 3.0)])
    client.push_block_add(m, [0, 1], delta)
    assert np.all(client.pull_row(m, 1) == 3.0)


def test_block_compression_reduces_bytes(setup):
    cluster, _master, client, m = setup
    before = cluster.metrics.bytes_for_tag("pull-block:resp")
    client.pull_block(m, [0, 1, 2], value_bytes=8)
    full = cluster.metrics.bytes_for_tag("pull-block:resp") - before
    before = cluster.metrics.bytes_for_tag("pull-block:resp")
    client.pull_block(m, [0, 1, 2], value_bytes=4)
    compressed = cluster.metrics.bytes_for_tag("pull-block:resp") - before
    assert compressed < full


def test_recovery_after_server_crash(setup):
    _cluster, master, client, m = setup
    client.push_assign(m, 0, np.arange(20.0))
    master.checkpoint_all()
    master.server(1).crash()
    got = client.pull_row(m, 0)  # triggers transparent recovery
    assert np.allclose(got, np.arange(20.0))
    assert master.cluster.metrics.counters.get("recoveries", 0) == 1


def test_row_layout_routing(cluster):
    master = PSMaster(cluster)
    client = PSClient(cluster, master, cluster.executors[0])
    m = master.create_matrix(16, n_rows=4, layout=RowLayout(16, 3))
    client.push_assign(m, 2, np.arange(16.0))
    assert np.allclose(client.pull_row(m, 2), np.arange(16.0))
    got = client.pull_row(m, 2, indices=np.array([9, 4]))
    assert np.allclose(got, [9, 4])


def test_row_layout_block_ops_never_alias_the_callers_index_array(cluster):
    """An in-place edit of the caller's index array between two block ops
    must reach no message: the second op lands on the *new* columns."""
    master = PSMaster(cluster)
    client = PSClient(cluster, master, cluster.executors[0])
    m = master.create_matrix(16, n_rows=4, layout=RowLayout(16, 3))
    sent = []
    send_all = client.transport.send_all

    def recording(requests, plan=None):
        sent.append(list(requests))
        return send_all(requests, plan=plan)

    client.transport.send_all = recording
    idx = np.array([1, 4, 9], dtype=np.int64)
    rows = [0, 3]  # both live on server 0: one envelope, one index list
    client.pull_block(m, rows, idx)
    idx[:] = [2, 5, 10]
    client.push_block_add(m, rows, np.ones((2, 3)), idx)
    expected = np.zeros((2, 16))
    expected[:, [2, 5, 10]] = 1.0
    assert np.array_equal(client.pull_block(m, rows), expected)
    pull, push, _dense = sent
    for requests, columns in ((pull, [1, 4, 9]), (push, [2, 5, 10])):
        shared = {id(request.indices) for request in requests}
        assert len(shared) == 1 and id(idx) not in shared
        assert np.array_equal(requests[0].indices, columns)
    assert pull[0].indices is not push[0].indices


def test_sparse_cheaper_than_dense_pull(setup):
    cluster, _master, client, m = setup
    before = cluster.metrics.bytes_for_tag("pull:resp")
    client.pull_row(m, 0)
    dense_bytes = cluster.metrics.bytes_for_tag("pull:resp") - before
    before = cluster.metrics.bytes_for_tag("pull:resp")
    client.pull_row(m, 0, indices=np.array([0]))
    sparse_bytes = cluster.metrics.bytes_for_tag("pull:resp") - before
    assert sparse_bytes < dense_bytes


# -- the write-shape contract: a malformed push never reaches the wire ------


@pytest.fixture
def wide(cluster):
    """A 2 x 30 column-layout matrix and a 2 x 30 row-layout one, warm."""
    master = PSMaster(cluster)
    client = PSClient(cluster, master, cluster.executors[0])
    column = master.create_matrix(30, n_rows=2)
    by_row = master.create_matrix(30, n_rows=2, layout=RowLayout(30, 3))
    for m in (column, by_row):
        client.push_block_add(m, [0, 1], np.arange(60.0).reshape(2, 30))
    return cluster, master, client, {"column": column, "row": by_row}


_MALFORMED = {
    "sparse push, surplus values": lambda c, m: c.push_add(
        m, 0, np.ones(5), indices=[1, 2, 3]),
    "sparse push, missing values": lambda c, m: c.push_add(
        m, 0, np.ones(2), indices=[1, 2, 3]),
    "sparse assign, 2-D values": lambda c, m: c.push_assign(
        m, 0, np.ones((3, 1)), indices=[1, 2, 3]),
    "dense push, short": lambda c, m: c.push_add(m, 0, np.ones(29)),
    "dense block, narrow": lambda c, m: c.push_block_add(
        m, [0, 1], np.ones((2, 29))),
    "dense block, wide": lambda c, m: c.push_block_add(
        m, [0, 1], np.ones((2, 31))),
    "dense block, missing row": lambda c, m: c.push_block_add(
        m, [0, 1], np.ones((1, 30))),
    "sparse block, wide": lambda c, m: c.push_block_add(
        m, [0, 1], np.ones((2, 4)), indices=[1, 2, 3]),
}


@pytest.mark.parametrize("layout", ["column", "row"])
@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_push_is_rejected_before_anything_is_sent(wide, case,
                                                            layout):
    cluster, master, client, matrices = wide
    m = matrices[layout]
    before = client.pull_block(m, [0, 1])
    versions = [dict(server.versions) for server in master.servers]
    sent = cluster.metrics.total_messages()
    with pytest.raises(PSError, match="shape"):
        _MALFORMED[case](client, m)
    assert cluster.metrics.total_messages() == sent
    assert [dict(server.versions) for server in master.servers] == versions
    assert np.array_equal(client.pull_block(m, [0, 1]), before)


@pytest.mark.parametrize("layout", ["column", "row", "lazy"])
@pytest.mark.parametrize("sparse", [False, True])
def test_a_block_push_naming_a_row_twice_is_refused_before_any_write(
        layout, sparse):
    # Copies carry their primary's post-apply counter, so a second write
    # of one row in one op would reach the chain copy already "covered":
    # the copy would stay one write behind its primary.
    cluster = Cluster(ClusterConfig(n_executors=2, n_servers=3, seed=7,
                                    chain_replicas=1))
    master = PSMaster(cluster)
    client = PSClient(cluster, master, cluster.executors[0])
    if layout == "lazy":
        m = master.create_table(30)
        client.pull_or_create(m, [0, 1])
    else:
        m = master.create_matrix(
            30, n_rows=2,
            layout=RowLayout(30, 3) if layout == "row" else None)
    indices = [1, 4, 6] if sparse else None
    width = 3 if sparse else 30
    client.push_block_add(m, [0, 1], np.ones((2, width)), indices=indices)
    sent = cluster.metrics.total_messages()
    versions = [dict(server.versions) for server in master.servers]
    with pytest.raises(PSError, match="more than once"):
        client.push_block_add(m, [0, 0, 1], np.ones((3, width)),
                              indices=indices)
    assert cluster.metrics.total_messages() == sent
    assert [dict(server.versions) for server in master.servers] == versions
    assert _assert_copies_match_primaries(master)
    assert "replica-fanout-skipped" not in cluster.metrics.counters


# -- sparse indices outside [0, dim) are refused before anything is sent ----


_OUTSIDE = {
    "pull": lambda c, m, idx: c.pull_row(m, 0, indices=idx),
    "push add": lambda c, m, idx: c.push_add(
        m, 0, np.ones(len(idx)), indices=idx),
    "push assign": lambda c, m, idx: c.push_assign(
        m, 0, np.ones(len(idx)), indices=idx),
    "block pull": lambda c, m, idx: c.pull_block(m, [0, 1], indices=idx),
    "block push": lambda c, m, idx: c.push_block_add(
        m, [0, 1], np.ones((2, len(idx))), indices=idx),
}


@pytest.mark.parametrize("indices", [[-1], [4, 29, 30], [12, 87, 3]])
@pytest.mark.parametrize("cached", [False, True])
@pytest.mark.parametrize("layout", ["column", "row"])
@pytest.mark.parametrize("op", sorted(_OUTSIDE))
def test_sparse_indices_outside_the_row_are_refused_before_anything_is_sent(
        op, layout, cached, indices):
    # Unrefused, a column split sent -1 or dim to a phantom position that
    # wrapped onto a real server, and the worker cache wrote column dim-1
    # for -1.  The cached client holds row 0 warm, so its pulls and
    # write-throughs take the cache path.
    cluster = Cluster(ClusterConfig(
        n_executors=2, n_servers=3, seed=7,
        **({"consistency": "ssp", "staleness": 3} if cached else {})))
    master = PSMaster(cluster)
    client = PSClient(cluster, master, cluster.executors[0])
    m = master.create_matrix(
        30, n_rows=2, layout=RowLayout(30, 3) if layout == "row" else None)
    client.push_block_add(m, [0, 1], np.arange(60.0).reshape(2, 30))
    client.pull_row(m, 0)
    assert (client.cache is not None) == cached
    held = None if client.cache is None else \
        client.cache.entries[(m, 0)].values.copy()
    before = client.pull_block(m, [0, 1])
    versions = [dict(server.versions) for server in master.servers]
    sent = cluster.metrics.total_messages(), cluster.metrics.total_bytes()
    with pytest.raises(PSError, match="outside"):
        _OUTSIDE[op](client, m, np.array(indices, dtype=np.int64))
    assert (cluster.metrics.total_messages(),
            cluster.metrics.total_bytes()) == sent
    assert [dict(server.versions) for server in master.servers] == versions
    assert np.array_equal(client.pull_block(m, [0, 1]), before)
    if held is not None:
        assert np.array_equal(client.cache.entries[(m, 0)].values, held)


def test_a_lazy_register_report_waits_out_a_partition():
    """The report of freshly created lazy rows is a coordinator RPC like
    the routing fetch, retried under the same loop: a partition that drops
    it costs the op a retry, not the op itself, and the registry that
    recovery rebuilds the table from still learns the rows."""
    cluster = Cluster(ClusterConfig(n_executors=2, n_servers=2, seed=1))
    master = PSMaster(cluster)
    client = PSClient(cluster, master, cluster.executors[0])
    m = master.create_table(8)
    # Alone the op ends at 0.000416 s; the report departs inside the window.
    cluster.failures.schedule_partition(cluster.executors[0], 0.000375,
                                        0.001375)
    values = client.pull_or_create(m, [1, 2, 3])
    assert values.shape == (3, 8)
    assert master.info(m).created_rows == {1, 2, 3}
    assert cluster.metrics.counters["op-retries"] >= 1
    assert "client-dropped-ops" not in cluster.metrics.counters


@pytest.mark.parametrize("layout", ["column", "row"])
def test_block_ops_over_no_rows_are_empty_not_errors(wide, layout):
    cluster, _master, client, matrices = wide
    m = matrices[layout]
    sent = cluster.metrics.total_messages()
    assert client.pull_block(m, []).shape == (0, 30)
    assert client.pull_block(m, [], indices=[4, 2]).shape == (0, 2)
    client.push_block_add(m, [], np.empty((0, 30)))
    client.push_block_add(m, [], np.empty((0, 2)), indices=[4, 2])
    assert cluster.metrics.total_messages() == sent


# -- the plan protocol: one FanoutPlan per op, pooled on the layout ----------


def _count_coalesce(monkeypatch):
    calls = []
    coalesce = Transport._coalesce

    def counting(self, requests):
        calls.append(requests)
        return coalesce(self, requests)

    monkeypatch.setattr(Transport, "_coalesce", counting)
    return calls


def test_pool_hit_reuses_the_plan_and_what_the_transport_derived(
        setup, monkeypatch):
    cluster, master, client, m = setup
    other = PSClient(cluster, master, cluster.executors[1])
    pool = master.layout(m).op_plans
    idx = np.array([13, 2, 7])
    ops = {
        ("pull-dense", m, 0): lambda c, v: c.pull_row(m, 0),
        ("pull-sparse", m, 0, idx.tobytes()):
            lambda c, v: c.pull_row(m, 0, idx.copy()),
        ("push-dense", m, 0, "add"):
            lambda c, v: c.push_add(m, 0, np.full(20, v)),
        ("push-sparse", m, 0, idx.tobytes(), "add"):
            lambda c, v: c.push_add(m, 0, np.full(3, v), idx.copy()),
        ("pull-block-dense", m, (0, 2), 8):
            lambda c, v: c.pull_block(m, [0, 2]),
        ("push-block-dense", m, (0, 2), 8):
            lambda c, v: c.push_block_add(m, [0, 2], np.full((2, 20), v)),
    }
    calls = _count_coalesce(monkeypatch)
    for key, op in ops.items():
        op(client, 1.0)
        if "sparse" in key[0]:
            # A sparse plan is pooled from the second op under its key.
            assert pool[key] is _SEEN_ONCE
            op(client, 1.0)
        plan = pool[key]
        assert isinstance(plan, FanoutPlan)
        outgoing, bulk = plan.outgoing, plan.bulk
        assert outgoing is not None and bulk is not None
        del calls[:]
        op(other, 10.0)  # the pool lives on the layout: any client's op hits
        assert pool[key] is plan
        assert plan.outgoing is outgoing and plan.bulk is bulk
        assert not calls
    # A pooled push carries the values of the op that sent it.
    assert client.pull_row(m, 0)[13] == 4 * 1.0 + 3 * 10.0


@pytest.fixture(params=[False, True], ids=["no-model", "identity-verdict"])
def pooling(request):
    """Two clients of a 20-wide matrix whose row 0 holds its column
    numbers; with the cost model on (``wire_codec="auto"``) on the default
    NICs, where every op here gets the model's identity verdict."""
    cluster = Cluster(ClusterConfig(
        n_executors=4, n_servers=3, seed=42,
        wire_codec="auto" if request.param else "off"))
    master = PSMaster(cluster)
    clients = [PSClient(cluster, master, node)
               for node in cluster.executors[:2]]
    m = master.create_matrix(20, n_rows=3)
    clients[0].push_assign(m, 0, np.arange(20.0))
    return cluster, master, clients, m


#: A sparse op on row 0 by kind: its pool key and the op itself (a push
#: adds 1 at each index).
_SPARSE_OPS = {
    "pull": (lambda m, idx: ("pull-sparse", m, 0, idx.tobytes()),
             lambda client, m, idx: client.pull_row(m, 0, idx)),
    "push": (lambda m, idx: ("push-sparse", m, 0, idx.tobytes(), "add"),
             lambda client, m, idx: client.push_add(
                 m, 0, np.ones(idx.size), idx)),
}


def _expected_row(kind, *index_sets):
    """Row 0 after *index_sets* went through ops of *kind*."""
    row = np.arange(20.0)
    if kind == "push":
        for indices in index_sets:
            np.add.at(row, indices, 1.0)
    return row


def _check_pooled(cluster, plan):
    assert isinstance(plan, FanoutPlan)
    # Under the model a pooled plan carries its verdict.
    assert (plan.identity_tags is not None) == (
        cluster.costmodel is not None)


@pytest.mark.parametrize("kind", sorted(_SPARSE_OPS))
def test_an_equal_index_set_in_another_array_hits_the_pooled_plan(
        pooling, kind, monkeypatch):
    cluster, master, (client, other), m = pooling
    key_of, op = _SPARSE_OPS[kind]
    pool = master.layout(m).op_plans
    idx = np.array([13, 2, 7])
    for _sight in range(2):
        op(client, m, idx)
    plan = pool[key_of(m, idx)]
    _check_pooled(cluster, plan)
    calls = _count_coalesce(monkeypatch)
    twin = np.array([13, 2, 7])
    got = op(other, m, twin)
    assert pool[key_of(m, twin)] is plan and not calls
    if kind == "pull":
        assert np.array_equal(got, [13.0, 2.0, 7.0])
    assert np.array_equal(client.pull_row(m, 0),
                          _expected_row(kind, idx, idx, twin))


@pytest.mark.parametrize("kind", sorted(_SPARSE_OPS))
def test_an_index_array_edited_in_place_misses_and_lands_on_its_new_columns(
        pooling, kind):
    cluster, master, (client, _other), m = pooling
    key_of, op = _SPARSE_OPS[kind]
    pool = master.layout(m).op_plans
    idx = np.array([13, 2, 7])
    old_key = key_of(m, idx)
    for _sight in range(2):
        op(client, m, idx)
    plan = pool[old_key]
    _check_pooled(cluster, plan)
    # Edited in place: the same object, the same size, a new key.
    idx[:] = [4, 19, 0]
    got = op(client, m, idx)
    assert pool[key_of(m, idx)] is _SEEN_ONCE and pool[old_key] is plan
    if kind == "pull":
        assert np.array_equal(got, [4.0, 19.0, 0.0])
    # The pooled plan still ships the columns it was built for.
    assert sorted(np.concatenate(
        [request.indices for request in plan.requests])) == [2, 7, 13]
    assert np.array_equal(
        client.pull_row(m, 0),
        _expected_row(kind, [13, 2, 7], [13, 2, 7], [4, 19, 0]))


@pytest.mark.parametrize("kind", sorted(_SPARSE_OPS))
def test_a_fresh_index_set_leaves_seen_once_on_first_sight(pooling, kind):
    cluster, master, (client, _other), m = pooling
    key_of, op = _SPARSE_OPS[kind]
    pool = master.layout(m).op_plans
    idx = np.array([5, 17, 11])
    op(client, m, idx)
    assert pool[key_of(m, idx)] is _SEEN_ONCE
    op(client, m, idx.copy())  # second sight, from another array
    _check_pooled(cluster, pool[key_of(m, idx)])


def test_fresh_index_arrays_leave_no_plan_and_no_copy_behind(setup):
    """A training loop's pattern: every mini-batch brings a new index
    set, used for one pull and one push and never again."""
    _cluster, master, client, m = setup
    pool = master.layout(m).op_plans
    batches = [np.array([b, 19 - b, 10]) for b in range(8)]
    for idx in batches:
        assert np.array_equal(client.pull_row(m, 0, idx), np.zeros(3))
        client.push_add(m, 0, np.zeros(3), idx)
    assert len(pool) == 2 * len(batches)
    assert all(entry is _SEEN_ONCE for entry in pool.values())


def test_cap_clear_under_replication_keeps_what_it_stores():
    cluster = Cluster(ClusterConfig(n_executors=4, n_servers=3, seed=42,
                                    replication="topk"))
    master = PSMaster(cluster)
    client = PSClient(cluster, master, cluster.executors[0])
    m = master.create_matrix(20, n_rows=3)
    client.pull_row(m, 0)
    pool = master.layout(m).op_plans
    for filler in range(_PLAN_POOL_CAP - len(pool)):
        pool[("filler", filler)] = None
    idx = np.array([13, 2, 7])
    key = ("pull-sparse", m, 0, idx.tobytes())
    client.pull_row(m, 0, idx)  # over the cap: the pool starts over
    assert set(pool) == {key}
    assert pool[key] is _SEEN_ONCE
    # A rebalance sweep leaves the pool alone: routing derives copies.
    master.replicas.rebalance()
    client.pull_row(m, 0, idx)  # ... and what was just stored survives:
    plan = pool[key]            # second sight, so the plan is pooled
    assert isinstance(plan, FanoutPlan)
    client.pull_row(m, 0, idx)
    assert pool[key] is plan


def _bulk_servers(plan):
    """The server objects a plan's phase-1 product resolved."""
    return plan.bulk[4]


def test_no_plan_outlives_the_servers_it_resolved(setup):
    _cluster, master, client, m = setup
    client.push_assign(m, 0, np.arange(20.0))
    master.checkpoint_all()
    key = ("pull-dense", m, 0)
    client.pull_row(m, 0)
    client.pull_row(m, 0)
    plan = master.layout(m).op_plans[key]
    assert all(server is master.servers[server.server_index]
               for server in _bulk_servers(plan))

    # Crash + recover swaps a server object: the same plan is reused, its
    # phase-1 product rebuilt against the post-recovery processes.
    old = master.servers[1]
    old.crash()
    master.recover(1)
    assert master.servers[1] is not old
    assert np.allclose(client.pull_row(m, 0), np.arange(20.0))
    assert master.layout(m).op_plans[key] is plan
    assert plan.bulk[0] == master.topology_epoch
    assert old not in _bulk_servers(plan)
    assert all(server is master.servers[server.server_index]
               for server in _bulk_servers(plan))

    # A resize replaces the layout object: the old pool is unreachable.
    old_layout = master.layout(m)
    master.resize_servers(2)
    assert master.layout(m) is not old_layout
    assert not master.layout(m).op_plans
    assert np.allclose(client.pull_row(m, 0), np.arange(20.0))
    fresh = master.layout(m).op_plans[key]
    assert fresh is not plan and len(fresh.requests) == 2
    assert all(server is master.servers[server.server_index]
               for server in _bulk_servers(fresh))
