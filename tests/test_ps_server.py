"""Unit tests for the parameter-server storage and kernels.

Storage ops are served the way every request is: as a one-request wire
message on ``serve_fast_fanout`` (through
:func:`~repro.ps.server.serve_one`).
"""

import numpy as np
import pytest

from repro.common.errors import MatrixNotFoundError, PSError, ServerDownError
from repro.ps.messages import AggregateRequest, FillRequest, KernelRequest, \
    PullRowRequest, PushRequest
from repro.ps.server import PSServer, serve_one


@pytest.fixture
def server(cluster):
    s = PSServer(cluster, cluster.servers[0], 0)
    s.allocate_row("m", 0, 10, 20, init="zero")
    return s


def _serve(server, request, arrival=0.0):
    """*request*'s reply, served as a one-unit fan-out at *arrival*."""
    return serve_one(server, request, arrival)[0]


def _read(server, row=0, indices=None):
    n = 10 if indices is None else len(indices)
    return _serve(server, PullRowRequest(0, "m", row, n, indices=indices))


def _push(server, values, indices=None, mode="add", row=0):
    _serve(server, PushRequest(0, "m", row, values, indices=indices,
                               mode=mode))


def _kernel(server, kernel, operands, **kwargs):
    return _serve(server, KernelRequest(0, kernel, operands, **kwargs))


def test_allocate_zero(server):
    shard = server.shard("m", 0)
    assert shard.start == 10 and shard.stop == 20
    assert np.all(shard.values == 0)
    assert len(shard) == 10


def test_allocate_random_deterministic(cluster):
    from repro.common.rng import RngRegistry

    s = PSServer(cluster, cluster.servers[0], 0)
    s.allocate_row("m", 0, 0, 10, init="random",
                   rng=RngRegistry(5).get("x"), scale=0.5)
    t = PSServer(cluster, cluster.servers[1], 1)
    t.allocate_row("m", 0, 0, 10, init="random",
                   rng=RngRegistry(5).get("x"), scale=0.5)
    assert np.allclose(s.shard("m", 0).values, t.shard("m", 0).values)


def test_allocate_uniform_bounded(cluster):
    from repro.common.rng import RngRegistry

    s = PSServer(cluster, cluster.servers[0], 0)
    s.allocate_row("m", 0, 0, 100, init="uniform",
                   rng=RngRegistry(1).get("x"), scale=0.2)
    values = s.shard("m", 0).values
    assert np.all(np.abs(values) <= 0.2)
    assert np.any(values != 0)


def test_allocate_random_requires_rng(cluster):
    s = PSServer(cluster, cluster.servers[0], 0)
    with pytest.raises(PSError):
        s.allocate_row("m", 0, 0, 4, init="random")


def test_allocate_unknown_init(cluster):
    s = PSServer(cluster, cluster.servers[0], 0)
    with pytest.raises(PSError):
        s.allocate_row("m", 0, 0, 4, init="fnord")


def test_missing_shard_raises(server):
    with pytest.raises(MatrixNotFoundError):
        server.shard("m", 1)
    with pytest.raises(MatrixNotFoundError):
        server.shard("other", 0)


def test_has_shard(server):
    assert server.has_shard("m", 0)
    assert not server.has_shard("m", 3)


def test_read_full_and_indexed(server):
    _push(server, np.arange(10.0), mode="assign")
    assert np.allclose(_read(server), np.arange(10.0))
    # Global indices 12, 17 are local offsets 2, 7.
    assert np.allclose(_read(server, indices=np.array([12, 17])), [2.0, 7.0])


def test_read_returns_copy(server):
    values = _read(server)
    values[:] = 99
    assert _read(server)[0] == 0.0


def test_add_dense_and_sparse(server):
    _push(server, np.ones(10))
    _push(server, np.array([5.0]), np.array([13]))
    got = _read(server)
    assert got[3] == 6.0
    assert got[0] == 1.0


def test_add_duplicate_indices_accumulate(server):
    _push(server, np.array([1.0, 2.0]), np.array([10, 10]))
    assert _read(server)[0] == 3.0


def test_assign_sparse(server):
    _push(server, np.array([7.0]), np.array([19]), mode="assign")
    assert _read(server)[9] == 7.0


def test_range_reads_and_writes(server):
    """A column range travels as its index list, as realign sends it."""
    _serve(server, PushRequest(0, "m", 0, np.arange(3.0) + 1,
                               indices=np.arange(13, 16), mode="assign"))
    assert np.array_equal(
        _serve(server, PullRowRequest(0, "m", 0, 5, indices=np.arange(12, 17))),
        [0.0, 1.0, 2.0, 3.0, 0.0])


def test_fill(server):
    _serve(server, FillRequest(0, "m", 0, 2.5))
    assert np.all(_read(server) == 2.5)


def test_mutations_bump_the_row_version(server):
    _push(server, np.ones(10))
    _serve(server, FillRequest(0, "m", 0, 1.0))
    _kernel(server, lambda arrays: None, [("m", 0)])
    assert server.version_token("m", 0) == (0, 3)
    _read(server)
    assert server.version_token("m", 0) == (0, 3)


def test_aggregates(server):
    _push(server, np.array([0, 1, 2, 3, 0, 0, 0, 0, -1, 4.0]), mode="assign")

    def aggregate(kind):
        return _serve(server, AggregateRequest(0, "m", 0, kind))

    assert aggregate("sum") == pytest.approx(9.0)
    assert aggregate("nnz") == 5
    assert aggregate("sumsq") == pytest.approx(1 + 4 + 9 + 1 + 16)
    assert aggregate("max") == 4.0
    assert aggregate("min") == -1.0


def test_aggregate_unknown_kind(server):
    with pytest.raises(PSError):
        _serve(server, AggregateRequest(0, "m", 0, "median"))


def test_execute_kernel_aligned(server):
    server.allocate_row("m", 1, 10, 20, init="zero")
    _push(server, np.full(10, 2.0), mode="assign")
    _push(server, np.full(10, 3.0), mode="assign", row=1)

    def dot(arrays):
        return float(np.dot(arrays[0], arrays[1]))

    assert _kernel(server, dot, [("m", 0), ("m", 1)]) == 60.0


def test_execute_kernel_mutates_in_place(server):
    _push(server, np.ones(10), mode="assign")

    def double(arrays):
        arrays[0] *= 2

    _kernel(server, double, [("m", 0)])
    assert np.all(_read(server) == 2.0)


def test_execute_kernel_misaligned_rejected(server):
    server.allocate_row("n", 0, 0, 10, init="zero")
    with pytest.raises(PSError):
        _kernel(server, lambda a: None, [("m", 0), ("n", 0)])


def test_execute_kernel_injects_range(server):
    from repro.core.kernels import with_range

    @with_range
    def probe(arrays, start, stop):
        return (start, stop)

    assert _kernel(server, probe, [("m", 0)]) == (10, 20)


def test_a_missing_shard_fails_its_unit_without_booking(server):
    with pytest.raises(MatrixNotFoundError):
        _serve(server, PullRowRequest(0, "m", 1, 10))
    assert server.cpu.busy_seconds() == 0.0


def test_stored_bytes(server):
    assert server.stored_bytes() == 80
    server.allocate_row("m", 1, 0, 5, init="zero")
    assert server.stored_bytes() == 120


def test_crash_loses_state_and_rejects_ops(server):
    server.crash()
    assert not server.alive
    with pytest.raises(ServerDownError):
        _read(server)


def test_snapshot_restore_round_trip(server):
    _push(server, np.arange(10.0), mode="assign")
    snapshot = server.snapshot()
    server.crash()
    server.restore(snapshot)
    assert server.alive
    assert np.allclose(_read(server), np.arange(10.0))


def test_snapshot_is_deep_copy(server):
    snapshot = server.snapshot()
    _push(server, np.full(10, 9.0), mode="assign")
    assert np.all(snapshot["m"][0].values == 0)


def test_scheduled_failure_fires_on_access(cluster):
    s = PSServer(cluster, cluster.servers[0], 0)
    s.allocate_row("m", 0, 0, 4, init="zero")
    cluster.failures.schedule_server_failure(s.node_id, at_time=0.5)
    cluster.clock.advance(s.node_id, 1.0)
    with pytest.raises(ServerDownError):
        _serve(s, PullRowRequest(0, "m", 0, 4))
    assert not s.alive


def test_service_queues_by_arrival_not_call_order(server):
    """Requests arriving at disjoint times do not queue behind each other
    regardless of the order the simulator processes them in."""
    big_flops = server.cluster.config.node.flops  # 1 virtual second

    def idle(arrays):
        return None

    _value, late = serve_one(server, KernelRequest(
        0, idle, [("m", 0)], flops=big_flops), 10.0)
    _value, early = serve_one(server, KernelRequest(
        0, idle, [("m", 0)], flops=big_flops), 0.0)
    assert late == pytest.approx(11.0)
    assert early == pytest.approx(1.0)
