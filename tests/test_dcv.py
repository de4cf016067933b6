"""Unit tests for the DCV abstraction — creation, row ops, column ops."""

import numpy as np
import pytest

from repro.cluster.resource import TimelineResource
from repro.common.errors import (
    DimensionMismatchError,
    NotColocatedError,
    PoolExhaustedError,
)
from repro.core.dcv import DCV


def test_dense_returns_row_zero(ps2):
    w = ps2.dense(10, rows=4, name="w")
    assert w.dim == 10
    assert w.row == 0


def test_dcv_dense_staticmethod(ps2):
    w = DCV.dense(ps2, 8, rows=2)
    assert w.dim == 8


def test_sparse_flag(ps2):
    v = ps2.sparse(8)
    assert v.is_sparse
    assert v.derive().is_sparse


def test_derive_is_colocated(ps2):
    w = ps2.dense(10, rows=4)
    g = w.derive()
    assert w.is_colocated_with(g)
    assert g.row != w.row


def test_duplicate_alias(ps2):
    w = ps2.dense(10, rows=4)
    assert w.is_colocated_with(w.duplicate())


def test_independent_dense_not_colocated(ps2):
    a = ps2.dense(10)
    b = ps2.dense(10)
    assert not a.is_colocated_with(b)


def test_pool_grows_past_preallocation(ps2):
    w = ps2.dense(10, rows=2)
    siblings = [w.derive() for _ in range(5)]
    assert all(w.is_colocated_with(s) for s in siblings)


def test_pool_growth_disabled(ps2):
    w = ps2.dense(10, rows=2, allow_growth=False)
    w.derive()
    with pytest.raises(PoolExhaustedError):
        w.derive()


def test_free_returns_slot(ps2):
    w = ps2.dense(10, rows=2, allow_growth=False)
    g = w.derive()
    g.free()
    w.derive()  # reuses the freed slot


def test_pool_accounting(ps2):
    w = ps2.dense(10, rows=4)
    assert w.pool.allocated_rows == 1
    assert w.pool.free_rows == 3
    w.derive()
    assert w.pool.allocated_rows == 2


# -- row access -------------------------------------------------------------

def test_push_pull_round_trip(ps2):
    w = ps2.dense(15)
    w.push(np.arange(15.0))
    assert np.allclose(w.pull(), np.arange(15.0))


def test_sparse_pull(ps2):
    w = ps2.dense(15)
    w.push(np.arange(15.0))
    assert np.allclose(w.pull(indices=np.array([14, 0, 7])), [14, 0, 7])


def test_add_immediate(ps2):
    w = ps2.dense(10)
    w.add(np.ones(10))
    w.add(np.array([2.0]), indices=np.array([4]))
    got = w.pull()
    assert got[4] == 3.0


def test_add_deferred_in_task(ps2):
    w = ps2.dense(10)
    data = ps2.parallelize(range(8))

    def fn(ctx, iterator):
        n = sum(1 for _ in iterator)
        w.add(np.full(10, float(n)), task_ctx=ctx)
        return [n]

    data.map_partitions_with_context(fn).collect()
    # 4 partitions of 2 records each, all accumulated: 4 * 2.0 = 8.0.
    assert np.all(w.pull() == 8.0)


def test_aggregates(ps2):
    w = ps2.dense(12)
    values = np.zeros(12)
    values[[0, 5, 11]] = [1.0, -2.0, 2.0]
    w.push(values)
    assert w.sum() == pytest.approx(1.0)
    assert w.nnz() == 3
    assert w.norm2() == pytest.approx(3.0)


def test_fill_zero_chainable(ps2):
    w = ps2.dense(10)
    assert w.fill(4.0) is w
    assert np.all(w.pull() == 4.0)
    w.zero()
    assert w.nnz() == 0


def test_randomize(ps2):
    w = ps2.dense(50)
    w.randomize(scale=0.1)
    got = w.pull()
    assert np.any(got != 0)
    assert np.all(np.abs(got) <= 0.1)


def test_dense_init_uniform(ps2):
    w = ps2.dense(50, rows=4, init="uniform", scale=0.2)
    assert np.any(w.pull() != 0)
    assert np.any(w.derive().pull() != 0)  # all pool rows initialized


# -- column access -------------------------------------------------------------

def test_dot_colocated(ps2):
    a = ps2.dense(20)
    b = a.derive()
    a.push(np.arange(20.0))
    b.fill(2.0)
    assert a.dot(b) == pytest.approx(np.arange(20.0).sum() * 2)


def test_dot_against_numpy(ps2):
    rng = np.random.default_rng(0)
    x = rng.standard_normal(33)
    y = rng.standard_normal(33)
    a = ps2.dense(33)
    b = a.derive()
    a.push(x)
    b.push(y)
    assert a.dot(b) == pytest.approx(float(np.dot(x, y)))


def test_iaxpy(ps2):
    a = ps2.dense(10)
    b = a.derive()
    a.fill(1.0)
    b.fill(3.0)
    assert a.iaxpy(b, 0.5) is a
    assert np.allclose(a.pull(), 2.5)


def test_axpy_alias(ps2):
    a = ps2.dense(10)
    b = a.derive().fill(1.0)
    a.axpy(b, 2.0)
    assert np.allclose(a.pull(), 2.0)


def test_copy_into_new_derived(ps2):
    a = ps2.dense(10)
    a.push(np.arange(10.0))
    c = a.copy()
    assert c is not a
    assert a.is_colocated_with(c)
    assert np.allclose(c.pull(), np.arange(10.0))


def test_copy_into_existing(ps2):
    a = ps2.dense(10)
    out = a.derive()
    a.fill(7.0)
    a.copy(out=out)
    assert np.all(out.pull() == 7.0)


@pytest.mark.parametrize("op,expected", [
    ("add_vec", np.arange(10.0) + 3.0),
    ("sub", np.arange(10.0) - 3.0),
    ("mul", np.arange(10.0) * 3.0),
    ("div", np.arange(10.0) / 3.0),
])
def test_binary_ops(ps2, op, expected):
    a = ps2.dense(10, rows=8)
    b = a.derive().fill(3.0)
    a.push(np.arange(10.0))
    out = getattr(a, op)(b)
    assert a.is_colocated_with(out)
    assert np.allclose(out.pull(), expected)


@pytest.mark.parametrize("op,expected", [
    ("iadd", np.arange(10.0) + 2.0),
    ("isub", np.arange(10.0) - 2.0),
    ("imul", np.arange(10.0) * 2.0),
    ("idiv", np.arange(10.0) / 2.0),
])
def test_inplace_binary_ops(ps2, op, expected):
    a = ps2.dense(10, rows=8)
    b = a.derive().fill(2.0)
    a.push(np.arange(10.0))
    assert getattr(a, op)(b) is a
    assert np.allclose(a.pull(), expected)


def test_scale_and_shift(ps2):
    a = ps2.dense(10)
    a.fill(2.0)
    a.scale(3.0)
    assert np.allclose(a.pull(), 6.0)
    a.shift(-1.0)
    assert np.allclose(a.pull(), 5.0)


def test_binary_output_must_be_colocated(ps2):
    a = ps2.dense(10)
    b = a.derive()
    stranger = ps2.dense(10)
    with pytest.raises(NotColocatedError):
        a.add_vec(b, out=stranger)


def test_dimension_mismatch(ps2):
    a = ps2.dense(10)
    b = ps2.dense(12)
    with pytest.raises(DimensionMismatchError):
        a.dot(b)


# -- non-co-located slow path (Figure 4) ---------------------------------------

def test_cross_pool_dot_is_correct_but_pays_realign(ps2):
    a = ps2.dense(30)
    b = ps2.dense(30)
    a.push(np.arange(30.0))
    b.fill(1.0)
    before = ps2.metrics.bytes_for_tag("realign")
    assert a.dot(b) == pytest.approx(np.arange(30.0).sum())
    assert ps2.metrics.bytes_for_tag("realign") > before


def test_colocated_dot_pays_no_realign(ps2):
    a = ps2.dense(30)
    b = a.derive().fill(1.0)
    before = ps2.metrics.bytes_for_tag("realign")
    a.dot(b)
    assert ps2.metrics.bytes_for_tag("realign") == before


def test_cross_pool_temp_slot_is_released(ps2):
    a = ps2.dense(30, rows=2, allow_growth=False)
    b = ps2.dense(30)
    b.fill(1.0)
    a.dot(b)
    a.dot(b)  # would exhaust the 2-row pool if temps leaked
    assert a.pool.free_rows == 1


def test_realign_copies_values_correctly(ps2):
    src = ps2.dense(25)
    src.push(np.arange(25.0))
    dst = ps2.dense(25)
    ps2.realign(src, dst)
    assert np.allclose(dst.pull(), np.arange(25.0))


def test_realign_books_server_cpu_only_after_its_trigger_arrives(
        ps2, monkeypatch):
    """With the coordinator a virtual second ahead of the servers, every
    CPU interval realign books starts no earlier than the message that
    triggers it arrives — a read at its control message, a write at the
    data transfer — and each transfer leaves only once its read is done."""
    src = ps2.dense(30)
    src.push(np.arange(30.0))
    dst = ps2.dense(30)
    cluster = ps2.cluster
    cluster.clock.set_at_least(ps2.coordinator, 1.0)
    network = cluster.network
    transfer = network.transfer
    arrived = {}
    done = {}
    booked = []

    def spy_transfer(source, target, nbytes, **kwargs):
        depart = kwargs.get("depart_at")
        if depart is None:
            depart = cluster.clock.now(source)
        assert depart >= done.get(source, 0.0), kwargs.get("tag")
        arrived[target] = transfer(source, target, nbytes, **kwargs)
        return arrived[target]

    cpus = {id(server.cpu): server.node_id for server in ps2.master.servers}
    reserve = TimelineResource.reserve

    def spy_reserve(timeline, earliest, duration):
        start = reserve(timeline, earliest, duration)
        node = cpus.get(id(timeline))
        if node is not None:
            booked.append((node, start, arrived.get(node)))
            done[node] = start + duration
        return start

    monkeypatch.setattr(network, "transfer", spy_transfer)
    monkeypatch.setattr(TimelineResource, "reserve", spy_reserve)
    ps2.realign(src, dst)
    assert len(booked) >= 2 * len(ps2.master.servers)
    for node, start, trigger in booked:
        assert trigger is not None and start >= trigger >= 1.0, node
    assert np.allclose(dst.pull(), np.arange(30.0))


# -- zip ------------------------------------------------------------------------

def test_zip_requires_colocation(ps2):
    a = ps2.dense(10)
    with pytest.raises(NotColocatedError):
        a.zip(ps2.dense(10))


def test_zip_mutation_and_fold(ps2):
    w = ps2.dense(12)
    g = w.derive()
    w.fill(1.0)
    g.fill(2.0)

    def kernel(arrays):
        weight, grad = arrays
        weight += grad
        return float(grad.sum())

    result = w.zip(g).map_partitions(kernel)
    assert result.sum() == pytest.approx(24.0)
    assert np.allclose(w.pull(), 3.0)


def test_zip_result_folds(ps2):
    w = ps2.dense(9)
    w.push(np.arange(9.0))
    res = w.zip(w.derive().fill(0.0)).map_partitions(
        lambda arrays: float(arrays[0].max())
    )
    assert res.max() == 8.0
    assert res.min() >= 0.0
    assert len(res.collect()) == 3  # one partial per server


def test_zip_result_ignores_none_partials():
    from repro.core.zipop import ZipResult

    r = ZipResult([None, 2.0, 3.0])
    assert r.sum() == 5.0
    assert r.max() == 3.0


def test_zip_result_empty_max_raises():
    from repro.core.zipop import ZipResult

    with pytest.raises(ValueError):
        ZipResult([None]).max()


def test_materialize_equals_pull(ps2):
    w = ps2.dense(10)
    w.push(np.arange(10.0))
    assert np.allclose(w.materialize(), w.pull())


def test_repr(ps2):
    w = ps2.dense(10, name="myvec")
    assert "myvec" in repr(w)
