"""Column/row ops issued from INSIDE tasks: traffic attribution and timing.

The DeepWalk path issues DCV ops from executors (Figure 5: "the executor
incurs a DCV dot operator").  These tests pin down that worker-issued ops
charge the worker, not the coordinator, and that the protocol sizes match
the message formulas.
"""

import numpy as np
import pytest

from repro.cluster.cluster import DRIVER
from repro.costs import MESSAGE_OVERHEAD_BYTES


def test_worker_issued_dot_charges_executor(ps2):
    a = ps2.dense(30, rows=4).fill(1.0)
    b = a.derive().fill(2.0)
    data = ps2.parallelize([0], n_partitions=1)
    before_driver = ps2.metrics.bytes_sent.get(DRIVER, 0)

    def task(ctx, iterator):
        list(iterator)
        return [a.dot(b, task_ctx=ctx)]

    (value,) = data.map_partitions_with_context(task).collect()
    assert value == pytest.approx(60.0)
    sent = ps2.metrics.bytes_sent
    # The executor that ran the task carried the kernel requests...
    assert sent.get("executor-0", 0) > 0
    # ...and the driver sent only control-plane traffic (task launch).
    driver_delta = sent.get(DRIVER, 0) - before_driver
    assert driver_delta < 2000


def test_worker_issued_iaxpy_is_fire_and_forget(ps2):
    a = ps2.dense(30, rows=4).fill(1.0)
    b = a.derive().fill(1.0)
    data = ps2.parallelize([0], n_partitions=1)

    def task(ctx, iterator):
        list(iterator)
        a.pull(task_ctx=ctx)  # warm the routing cache
        clock = ps2.cluster.clock
        t0 = clock.now(ctx.executor)
        a.iaxpy(b, 1.0, task_ctx=ctx)
        return [clock.now(ctx.executor) - t0]

    (duration,) = data.map_partitions_with_context(task).collect()
    # No blocking response: only the client RPC CPU charge lands.
    assert duration < 1e-4
    assert np.allclose(a.pull(), 2.0)


def test_worker_pull_waits_for_responses(ps2):
    a = ps2.dense(30, rows=4).fill(3.0)
    data = ps2.parallelize([0], n_partitions=1)

    def task(ctx, iterator):
        list(iterator)
        clock = ps2.cluster.clock
        t0 = clock.now(ctx.executor)
        values = a.pull(task_ctx=ctx)
        return [(clock.now(ctx.executor) - t0, float(values.sum()))]

    ((duration, total),) = data.map_partitions_with_context(task).collect()
    assert total == pytest.approx(90.0)
    # A pull blocks for at least one network round trip.
    assert duration >= 2 * ps2.cluster.config.network.latency


def test_zip_from_worker(ps2):
    w = ps2.dense(12, rows=4).fill(1.0)
    g = w.derive().fill(2.0)
    data = ps2.parallelize([0], n_partitions=1)

    def task(ctx, iterator):
        list(iterator)
        result = w.zip(g).map_partitions(
            lambda arrays: float(arrays[1].sum()), task_ctx=ctx
        )
        return [result.sum()]

    (total,) = data.map_partitions_with_context(task).collect()
    assert total == pytest.approx(24.0)


# -- protocol byte accounting ----------------------------------------------------

def test_sparse_pull_bytes_match_formulas(ps2):
    a = ps2.dense(3000)
    indices = np.arange(100)
    before_req = ps2.metrics.bytes_for_tag("pull:req")
    before_resp = ps2.metrics.bytes_for_tag("pull:resp")
    a.pull(indices=indices)
    req = ps2.metrics.bytes_for_tag("pull:req") - before_req
    resp = ps2.metrics.bytes_for_tag("pull:resp") - before_resp
    # All 100 contiguous indices land on a single server shard (dim/3=1000).
    # By hand: 48-byte request header + 100 8-byte keys out, 32-byte
    # response header + 100 8-byte values back.
    assert req == 48 + 100 * 8 + MESSAGE_OVERHEAD_BYTES
    assert resp == 32 + 100 * 8 + MESSAGE_OVERHEAD_BYTES


def test_dense_pull_bytes_match_formulas(ps2):
    a = ps2.dense(3000)
    before_resp = ps2.metrics.bytes_for_tag("pull:resp")
    a.pull()
    resp = ps2.metrics.bytes_for_tag("pull:resp") - before_resp
    expected = sum(
        32 + (stop - start) * 8 + MESSAGE_OVERHEAD_BYTES
        for _s, start, stop in a.layout.shards_for_row(a.row)
    )
    assert resp == expected


def test_sparse_push_bytes_match_formulas(ps2):
    a = ps2.dense(3000)
    before = ps2.metrics.bytes_for_tag("push:req")
    a.add(np.ones(50), indices=np.arange(50))
    pushed = ps2.metrics.bytes_for_tag("push:req") - before
    # 48-byte header + 50 (8-byte key, 8-byte value) entries.
    assert pushed == 48 + 50 * (8 + 8) + MESSAGE_OVERHEAD_BYTES


def test_kernel_request_bytes_scale_with_operands(ps2):
    a = ps2.dense(300, rows=8)
    b = a.derive()
    c = a.derive()
    before = ps2.metrics.bytes_for_tag("kernel:req")
    a.zip(b, c).map_partitions(lambda arrays: None, wait=False)
    sent = ps2.metrics.bytes_for_tag("kernel:req") - before
    n_shards = len(a.layout.shards_for_row(a.row))
    # 48-byte header + one 8-byte reference per operand.
    assert sent == n_shards * (48 + 3 * 8 + MESSAGE_OVERHEAD_BYTES)


def test_aggregate_ships_scalars_only(ps2):
    a = ps2.dense(100000)
    before = ps2.metrics.bytes_for_tag("rowagg:resp")
    a.sum()
    shipped = ps2.metrics.bytes_for_tag("rowagg:resp") - before
    # Three servers, one scalar each — independent of the 100K dimension.
    assert shipped == 3 * (32 + 8 + MESSAGE_OVERHEAD_BYTES)
