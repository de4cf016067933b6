"""Critical-path attribution: the walk partitions time, exactly.

Synthetic-DAG tests pin the walk's semantics (child time belongs to the
child, residual to the parent, overlapping children resolve latest-end
first, root gaps are idle); integration tests run a real traced training
job and check the acceptance bar — per-stage categories sum to the stage
makespan — plus the whole-run breakdown's shape.
"""

import pytest

from repro.data import sparse_classification
from repro.experiments.runner import make_context
from repro.ml import train_logistic_regression
from repro.obs import critical_path as cp
from repro.obs.tracer import Tracer


def _tracer():
    # record() takes explicit intervals, so no clock is needed
    return Tracer(clock=None, enabled=True)


def _attributed(result):
    return sum(result.categories.values())


# -- synthetic DAGs ----------------------------------------------------------


def test_single_span_is_all_own_category():
    tracer = _tracer()
    span = tracer.record("n", "pull", 0.0, 4.0, cat="op")
    result = cp.from_span(tracer, span)
    assert result.categories["queueing"] == pytest.approx(4.0)
    assert _attributed(result) == pytest.approx(result.total) == \
        pytest.approx(4.0)


def test_child_time_belongs_to_child_rest_to_parent():
    tracer = _tracer()
    parent = tracer.record("n", "pull", 0.0, 10.0, cat="op")
    tracer.record("s", "service", 2.0, 5.0, cat="cpu",
                  parent_id=parent.span_id)
    result = cp.from_span(tracer, parent)
    assert result.categories["compute"] == pytest.approx(3.0)
    assert result.categories["queueing"] == pytest.approx(7.0)
    assert _attributed(result) == pytest.approx(10.0)


def test_overlapping_children_resolve_latest_end_first():
    """A child fully covered by later critical work is skipped: only the
    last thing blocking completion at each instant gets the time."""
    tracer = _tracer()
    parent = tracer.record("n", "pull", 0.0, 10.0, cat="op")
    tracer.record("n", "net", 1.0, 9.0, cat="nic-send",
                  parent_id=parent.span_id)
    tracer.record("s", "service", 2.0, 8.0, cat="cpu",
                  parent_id=parent.span_id)
    result = cp.from_span(tracer, parent)
    # [9,10] + [0,1] residual; [1,9] network; cpu covered entirely
    assert result.categories["queueing"] == pytest.approx(2.0)
    assert result.categories["network"] == pytest.approx(8.0)
    assert result.categories["compute"] == 0.0
    assert _attributed(result) == pytest.approx(10.0)


def test_staggered_children_chain_backward():
    tracer = _tracer()
    parent = tracer.record("n", "op", 0.0, 10.0, cat="op")
    tracer.record("n", "send", 1.0, 4.0, cat="nic-send",
                  parent_id=parent.span_id)
    tracer.record("s", "service", 3.0, 7.0, cat="cpu",
                  parent_id=parent.span_id)
    result = cp.from_span(tracer, parent)
    # backward: [7,10] residual, [3,7] cpu.  The send's *end* (4.0) is
    # covered by the later-ending cpu slot, so the send was never the last
    # thing blocking completion: it is skipped whole and [0,3] stays
    # parent residual.
    assert result.categories["queueing"] == pytest.approx(6.0)
    assert result.categories["compute"] == pytest.approx(4.0)
    assert result.categories["network"] == 0.0
    assert _attributed(result) == pytest.approx(10.0)


def test_wait_ops_categorize_by_name():
    tracer = _tracer()
    ssp = tracer.record("w", "staleness-wait", 0.0, 2.0, cat="op")
    retry = tracer.record("w", "retry-backoff", 2.0, 3.0, cat="op")
    assert cp.categorize(ssp) == "staleness-wait"
    assert cp.categorize(retry) == "retry-backoff"
    parent = tracer.record("w", "step", 0.0, 4.0, cat="task")
    ssp.parent_id = parent.span_id
    retry.parent_id = parent.span_id
    result = cp.from_span(tracer, parent)
    assert result.categories["staleness-wait"] == pytest.approx(2.0)
    assert result.categories["retry-backoff"] == pytest.approx(1.0)
    assert result.categories["compute"] == pytest.approx(1.0)


def test_nested_grandchildren_recurse():
    tracer = _tracer()
    stage = tracer.record("driver", "stage", 0.0, 10.0, cat="stage")
    task = tracer.record("e", "task", 1.0, 9.0, cat="task",
                         parent_id=stage.span_id)
    tracer.record("e", "net", 2.0, 6.0, cat="nic-send",
                  parent_id=task.span_id)
    result = cp.from_span(tracer, stage)
    assert result.categories["queueing"] == pytest.approx(2.0)  # stage ends
    assert result.categories["compute"] == pytest.approx(4.0)   # task rest
    assert result.categories["network"] == pytest.approx(4.0)
    assert _attributed(result) == pytest.approx(10.0)


def test_open_spans_are_ignored():
    tracer = _tracer()
    parent = tracer.record("n", "op", 0.0, 5.0, cat="op")
    dangling = tracer.record("n", "child", 1.0, 2.0, cat="cpu",
                             parent_id=parent.span_id)
    dangling.end = None  # still open: must not enter the walk
    result = cp.from_span(tracer, parent)
    assert result.categories["queueing"] == pytest.approx(5.0)


def test_analyze_attributes_root_gaps_to_idle():
    tracer = _tracer()
    tracer.record("n", "first", 0.0, 2.0, cat="op")
    tracer.record("n", "second", 5.0, 9.0, cat="op")
    result = cp.analyze(tracer)
    assert result.total == pytest.approx(9.0)
    assert result.terminal.op == "second"
    assert result.categories["idle"] == pytest.approx(3.0)
    assert result.categories["queueing"] == pytest.approx(6.0)
    assert _attributed(result) == pytest.approx(9.0)


def test_analyze_empty_tracer():
    result = cp.analyze(_tracer())
    assert result.total == 0.0
    assert _attributed(result) == 0.0
    assert result.terminal is None


def test_result_render_and_fractions():
    tracer = _tracer()
    span = tracer.record("n", "op", 0.0, 8.0, cat="op")
    tracer.record("n", "net", 0.0, 6.0, cat="nic-send",
                  parent_id=span.span_id)
    result = cp.from_span(tracer, span)
    assert result.fraction("network") == pytest.approx(0.75)
    text = result.render(title="unit")
    assert "== unit ==" in text
    assert "network" in text and "75.0%" in text
    assert result.total == pytest.approx(8.0)
    assert set(result.categories) == set(cp.CATEGORIES)


# -- integration: real traced training runs ----------------------------------


def _traced_training_run(**kwargs):
    ctx = make_context(n_executors=2, n_servers=3, seed=11, **kwargs)
    ctx.cluster.tracer.enable()
    rows, _ = sparse_classification(80, 96, 8, seed=11)
    train_logistic_regression(ctx, rows, 96, optimizer="sgd",
                              n_iterations=2, batch_fraction=0.5, seed=11)
    return ctx


def test_stage_categories_sum_to_stage_makespan():
    """The acceptance bar: per-stage attribution sums to the makespan
    within 1% — here exact up to float addition."""
    ctx = _traced_training_run()
    breakdowns = cp.stage_breakdowns(ctx.cluster.tracer)
    assert breakdowns
    for span, result in breakdowns:
        assert result.total == pytest.approx(span.duration, abs=1e-12)
        attributed = _attributed(result)
        assert attributed == pytest.approx(span.duration, rel=1e-9)
        if span.duration > 0:
            assert abs(attributed - span.duration) <= 0.01 * span.duration
        assert all(v >= 0 for v in result.categories.values())


def test_run_breakdown_covers_the_traced_makespan():
    ctx = _traced_training_run()
    tracer = ctx.cluster.tracer
    result = cp.analyze(tracer)
    latest_root = max(
        (s for s in tracer.spans if s.parent_id is None and s.end is not None),
        key=lambda s: s.end,
    )
    assert result.total == pytest.approx(latest_root.end)
    assert _attributed(result) == pytest.approx(result.total, rel=1e-9)
    # a PS training run spends real time in compute AND network
    assert result.categories["compute"] > 0.0
    assert result.categories["network"] > 0.0
    # nothing fell through the categorization
    assert result.fraction("other") < 0.01


def test_forwarded_replica_copies_are_attributed_to_the_write():
    """A write's replica copies leave its primary after the client op
    returned, on nodes where no span is open: their two NIC spans and the
    holder's apply slot must still parent to the write (via the
    original's trace context), so the run walk attributes them to it
    instead of taking a copy for a root of its own."""
    import numpy as np

    from repro.cluster.cluster import Cluster
    from repro.config import ClusterConfig
    from repro.ps.client import PSClient
    from repro.ps.master import PSMaster

    cluster = Cluster(ClusterConfig(n_executors=2, n_servers=3, seed=5,
                                    chain_replicas=1))
    master = PSMaster(cluster)
    client = PSClient(cluster, master, cluster.executors[0])
    m = master.create_matrix(30, n_rows=2)
    tracer = cluster.tracer
    tracer.enable()
    # Both rows' columns live on server 0: one envelope of two
    # sub-requests to the primary, one envelope of two copies to its
    # chain successor.
    client.push_block_add(m, [0, 1], np.ones((2, 4)), indices=[1, 3, 5, 7])
    (write,) = tracer.spans_for(cat="op", op="push-block")
    primary, holder = master.server(0).node_id, master.server(1).node_id
    (send,) = tracer.spans_for(cat="nic-send", op="net:replica-push:req")
    (recv,) = tracer.spans_for(cat="nic-recv", op="net:replica-push:req")
    applies = tracer.spans_for(cat="cpu", op="ps-replica")
    assert (send.node, recv.node) == (primary, holder)
    assert len(applies) == 2 and {s.node for s in applies} == {holder}
    for span in [send, recv] + applies:
        assert span.parent_id == write.span_id
        assert span.trace_id == write.trace_id
        # The copy is off the writer's path: it ends after the op did.
        assert span.end > write.end
    result = cp.analyze(tracer)
    assert result.terminal is write
    assert _attributed(result) == pytest.approx(result.total, rel=1e-9)
    assert result.categories["other"] == 0.0


def test_ssp_gate_wait_becomes_a_traced_span():
    """A blocked SSP worker leaves a staleness-wait span covering exactly
    the gate interval, and the walk attributes it."""
    from repro.cluster.cluster import Cluster
    from repro.config import ClusterConfig

    cluster = Cluster(ClusterConfig(n_executors=4, n_servers=3, seed=42,
                                    consistency="ssp", staleness=1))
    cluster.tracer.enable()
    model = cluster.consistency
    fast, slow = cluster.executors[0], cluster.executors[1]
    cluster.clock.set_at_least(slow, 5.0)
    model.advance(cluster, slow)
    model.advance(cluster, fast)
    model.advance(cluster, fast)
    model.sync(cluster, fast)
    waits = cluster.tracer.spans_for(op="staleness-wait")
    assert len(waits) == 1
    wait = waits[0]
    assert wait.node == fast
    assert wait.end == pytest.approx(5.0)
    assert wait.duration == pytest.approx(5.0 - wait.start)
    assert wait.args["clock"] == 2
    result = cp.analyze(cluster.tracer)
    assert result.categories["staleness-wait"] == \
        pytest.approx(wait.duration)
    assert _attributed(result) == pytest.approx(result.total, rel=1e-9)
