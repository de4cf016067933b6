"""Observability tests: spans, histograms, hot shards, exporters.

The load-bearing property throughout is that observability is *passive*:
tracing and metrics only read the virtual clocks, so a traced run and an
untraced run of the same workload produce byte-identical results.
"""

import json

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.config import ClusterConfig
from repro.core.context import PS2Context
from repro.cluster.metrics import MetricsRegistry
from repro.obs import (
    StreamingHistogram,
    render_report,
    to_chrome_trace,
    trace_events,
    write_chrome_trace,
)
from repro.obs.tracer import _NULL_SPAN
from repro.ps.client import PSClient
from repro.ps.master import PSMaster


# -- tracer: nesting and ordering under the virtual clock --------------------


def test_span_nesting_on_one_node(cluster):
    tracer = cluster.tracer
    tracer.enable()
    node = cluster.executors[0]
    with tracer.span(node, "outer", cat="task") as outer:
        cluster.charge_seconds(node, 1.0)
        with tracer.span(node, "inner") as inner:
            cluster.charge_seconds(node, 2.0)
    assert inner.parent_id == outer.span_id
    assert outer.parent_id is None
    assert tracer.children_of(outer) == [inner]
    # inner closed first, so it is recorded first
    assert [s.op for s in tracer.spans] == ["inner", "outer"]
    # virtual-time containment: parent interval covers the child's
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert inner.duration == pytest.approx(2.0)
    assert outer.duration == pytest.approx(3.0)


def test_spans_on_different_nodes_do_not_nest(cluster):
    tracer = cluster.tracer
    tracer.enable()
    with tracer.span(cluster.executors[0], "a"):
        with tracer.span(cluster.executors[1], "b") as other:
            assert other.parent_id is None


def test_record_parents_to_open_span(cluster):
    tracer = cluster.tracer
    tracer.enable()
    node = cluster.executors[0]
    with tracer.span(node, "op") as op:
        recorded = tracer.record(node, "nic", 0.25, 0.75, cat="nic-send")
    assert recorded.parent_id == op.span_id
    assert recorded.duration == pytest.approx(0.5)


def test_ps_op_spans_nest_rpc_children(cluster):
    """A pull produces an op span whose children are its NIC bookings."""
    cluster.tracer.enable()
    master = PSMaster(cluster)
    client = PSClient(cluster, master, cluster.executors[0])
    m = master.create_matrix(20, n_rows=2)
    client.push_assign(m, 0, np.arange(20.0))
    cluster.tracer.clear()
    client.pull_row(m, 0)
    pulls = cluster.tracer.spans_for(cat="op", op="pull")
    assert len(pulls) == 1
    pull = pulls[0]
    assert pull.args["matrix_id"] == m
    # one RPC per owning server, bytes accumulated by _request
    assert pull.args["fanout"] == cluster.config.n_servers
    assert pull.args["bytes"] > 0
    children = cluster.tracer.children_of(pull)
    assert any(s.cat == "nic-send" for s in children)
    # server CPU slots landed on the server nodes, not under the client op
    cpu = cluster.tracer.spans_for(cat="cpu")
    assert cpu and all(s.node.startswith("server-") for s in cpu)


def test_disabled_tracer_records_nothing(cluster):
    tracer = cluster.tracer
    assert not tracer.enabled
    node = cluster.executors[0]
    # the no-op context manager is a shared singleton: no allocation
    assert tracer.span(node, "x") is _NULL_SPAN
    assert tracer.span(node, "y", cat="task") is _NULL_SPAN
    with tracer.span(node, "z"):
        pass
    assert tracer.record(node, "r", 0.0, 1.0) is None
    assert len(tracer) == 0
    assert tracer.current(node) is None


def test_record_with_explicit_parent_inherits_trace(cluster):
    """An explicit cross-node parent wins over the stack and passes on its
    trace id, even after the parent span has closed."""
    tracer = cluster.tracer
    tracer.enable()
    a, b = cluster.executors[0], cluster.executors[1]
    with tracer.span(a, "root") as root:
        pass
    child = tracer.record(b, "remote", 1.0, 2.0, cat="cpu",
                          parent_id=root.span_id)
    assert child.parent_id == root.span_id
    assert root.trace_id == root.span_id  # roots start their own trace
    assert child.trace_id == root.span_id
    grand = tracer.record(a, "deeper", 2.0, 3.0, parent_id=child.span_id)
    assert grand.trace_id == root.span_id


def test_record_explicit_parent_beats_open_stack(cluster):
    tracer = cluster.tracer
    tracer.enable()
    node = cluster.executors[0]
    with tracer.span(node, "noise"):
        with tracer.span(cluster.executors[1], "real") as real:
            foreign = tracer.record(node, "x", 0.0, 1.0,
                                    parent_id=real.span_id)
    assert foreign.parent_id == real.span_id
    assert foreign.trace_id == real.trace_id
    # an unknown explicit parent starts a fresh trace instead of crashing
    orphan = tracer.record(node, "y", 0.0, 1.0, parent_id=10**9)
    assert orphan.parent_id == 10**9
    assert orphan.trace_id == orphan.span_id


def test_current_enriches_the_open_span(cluster):
    tracer = cluster.tracer
    tracer.enable()
    node = cluster.executors[0]
    with tracer.span(node, "op") as sp:
        open_span = tracer.current(node)
        assert open_span is sp
        open_span.args["bytes"] = open_span.args.get("bytes", 0) + 123
    assert tracer.spans[-1].args["bytes"] == 123
    assert tracer.current(node) is None


def test_children_of_returns_recording_order_across_nodes(cluster):
    tracer = cluster.tracer
    tracer.enable()
    a, b = cluster.executors[0], cluster.executors[1]
    with tracer.span(a, "parent") as parent:
        pass
    first = tracer.record(b, "c1", 0.0, 1.0, parent_id=parent.span_id)
    second = tracer.record(a, "c2", 0.5, 0.8, parent_id=parent.span_id)
    third = tracer.record(b, "c3", 0.2, 0.4, parent_id=parent.span_id)
    # recording order, not per-node or chronological order
    assert tracer.children_of(parent) == [first, second, third]


# -- cross-node trace context -------------------------------------------------


def _traced_pull(case):
    """One traced pull on a warm client; returns the cluster and the op.

    ``case`` is ``"pull_row"``, ``"pull_block"`` (one envelope of two
    sub-requests per server) or ``"partitioned"`` (a pull_row while a
    window on server-1 makes the fan-out book transfer by transfer; its
    first request there is dropped and re-sent)."""
    cluster = Cluster(ClusterConfig(n_executors=4, n_servers=3, seed=42))
    cluster.tracer.enable()
    master = PSMaster(cluster)
    client = PSClient(cluster, master, cluster.executors[0])
    m = master.create_matrix(20, n_rows=2)
    client.push_assign(m, 0, np.arange(20.0))
    cluster.tracer.clear()
    if case == "partitioned":
        now = cluster.clock.now(client.node_id)
        cluster.failures.schedule_partition("server-1", now, now + 1e-3)
    if case == "pull_block":
        client.pull_block(m, [0, 1])
        assert cluster.metrics.counters["coalesced-batches"] > 0
    else:
        client.pull_row(m, 0)
    if case == "partitioned":
        assert cluster.metrics.counters["partition-drops"] == 1
    (pull,) = cluster.tracer.spans_for(
        cat="op", op="pull-block" if case == "pull_block" else "pull")
    return cluster, pull


def test_trace_ctx_links_server_work_to_client_op():
    """Server CPU slots and NIC bookings share the client op's trace id —
    on the bulk schedule, for an envelope's sub-requests too, and while a
    partition window books the fan-out transfer by transfer."""
    for case in ("pull_row", "pull_block", "partitioned"):
        cluster, pull = _traced_pull(case)
        assert pull.trace_id == pull.span_id
        related = cluster.tracer.spans_for(trace_id=pull.trace_id)
        assert {s.cat for s in related} \
            >= {"op", "cpu", "nic-send", "nic-recv"}
        cpu = [s for s in related if s.cat == "cpu"]
        assert len(cpu) >= cluster.config.n_servers
        assert all(s.node.startswith("server-") for s in cpu)
        # Every CPU slot and every booking of the pull's own messages is
        # the pull's child (a retry's routing RPC is transport traffic).
        booked = [s for s in cluster.tracer.spans
                  if s.cat in ("cpu", "nic-send", "nic-recv")
                  and not s.op.startswith("net:routing:")]
        assert len(booked) >= len(cpu) + 4 * cluster.config.n_servers
        assert all(s.parent_id == pull.span_id
                   and s.trace_id == pull.trace_id for s in booked), case


def test_trace_ctx_never_costs_wire_bytes():
    """Stamping a trace context onto a message changes no byte formula."""
    from repro.ps import messages

    plain = messages.PullRowRequest(0, 1, row=0, n_values=64)
    stamped = messages.PullRowRequest(0, 1, row=0, n_values=64)
    stamped.trace_ctx = (17, 23)
    assert stamped.wire_bytes() == plain.wire_bytes()
    assert stamped.response_bytes() == plain.response_bytes()

    group = [messages.PullRowRequest(0, 1, row=r, n_values=8)
             for r in range(3)]
    before = (messages.wire_bytes(group), messages.response_bytes(group))
    for request in group:
        request.trace_ctx = (17, 23)
    assert (messages.wire_bytes(group),
            messages.response_bytes(group)) == before


# -- histogram: percentiles vs numpy ----------------------------------------


def test_histogram_percentiles_match_numpy():
    rng = np.random.default_rng(7)
    values = rng.lognormal(mean=-7.0, sigma=1.5, size=5000)
    hist = StreamingHistogram()
    for v in values:
        hist.record(v)
    for q in (50, 90, 95, 99):
        exact = np.percentile(values, q)
        approx = hist.percentile(q)
        # log-bucketed at 2% growth: within ~2% after midpoint clamping
        assert abs(approx - exact) / exact < 0.02
    assert hist.count == values.size
    assert hist.min == pytest.approx(values.min())
    assert hist.max == pytest.approx(values.max())
    assert hist.mean == pytest.approx(values.mean())


def test_histogram_single_value_is_exact():
    hist = StreamingHistogram()
    hist.record(5.0)
    for q in (0, 50, 100):
        assert hist.percentile(q) == 5.0


def test_histogram_tails_clamped_to_observed_range():
    hist = StreamingHistogram()
    for v in (1.0, 2.0, 3.0, 4.0):
        hist.record(v)
    assert hist.min <= hist.percentile(0) <= hist.max
    assert hist.percentile(100) <= hist.max
    assert hist.percentile(0) == pytest.approx(1.0, rel=0.02)
    assert hist.percentile(100) == pytest.approx(4.0, rel=0.02)


def test_histogram_underflow_bucket():
    hist = StreamingHistogram()
    hist.record(0.0, n=3)
    assert hist.count == 3
    assert hist.percentile(50) == 0.0


def test_histogram_rejects_bad_args():
    with pytest.raises(ValueError):
        StreamingHistogram(growth=1.0)
    with pytest.raises(ValueError):
        StreamingHistogram().percentile(101)


# -- hot shards --------------------------------------------------------------


def test_hot_shard_detection_on_skewed_access():
    m = MetricsRegistry()
    # shard 0 takes 10x the traffic of the other three: heat is bytes,
    # 80 per request here
    m.record_shard_access(7, 0, n_values=1000, n_requests=100, nbytes=8000.0)
    for shard in (1, 2, 3):
        m.record_shard_access(7, shard, n_values=100, n_requests=10,
                              nbytes=800.0)
    hot = m.hot_shards(factor=2.0)
    assert [(mat, shard) for mat, shard, _, _, _ in hot] == [(7, 0)]
    _mat, _shard, requests, values, ratio = hot[0]
    assert requests == 100 and values == 1000
    # mean bytes = (8000 + 2400) / 4 = 2600 -> ratio ~3.08
    assert ratio == pytest.approx(8000 / 2600)


def test_hot_shards_empty_on_uniform_access():
    m = MetricsRegistry()
    for shard in range(4):
        m.record_shard_access(1, shard, n_values=50, n_requests=5,
                              nbytes=400.0)
    assert m.hot_shards(factor=1.5) == []


# -- passivity: tracing never changes simulation results ---------------------


def _exercise(ctx):
    w = ctx.dense(512, rows=2)
    g = w.derive().fill(0.5)
    w.push(np.arange(512.0))
    pulled = w.pull()
    dot = w.dot(g)
    return pulled, dot, ctx.elapsed()


def test_traced_run_is_byte_identical_to_untraced(monkeypatch):
    from tests.test_fast_lane import _lane_users, _units

    served = _lane_users(monkeypatch)
    plain = PS2Context(config=ClusterConfig(n_executors=4, n_servers=3,
                                            seed=11))
    traced = PS2Context(config=ClusterConfig(n_executors=4, n_servers=3,
                                             seed=11))
    traced.cluster.tracer.enable()
    pulled_a, dot_a, elapsed_a = _exercise(plain)
    pulled_b, dot_b, elapsed_b = _exercise(traced)
    assert np.array_equal(pulled_a, pulled_b)  # byte-identical values
    assert dot_a == dot_b
    assert elapsed_a == elapsed_b  # identical virtual timelines
    assert (plain.cluster.metrics.snapshot()
            == traced.cluster.metrics.snapshot())
    assert len(plain.cluster.tracer) == 0
    assert len(traced.cluster.tracer) > 0
    # ... and the same code path: tracing never selects the schedule.
    assert _units(served, traced) == _units(served, plain) > 0


# -- routing invalidation on server recovery ---------------------------------


def test_recovery_invalidates_routing_cache(cluster):
    master = PSMaster(cluster)
    client = PSClient(cluster, master, cluster.executors[0])
    m = master.create_matrix(20, n_rows=2)
    client.push_assign(m, 0, np.arange(20.0))
    assert cluster.metrics.messages_by_tag["routing:req"] == 1
    master.checkpoint_all()
    master.server(1).crash()
    got = client.pull_row(m, 0)  # transparent recovery + retry
    assert np.allclose(got, np.arange(20.0))
    assert cluster.metrics.counters["routing-invalidations"] == 1
    assert cluster.metrics.counters["server-recoveries"] == 1
    # the retry re-resolved routing through the master: a second routing RPC
    assert cluster.metrics.messages_by_tag["routing:req"] == 2
    # and the cache is warm again afterwards
    client.pull_row(m, 0)
    assert cluster.metrics.messages_by_tag["routing:req"] == 2


def test_invalidate_all_clears_every_entry(cluster):
    master = PSMaster(cluster)
    client = PSClient(cluster, master, cluster.executors[0])
    a = master.create_matrix(10, n_rows=1)
    b = master.create_matrix(10, n_rows=1)
    client.fill_row(a, 0, 1.0)
    client.fill_row(b, 0, 1.0)
    assert cluster.metrics.messages_by_tag["routing:req"] == 2
    client.invalidate()
    client.fill_row(a, 0, 2.0)
    client.fill_row(b, 0, 2.0)
    assert cluster.metrics.messages_by_tag["routing:req"] == 4


# -- exporters ---------------------------------------------------------------


def _traced_context():
    ctx = PS2Context(config=ClusterConfig(n_executors=4, n_servers=3,
                                          seed=3))
    ctx.cluster.tracer.enable()
    _exercise(ctx)
    return ctx


def test_chrome_trace_schema():
    ctx = _traced_context()
    document = to_chrome_trace(ctx.cluster.tracer)
    assert set(document) == {"traceEvents", "displayTimeUnit", "otherData"}
    events = document["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    metadata = [e for e in events if e["ph"] == "M"]
    assert len(complete) == len(ctx.cluster.tracer)
    assert metadata  # process/thread naming present
    for event in complete:
        assert isinstance(event["name"], str)
        assert isinstance(event["ts"], float)
        assert isinstance(event["dur"], float)
        assert event["dur"] >= 0.0
        assert isinstance(event["pid"], int)
        assert isinstance(event["tid"], int)
        assert event["args"]["node"]
    # ts/dur are virtual microseconds
    spans = ctx.cluster.tracer.spans
    total_virtual = max(s.end for s in spans) * 1e6
    assert max(e["ts"] + e["dur"] for e in complete) == \
        pytest.approx(total_virtual)


def test_chrome_trace_merges_multiple_tracers():
    a, b = _traced_context(), _traced_context()
    document = to_chrome_trace([("left", a.cluster.tracer),
                                ("right", b.cluster.tracer)])
    meta = [e for e in document["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"]
    left = {e["pid"] for e in meta if e["args"]["name"].startswith("left/")}
    right = {e["pid"] for e in meta if e["args"]["name"].startswith("right/")}
    # the two contexts land in disjoint pid blocks with prefixed names
    assert left and right
    assert not left & right


def test_write_chrome_trace_round_trips(tmp_path):
    ctx = _traced_context()
    path = write_chrome_trace(ctx.cluster.tracer,
                              str(tmp_path / "trace.json"))
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    assert document["traceEvents"]
    assert document["otherData"]["clock"] == "virtual"


def test_trace_events_offsets_pids():
    ctx = _traced_context()
    base = trace_events(ctx.cluster.tracer)
    shifted = trace_events(ctx.cluster.tracer, pid_offset=100)
    assert {e["pid"] for e in shifted} == \
        {e["pid"] + 100 for e in base}


def test_report_sections():
    ctx = _traced_context()
    report = render_report(ctx.cluster, title="unit")
    assert "== unit ==" in report
    assert "per-op latency" in report
    assert "p50_s" in report and "p99_s" in report
    assert "per-server load" in report
    assert "server-0" in report
    assert "hot shards" in report
    assert "load imbalance" in report
    assert "spans recorded" in report


def _ssp_fence_and_gate_run():
    """An SSP cluster whose server crash fences a cached row and whose
    fast worker then waits at the staleness gate."""
    cluster = Cluster(ClusterConfig(n_executors=4, n_servers=3, seed=42,
                                    consistency="ssp", staleness=1))
    master = PSMaster(cluster)
    fast, slow = cluster.executors[:2]
    client = PSClient(cluster, master, fast)
    m = master.create_matrix(30)
    client.push_assign(m, 0, np.arange(30.0))
    master.checkpoint_all()
    client.pull_row(m, 0)
    master.server(1).crash()
    model = cluster.consistency
    cluster.clock.set_at_least(slow, 5.0)
    model.advance(cluster, slow)
    model.advance(cluster, fast)
    model.advance(cluster, fast)
    model.sync(cluster, fast)
    client.pull_row(m, 0)
    return cluster


def _partition_run():
    from tests.test_chaos import _chaos_cluster

    cluster = _chaos_cluster(partition_windows=(("server-1", 1e-5, 4e-3),))
    master = PSMaster(cluster)
    client = PSClient(cluster, master, cluster.executors[0])
    client.pull_row(master.create_matrix(30), 0)
    return cluster


def _replicated_codec_run():
    from repro.config import FailureConfig
    from repro.data import sparse_classification
    from repro.experiments import make_context
    from repro.ml import train_logistic_regression

    rows, _ = sparse_classification(120, 48, 10, seed=7)
    ctx = make_context(
        n_executors=4, n_servers=3, seed=42, consistency="ssp", staleness=1,
        replication="topk", wire_codec="auto", rebalance_interval=1e-4,
        failures=FailureConfig(server_failure_times=((1, 1e-4),),
                               checkpoint_interval=5e-5),
    )
    train_logistic_regression(ctx, rows, 48, n_iterations=6,
                              optimizer="sgd", seed=1)
    return ctx.cluster


def test_the_report_renders_every_counter_tag_and_latency():
    """The report is a renderer of the metrics snapshot: over runs that
    crash, recover, retry, drop on a partition, checkpoint, replicate
    (hot-key and chain), choose codecs and gate on staleness, every
    counter (with its value), every traffic tag and every latency tag
    appears — none is hand-picked."""
    from tests.test_chaos import _chain_stream, _chaos_run

    clusters = [
        _chaos_run()[0].cluster, _partition_run(), _replicated_codec_run(),
        _ssp_fence_and_gate_run(), _chain_stream(crash=True)[0].cluster,
    ]
    fired = set()
    for cluster in clusters:
        metrics = cluster.metrics
        rows = [line.split() for line in
                render_report(cluster).splitlines()]
        firsts = {row[0] for row in rows if row}
        for name, count in metrics.counters.items():
            assert [name, str(count)] in rows
        assert set(metrics.bytes_by_tag) <= firsts
        assert set(metrics.latency) <= firsts
        fired |= set(metrics.counters)
    assert {"server-crashes", "server-recoveries", "op-retries",
            "partition-drops", "checkpoints", "replica-promotions",
            "chain-promotions", "codec-replication-allowed",
            "staleness-waits", "cache-epoch-fences"} <= fired


def test_report_without_tracing():
    ctx = PS2Context(config=ClusterConfig(n_executors=2, n_servers=2,
                                          seed=3))
    _exercise(ctx)
    report = render_report(ctx.cluster)
    assert "per-op latency" in report
    assert "spans recorded" not in report
