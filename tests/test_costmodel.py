"""Cost-model tests: regime selection, wire pricing, the replication gate.

The acceptance contract for the self-tuning codec layer:

- the *cost model*, not a hand-set knob, chooses compression per message
  regime — byte-dominated (slow-NIC) runs compress, latency-dominated
  (fast-NIC) runs stay identity and bit-identical to ``wire_codec="off"``;
- encoded messages are priced at their honest encoded size;
- decisions are visible in the obs report's transport table;
- the same model gates hot-key replication against migration bytes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import Cluster
from repro.config import ClusterConfig, NetworkSpec, NodeSpec
from repro.costs import FLOAT_BYTES
from repro.obs.report import transport_table
from repro.ps import costmodel as costmodel_module
from repro.ps import messages, transport
from repro.ps.client import PSClient
from repro.ps.master import PSMaster

#: Byte-dominated hardware: 100 Mbit/s NICs at 10 us latency — a 512-byte
#: payload costs ~41 us to serialize, >> one latency.
SLOW = dict(node=NodeSpec(nic_bandwidth=1.25e7),
            network=NetworkSpec(latency=1e-5, bandwidth=1.25e7))


def _rig(wire_codec, n_servers=1, slow=True, **kw):
    specs = dict(SLOW) if slow else {}
    config = ClusterConfig(n_executors=1, n_servers=n_servers, seed=3,
                           wire_codec=wire_codec, **specs, **kw)
    cluster = Cluster(config)
    master = PSMaster(cluster)
    client = PSClient(cluster, master, cluster.executors[0])
    return cluster, master, client


# -- regime selection ---------------------------------------------------------


def test_slow_nic_auto_compresses():
    cluster, master, client = _rig("auto")
    m = master.create_matrix(64, n_rows=1)  # 512-byte payloads: r ~ 4.1
    client.push_add(m, 0, np.linspace(-1.0, 1.0, 64))
    client.pull_row(m, 0)
    decisions = cluster.metrics.codec_decisions
    assert decisions[("push", "int8")] == 1
    assert decisions[("pull", "int8")] == 1
    assert sum(cluster.metrics.codec_bytes_saved.values()) > 0


def test_slow_nic_auto_mid_size_picks_fp16():
    cluster, master, client = _rig("auto")
    m = master.create_matrix(32, n_rows=1)  # 256-byte payloads: r ~ 2
    client.push_add(m, 0, np.linspace(-1.0, 1.0, 32))
    assert cluster.metrics.codec_decisions[("push", "fp16")] == 1


def test_slow_nic_auto_huge_dense_add_picks_topk():
    cluster, master, client = _rig("auto")
    m = master.create_matrix(256, n_rows=1)  # 2048-byte payloads: r ~ 16
    client.push_add(m, 0, np.linspace(-1.0, 1.0, 256))
    client.pull_row(m, 0)
    decisions = cluster.metrics.codec_decisions
    # Top tier: sparsify the gradient push; pulls cap at int8 (responses
    # must be priced from the request alone, so never top-k).
    assert decisions[("push", "topk")] == 1
    assert decisions[("pull", "int8")] == 1


def test_send_backlog_escalates_one_tier():
    cluster, master, client = _rig("auto")
    m = master.create_matrix(32, n_rows=1)  # 256 B: fp16 when unloaded
    # Warm the routing metadata first: the layout fetch is itself an RPC
    # that would drain the client's clock past any pre-loaded backlog.
    client.push_add(m, 0, np.linspace(-1.0, 1.0, 32))
    assert cluster.metrics.codec_decisions[("push", "fp16")] == 1
    # Pile an unrelated megabyte onto the client's send NIC (booked, not
    # delivered): the send horizon is now ~0.08 s ahead of the clock,
    # far past the 50-latency backlog knee — the same payload escalates
    # one tier.
    cluster.network.transfer(client.node_id, cluster.servers[0], 1e6,
                             deliver=False)
    client.push_add(m, 0, np.linspace(-1.0, 1.0, 32))
    assert cluster.metrics.codec_decisions[("push", "int8")] == 1


def test_fast_nic_auto_stays_identity_and_bit_identical():
    """Latency-dominated regime: every decision is identity, and the run
    is bit-identical to wire_codec="off" — bytes, values, makespan."""
    runs = {}
    for codec in ("off", "auto"):
        cluster, master, client = _rig(codec, slow=False)
        m = master.create_matrix(64, n_rows=1)
        client.push_add(m, 0, np.linspace(-1.0, 1.0, 64))
        values = client.pull_row(m, 0)
        runs[codec] = (values, cluster.metrics.total_bytes(),
                       cluster.clock.global_time(), cluster.metrics)
    off, auto = runs["off"], runs["auto"]
    assert np.array_equal(auto[0], off[0])
    assert auto[1] == off[1]
    assert auto[2] == off[2]
    # The model ran and deliberately chose identity everywhere.
    decisions = auto[3].codec_decisions
    assert decisions and all(codec == "identity" for _t, codec in decisions)
    assert off[3].codec_decisions == {}  # off constructs no model at all


def test_wire_codec_off_constructs_no_costmodel():
    cluster, _master, _client = _rig("off")
    assert cluster.costmodel is None


# -- honest pricing -----------------------------------------------------------


def test_forced_int8_prices_and_quantizes():
    results = {}
    for codec in ("off", "int8"):
        cluster, master, client = _rig(codec)
        m = master.create_matrix(64, n_rows=1)
        exact = np.linspace(-2.0, 2.0, 64)
        client.push_assign(m, 0, exact)
        got = client.pull_row(m, 0)
        results[codec] = (got, cluster.metrics.bytes_for_tag("push:req"),
                          cluster.metrics.bytes_for_tag("pull:resp"))
    exact = np.linspace(-2.0, 2.0, 64)
    got, push_bytes, pull_bytes = results["int8"]
    scale = 2.0 / 127.0
    # Quantized twice (push then pull response): error <= 2 * scale/2.
    assert np.all(np.abs(got - exact) <= scale + 1e-12)
    assert push_bytes < results["off"][1]
    assert pull_bytes < results["off"][2]


def test_forced_topk_sparsifies_dense_adds_with_error_feedback():
    cluster, master, client = _rig("topk")
    m = master.create_matrix(100, n_rows=1)
    rng = np.random.default_rng(5)
    x = rng.normal(size=100)
    client.push_add(m, 0, x)
    got = client.pull_row(m, 0)
    # Only k = ceil(0.1 * 100) = 10 coordinates landed, the largest |x|.
    kept = np.nonzero(got)[0]
    assert len(kept) == 10
    assert np.array_equal(got[kept], x[kept])
    # The dropped mass lives in the stream residual: applied + residual
    # conserves the full gradient.
    codec = cluster.costmodel.codecs["topk"]
    key = (client.node_id, m, 0, 0)
    assert np.allclose(got + codec.residual(key), x)
    # A second push carries the residual forward (error feedback).
    y = rng.normal(size=100)
    client.push_add(m, 0, y)
    got2 = client.pull_row(m, 0)
    assert np.allclose(got2 + codec.residual(key), x + y)
    # Sparse pushes and pulls stay identity under forced topk.
    assert cluster.metrics.codec_decisions[("pull", "identity")] == 2


def test_forced_topk_never_touches_assign_pushes():
    cluster, master, client = _rig("topk")
    m = master.create_matrix(64, n_rows=1)
    exact = np.linspace(-1.0, 1.0, 64)
    client.push_assign(m, 0, exact)  # state, not mass: must stay exact
    assert np.array_equal(client.pull_row(m, 0), exact)
    assert cluster.metrics.codec_decisions[("push", "identity")] == 1


def test_lossy_codecs_drift_is_bounded_not_hidden():
    """fp16 end-to-end: pushed-then-pulled values stay within the codec's
    documented bound of the exact values."""
    cluster, master, client = _rig("fp16")
    m = master.create_matrix(64, n_rows=1)
    exact = np.linspace(-3.0, 3.0, 64)
    client.push_assign(m, 0, exact)
    got = client.pull_row(m, 0)
    bound = np.maximum(2.0 ** -11 * np.abs(exact), 2.0 ** -24)
    assert np.all(np.abs(got - exact) <= 2 * bound + 1e-12)
    assert not np.array_equal(got, exact)  # genuinely quantized


# -- observability ------------------------------------------------------------


def test_decisions_visible_in_transport_table():
    cluster, master, client = _rig("auto")
    m = master.create_matrix(64, n_rows=1)
    client.push_add(m, 0, np.linspace(-1.0, 1.0, 64))
    client.pull_row(m, 0)
    text = transport_table(cluster.metrics)
    assert "codec" in text
    assert "int8" in text
    assert "bytes_saved" in text
    assert "codec wire bytes saved" in text


def test_transport_table_without_costmodel_is_unchanged():
    cluster, master, client = _rig("off")
    m = master.create_matrix(64, n_rows=1)
    client.push_add(m, 0, np.linspace(-1.0, 1.0, 64))
    assert "codec" not in transport_table(cluster.metrics)


def test_codec_counters_snapshot_and_reset():
    cluster, master, client = _rig("int8")
    m = master.create_matrix(64, n_rows=1)
    client.push_add(m, 0, np.ones(64))
    snap = cluster.metrics.snapshot()
    assert snap["codec_decisions"][("push", "int8")] == 1
    assert snap["codec_bytes_saved"][("push", "int8")] > 0
    cluster.metrics.reset()
    assert not cluster.metrics.codec_decisions
    assert not cluster.metrics.codec_bytes_saved


# -- the replication gate -----------------------------------------------------


def test_replication_gate_prices_heat_against_migration():
    cluster, master, _client = _rig("int8", n_servers=2)
    m = master.create_matrix(20, n_rows=4)  # 10-wide shards: migrate 320 B
    costmodel = cluster.costmodel
    # int8 shrinks a 10-value read by 80/18 ~ 4.4x, so the deflated heat
    # must beat 320 migration bytes: threshold ~ 1422 bytes of heat.
    assert not costmodel.replication_worthwhile((m, 0), 1000.0, master)
    assert costmodel.replication_worthwhile((m, 0), 5000.0, master)
    counters = cluster.metrics.counters
    assert counters["codec-replication-vetoed"] == 1
    assert counters["codec-replication-allowed"] == 1


def test_replication_gate_admits_unknown_matrices():
    cluster, master, _client = _rig("int8", n_servers=2)
    assert cluster.costmodel.replication_worthwhile(
        ("no-such-matrix", 0), 1.0, master)


def test_replication_gate_hides_no_failure_but_a_freed_matrix(monkeypatch):
    cluster, master, _client = _rig("int8", n_servers=2)
    m = master.create_matrix(20)
    master.free_matrix(m)
    assert cluster.costmodel.replication_worthwhile((m, 0), 1.0, master)
    monkeypatch.setattr(master, "info", lambda matrix_id: 1 // 0)
    with pytest.raises(ZeroDivisionError):
        cluster.costmodel.replication_worthwhile((m, 0), 1.0, master)


def test_rebalance_consults_the_gate():
    """With a cost model active, promote sweeps only replicate keys whose
    compressed heat beats migration — the unified decision point."""
    config = ClusterConfig(n_executors=2, n_servers=2, seed=3,
                           wire_codec="int8",
                           replication="topk", hot_key_fraction=1.0,
                           replication_factor=1, **SLOW)
    cluster = Cluster(config)
    master = PSMaster(cluster)
    client = PSClient(cluster, master, cluster.executors[0])
    m = master.create_matrix(16, n_rows=1)
    client.push_add(m, 0, np.ones(16))
    client.pull_row(m, 0)
    cluster.replicas.rebalance()
    counters = cluster.metrics.counters
    # Tiny heat vs full-matrix migration: every candidate is vetoed.
    assert counters["codec-replication-vetoed"] > 0
    assert counters.get("replica-promotions", 0) == 0


# -- interaction with the transport fast paths --------------------------------


def test_costmodel_run_serves_on_the_lane_and_identity_tiers_match_codec_off(
        monkeypatch):
    """A cost-model run serves its sends on the fast lane; with identity
    tiers everywhere (fast NIC) its results still match a codec-off run
    exactly."""
    units = {}
    lane = transport.serve_fast_fanout

    def counting(cluster, fan_servers, fan_messages, fan_arrivals):
        units[cluster] = units.get(cluster, 0) + len(fan_messages)
        return lane(cluster, fan_servers, fan_messages, fan_arrivals)

    monkeypatch.setattr(transport, "serve_fast_fanout", counting)
    results = {}
    for codec in ("off", "auto"):
        cluster, master, client = _rig(codec, n_servers=3, slow=False)
        m = master.create_matrix(96, n_rows=2)
        client.push_assign(m, 0, np.linspace(0.0, 1.0, 96))
        client.push_add(m, 0, np.ones(96))
        got = client.pull_row(m, 0)
        results[codec] = (got, cluster.metrics.total_bytes(),
                          cluster.metrics.total_messages())
        assert units.get(cluster, 0) > 0, codec
    assert np.array_equal(results["auto"][0], results["off"][0])
    assert results["auto"][1] == results["off"][1]
    assert results["auto"][2] == results["off"][2]


def test_prepare_is_idempotent_per_message():
    """Retries re-offer the same message; a second prepare must not
    re-encode (stateful codecs would corrupt their stream state)."""
    cluster, master, client = _rig("topk")
    m = master.create_matrix(100, n_rows=1)
    x = np.random.default_rng(7).normal(size=100)
    request = messages.PushRequest(0, m, 0, x.copy(), mode="add")
    costmodel = cluster.costmodel
    costmodel.prepare(request, client.node_id)
    encoded = request.encoded
    nbytes = request.payload_bytes()
    costmodel.prepare(request, client.node_id)
    assert request.encoded is encoded
    assert request.payload_bytes() == nbytes == encoded.nbytes
    assert cluster.metrics.codec_decisions[("push", "topk")] == 1


# -- the identity verdict and its bulk record --------------------------------


def _knee_values(model):
    """The largest value count under the fp16 knee, by ``_tier`` itself."""
    n = 1
    while model._tier((n + 1) * FLOAT_BYTES, None) == 0:
        n += 1
    return n


def test_identity_tags_is_the_tier_zero_verdict_in_message_order():
    cluster, master, _client = _rig("auto", n_servers=2)
    model = cluster.costmodel
    m = master.create_matrix(64, n_rows=2)
    under = _knee_values(model)  # 512-byte payloads sit above the knee
    assert 0 < under < 64
    requests = [
        messages.PullRowRequest(0, m, 0, under, tag="pull-block"),
        messages.AggregateRequest(0, m, 0, "sum", n_values=64),  # no side
        messages.PullRowRequest(1, m, 0, under, value_bytes=4),  # not float
        messages.PushRequest(1, m, 1, np.ones(under), tag="push"),
    ]
    assert model.identity_tags(requests) == ["pull-block", "push"]
    assert model.identity_tags(requests[1:3]) == []
    # One message at the knee makes the whole plan regime-dependent.
    assert model.identity_tags(
        requests + [messages.PushRequest(0, m, 0, np.ones(under + 1))]) \
        is None
    assert model.identity_tags(
        [messages.PullRowRequest(0, m, 1, under + 1)]) is None
    # Forced modes never give a verdict, even on tier-0 payloads.
    for mode in ("fp16", "int8", "topk"):
        model.mode = mode
        assert model.identity_tags(requests) is None


@given(start=st.integers(0, 3 * costmodel_module.HEAT_REFRESH_DECISIONS),
       tags=st.lists(st.sampled_from(["pull", "push", "pull-block"]),
                     max_size=2 * costmodel_module.HEAT_REFRESH_DECISIONS))
@settings(max_examples=60, deadline=None)
def test_recording_an_identity_plan_equals_preparing_each_message(start,
                                                                  tags):
    """The identity-record law: ``record_identity(tags)`` leaves the model
    and the registry where ``prepare`` on each message of the plan would —
    decision count, hot-shard set (refreshed iff a refresh point falls
    inside the run), decisions and bytes saved, key order included."""
    models = []
    for _side in range(2):
        cluster, master, client = _rig("auto", n_servers=3, slow=False)
        m = master.create_matrix(30, n_rows=1)
        # Heat that makes shard 0 hot, against a model still holding the
        # empty set: a refresh shows.
        for server, count in ((0, 9), (1, 1), (2, 1)):
            for _ in range(count):
                cluster.metrics.record_shard_access(m, server, 10,
                                                    nbytes=100.0)
        model = cluster.costmodel
        model._decisions = start
        refreshes = []
        refresh = model._refresh_hot_shards

        def counting(refresh=refresh, refreshes=refreshes):
            refresh()
            refreshes.append(1)

        model._refresh_hot_shards = counting
        models.append((cluster, model, refreshes, client, m))
    (bulk, bulk_model, bulk_refreshes, _c, m), \
        (loop, loop_model, loop_refreshes, client, _m) = models
    requests = [
        messages.PushRequest(0, m, 0, np.ones(10), tag=tag)
        if tag == "push" else messages.PullRowRequest(0, m, 0, 10, tag=tag)
        for tag in tags
    ]
    assert bulk_model.identity_tags(requests) == tags
    bulk_model.record_identity(tags)
    for request in requests:
        loop_model.prepare(request, client.node_id)
    assert bulk_model._decisions == loop_model._decisions == start + len(tags)
    assert bool(bulk_refreshes) == bool(loop_refreshes)
    if len(tags) <= costmodel_module.HEAT_REFRESH_DECISIONS:
        assert len(bulk_refreshes) == len(loop_refreshes)
    assert bulk_model._hot_shards == loop_model._hot_shards
    for name in ("codec_decisions", "codec_bytes_saved"):
        ours = getattr(bulk.metrics, name)
        theirs = getattr(loop.metrics, name)
        assert list(ours.items()) == list(theirs.items()), name
    assert all(request.codec is None for request in requests)


def test_auto_pools_identity_plans_and_keeps_tier_one_plans_unpooled():
    """Fast NICs: every plan is identity, so a repeated op reuses its
    request objects.  Slow NICs: every dense plan is tier >= 1, built
    afresh per op and prepared message by message."""
    for slow, pooled in ((False, True), (True, False)):
        cluster, master, client = _rig("auto", n_servers=2, slow=slow)
        m = master.create_matrix(64, n_rows=1)
        plans = master.layout(m).op_plans
        client.push_add(m, 0, np.ones(64))
        first = [plan.requests for plan in plans.values()]
        client.push_add(m, 0, np.ones(64))
        second = [plan.requests for plan in plans.values()]
        assert bool(first) is pooled
        assert all(a is b for a, b in zip(first, second))
        decisions = cluster.metrics.codec_decisions
        assert sum(decisions.values()) == 4
        assert (set(decisions) == {("push", "identity")}) is pooled
