"""Consistency models (BSP/SSP/ASP), worker cache, and the new telemetry."""

import numpy as np
import pytest

from repro.cluster.cluster import Cluster
from repro.common.errors import ConfigError
from repro.config import ClusterConfig
from repro.data.synth import sparse_classification
from repro.experiments.runner import make_context
from repro.ml.linear import train_linear_ps2
from repro.obs.report import hot_shard_table, render_report
from repro.ps.client import PSClient
from repro.ps.consistency import make_consistency
from repro.ps.master import PSMaster


def _relaxed_cluster(consistency="ssp", staleness=3):
    return Cluster(ClusterConfig(
        n_executors=4, n_servers=3, seed=42,
        consistency=consistency, staleness=staleness,
    ))


def _client(cluster):
    master = PSMaster(cluster)
    return master, PSClient(cluster, master, cluster.executors[0])


# -- model selection ----------------------------------------------------------


def test_bsp_is_default_and_exact_noop(cluster):
    model = cluster.consistency
    assert model.name == "bsp"
    assert model.barrier and model.commit_at_barrier
    assert model.cache_bound() is None
    # No cache object is even constructed under BSP.
    master, client = _client(cluster)
    assert client.cache is None
    # sync/advance are harmless no-ops: no clocks, no metrics.
    model.sync(cluster, cluster.executors[0])
    model.advance(cluster, cluster.executors[0])
    assert cluster.clock.now(cluster.executors[0]) == 0.0
    assert not cluster.metrics.counters


def test_unknown_model_and_bad_staleness_rejected():
    with pytest.raises(ConfigError):
        ClusterConfig(consistency="eventual")
    with pytest.raises(ConfigError):
        ClusterConfig(consistency="ssp", staleness=-1)

    class Cfg:
        consistency = "totally-ordered"
        staleness = 0

    with pytest.raises(ConfigError):
        make_consistency(Cfg())


# -- the SSP gate -------------------------------------------------------------


def test_ssp_gate_blocks_fast_worker():
    cluster = _relaxed_cluster("ssp", staleness=1)
    model = cluster.consistency
    fast, slow = cluster.executors[0], cluster.executors[1]
    # The slow worker finishes its clock 0 at t=5.
    cluster.clock.set_at_least(slow, 5.0)
    model.advance(cluster, slow)
    # The fast worker burns through clocks 0 and 1 instantly...
    model.advance(cluster, fast)
    model.advance(cluster, fast)
    assert model.clock_of(fast) == 2
    # ...and at clock 2 must wait for everyone's clock 0 (= 2 - 1 - 1).
    model.sync(cluster, fast)
    assert cluster.clock.now(fast) == pytest.approx(5.0)
    assert cluster.metrics.counters["staleness-waits"] == 1
    assert cluster.metrics.latency["staleness-wait"].summary()["count"] == 1


def test_ssp_gate_within_bound_is_free():
    cluster = _relaxed_cluster("ssp", staleness=3)
    model = cluster.consistency
    fast, slow = cluster.executors[0], cluster.executors[1]
    cluster.clock.set_at_least(slow, 5.0)
    model.advance(cluster, slow)
    for _ in range(3):
        model.advance(cluster, fast)
    # clock 3, staleness 3: target = -1, no gate.
    model.sync(cluster, fast)
    assert cluster.clock.now(fast) == 0.0
    assert cluster.metrics.counters["staleness-waits"] == 0


def test_asp_never_blocks():
    cluster = _relaxed_cluster("asp", staleness=0)
    model = cluster.consistency
    fast, slow = cluster.executors[0], cluster.executors[1]
    cluster.clock.set_at_least(slow, 100.0)
    model.advance(cluster, slow)
    for _ in range(10):
        model.advance(cluster, fast)
        model.sync(cluster, fast)
    assert cluster.clock.now(fast) == 0.0
    assert cluster.metrics.counters["staleness-waits"] == 0


# -- worker cache -------------------------------------------------------------


def test_cache_hit_books_zero_network_bytes():
    cluster = _relaxed_cluster("ssp", staleness=3)
    master, client = _client(cluster)
    m = master.create_matrix(30)
    client.push_assign(m, 0, np.arange(30.0))
    first = client.pull_row(m, 0)  # miss: goes to the wire, fills the cache
    assert np.allclose(first, np.arange(30.0))
    metrics = cluster.metrics
    bytes_before = metrics.total_bytes()
    messages_before = metrics.total_messages()

    again = client.pull_row(m, 0)
    sparse = client.pull_row(m, 0, indices=[3, 7, 29])

    assert np.allclose(again, np.arange(30.0))
    assert np.allclose(sparse, [3.0, 7.0, 29.0])
    # The hits made no transfer() call at all.
    assert metrics.total_bytes() == bytes_before
    assert metrics.total_messages() == messages_before
    assert metrics.cache_hits[client.node_id] == 2
    assert metrics.cache_misses[client.node_id] == 1
    assert metrics.cache_bytes_saved[client.node_id] > 0
    # Hit staleness (in clocks) feeds the histogram: both hits at age 0.
    assert metrics.latency["staleness-clocks"].summary()["count"] == 2


def test_cache_entry_ages_out_past_bound():
    cluster = _relaxed_cluster("ssp", staleness=1)
    master, client = _client(cluster)
    model = cluster.consistency
    m = master.create_matrix(30)
    client.push_assign(m, 0, np.arange(30.0))
    client.pull_row(m, 0)  # cached at clock 0
    # Ticking to clock 1 keeps the entry (age 1 == bound) ...
    model.advance(cluster, client.node_id)
    assert client.cache.lookup(m, 0) is not None
    # ... ticking to clock 2 evicts it (age 2 > bound).
    model.advance(cluster, client.node_id)
    assert client.cache.lookup(m, 0) is None
    client.pull_row(m, 0)
    assert cluster.metrics.cache_misses[client.node_id] == 2


def test_clock_advance_rpc_pays_wire_bytes():
    cluster = _relaxed_cluster("ssp", staleness=3)
    master, client = _client(cluster)
    m = master.create_matrix(30)
    client.push_assign(m, 0, np.arange(30.0))
    client.pull_row(m, 0)
    metrics = cluster.metrics
    assert metrics.messages_by_tag.get("clock-advance:req", 0) == 0
    cluster.consistency.advance(cluster, client.node_id)
    # One renewal message per server holding cached rows (the full row
    # spans all three shards), each paying real request+response bytes.
    assert metrics.messages_by_tag["clock-advance:req"] == 3
    assert metrics.bytes_by_tag["clock-advance:req"] > 0
    assert metrics.bytes_by_tag["clock-advance:resp"] > 0


def test_cache_write_through_reads_own_writes():
    cluster = _relaxed_cluster("ssp", staleness=3)
    master, client = _client(cluster)
    m = master.create_matrix(30)
    client.push_assign(m, 0, np.arange(30.0))
    client.pull_row(m, 0)  # fill the cache
    client.push_add(m, 0, np.ones(30))
    hit = client.pull_row(m, 0)  # served from cache, must see the push
    assert np.allclose(hit, np.arange(30.0) + 1.0)
    # The authoritative state agrees (the push itself still hit the wire):
    # read it through an uncached driver client.
    from repro.cluster.cluster import DRIVER

    driver_client = PSClient(cluster, master, DRIVER)
    assert np.allclose(driver_client.pull_row(m, 0), np.arange(30.0) + 1.0)


def test_driver_client_never_gets_a_cache():
    cluster = _relaxed_cluster("ssp", staleness=3)
    from repro.cluster.cluster import DRIVER

    master = PSMaster(cluster)
    driver_client = PSClient(cluster, master, DRIVER)
    assert driver_client.cache is None


# -- telemetry ----------------------------------------------------------------


def test_retried_op_gets_its_own_histogram(cluster):
    master, client = _client(cluster)
    m = master.create_matrix(30)
    client.push_assign(m, 0, np.arange(30.0))
    client.pull_row(m, 0)
    master.checkpoint_all()
    assert cluster.metrics.latency["pull"].summary()["count"] == 1
    master.server(1).crash()
    got = client.pull_row(m, 0)  # hits the retry path
    assert np.allclose(got, np.arange(30.0))
    # The slow (retried) op lands in its own bucket; the headline
    # histogram keeps only the clean attempt.
    assert cluster.metrics.latency["pull"].summary()["count"] == 1
    retried = cluster.metrics.latency["pull.retried"].summary()
    assert retried["count"] == 1
    assert retried["max"] > cluster.metrics.latency["pull"].summary()["max"]


def test_hot_shard_table_reports_bytes(cluster):
    master, client = _client(cluster)
    m = master.create_matrix(30)
    client.push_assign(m, 0, np.arange(30.0))
    client.pull_row(m, 0)
    metrics = cluster.metrics
    assert sum(metrics.shard_bytes.values()) > 0
    metrics.record_shard_access(m, 0, n_values=0, n_requests=0,
                                nbytes=4 * sum(metrics.shard_bytes.values()))
    table = hot_shard_table(metrics)
    lines = table.splitlines()
    assert "bytes" in lines[0].split()
    assert len(lines) > 3
    # Every shard row carries a positive byte volume.
    for line in lines[2:-1]:
        assert float(line.split()[4]) > 0


def test_report_has_consistency_section():
    ctx = make_context(n_executors=4, n_servers=3, seed=42,
                       consistency="ssp", staleness=2)
    rows, _ = sparse_classification(60, 32, 8, seed=3)
    train_linear_ps2(ctx, rows, 32, n_iterations=3, seed=1, optimizer="sgd")
    report = render_report(ctx.cluster)
    assert "consistency='ssp'" in report and "staleness=2" in report
    assert "-- worker cache --" in report
    worker = ctx.cluster.executors[0]
    assert [worker, str(ctx.cluster.metrics.cache_hits[worker])] == \
        next(line.split()[:2] for line in report.splitlines()
             if line.startswith(worker + " "))
    assert "staleness-clocks" in report


def test_bsp_report_consistency_section_is_placeholder(ps2):
    w = ps2.dense(12)
    w.push(np.arange(12.0))
    report = render_report(ps2.cluster)
    assert "consistency=" not in report
    assert "staleness-" not in report
    assert "-- worker cache --\n(none)\n" in report


# -- end-to-end ---------------------------------------------------------------


def _lr_run(consistency, staleness, seed=42):
    ctx = make_context(n_executors=4, n_servers=3, seed=seed,
                       consistency=consistency, staleness=staleness)
    rows, _ = sparse_classification(120, 48, 10, seed=7)
    result = train_linear_ps2(ctx, rows, 48, n_iterations=5, seed=1,
                              optimizer="sgd")
    return ctx, result


def test_ssp_lr_is_deterministic_and_faster_than_bsp():
    bsp_ctx, bsp = _lr_run("bsp", 0)
    ssp_ctx, ssp = _lr_run("ssp", 2)
    ssp_ctx2, ssp2 = _lr_run("ssp", 2)
    # Same seed, same code path: bit-identical virtual time and loss.
    assert ssp_ctx.elapsed() == ssp_ctx2.elapsed()
    assert ssp.final_loss == ssp2.final_loss
    # Dropping the barrier never slows the run; losses stay comparable.
    assert ssp_ctx.elapsed() < bsp_ctx.elapsed()
    assert abs(ssp.final_loss - bsp.final_loss) < 0.2
    # The relaxed run actually exercised the cache.
    assert sum(ssp_ctx.cluster.metrics.cache_hits.values()) > 0
