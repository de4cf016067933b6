"""Virtual-time time-series sampler: windows, rates, alignment, exports.

Unit tests drive the sampler against a fake cluster with a hand-advanced
clock (exact boundary arithmetic); integration tests run real workloads
with ``timeseries_window`` set and check the wiring end to end — windows
close from the client-op and stage-end flush points, the report grows a
time-series section, and the chrome-trace exporter emits counter tracks.
The bit-identity of sampled vs. plain runs is covered by the golden
matrix (``test_observability_never_perturbs_the_golden_cell``).
"""

import numpy as np
import pytest

from repro.cluster.metrics import MetricsRegistry
from repro.config import ClusterConfig, ConfigError
from repro.core.context import PS2Context
from repro.obs import timeseries_counter_events, render_report
from repro.obs.timeseries import TimeSeriesSampler, Window


class _FakeNetwork:
    def __init__(self):
        self.horizons = {}

    def nic_horizon(self, node_id):
        return self.horizons.get(node_id, (0.0, 0.0))


class _FakeCluster:
    """Just enough surface for the sampler: metrics, clock, network."""

    def __init__(self):
        self.metrics = MetricsRegistry()
        self.network = _FakeNetwork()
        self.node_ids = ["exec-0", "server-0"]
        self.now = 0.0

    def elapsed(self):
        return self.now


def _sampler(window=1.0):
    cluster = _FakeCluster()
    sampler = TimeSeriesSampler(cluster, window)
    cluster.metrics.window_sink = sampler
    return cluster, sampler


# -- unit: windowing arithmetic ----------------------------------------------


def test_window_must_be_positive():
    with pytest.raises(ValueError):
        TimeSeriesSampler(_FakeCluster(), 0.0)


def test_config_rejects_negative_window():
    with pytest.raises(ConfigError):
        ClusterConfig(n_executors=2, n_servers=2, timeseries_window=-1.0)


def test_no_boundary_no_window():
    cluster, sampler = _sampler(window=1.0)
    cluster.metrics.record_transfer_many(
        [("exec-0", "server-0", 100, "transfer", 1)])
    cluster.now = 0.5
    sampler.maybe_flush()
    assert sampler.windows == []


def test_multiple_passed_boundaries_close_aligned_windows():
    """Everything since the last flush lands in the first closing window;
    the other passed boundaries close empty — series stay aligned."""
    cluster, sampler = _sampler(window=1.0)
    cluster.metrics.record_transfer_many(
        [("exec-0", "server-0", 400, "transfer", 1)])
    cluster.metrics.record_request("server-0")
    cluster.metrics.observe("pull", 0.25)
    cluster.now = 3.5
    sampler.maybe_flush()
    assert [(w.start, w.end) for w in sampler.windows] == \
        [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]
    first, second, third = sampler.windows
    assert first.bytes_sent == {"exec-0": 400}
    assert first.requests == {"server-0": 1}
    assert first.latency["pull"]["count"] == 1
    assert first.byte_rate("exec-0") == 400.0
    assert second.bytes_sent == {} and third.bytes_sent == {}
    assert second.latency == {}
    # an idempotent re-check closes nothing more
    sampler.maybe_flush()
    assert len(sampler.windows) == 3


def test_finalize_closes_trailing_partial_window_with_full_width():
    cluster, sampler = _sampler(window=1.0)
    cluster.now = 1.0
    sampler.maybe_flush()
    assert len(sampler.windows) == 1
    cluster.metrics.record_transfer_many(
        [("exec-0", "server-0", 64, "transfer", 1)])
    cluster.now = 1.25
    sampler.finalize()
    assert len(sampler.windows) == 2
    trailing = sampler.windows[-1]
    # aligned width even though the run ended mid-window
    assert (trailing.start, trailing.end) == (1.0, 2.0)
    assert trailing.bytes_sent == {"exec-0": 64}
    # a silent finalize adds nothing
    assert len(sampler.finalize()) == 2


def test_deltas_are_per_window_not_cumulative():
    cluster, sampler = _sampler(window=1.0)
    cluster.metrics.record_transfer_many(
        [("exec-0", "server-0", 100, "transfer", 1)])
    cluster.now = 1.0
    sampler.maybe_flush()
    cluster.metrics.record_transfer_many(
        [("exec-0", "server-0", 250, "transfer", 1)])
    cluster.now = 2.0
    sampler.maybe_flush()
    assert [w.bytes_sent.get("exec-0", 0.0) for w in sampler.windows] == \
        [100.0, 250.0]
    total = sum(w.bytes_sent.get("exec-0", 0.0) for w in sampler.windows)
    assert total == cluster.metrics.bytes_sent["exec-0"]


def test_reads_never_mutate_the_registry():
    cluster, sampler = _sampler(window=1.0)
    cluster.metrics.record_transfer_many(
        [("exec-0", "server-0", 10, "transfer", 1)])
    before = cluster.metrics.snapshot()
    cluster.now = 5.0
    sampler.maybe_flush()
    sampler.finalize()
    assert cluster.metrics.snapshot() == before


def test_bulk_service_records_equal_one_observe_per_entry():
    """``record_service_bulk`` hands the sampler a whole run through
    ``observe_many``: the windows equal one ``observe`` per entry."""
    entries = [("server-0", 2e-6), ("server-0", 2e-6), ("exec-0", 7.5e-5),
               ("server-0", 0.0), ("exec-0", 3e-4)]
    bulk_cluster, bulk = _sampler(window=1.0)
    loop_cluster, loop = _sampler(window=1.0)
    for part in (entries[:2], entries[2:]):
        bulk_cluster.metrics.record_service_bulk(
            "push", [node for node, _s in part], [s for _n, s in part])
        for node, seconds in part:
            loop_cluster.metrics.record_compute(node, seconds, tag="push")
            loop_cluster.metrics.record_request(node)
            loop_cluster.metrics.observe("srv:push", seconds)
        for cluster in (bulk_cluster, loop_cluster):
            cluster.now += 1.0
    windows = [[[getattr(w, slot) for slot in Window.__slots__]
                for w in sampler.finalize()]
               for sampler in (bulk, loop)]
    assert len(windows[0]) == 2 and windows[0] == windows[1]
    assert bulk_cluster.metrics.snapshot() == loop_cluster.metrics.snapshot()
    # An empty run opens no histogram, as an empty observe loop would not.
    bulk.observe_many("srv:push", [])
    assert bulk._open_hists == {}


def test_nic_backlog_and_cache_gauges():
    cluster, sampler = _sampler(window=1.0)
    cluster.network.horizons["server-0"] = (2.5, 0.75)
    cluster.metrics.record_cache_hit("exec-0", bytes_saved=8.0)
    cluster.metrics.record_cache_hit("exec-0")
    cluster.metrics.record_cache_miss("exec-0")
    cluster.now = 1.0
    sampler.maybe_flush()
    window = sampler.windows[0]
    # backlog = how far the worst NIC horizon runs past the boundary
    assert window.nic_backlog == {"server-0": pytest.approx(1.5)}
    assert window.cache_hit_rate() == pytest.approx(2 / 3)
    assert window.cache_hit_rate("exec-0") == pytest.approx(2 / 3)
    assert window.cache_hit_rate("exec-1") == 0.0


def test_series_are_aligned_across_metrics():
    cluster, sampler = _sampler(window=1.0)
    cluster.metrics.record_transfer_many(
        [("exec-0", "server-0", 100, "transfer", 1)])
    cluster.metrics.observe("pull", 0.5)
    cluster.now = 1.0
    sampler.maybe_flush()
    cluster.now = 2.0
    sampler.maybe_flush()  # silent window
    bytes_series = sampler.series("byte_rate", key="exec-0")
    p99_series = sampler.series("latency", key="pull", q="p99")
    hit_series = sampler.series("cache_hit_rate")
    backlog_series = sampler.series("nic_backlog", key="server-0")
    assert [t for t, _v in bytes_series] == [1.0, 2.0]
    assert [t for t, _v in p99_series] == [1.0, 2.0]
    assert len(hit_series) == len(backlog_series) == 2
    assert bytes_series[0][1] == 100.0 and bytes_series[1][1] == 0.0
    assert p99_series[0][1] > 0.0 and p99_series[1][1] == 0.0
    with pytest.raises(ValueError):
        sampler.series("entropy")


# -- integration: real cluster wiring ----------------------------------------


def _run_ops(window):
    ctx = PS2Context(config=ClusterConfig(
        n_executors=2, n_servers=2, seed=5, timeseries_window=window,
    ))
    w = ctx.dense(512, rows=2)
    g = w.derive().fill(0.5)
    w.push(np.arange(512.0))
    w.pull()
    w.dot(g)
    return ctx


def test_cluster_wires_sampler_and_flushes_on_ops():
    ctx = _run_ops(window=1e-4)
    sampler = ctx.cluster.timeseries
    assert sampler is not None
    assert ctx.cluster.metrics.window_sink is sampler
    windows = sampler.finalize()
    assert windows
    for index, w in enumerate(windows):
        assert w.start == pytest.approx(index * 1e-4)
        assert w.end == pytest.approx((index + 1) * 1e-4)
    # the windows partition the cumulative per-node byte counters
    for node, total in ctx.cluster.metrics.bytes_sent.items():
        assert sum(w.bytes_sent.get(node, 0.0) for w in windows) == \
            pytest.approx(total)


def test_cluster_without_window_has_no_sampler():
    ctx = PS2Context(config=ClusterConfig(n_executors=2, n_servers=2,
                                          seed=5))
    assert ctx.cluster.timeseries is None
    assert ctx.cluster.metrics.window_sink is None


def test_report_gains_time_series_section():
    ctx = _run_ops(window=1e-4)
    report = render_report(ctx.cluster, title="ts")
    assert "-- time series" in report
    assert "bytes_per_s" in report
    assert "nic_backlog_s" in report


def test_chrome_counter_events():
    ctx = _run_ops(window=1e-4)
    sampler = ctx.cluster.timeseries
    sampler.finalize()
    events = timeseries_counter_events(sampler, pid=777, process_name="ts")
    assert events[0]["ph"] == "M"
    assert events[0]["args"]["name"] == "ts"
    counters = [e for e in events if e["ph"] == "C"]
    assert counters
    assert all(e["pid"] == 777 for e in events)
    names = {e["name"] for e in counters}
    assert "bytes/s" in names
    # counter timestamps are window starts in virtual microseconds
    starts = {w.start * 1e6 for w in sampler.windows}
    assert {e["ts"] for e in counters} <= starts
