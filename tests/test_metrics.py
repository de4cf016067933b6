"""Unit tests for the metrics registry."""

from repro.cluster.metrics import MetricsRegistry


def test_record_transfer_accounts_both_sides():
    m = MetricsRegistry()
    m.record_transfer_many([("a", "b", 100, "x", 3)])
    assert m.bytes_sent["a"] == 100
    assert m.bytes_received["b"] == 100
    assert m.bytes_for_tag("x") == 100
    assert m.messages_by_tag["x"] == 1
    assert m.logical_messages_by_tag["x"] == 3


def test_totals():
    m = MetricsRegistry()
    m.record_transfer_many([("a", "b", 100, "x", 1), ("b", "a", 50, "y", 1)])
    assert m.total_bytes() == 150
    assert m.total_messages() == 2


def test_unknown_tag_is_zero():
    assert MetricsRegistry().bytes_for_tag("never") == 0.0


def test_record_compute():
    m = MetricsRegistry()
    m.record_compute("n", 0.5, tag="work")
    m.record_compute("n", 0.25, tag="work")
    assert m.compute_seconds["n"] == 0.75
    assert m.compute_counts["work"] == 2


def test_compute_counts_do_not_collide_with_increment():
    # Regression: record_compute used to write "compute:<tag>" into the
    # same dict as free-form increment names, so a user counter named
    # "compute:work" was silently polluted by compute accounting.
    m = MetricsRegistry()
    m.increment("compute:work", 7)
    m.record_compute("n", 0.5, tag="work")
    assert m.counters["compute:work"] == 7
    assert m.compute_counts["work"] == 1


def test_increment():
    m = MetricsRegistry()
    m.increment("retries")
    m.increment("retries", 4)
    assert m.counters["retries"] == 5


def test_snapshot_is_detached():
    m = MetricsRegistry()
    m.record_transfer_many([("a", "b", 10, "t", 1)])
    snap = m.snapshot()
    m.record_transfer_many([("a", "b", 10, "t", 1)])
    assert snap["bytes_by_tag"]["t"] == 10
    assert m.bytes_for_tag("t") == 20


def test_snapshot_has_new_sections():
    m = MetricsRegistry()
    m.record_compute("n", 0.5, tag="work")
    m.record_request("server-0")
    m.record_shard_access(3, 1, 40)
    snap = m.snapshot()
    assert snap["compute_counts"]["work"] == 1
    assert snap["requests_by_server"]["server-0"] == 1
    assert snap["shard_requests"][(3, 1)] == 1
    assert snap["shard_values"][(3, 1)] == 40.0


def test_request_counts_and_load_imbalance():
    m = MetricsRegistry()
    for _ in range(9):
        m.record_request("server-0")
    m.record_request("server-1")
    peak, mean, ratio = m.load_imbalance()
    assert peak == 9
    assert mean == 5.0
    assert ratio == 1.8


def test_load_imbalance_empty_registry():
    assert MetricsRegistry().load_imbalance() == (0, 0.0, 1.0)


def test_hot_shards_flags_skewed_shard():
    m = MetricsRegistry()
    # Matrix 0: shard 2 sees 10x the traffic of its siblings (heat is
    # bytes: 80 per access of 10 values).
    for server in range(4):
        m.record_shard_access(0, server, 10, nbytes=80.0)
    for _ in range(39):
        m.record_shard_access(0, 2, 10, nbytes=80.0)
    # Matrix 1 is perfectly balanced: no hot shard there.
    for server in range(4):
        m.record_shard_access(1, server, 10, nbytes=80.0)
    hot = m.hot_shards(factor=2.0)
    assert len(hot) == 1
    matrix_id, server_index, requests, values, ratio = hot[0]
    assert (matrix_id, server_index) == (0, 2)
    assert requests == 40
    assert ratio > 3.0


def test_snapshot_includes_tagged_requests_and_latency():
    # Regression: snapshot() used to omit the latency summaries entirely,
    # so phase diffs silently lost them.
    m = MetricsRegistry()
    m.record_request("server-0")
    m.record_request("server-0")
    m.observe("pull", 0.25)
    snap = m.snapshot()
    assert snap["requests_by_server"]["server-0"] == 2
    assert snap["latency"]["pull"]["count"] == 1
    assert snap["latency"]["pull"]["max"] == 0.25


def test_hot_shards_query_does_not_mutate():
    # Regression: the .get()-free implementation inserted zero entries into
    # the shard_requests/shard_values defaultdicts while *reading*, so a
    # report rendered between two snapshots changed the second snapshot.
    m = MetricsRegistry()
    m.record_shard_access(0, 0, n_values=100, n_requests=10, nbytes=800.0)
    m.record_shard_access(0, 1, n_values=10, n_requests=1, nbytes=80.0)
    # a shard hot by byte heat that never recorded a request count: the
    # old defaultdict lookup inserted a zero entry for it while reading
    m.shard_bytes[(0, 2)] = 9000.0
    before = m.snapshot()
    hot = m.hot_shards(factor=1.5)
    assert [(mat, shard) for mat, shard, _, _, _ in hot] == [(0, 2)]
    assert m.snapshot() == before
    assert set(m.shard_requests) == {(0, 0), (0, 1)}
    assert set(m.shard_values) == {(0, 0), (0, 1)}


def test_observe_builds_percentiles():
    m = MetricsRegistry()
    for value in range(1, 101):
        m.observe("pull", value / 1000.0)
    summary = m.latency_summary()["pull"]
    assert summary["count"] == 100
    assert summary["p50"] < summary["p95"] < summary["p99"] <= summary["max"]
    assert m.percentile("pull", 50) == summary["p50"]
    assert m.percentile("never-observed", 99) == 0.0
