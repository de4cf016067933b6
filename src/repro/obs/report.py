"""Plain-text observability report: a renderer of the metrics snapshot.

:func:`render_report` prints, for one simulated cluster, every section of
:meth:`~repro.cluster.metrics.MetricsRegistry.snapshot` that is keyed by
tag, counter or node — latency per op, traffic per tag (bytes, wire
messages, logical requests), every counter, compute ops per tag, the
per-node worker-cache counts and the codec decisions — through one
keyed-table helper, so a counter the simulator increments reaches the
report without the report naming it.  A header line lists the run's
non-default :class:`~repro.config.ClusterConfig` fields.  A few views
read what the snapshot cannot hold: the per-server load (Figure 4's
single-point bottleneck), the hot shards with the load-imbalance footer,
the hot replica and chain maps, the SLO classes, the time series, and for
traced runs the span summary and the critical path.
"""

from __future__ import annotations

import dataclasses


def format_table(headers, rows, title=None):
    """Render an aligned ASCII table (every cell stringified)."""
    rows = [[str(cell) for cell in row] for row in rows]
    headers = [str(h) for h in headers]
    widths = [
        max(len(headers[i]), max((len(r[i]) for r in rows), default=0))
        for i in range(len(headers))
    ]
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    rule = "-" * len(line)
    out = []
    if title:
        out.extend([title, rule])
    out.extend([line, rule])
    for row in rows:
        out.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(out)


def _seconds(value):
    return "%.6f" % value


def _cell(value):
    """Integral numbers print whole (counts, bytes); other floats print
    to the microsecond."""
    if isinstance(value, float) and not value.is_integer():
        return _seconds(value)
    return "%.0f" % value if isinstance(value, float) else value


def keyed_table(headers, *columns):
    """One row per key of *columns* — dicts over one key space — in key
    order.  A tuple key fills one cell per element; a key a column lacks
    reads 0 there."""
    keys = sorted(set().union(*columns))
    if not keys:
        return "(none)"
    return format_table(headers, [
        (*(key if isinstance(key, tuple) else (key,)),
         *(_cell(column.get(key, 0)) for column in columns))
        for key in keys
    ])


def _non_default(config, prefix=""):
    """``name=value`` for every field of a config dataclass that differs
    from its default, nested configs as ``outer.inner``."""
    default = type(config)()
    fields = []
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if dataclasses.is_dataclass(value):
            fields += _non_default(value, prefix + field.name + ".")
        elif value != getattr(default, field.name):
            fields.append("%s%s=%r" % (prefix, field.name, value))
    return fields


def server_table(cluster):
    """Per-server request counts and busy-time utilization."""
    metrics = cluster.metrics
    makespan = cluster.elapsed()
    rows = []
    for node_id in cluster.servers:
        busy = metrics.compute_seconds.get(node_id, 0.0)
        send_busy, recv_busy = cluster.network.nic_utilization(node_id)
        utilization = busy / makespan if makespan > 0 else 0.0
        rows.append((
            node_id,
            metrics.requests_by_server.get(node_id, 0),
            _seconds(busy),
            "%.1f%%" % (100.0 * utilization),
            _seconds(send_busy),
            _seconds(recv_busy),
        ))
    if not rows:
        return "(no servers)"
    return format_table(
        ["server", "requests", "cpu_busy_s", "cpu_util", "nic_send_s",
         "nic_recv_s"],
        rows,
    )


def hot_shard_table(metrics):
    """The shards the cost model treats as hot
    (:meth:`~repro.cluster.metrics.MetricsRegistry.hot_shards` at its
    one factor), with the server load-imbalance footer.

    The ``bytes`` column is the shard's wire volume (request + response,
    from the message formulas) — the number that says whether a hot shard
    is worth caching, since a shard can be hot by request count while
    moving few bytes (and vice versa).
    """
    hot = metrics.hot_shards()
    peak, mean, ratio = metrics.load_imbalance()
    if hot:
        table = format_table(
            ["matrix", "server", "requests", "values", "bytes", "x_mean"],
            [
                (matrix_id, server_index, requests, "%.0f" % values,
                 "%.0f" % metrics.shard_bytes.get(
                     (matrix_id, server_index), 0.0
                 ),
                 "%.2f" % shard_ratio)
                for matrix_id, server_index, requests, values, shard_ratio
                in hot
            ],
        )
    else:
        table = "(no hot shard)"
    footer = (
        "server load imbalance: max=%d mean=%.1f max/mean=%.2f"
        % (peak, mean, ratio)
    )
    return table + "\n" + footer


def timeseries_table(sampler):
    """Per-window rates and gauges from one time-series sampler.

    One row per closed window: total byte rate, total request rate, the
    window's cache hit rate, the worst per-node NIC backlog at the window
    boundary, and the windowed p99 of the ``pull`` tag (the headline
    client op) when observed.
    """
    if not sampler.windows:
        return "(no closed windows)"
    rows = []
    for w in sampler.windows:
        backlog = max(w.nic_backlog.values()) if w.nic_backlog else 0.0
        pull_p99 = w.latency.get("pull", {}).get("p99", 0.0)
        rows.append((
            "[%s, %s)" % (_seconds(w.start), _seconds(w.end)),
            "%.0f" % sum(w.bytes_sent.values()),
            "%.0f" % (sum(w.bytes_sent.values()) / w.width),
            sum(w.requests.values()),
            "%.1f%%" % (100.0 * w.cache_hit_rate()),
            _seconds(backlog),
            _seconds(pull_p99),
        ))
    return format_table(
        ["window", "bytes", "bytes_per_s", "requests", "cache_hit",
         "nic_backlog_s", "pull_p99_s"],
        rows,
    )


def critical_path_table(tracer):
    """Whole-run and per-stage critical-path attribution (traced runs)."""
    from repro.obs import critical_path as cp

    if not tracer.spans:
        return "(no spans recorded)"
    lines = [cp.analyze(tracer).render(title="run")]
    stages = cp.stage_breakdowns(tracer)
    if stages:
        rows = []
        for span, result in stages:
            top = max(result.categories.items(), key=lambda kv: kv[1])
            rows.append((
                span.op,
                _seconds(result.total),
                "%.1f%%" % (100.0 * result.fraction("compute")),
                "%.1f%%" % (100.0 * result.fraction("network")),
                "%.1f%%" % (100.0 * result.fraction("queueing")),
                top[0],
            ))
        lines.append(format_table(
            ["stage", "makespan_s", "compute", "network", "queueing",
             "dominant"],
            rows,
        ))
    return "\n".join(lines)


def _replica_views(replicas):
    """The hot replica map, the chain map with lag, and the chain
    promotion events."""
    hot = replicas.keys("hot")
    chain = replicas.keys("chain")
    views = [
        ("hot replica map", keyed_table(
            ["matrix", "primary", "replicas"],
            {key: ",".join(map(str, replicas.replica_set(*key))) or "(stale)"
             for key in hot},
        ) + "\nreplica state bytes=%.0f" % replicas.replica_bytes()),
        ("chain map", keyed_table(
            ["matrix", "primary", "successors", "lag"],
            {key: ",".join(map(str, replicas.holders(key, "chain")))
             for key in chain},
            {key: replicas.key_lag(*key) for key in chain},
        )),
    ]
    if replicas.promotions:
        views.append(("chain promotions", format_table(
            ["time_s", "primary", "sources", "matrices"],
            [(_seconds(time), primary_index, ",".join(map(str, sources)),
              ",".join(map(str, matrix_ids)))
             for time, primary_index, sources, matrix_ids
             in replicas.promotions],
        )))
    return views


def render_report(cluster, title="observability report"):
    """The full text report for one cluster."""
    snapshot = cluster.metrics.snapshot()
    latency = snapshot["latency"]
    views = [
        ("per-op latency (virtual seconds)", keyed_table(
            ["op", "count", "p50_s", "p95_s", "p99_s", "max_s"],
            *({tag: s[q] for tag, s in latency.items()}
              for q in ("count", "p50", "p95", "p99", "max")),
        )),
        ("traffic per tag", keyed_table(
            ["tag", "bytes", "wire_msgs", "logical_reqs"],
            snapshot["bytes_by_tag"], snapshot["messages_by_tag"],
            snapshot["logical_messages_by_tag"],
        )),
        ("counters", keyed_table(["counter", "count"], snapshot["counters"])),
        ("compute ops per tag", keyed_table(
            ["tag", "ops"], snapshot["compute_counts"])),
        ("worker cache", keyed_table(
            ["worker", "hits", "misses", "bytes_saved"],
            snapshot["cache_hits"], snapshot["cache_misses"],
            snapshot["cache_bytes_saved"],
        )),
        ("codec decisions", keyed_table(
            ["tag", "codec", "decisions", "bytes_saved"],
            snapshot["codec_decisions"], snapshot["codec_bytes_saved"],
        )),
        ("per-server load", server_table(cluster)),
        ("hot shards", hot_shard_table(cluster.metrics)),
    ]
    if cluster.replicas is not None:
        views += _replica_views(cluster.replicas)
    tracker = cluster.slo
    if tracker is not None:
        views.append(("slo classes", keyed_table(
            ["class", "requests", "violations", "miss_rate"],
            tracker.requests, tracker.violations,
            {c: "%.1f%%" % (100.0 * tracker.violation_rate(c))
             for c in tracker.requests},
        ) + "\nslo target: %s s" % _seconds(tracker.slo_target)))
    sampler = cluster.timeseries
    if sampler is not None:
        sampler.finalize()
        views.append(("time series (%.6f s windows)" % sampler.window,
                      timeseries_table(sampler)))
    tracer = cluster.tracer
    if tracer.enabled:
        by_cat = {}
        for span in tracer.spans:
            by_cat[span.cat] = by_cat.get(span.cat, 0) + 1
        views += [
            ("trace", "%d spans recorded (%s)" % (
                len(tracer.spans),
                ", ".join("%s=%d" % item for item in sorted(by_cat.items()))
                or "none",
            )),
            ("critical path", critical_path_table(tracer)),
        ]
    lines = [
        "== %s ==" % title,
        "virtual makespan: %s s" % _seconds(cluster.elapsed()),
        "config: %s" % (" ".join(_non_default(cluster.config)) or "defaults"),
    ]
    for name, text in views:
        lines += ["", "-- %s --" % name, text]
    return "\n".join(lines)
