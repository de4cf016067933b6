"""Plain-text observability report: where did the virtual time go?

Renders, for one simulated cluster, the three tables the paper's analysis
sections revolve around: per-op latency percentiles (Figure 10-style "why
is one system slower"), per-server utilization (Figure 4's single-point
bottleneck), and hot-shard / load-imbalance telemetry (NuPS-style skew
detection).
"""

from __future__ import annotations


def _format_rows(headers, rows):
    """A fixed-width table (no external deps, stable under tests)."""
    rows = [[str(cell) for cell in row] for row in rows]
    widths = [
        max(len(headers[i]), max((len(r[i]) for r in rows), default=0))
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _seconds(value):
    return "%.6f" % value


def latency_table(metrics):
    """Per-op latency percentiles observed by clients (virtual seconds)."""
    summary = metrics.latency_summary()
    if not summary:
        return "(no latency observations)"
    rows = [
        (tag, s["count"], _seconds(s["p50"]), _seconds(s["p95"]),
         _seconds(s["p99"]), _seconds(s["max"]))
        for tag, s in sorted(summary.items())
    ]
    return _format_rows(
        ["op", "count", "p50_s", "p95_s", "p99_s", "max_s"], rows
    )


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
    return _format_rows(
        ["server", "requests", "cpu_busy_s", "cpu_util", "nic_send_s",
         "nic_recv_s"],
        rows,
    )


def hot_shard_table(metrics, factor=1.5):
    """Shards whose traffic exceeds *factor* x their matrix's mean.

    The ``bytes`` column is the shard's wire volume (request + response,
    from the message formulas) — the number that says whether a hot shard
    is worth caching, since a shard can be hot by request count while
    moving few bytes (and vice versa).
    """
    hot = metrics.hot_shards(factor=factor)
    peak, mean, ratio = metrics.load_imbalance()
    if hot:
        table = _format_rows(
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
        table = "(no shard exceeds %.2fx its matrix mean)" % factor
    footer = (
        "server load imbalance: max=%d mean=%.1f max/mean=%.2f"
        % (peak, mean, ratio)
    )
    return table + "\n" + footer


def transport_table(metrics):
    """Wire vs. logical message counts per tag (coalescing efficiency).

    A coalesced batch is one wire message carrying several logical
    requests; tags where the two counts diverge show where the transport's
    per-server batching saved headers and NIC bookings.
    """
    rows = []
    for tag in sorted(metrics.messages_by_tag):
        wire = metrics.messages_by_tag[tag]
        logical = metrics.logical_messages_by_tag.get(tag, wire)
        if logical == wire:
            continue
        rows.append((tag, wire, logical, "%.2f" % (logical / wire)))
    lines = []
    if rows:
        lines.append(_format_rows(
            ["tag", "wire_msgs", "logical_reqs", "reqs_per_msg"], rows
        ))
    else:
        lines.append("(no coalesced traffic)")
    batches = metrics.counters.get("coalesced-batches", 0)
    if batches:
        lines.append(
            "coalesced %d requests into %d batch envelopes"
            % (metrics.counters.get("coalesced-requests", 0), batches)
        )
    decisions = metrics.codec_decisions
    if decisions:
        saved = metrics.codec_bytes_saved
        lines.append(_format_rows(
            ["tag", "codec", "decisions", "bytes_saved"],
            [
                (tag, codec, decisions[(tag, codec)],
                 "%.0f" % saved.get((tag, codec), 0.0))
                for tag, codec in sorted(decisions)
            ],
        ))
        total = sum(saved.values())
        lines.append("codec wire bytes saved: %.0f" % total)
    return "\n".join(lines)


def consistency_table(cluster):
    """Staleness histogram and worker-cache hit rates (SSP/ASP runs).

    Under BSP both are structurally empty (no logical clocks, no cache);
    the placeholder lines keep the report shape stable across models.
    """
    metrics = cluster.metrics
    model = cluster.consistency
    lines = ["model: %s" % model.name]
    staleness = getattr(model, "staleness", None)
    if staleness is not None:
        lines[0] += " (staleness=%d)" % staleness

    rows = []
    for tag in ("staleness-wait", "staleness-clocks"):
        hist = metrics.latency.get(tag)
        if hist is None:
            continue
        s = hist.summary()
        rows.append((
            tag, s["count"], "%.6f" % s["p50"], "%.6f" % s["p95"],
            "%.6f" % s["max"],
        ))
    if rows:
        lines.append(_format_rows(
            ["observation", "count", "p50", "p95", "max"], rows
        ))
    else:
        lines.append("(no staleness observations)")
    waits = metrics.counters.get("staleness-waits", 0)
    if waits:
        lines.append("ssp gate blocked a worker %d time(s)" % waits)

    nodes = sorted(set(metrics.cache_hits) | set(metrics.cache_misses))
    if nodes:
        cache_rows = []
        for node_id in nodes:
            hits = metrics.cache_hits.get(node_id, 0)
            misses = metrics.cache_misses.get(node_id, 0)
            total = hits + misses
            cache_rows.append((
                node_id, hits, misses,
                "%.1f%%" % (100.0 * hits / total if total else 0.0),
                "%.0f" % metrics.cache_bytes_saved.get(node_id, 0.0),
            ))
        lines.append(_format_rows(
            ["worker", "hits", "misses", "hit_rate", "bytes_saved"],
            cache_rows,
        ))
    else:
        lines.append("(worker cache inactive)")
    fences = metrics.counters.get("cache-epoch-fences", 0)
    if fences:
        lines.append("recovery epoch fences dropped cached rows %d time(s)"
                     % fences)
    return "\n".join(lines)


def replication_table(cluster):
    """Hot-key replication activity: replica map, routing and fan-out.

    With replication off the section is a stable one-line placeholder, so
    the report keeps its shape across the knob.  The replica map rows list
    the currently replicated (matrix, primary) shard keys with their valid
    replica sets; the counters below tell how the machinery behaved —
    reads rerouted to replicas, mutations fanned out, fan-outs fenced or
    skipped by the version machinery, promotions/demotions per sweep.
    """
    manager = cluster.replicas
    if manager is None or manager.mode == "off":
        return "(replication off)"
    metrics = cluster.metrics
    lines = [
        "mode: %s (fraction=%.2f, factor=%d, interval=%s)" % (
            manager.mode, manager.hot_key_fraction,
            manager.replication_factor, _seconds(manager.rebalance_interval),
        )
    ]
    keys = manager.keys("hot")
    if keys:
        lines.append(_format_rows(
            ["matrix", "primary", "replicas"],
            [
                (matrix_id, primary_index,
                 ",".join(str(r) for r in
                          manager.replica_set(matrix_id, primary_index))
                 or "(stale)")
                for matrix_id, primary_index in keys
            ],
        ))
    else:
        lines.append("(no keys currently replicated)")
    counters = metrics.counters
    lines.append(
        "sweeps=%d promotions=%d demotions=%d reinstalls=%d"
        % (counters.get("rebalance-sweeps", 0),
           counters.get("replica-promotions", 0),
           counters.get("replica-demotions", 0),
           counters.get("replica-reinstalls", 0))
    )
    lines.append(
        "replica reads=%d fan-outs=%d (fenced=%d skipped=%d)"
        % (counters.get("replica-reads", 0),
           counters.get("replica-fanouts", 0),
           counters.get("replica-fanout-fenced", 0),
           counters.get("replica-fanout-skipped", 0))
    )
    lines.append(
        "migration bytes=%.0f replica state bytes=%.0f"
        % (metrics.bytes_for_tag("replica-migrate"),
           manager.replica_bytes())
    )
    return "\n".join(lines)


def chain_table(cluster):
    """Chain-replication activity: chain map, lag, promotions, fallbacks.

    With the chain off the section is a stable one-line placeholder, so
    the report keeps its shape across the knob.  The chain map rows list
    every (matrix, primary) key with its ring successors and the worst
    per-row counter lag of any valid copy (0 = fully caught up); the
    counters below tell how the machinery behaved — full and incremental
    syncs, write fan-outs (with the fence/skip splits shared with hot-key
    replication), reads served by successors of a dead primary,
    promotions and checkpoint fallbacks — followed by one row per
    promotion event.
    """
    chain = cluster.replicas
    if chain is None or not chain.m:
        return "(chain replication off)"
    metrics = cluster.metrics
    lines = ["successors per primary: %d (ring order over live servers)"
             % chain.m]
    keys = chain.keys("chain")
    if keys:
        lines.append(_format_rows(
            ["matrix", "primary", "successors", "lag"],
            [
                (matrix_id, primary_index,
                 ",".join(str(s) for s in
                          chain.holders((matrix_id, primary_index), "chain")),
                 chain.key_lag(matrix_id, primary_index))
                for matrix_id, primary_index in keys
            ],
        ))
    else:
        lines.append("(no chains formed)")
    counters = metrics.counters
    lines.append(
        "syncs=%d row-syncs=%d reforms=%d direct-write-resyncs=%d"
        % (counters.get("chain-syncs", 0),
           counters.get("chain-row-syncs", 0),
           counters.get("chain-reforms", 0),
           counters.get("chain-direct-write-resyncs", 0))
    )
    lines.append(
        "chain reads=%d fan-outs=%d (fenced=%d skipped=%d) "
        "promotions=%d fallbacks=%d"
        % (counters.get("chain-reads", 0),
           counters.get("chain-fanouts", 0),
           counters.get("replica-fanout-fenced", 0),
           counters.get("replica-fanout-skipped", 0),
           counters.get("chain-promotions", 0),
           counters.get("chain-fallbacks", 0))
    )
    lines.append(
        "sync bytes=%.0f promote bytes=%.0f"
        % (metrics.bytes_for_tag("chain-sync"),
           metrics.bytes_for_tag("chain-promote"))
    )
    if chain.promotions:
        lines.append(_format_rows(
            ["time_s", "primary", "sources", "matrices"],
            [
                (_seconds(time), primary_index,
                 ",".join(str(s) for s in sources),
                 ",".join(str(m) for m in matrix_ids))
                for time, primary_index, sources, matrix_ids
                in chain.promotions
            ],
        ))
    return "\n".join(lines)


def serving_table(cluster):
    """Per-request-class SLO accounting plus elasticity activity.

    Rendered only for runs that installed an
    :class:`~repro.serving.slo.SLOTracker` (``cluster.slo``).  The
    percentile columns are cumulative run-level numbers; windowed views
    live in the time-series section.  The footer lines summarize the
    lazy-table and elastic machinery: rows materialized by
    ``get_or_create``, resizes performed, shard slices migrated and the
    wire bytes the migrations cost.
    """
    tracker = cluster.slo
    if tracker is None:
        return "(serving tier inactive)"
    metrics = cluster.metrics
    summary = tracker.summary()
    lines = []
    if summary:
        lines.append(_format_rows(
            ["class", "requests", "violations", "miss_rate", "p50_s",
             "p95_s", "p99_s"],
            [
                (request_class, s["requests"], s["violations"],
                 "%.1f%%" % (100.0 * s["violation_rate"]),
                 _seconds(s["p50"]), _seconds(s["p95"]), _seconds(s["p99"]))
                for request_class, s in summary.items()
            ],
        ))
    else:
        lines.append("(no serving requests observed)")
    if tracker.slo_target > 0:
        lines.append("slo target: %s s" % _seconds(tracker.slo_target))
    counters = metrics.counters
    lines.append(
        "lazy rows created=%d elastic resizes=%d (up=%d down=%d)"
        % (counters.get("lazy-creates", 0),
           counters.get("elastic-resizes", 0),
           counters.get("autoscale-up", 0),
           counters.get("autoscale-down", 0))
    )
    migrated = counters.get("migrated-shard-slices", 0)
    if migrated:
        lines.append(
            "shard migration: %d slices, %.0f wire bytes"
            % (migrated, metrics.bytes_for_tag("shard-migrate"))
        )
    return "\n".join(lines)


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
    return _format_rows(
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
        lines.append(_format_rows(
            ["stage", "makespan_s", "compute", "network", "queueing",
             "dominant"],
            rows,
        ))
    return "\n".join(lines)


def render_report(cluster, title="observability report"):
    """The full text report for one cluster."""
    tracer = cluster.tracer
    sections = [
        "== %s ==" % title,
        "virtual makespan: %s s" % _seconds(cluster.elapsed()),
        "",
        "-- per-op latency (client-observed, virtual seconds) --",
        latency_table(cluster.metrics),
        "",
        "-- per-server load --",
        server_table(cluster),
        "",
        "-- hot shards --",
        hot_shard_table(cluster.metrics),
        "",
        "-- transport coalescing --",
        transport_table(cluster.metrics),
        "",
        "-- consistency & worker cache --",
        consistency_table(cluster),
        "",
        "-- hot-key replication --",
        replication_table(cluster),
        "",
        "-- chain replication --",
        chain_table(cluster),
    ]
    if cluster.slo is not None:
        sections += [
            "",
            "-- serving tier --",
            serving_table(cluster),
        ]
    sampler = cluster.timeseries
    if sampler is not None:
        sampler.finalize()
        sections += [
            "",
            "-- time series (%.6f s windows) --" % sampler.window,
            timeseries_table(sampler),
        ]
    if tracer.enabled:
        by_cat = {}
        for span in tracer.spans:
            by_cat[span.cat] = by_cat.get(span.cat, 0) + 1
        sections += [
            "",
            "-- trace --",
            "%d spans recorded (%s)" % (
                len(tracer.spans),
                ", ".join(
                    "%s=%d" % (cat, n) for cat, n in sorted(by_cat.items())
                ) or "none",
            ),
            "",
            "-- critical path --",
            critical_path_table(tracer),
        ]
    return "\n".join(sections)
